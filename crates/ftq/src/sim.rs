//! FTQ as a simulated workload, plus the extraction of its sample
//! series from a trace.
//!
//! The workload computes in fixed wall-clock quanta and emits one
//! user-space tracepoint per quantum carrying the operation count —
//! exactly what the real benchmark writes to its sample buffer. The
//! quantum boundary includes a `clock_gettime`, as the real FTQ reads
//! the clock each iteration.

use osn_kernel::time::Nanos;
use osn_kernel::workload::{Action, Outcome, Workload, WorkloadCtx};
use osn_trace::{EventKind, Trace};

use crate::series::FtqSeries;

/// Mark id used for FTQ per-quantum samples.
pub const FTQ_MARK: u32 = 0xF7;

/// FTQ parameters.
#[derive(Clone, Copy, Debug)]
pub struct FtqParams {
    /// Quantum length `T` (Sottile & Minnich default is ~1 ms).
    pub quantum: Nanos,
    /// Number of quanta to sample.
    pub samples: u32,
    /// Cost of one basic operation.
    pub op_cost: Nanos,
    /// Whether the loop reads the clock through a syscall at each
    /// boundary (2.6-era gettime).
    pub gettime_per_quantum: bool,
    /// The sample buffer is demand-paged: writing results crosses a
    /// page boundary every this many quanta, faulting in a fresh page
    /// (the paper's Fig 1d: "smaller spikes ... caused by page
    /// faults"). 0 disables the buffer.
    pub quanta_per_page: u32,
}

impl Default for FtqParams {
    fn default() -> Self {
        FtqParams {
            quantum: Nanos::from_millis(1),
            samples: 3_000,
            op_cost: Nanos(25),
            gettime_per_quantum: false,
            quanta_per_page: 512,
        }
    }
}

/// The simulated FTQ benchmark.
pub struct FtqWorkload {
    params: FtqParams,
    state: FtqState,
    quantum_idx: u32,
    origin: Option<Nanos>,
    buffer: Option<osn_kernel::ids::RegionId>,
    buffer_page: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FtqState {
    Start,
    MapBuffer,
    /// Spin until the aligned origin (discarded work, as the real
    /// benchmark discards its first partial quantum).
    Warmup,
    Compute,
    Sample,
    TouchBuffer,
    Gettime,
    Done,
}

impl FtqWorkload {
    pub fn new(params: FtqParams) -> Self {
        FtqWorkload {
            params,
            state: FtqState::Start,
            quantum_idx: 0,
            origin: None,
            buffer: None,
            buffer_page: 0,
        }
    }

    fn boundary(&self, idx: u32) -> Nanos {
        self.origin.expect("origin set at start") + self.params.quantum * (idx as u64 + 1)
    }
}

impl Workload for FtqWorkload {
    fn name(&self) -> &'static str {
        "ftq"
    }

    fn cache_factor(&self) -> f64 {
        0.6 // a tiny arithmetic loop: very cache friendly
    }

    fn next(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        loop {
            match self.state {
                FtqState::Start => {
                    self.state = FtqState::MapBuffer;
                    if self.params.quanta_per_page > 0 {
                        let pages =
                            (self.params.samples as u64 / self.params.quanta_per_page as u64) + 2;
                        return Action::Mmap {
                            backing: osn_kernel::mm::Backing::AnonFresh,
                            pages,
                        };
                    }
                }
                FtqState::MapBuffer => {
                    if let Outcome::Mapped(r) = ctx.outcome {
                        self.buffer = Some(r);
                    }
                    // Align the origin to the next quantum boundary and
                    // spin out the partial quantum before it.
                    let q = self.params.quantum.as_nanos();
                    let aligned = Nanos((ctx.now.as_nanos() / q + 1) * q);
                    self.origin = Some(aligned);
                    self.state = FtqState::Warmup;
                    return Action::ComputeUntil { wall: aligned };
                }
                FtqState::Warmup => {
                    self.state = FtqState::Compute;
                }
                FtqState::Compute => {
                    if self.quantum_idx >= self.params.samples {
                        self.state = FtqState::Done;
                        continue;
                    }
                    self.state = FtqState::Sample;
                    return Action::ComputeUntil {
                        wall: self.boundary(self.quantum_idx),
                    };
                }
                FtqState::Sample => {
                    let user = match ctx.outcome {
                        Outcome::Computed { user } => user,
                        other => {
                            debug_assert!(false, "expected Computed, got {other:?}");
                            Nanos::ZERO
                        }
                    };
                    // Whole operations only: the discretization that
                    // makes FTQ overestimate (§III-C).
                    let ops = user / self.params.op_cost;
                    let crosses_page = self.buffer.is_some()
                        && self.params.quanta_per_page > 0
                        && self.quantum_idx % self.params.quanta_per_page
                            == self.params.quanta_per_page - 1;
                    self.state = if crosses_page {
                        FtqState::TouchBuffer
                    } else if self.params.gettime_per_quantum {
                        FtqState::Gettime
                    } else {
                        FtqState::Compute
                    };
                    self.quantum_idx += 1;
                    return Action::Mark {
                        mark: FTQ_MARK,
                        value: ops,
                    };
                }
                FtqState::TouchBuffer => {
                    self.state = if self.params.gettime_per_quantum {
                        FtqState::Gettime
                    } else {
                        FtqState::Compute
                    };
                    let page = self.buffer_page;
                    self.buffer_page += 1;
                    return Action::Touch {
                        region: self.buffer.expect("buffer mapped"),
                        first_page: page,
                        pages: 1,
                        work_per_page: Nanos(60),
                    };
                }
                FtqState::Gettime => {
                    self.state = FtqState::Compute;
                    return Action::Gettime;
                }
                FtqState::Done => return Action::Exit,
            }
        }
    }
}

/// Rebuild the FTQ series from the marks in a trace.
///
/// `op_cost` and `quantum` must match the run's parameters (they are
/// workload inputs, not trace contents — as with the real benchmark,
/// where they live in the output file header).
pub fn series_from_trace(trace: &Trace, params: &FtqParams) -> Option<FtqSeries> {
    let mut ops = Vec::new();
    let mut first_mark: Option<Nanos> = None;
    for e in &trace.events() {
        if let EventKind::AppMark { mark, value } = e.kind {
            if mark == FTQ_MARK {
                first_mark.get_or_insert(e.t);
                ops.push(value);
            }
        }
    }
    if ops.is_empty() {
        return None;
    }
    // Quantum i's mark fires at its end: origin = first_mark − T.
    let origin = first_mark.unwrap().saturating_sub(params.quantum);
    Some(FtqSeries {
        origin,
        quantum: params.quantum,
        op_cost: params.op_cost,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::config::NodeConfig;
    use osn_kernel::node::Node;
    use osn_trace::session::TraceSession;

    fn run_ftq(params: FtqParams, cpus: u16, seed: u64) -> (Trace, osn_kernel::node::RunResult) {
        let horizon = params.quantum * (params.samples as u64 + 10) + Nanos::from_millis(5);
        let cfg = NodeConfig::default()
            .with_cpus(cpus)
            .with_horizon(horizon)
            .with_seed(seed);
        let mut node = Node::new(cfg);
        node.spawn_process("ftq", Box::new(FtqWorkload::new(params)));
        let (session, mut tracer) = TraceSession::with_defaults(cpus as usize);
        let result = node.run(&mut tracer);
        (session.stop(), result)
    }

    #[test]
    fn ftq_produces_expected_sample_count() {
        let params = FtqParams {
            samples: 50,
            ..FtqParams::default()
        };
        let (trace, _) = run_ftq(params, 1, 9);
        let series = series_from_trace(&trace, &params).expect("series");
        assert_eq!(series.ops.len(), 50);
    }

    #[test]
    fn quanta_lose_ops_to_ticks() {
        // 1 ms quanta on a 100 Hz tick: every 10th quantum contains a
        // tick and loses operations.
        let params = FtqParams {
            samples: 100,
            ..FtqParams::default()
        };
        let (trace, _) = run_ftq(params, 1, 10);
        let series = series_from_trace(&trace, &params).expect("series");
        let noise = series.noise_estimate();
        let spiky = noise.iter().filter(|n| **n > Nanos(500)).count();
        // ~10 ticks in 100 ms → ~10 spiky quanta (plus scheduler work).
        assert!(
            (5..=40).contains(&spiky),
            "{spiky} spiky quanta, noise {:?}",
            &noise[..20]
        );
        // Most quanta are clean.
        let clean = noise.iter().filter(|n| n.is_zero()).count();
        assert!(clean > 40, "only {clean} clean quanta");
    }

    #[test]
    fn gettime_variant_emits_syscalls() {
        let params = FtqParams {
            samples: 20,
            gettime_per_quantum: true,
            ..FtqParams::default()
        };
        let (trace, _) = run_ftq(params, 1, 11);
        let gettimes = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::KernelEnter(osn_kernel::activity::Activity::Syscall(
                        osn_kernel::activity::SyscallKind::Gettime
                    ))
                )
            })
            .count();
        assert_eq!(gettimes, 20);
    }

    #[test]
    fn no_marks_means_no_series() {
        let trace = Trace::default();
        assert!(series_from_trace(&trace, &FtqParams::default()).is_none());
    }
}
