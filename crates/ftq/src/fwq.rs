//! FWQ — Fixed Work Quantum, FTQ's companion microbenchmark (Sottile &
//! Minnich, CLUSTER'04).
//!
//! Where FTQ fixes the *time* quantum and counts work, FWQ fixes the
//! *work* per iteration and measures how long it takes: iteration
//! wall-times above the minimum are the OS noise that landed in that
//! iteration. FWQ is simpler to interpret (no discretization error)
//! but loses FTQ's fixed time base.

use osn_kernel::time::Nanos;
use osn_kernel::workload::{Action, Outcome, Workload, WorkloadCtx};
use osn_trace::{EventKind, Trace};

/// Mark id used for FWQ per-iteration samples.
pub const FWQ_MARK: u32 = 0xF8;

/// FWQ parameters.
#[derive(Clone, Copy, Debug)]
pub struct FwqParams {
    /// Fixed work per iteration.
    pub work: Nanos,
    /// Number of iterations.
    pub samples: u32,
}

impl Default for FwqParams {
    fn default() -> Self {
        FwqParams {
            work: Nanos::from_millis(1),
            samples: 3_000,
        }
    }
}

/// The simulated FWQ benchmark: computes `work`, reads the clock, and
/// records the iteration's wall time.
pub struct FwqWorkload {
    params: FwqParams,
    iter: u32,
    started: Option<Nanos>,
    state: FwqState,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FwqState {
    Work,
    Sample,
    Done,
}

impl FwqWorkload {
    pub fn new(params: FwqParams) -> Self {
        FwqWorkload {
            params,
            iter: 0,
            started: None,
            state: FwqState::Work,
        }
    }
}

impl Workload for FwqWorkload {
    fn name(&self) -> &'static str {
        "fwq"
    }

    fn cache_factor(&self) -> f64 {
        0.6
    }

    fn next(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        loop {
            match self.state {
                FwqState::Work => {
                    if self.iter >= self.params.samples {
                        self.state = FwqState::Done;
                        continue;
                    }
                    self.started = Some(ctx.now);
                    self.state = FwqState::Sample;
                    return Action::Compute {
                        work: self.params.work,
                    };
                }
                FwqState::Sample => {
                    debug_assert!(matches!(ctx.outcome, Outcome::Done));
                    let started = self.started.expect("work started");
                    let wall = ctx.now - started;
                    self.iter += 1;
                    self.state = FwqState::Work;
                    return Action::Mark {
                        mark: FWQ_MARK,
                        value: wall.as_nanos(),
                    };
                }
                FwqState::Done => return Action::Exit,
            }
        }
    }
}

/// A completed FWQ run: wall time per fixed-work iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct FwqSeries {
    pub work: Nanos,
    /// Wall time of each iteration.
    pub walls: Vec<Nanos>,
}

impl FwqSeries {
    /// Per-iteration noise: wall time above the fixed work. (Unlike
    /// FTQ there is no discretization: the baseline is exact.)
    pub fn noise(&self) -> Vec<Nanos> {
        self.walls
            .iter()
            .map(|w| w.saturating_sub(self.work))
            .collect()
    }

    pub fn total_noise(&self) -> Nanos {
        self.noise().into_iter().sum()
    }

    /// Iterations whose noise exceeds `threshold`.
    pub fn spikes(&self, threshold: Nanos) -> Vec<(usize, Nanos)> {
        self.noise()
            .into_iter()
            .enumerate()
            .filter(|(_, n)| *n > threshold)
            .collect()
    }
}

/// Rebuild the FWQ series from a trace's marks.
pub fn fwq_series_from_trace(trace: &Trace, params: &FwqParams) -> Option<FwqSeries> {
    let walls: Vec<Nanos> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::AppMark { mark, value } if mark == FWQ_MARK => Some(Nanos(value)),
            _ => None,
        })
        .collect();
    if walls.is_empty() {
        None
    } else {
        Some(FwqSeries {
            work: params.work,
            walls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::config::NodeConfig;
    use osn_kernel::node::Node;
    use osn_trace::session::TraceSession;

    #[test]
    fn fwq_measures_exact_noise() {
        let params = FwqParams {
            work: Nanos::from_millis(1),
            samples: 100,
        };
        let cfg = NodeConfig::default()
            .with_cpus(1)
            .with_seed(5)
            .with_horizon(Nanos::from_millis(200));
        let mut node = Node::new(cfg);
        node.spawn_process("fwq", Box::new(FwqWorkload::new(params)));
        let (session, mut tracer) = TraceSession::with_defaults(1);
        node.run(&mut tracer);
        let trace = session.stop();
        let series = fwq_series_from_trace(&trace, &params).expect("series");
        assert_eq!(series.walls.len(), 100);
        // Every iteration takes at least the fixed work.
        assert!(series.walls.iter().all(|w| *w >= params.work));
        // ~10 ticks in 100 ms of work: some iterations are noisy,
        // most are perfectly clean.
        let noise = series.noise();
        let clean = noise.iter().filter(|n| n.is_zero()).count();
        assert!(clean > 50, "only {clean} clean iterations");
        assert!(series.total_noise() > Nanos::ZERO);
        assert!(!series.spikes(Nanos(500)).is_empty());
    }

    #[test]
    fn empty_trace_gives_no_series() {
        assert!(fwq_series_from_trace(&Trace::default(), &FwqParams::default()).is_none());
    }

    #[test]
    fn noise_is_wall_minus_work() {
        let s = FwqSeries {
            work: Nanos(1000),
            walls: vec![Nanos(1000), Nanos(1500), Nanos(999)],
        };
        assert_eq!(s.noise(), vec![Nanos(0), Nanos(500), Nanos(0)]);
        assert_eq!(s.total_noise(), Nanos(500));
        assert_eq!(s.spikes(Nanos(100)), vec![(1, Nanos(500))]);
    }
}
