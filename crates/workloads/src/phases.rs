//! A fluent builder for phase-structured workloads.
//!
//! [`SequoiaWorkload`](crate::SequoiaWorkload) hard-codes the BSP shape
//! of the paper's benchmarks; this module lets downstream users compose
//! *arbitrary* phase programs — including nested loops — without
//! writing a workload state machine:
//!
//! ```
//! use osn_kernel::mm::Backing;
//! use osn_kernel::time::Nanos;
//! use osn_workloads::phases::PhaseProgram;
//!
//! let program = PhaseProgram::builder()
//!     .read(4 << 20)                      // load the input deck
//!     .alloc_touch(Backing::AnonFresh, 1_000, Nanos(800))
//!     .repeat(100, |iter| {
//!         iter.alloc_touch_free(Backing::AnonRecycled, 50, Nanos(600))
//!             .compute(Nanos::from_millis(20))
//!             .write_buffered(32 << 10)
//!             .barrier()
//!     })
//!     .write(1 << 20)                     // final output
//!     .build("my_app");
//! ```
//!
//! The resulting [`PhaseWorkload`] implements
//! [`Workload`] and can be handed to
//! `Node::spawn_job` / `spawn_process` like any other.

use osn_kernel::ids::RegionId;
use osn_kernel::mm::Backing;
use osn_kernel::time::Nanos;
use osn_kernel::workload::{Action, Outcome, Workload, WorkloadCtx};

/// One phase of a program.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Pure compute, optionally jittered by ± the given fraction.
    Compute { work: Nanos, jitter: f64 },
    /// Map a region and touch all its pages (kept mapped).
    AllocTouch {
        backing: Backing,
        pages: u64,
        work_per_page: Nanos,
    },
    /// Map, touch, and free a region (the steady-state fault stream).
    AllocTouchFree {
        backing: Backing,
        pages: u64,
        work_per_page: Nanos,
    },
    /// Blocking NFS read.
    Read { bytes: u64 },
    /// Synchronous NFS write.
    Write { bytes: u64 },
    /// Buffered (writeback) NFS write.
    WriteBuffered { bytes: u64 },
    /// Voluntary sleep.
    Sleep { dur: Nanos },
    /// Job barrier.
    Barrier,
    /// User tracepoint.
    Mark { mark: u32, value: u64 },
    /// Repeat the nested phases `count` times.
    Loop { count: u64, body: Vec<Phase> },
}

/// An immutable phase program; clone it for each rank.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseProgram {
    pub name: &'static str,
    pub phases: Vec<Phase>,
}

impl PhaseProgram {
    pub fn builder() -> PhaseBuilder {
        PhaseBuilder { phases: Vec::new() }
    }

    /// Instantiate a runnable workload from this program.
    pub fn instantiate(&self) -> PhaseWorkload {
        PhaseWorkload::new(self.clone())
    }

    /// Total phases including loop bodies (× their counts): a size
    /// estimate for sanity checks.
    pub fn total_steps(&self) -> u64 {
        fn count(phases: &[Phase]) -> u64 {
            phases
                .iter()
                .map(|p| match p {
                    Phase::Loop { count: n, body } => n * count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.phases)
    }
}

/// The fluent builder.
pub struct PhaseBuilder {
    phases: Vec<Phase>,
}

impl PhaseBuilder {
    pub fn compute(mut self, work: Nanos) -> Self {
        self.phases.push(Phase::Compute { work, jitter: 0.0 });
        self
    }

    /// Compute with per-execution jitter of ± `fraction`.
    pub fn compute_jittered(mut self, work: Nanos, fraction: f64) -> Self {
        self.phases.push(Phase::Compute {
            work,
            jitter: fraction,
        });
        self
    }

    pub fn alloc_touch(mut self, backing: Backing, pages: u64, work_per_page: Nanos) -> Self {
        self.phases.push(Phase::AllocTouch {
            backing,
            pages,
            work_per_page,
        });
        self
    }

    pub fn alloc_touch_free(mut self, backing: Backing, pages: u64, work_per_page: Nanos) -> Self {
        self.phases.push(Phase::AllocTouchFree {
            backing,
            pages,
            work_per_page,
        });
        self
    }

    pub fn read(mut self, bytes: u64) -> Self {
        self.phases.push(Phase::Read { bytes });
        self
    }

    pub fn write(mut self, bytes: u64) -> Self {
        self.phases.push(Phase::Write { bytes });
        self
    }

    pub fn write_buffered(mut self, bytes: u64) -> Self {
        self.phases.push(Phase::WriteBuffered { bytes });
        self
    }

    pub fn sleep(mut self, dur: Nanos) -> Self {
        self.phases.push(Phase::Sleep { dur });
        self
    }

    pub fn barrier(mut self) -> Self {
        self.phases.push(Phase::Barrier);
        self
    }

    pub fn mark(mut self, mark: u32, value: u64) -> Self {
        self.phases.push(Phase::Mark { mark, value });
        self
    }

    /// Repeat a nested block `count` times.
    pub fn repeat(mut self, count: u64, body: impl FnOnce(PhaseBuilder) -> PhaseBuilder) -> Self {
        let inner = body(PhaseBuilder { phases: Vec::new() });
        self.phases.push(Phase::Loop {
            count,
            body: inner.phases,
        });
        self
    }

    pub fn build(self, name: &'static str) -> PhaseProgram {
        PhaseProgram {
            name,
            phases: self.phases,
        }
    }
}

/// Execution cursor into a (possibly nested) program.
#[derive(Clone, Debug)]
struct Frame {
    phases: Vec<Phase>,
    index: usize,
    remaining_iterations: u64,
}

/// Sub-steps of multi-action phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubStep {
    Fresh,
    Touch,
    Free,
}

/// A runnable instantiation of a [`PhaseProgram`].
pub struct PhaseWorkload {
    program: PhaseProgram,
    stack: Vec<Frame>,
    sub: SubStep,
    region: Option<RegionId>,
}

impl PhaseWorkload {
    pub fn new(program: PhaseProgram) -> Self {
        let root = Frame {
            phases: program.phases.clone(),
            index: 0,
            remaining_iterations: 1,
        };
        PhaseWorkload {
            program,
            stack: vec![root],
            sub: SubStep::Fresh,
            region: None,
        }
    }

    /// Advance the cursor to the current phase, unwinding finished
    /// frames and unrolling loop entries. Returns `None` when done.
    fn current(&mut self) -> Option<Phase> {
        loop {
            let frame = self.stack.last_mut()?;
            if frame.index >= frame.phases.len() {
                frame.remaining_iterations -= 1;
                if frame.remaining_iterations > 0 {
                    frame.index = 0;
                    continue;
                }
                self.stack.pop();
                if let Some(parent) = self.stack.last_mut() {
                    parent.index += 1;
                    continue;
                }
                return None;
            }
            match &frame.phases[frame.index] {
                Phase::Loop { count, body } => {
                    if *count == 0 || body.is_empty() {
                        frame.index += 1;
                        continue;
                    }
                    let child = Frame {
                        phases: body.clone(),
                        index: 0,
                        remaining_iterations: *count,
                    };
                    self.stack.push(child);
                    continue;
                }
                phase => return Some(phase.clone()),
            }
        }
    }

    fn advance(&mut self) {
        if let Some(frame) = self.stack.last_mut() {
            frame.index += 1;
        }
        self.sub = SubStep::Fresh;
        self.region = None;
    }
}

impl Workload for PhaseWorkload {
    fn name(&self) -> &'static str {
        self.program.name
    }

    fn next(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        loop {
            let Some(phase) = self.current() else {
                return Action::Exit;
            };
            match phase {
                Phase::Compute { work, jitter } => {
                    self.advance();
                    let work = if jitter > 0.0 {
                        let u = 2.0 * ctx.rng.uniform() - 1.0;
                        work.scale(1.0 + jitter * u)
                    } else {
                        work
                    };
                    return Action::Compute { work };
                }
                Phase::AllocTouch {
                    backing,
                    pages,
                    work_per_page,
                }
                | Phase::AllocTouchFree {
                    backing,
                    pages,
                    work_per_page,
                } => {
                    let freeing = matches!(phase, Phase::AllocTouchFree { .. });
                    match self.sub {
                        SubStep::Fresh => {
                            self.sub = SubStep::Touch;
                            return Action::Mmap { backing, pages };
                        }
                        SubStep::Touch => {
                            let region = match ctx.outcome {
                                Outcome::Mapped(r) => r,
                                _ => unreachable!("mmap yields Mapped"),
                            };
                            self.region = Some(region);
                            self.sub = SubStep::Free;
                            return Action::Touch {
                                region,
                                first_page: 0,
                                pages,
                                work_per_page,
                            };
                        }
                        SubStep::Free => {
                            let region = self.region.take().expect("mapped");
                            self.advance();
                            if freeing {
                                return Action::Munmap { region };
                            }
                            // Kept mapped: move on without an action.
                            continue;
                        }
                    }
                }
                Phase::Read { bytes } => {
                    self.advance();
                    return Action::Read { bytes };
                }
                Phase::Write { bytes } => {
                    self.advance();
                    return Action::Write { bytes };
                }
                Phase::WriteBuffered { bytes } => {
                    self.advance();
                    return Action::WriteBuffered { bytes };
                }
                Phase::Sleep { dur } => {
                    self.advance();
                    return Action::Sleep { dur };
                }
                Phase::Barrier => {
                    self.advance();
                    return Action::Barrier;
                }
                Phase::Mark { mark, value } => {
                    self.advance();
                    return Action::Mark { mark, value };
                }
                Phase::Loop { .. } => unreachable!("handled by current()"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::mm::AddressSpace;
    use osn_kernel::rng::Stream;

    fn drive(program: PhaseProgram, cap: usize) -> Vec<Action> {
        let mut w = program.instantiate();
        let mut rng = Stream::new(1, "drive");
        let mut aspace = AddressSpace::new();
        let mut outcome = Outcome::Start;
        let mut actions = Vec::new();
        for _ in 0..cap {
            let action = {
                let mut ctx = WorkloadCtx {
                    now: Nanos(0),
                    rank: 0,
                    nranks: 1,
                    outcome,
                    rng: &mut rng,
                    aspace: &aspace,
                };
                w.next(&mut ctx)
            };
            actions.push(action);
            outcome = match action {
                Action::Mmap { backing, pages } => Outcome::Mapped(aspace.mmap(backing, pages)),
                Action::Read { bytes }
                | Action::Write { bytes }
                | Action::WriteBuffered { bytes } => Outcome::IoDone { bytes },
                Action::Exit => break,
                _ => Outcome::Done,
            };
        }
        actions
    }

    #[test]
    fn flat_program_runs_in_order() {
        let program = PhaseProgram::builder()
            .read(1024)
            .compute(Nanos(500))
            .barrier()
            .write(2048)
            .build("flat");
        assert_eq!(program.total_steps(), 4);
        let actions = drive(program, 100);
        assert_eq!(
            actions,
            vec![
                Action::Read { bytes: 1024 },
                Action::Compute { work: Nanos(500) },
                Action::Barrier,
                Action::Write { bytes: 2048 },
                Action::Exit,
            ]
        );
    }

    #[test]
    fn loops_unroll() {
        let program = PhaseProgram::builder()
            .repeat(3, |iter| iter.compute(Nanos(10)).barrier())
            .build("loopy");
        assert_eq!(program.total_steps(), 6);
        let actions = drive(program, 100);
        let computes = actions
            .iter()
            .filter(|a| matches!(a, Action::Compute { .. }))
            .count();
        let barriers = actions
            .iter()
            .filter(|a| matches!(a, Action::Barrier))
            .count();
        assert_eq!((computes, barriers), (3, 3));
        assert_eq!(*actions.last().unwrap(), Action::Exit);
    }

    #[test]
    fn nested_loops() {
        let program = PhaseProgram::builder()
            .repeat(2, |outer| {
                outer.mark(1, 0).repeat(3, |inner| inner.compute(Nanos(5)))
            })
            .build("nested");
        assert_eq!(program.total_steps(), 2 * (1 + 3));
        let actions = drive(program, 100);
        let marks = actions
            .iter()
            .filter(|a| matches!(a, Action::Mark { .. }))
            .count();
        let computes = actions
            .iter()
            .filter(|a| matches!(a, Action::Compute { .. }))
            .count();
        assert_eq!((marks, computes), (2, 6));
    }

    #[test]
    fn alloc_touch_free_cycle() {
        let program = PhaseProgram::builder()
            .repeat(2, |i| {
                i.alloc_touch_free(Backing::AnonRecycled, 8, Nanos(100))
            })
            .build("mm");
        let actions = drive(program, 100);
        let mmaps = actions
            .iter()
            .filter(|a| matches!(a, Action::Mmap { .. }))
            .count();
        let touches = actions
            .iter()
            .filter(|a| matches!(a, Action::Touch { .. }))
            .count();
        let munmaps = actions
            .iter()
            .filter(|a| matches!(a, Action::Munmap { .. }))
            .count();
        assert_eq!((mmaps, touches, munmaps), (2, 2, 2));
    }

    #[test]
    fn alloc_touch_keeps_region() {
        let program = PhaseProgram::builder()
            .alloc_touch(Backing::AnonFresh, 16, Nanos(50))
            .compute(Nanos(10))
            .build("keep");
        let actions = drive(program, 100);
        assert!(actions.iter().all(|a| !matches!(a, Action::Munmap { .. })));
        assert!(actions.iter().any(|a| matches!(a, Action::Touch { .. })));
    }

    #[test]
    fn jittered_compute_varies() {
        let program = PhaseProgram::builder()
            .repeat(10, |i| i.compute_jittered(Nanos(10_000), 0.2))
            .build("jitter");
        let actions = drive(program, 100);
        let works: Vec<Nanos> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Compute { work } => Some(*work),
                _ => None,
            })
            .collect();
        assert_eq!(works.len(), 10);
        assert!(works.windows(2).any(|w| w[0] != w[1]));
        assert!(works
            .iter()
            .all(|w| (Nanos(8_000)..=Nanos(12_000)).contains(w)));
    }

    #[test]
    fn empty_and_zero_loops() {
        let program = PhaseProgram::builder()
            .repeat(0, |i| i.compute(Nanos(1)))
            .repeat(3, |i| i)
            .build("empty");
        assert_eq!(program.total_steps(), 0);
        let actions = drive(program, 10);
        assert_eq!(actions, vec![Action::Exit]);
    }

    #[test]
    fn runs_in_the_engine() {
        use osn_kernel::config::NodeConfig;
        use osn_kernel::hooks::CountingProbe;
        use osn_kernel::node::Node;

        let program = PhaseProgram::builder()
            .alloc_touch(Backing::AnonFresh, 64, Nanos(200))
            .repeat(5, |i| {
                i.alloc_touch_free(Backing::AnonRecycled, 16, Nanos(200))
                    .compute(Nanos::from_millis(2))
                    .barrier()
            })
            .build("phased");
        let mut node = Node::new(
            NodeConfig::default()
                .with_cpus(2)
                .with_seed(77)
                .with_horizon(Nanos::from_millis(200)),
        );
        node.spawn_job(
            "phased",
            vec![
                Box::new(program.instantiate()),
                Box::new(program.instantiate()),
            ],
        );
        let mut probe = CountingProbe::new(2);
        let result = node.run(&mut probe);
        // 64 kept pages + 5×16 freed pages, per rank.
        assert_eq!(result.stats.faults, 2 * (64 + 5 * 16));
        assert_eq!(probe.kernel_enters, probe.kernel_exits);
    }
}
