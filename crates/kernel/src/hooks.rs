//! Kernel instrumentation points.
//!
//! The paper's methodology requires instrumenting "all the kernel entry
//! and exit points ... and the main OS functions". In this simulator the
//! equivalent is the [`Probe`] trait: the engine invokes a probe callback
//! at every such point, and the `osn-trace` crate implements `Probe` to
//! record LTTng-style events into per-CPU ring buffers.
//!
//! Probes are *passive*: they observe but do not alter control flow.
//! Probe cost, however, is modeled — the engine charges a configurable
//! per-event overhead to the traced CPU so the instrumentation-overhead
//! experiment (§III-A, "on the order of 0.28%") can be reproduced.

use crate::activity::{Activity, SoftirqVec};
use crate::ids::{CpuId, Tid};
use crate::time::Nanos;

use serde::Serialize;

/// Why a task ceased to be `current` at a context switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum SwitchState {
    /// Still runnable; it was preempted by the next task.
    Preempted,
    /// Blocked waiting for an I/O (NFS RPC) completion.
    BlockedIo,
    /// Blocked in an MPI-like barrier (communication).
    BlockedComm,
    /// Blocked in a voluntary sleep (`nanosleep`).
    BlockedSleep,
    /// Daemon went back to sleep waiting for more work.
    BlockedWait,
    /// The task exited.
    Exited,
}

impl SwitchState {
    /// Encode to a stable wire code.
    pub fn code(self) -> u16 {
        match self {
            SwitchState::Preempted => 0,
            SwitchState::BlockedIo => 1,
            SwitchState::BlockedComm => 2,
            SwitchState::BlockedSleep => 3,
            SwitchState::BlockedWait => 4,
            SwitchState::Exited => 5,
        }
    }

    pub fn from_code(code: u16) -> Option<SwitchState> {
        Some(match code {
            0 => SwitchState::Preempted,
            1 => SwitchState::BlockedIo,
            2 => SwitchState::BlockedComm,
            3 => SwitchState::BlockedSleep,
            4 => SwitchState::BlockedWait,
            5 => SwitchState::Exited,
            _ => return None,
        })
    }

    /// Paper §III: "we do not consider a kernel interruption as noise
    /// if, when it occurs, a process is blocked waiting for
    /// communication". Blocked-for-any-reason intervals are excluded
    /// from the runnable timeline.
    #[inline]
    pub fn leaves_runnable(self) -> bool {
        matches!(self, SwitchState::Preempted)
    }
}

/// The kernel instrumentation interface. One method per tracepoint
/// family. `tid` is always the task whose context the CPU is in.
#[allow(unused_variables)]
pub trait Probe {
    /// A kernel activity begins on `cpu`, interrupting (or servicing)
    /// task `tid`.
    fn kernel_enter(&mut self, t: Nanos, cpu: CpuId, tid: Tid, activity: Activity) {}

    /// The matching end of [`Probe::kernel_enter`]. Nested activities
    /// produce properly nested enter/exit pairs.
    fn kernel_exit(&mut self, t: Nanos, cpu: CpuId, tid: Tid, activity: Activity) {}

    /// A softirq vector was raised on `cpu` (from interrupt context).
    fn softirq_raise(&mut self, t: Nanos, cpu: CpuId, vec: SoftirqVec) {}

    /// Context switch on `cpu` from `prev` (leaving in `prev_state`) to
    /// `next`.
    fn sched_switch(
        &mut self,
        t: Nanos,
        cpu: CpuId,
        prev: Tid,
        prev_state: SwitchState,
        next: Tid,
    ) {
    }

    /// Task `tid` became runnable on `cpu`'s runqueue, woken by `waker`.
    fn wakeup(&mut self, t: Nanos, cpu: CpuId, tid: Tid, waker: Tid) {}

    /// Load balancing migrated `tid` from `from` to `to`.
    fn migrate(&mut self, t: Nanos, tid: Tid, from: CpuId, to: CpuId) {}

    /// Application-level marker (user-space tracepoint): FTQ emits one
    /// per quantum with the work counter as `value`.
    fn app_mark(&mut self, t: Nanos, cpu: CpuId, tid: Tid, mark: u32, value: u64) {}

    /// Task exited (emitted in addition to the final sched_switch).
    fn task_exit(&mut self, t: Nanos, cpu: CpuId, tid: Tid) {}
}

/// A probe that records nothing (tracing disabled — the baseline for
/// the overhead experiment).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A simple event-counting probe used by tests and the overhead model.
#[derive(Debug, Default, Clone)]
pub struct CountingProbe {
    pub kernel_enters: u64,
    pub kernel_exits: u64,
    pub softirq_raises: u64,
    pub switches: u64,
    pub wakeups: u64,
    pub migrations: u64,
    pub marks: u64,
    pub task_exits: u64,
    /// Maximum kernel nesting depth observed per CPU.
    depth: Vec<i64>,
    pub max_depth: i64,
}

impl CountingProbe {
    pub fn new(cpus: usize) -> Self {
        CountingProbe {
            depth: vec![0; cpus],
            ..Default::default()
        }
    }

    /// Total probe invocations.
    pub fn total(&self) -> u64 {
        self.kernel_enters
            + self.kernel_exits
            + self.softirq_raises
            + self.switches
            + self.wakeups
            + self.migrations
            + self.marks
            + self.task_exits
    }
}

impl Probe for CountingProbe {
    fn kernel_enter(&mut self, _t: Nanos, cpu: CpuId, _tid: Tid, _a: Activity) {
        self.kernel_enters += 1;
        if let Some(d) = self.depth.get_mut(cpu.index()) {
            *d += 1;
            self.max_depth = self.max_depth.max(*d);
        }
    }

    fn kernel_exit(&mut self, _t: Nanos, cpu: CpuId, _tid: Tid, _a: Activity) {
        self.kernel_exits += 1;
        if let Some(d) = self.depth.get_mut(cpu.index()) {
            *d -= 1;
            debug_assert!(*d >= 0, "kernel exit without matching enter");
        }
    }

    fn softirq_raise(&mut self, _t: Nanos, _cpu: CpuId, _vec: SoftirqVec) {
        self.softirq_raises += 1;
    }

    fn sched_switch(
        &mut self,
        _t: Nanos,
        _cpu: CpuId,
        _prev: Tid,
        _state: SwitchState,
        _next: Tid,
    ) {
        self.switches += 1;
    }

    fn wakeup(&mut self, _t: Nanos, _cpu: CpuId, _tid: Tid, _waker: Tid) {
        self.wakeups += 1;
    }

    fn migrate(&mut self, _t: Nanos, _tid: Tid, _from: CpuId, _to: CpuId) {
        self.migrations += 1;
    }

    fn app_mark(&mut self, _t: Nanos, _cpu: CpuId, _tid: Tid, _mark: u32, _value: u64) {
        self.marks += 1;
    }

    fn task_exit(&mut self, _t: Nanos, _cpu: CpuId, _tid: Tid) {
        self.task_exits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_state_roundtrip() {
        for s in [
            SwitchState::Preempted,
            SwitchState::BlockedIo,
            SwitchState::BlockedComm,
            SwitchState::BlockedSleep,
            SwitchState::BlockedWait,
            SwitchState::Exited,
        ] {
            assert_eq!(SwitchState::from_code(s.code()), Some(s));
        }
        assert_eq!(SwitchState::from_code(99), None);
    }

    #[test]
    fn only_preempted_leaves_runnable() {
        assert!(SwitchState::Preempted.leaves_runnable());
        assert!(!SwitchState::BlockedIo.leaves_runnable());
        assert!(!SwitchState::BlockedComm.leaves_runnable());
        assert!(!SwitchState::Exited.leaves_runnable());
    }

    #[test]
    fn counting_probe_tracks_depth() {
        let mut p = CountingProbe::new(2);
        let t = Nanos(0);
        p.kernel_enter(t, CpuId(0), Tid(1), Activity::TimerInterrupt);
        p.kernel_enter(t, CpuId(0), Tid(1), Activity::Softirq(SoftirqVec::Timer));
        assert_eq!(p.max_depth, 2);
        p.kernel_exit(t, CpuId(0), Tid(1), Activity::Softirq(SoftirqVec::Timer));
        p.kernel_exit(t, CpuId(0), Tid(1), Activity::TimerInterrupt);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn null_probe_is_freely_callable() {
        let mut p = NullProbe;
        p.kernel_enter(Nanos(1), CpuId(0), Tid(1), Activity::TimerInterrupt);
        p.task_exit(Nanos(2), CpuId(0), Tid(1));
    }
}
