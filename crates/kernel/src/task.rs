//! Task control blocks: the simulator's `task_struct`.

use serde::{Deserialize, Serialize};

use crate::hooks::SwitchState;
use crate::ids::{CpuId, JobId, RegionId, Tid};
use crate::mm::AddressSpace;
use crate::net::Rpc;
use crate::rng::Stream;
use crate::time::Nanos;
use crate::workload::{Outcome, Workload};

/// Scheduling class/weight. We model two levels, mirroring the paper's
/// setup where kernel daemons (rpciod) outrank the (nice-0) HPC tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedClass {
    /// Normal CFS task at nice 0 (load weight 1024).
    Normal,
    /// Kernel daemon at nice -5 (load weight 3121): wakes with low
    /// vruntime and preempts application tasks.
    Daemon,
}

impl SchedClass {
    /// CFS load weight (`prio_to_weight` values from the 2.6.33 kernel).
    #[inline]
    pub fn weight(self) -> u64 {
        match self {
            SchedClass::Normal => 1024,
            SchedClass::Daemon => 3121,
        }
    }
}

/// What a task *is* — its behaviour source.
pub enum Body {
    /// Per-CPU idle loop.
    Idle,
    /// An application task driven by a [`Workload`].
    App(Box<dyn Workload>),
    /// The NFS I/O kernel daemon: drains the RPC submit queue.
    Rpciod,
    /// The generic work-queue daemon (`events/N` in 2.6 kernels):
    /// woken by expired-timer handlers, runs a short burst, sleeps.
    Events,
}

impl Body {
    pub fn kind_name(&self) -> &'static str {
        match self {
            Body::Idle => "idle",
            Body::App(_) => "app",
            Body::Rpciod => "rpciod",
            Body::Events => "events",
        }
    }

    pub fn is_daemon(&self) -> bool {
        matches!(self, Body::Rpciod | Body::Events)
    }
}

/// Why a task is blocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockReason {
    /// Waiting for an NFS RPC completion.
    Io,
    /// Waiting in a job barrier.
    Comm,
    /// Voluntary `nanosleep`.
    Sleep,
    /// Daemon parked waiting for work.
    Wait,
}

impl BlockReason {
    pub fn switch_state(self) -> SwitchState {
        match self {
            BlockReason::Io => SwitchState::BlockedIo,
            BlockReason::Comm => SwitchState::BlockedComm,
            BlockReason::Sleep => SwitchState::BlockedSleep,
            BlockReason::Wait => SwitchState::BlockedWait,
        }
    }
}

/// Task run state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// On a runqueue (possibly current on its CPU).
    Runnable,
    Blocked(BlockReason),
    Exited,
}

/// Progress through the task's current [`crate::workload::Action`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Progress {
    /// No action in flight; the workload must be asked.
    NeedAction,
    /// Pure compute with `left` user work remaining.
    Compute { left: Nanos },
    /// Compute until wall time; `user_done` accumulates achieved work.
    ComputeUntil { wall: Nanos, user_done: Nanos },
    /// Page-walk: currently `into_page` nanoseconds into `cur_page`.
    Touch {
        region: RegionId,
        cur_page: u64,
        end_page: u64,
        work_per_page: Nanos,
        into_page: Nanos,
    },
    /// Parked in a syscall frame; effect applied at frame exit.
    InSyscall,
    /// Blocked; resumes with the stored outcome when woken.
    Parked,
}

/// The task control block.
pub struct Task {
    pub tid: Tid,
    pub name: String,
    pub body: Body,
    pub class: SchedClass,
    pub state: TaskState,
    /// Job membership (application ranks only).
    pub job: Option<JobId>,
    pub rank: u32,
    /// CPU whose runqueue currently holds (or last held) this task.
    pub cpu: CpuId,
    /// CFS virtual runtime, in weighted nanoseconds.
    pub vruntime: u64,
    /// Whether the task currently sits on a runqueue (waiting, not
    /// current) — guards against double enqueue when a wakeup races a
    /// block-in-progress, as Linux's `on_rq` does.
    pub on_rq: bool,
    /// The CPU this task is *current* on, if any — Linux's `on_cpu`:
    /// a wakeup may not move a task that is still mid-switch-out.
    pub on_cpu: Option<CpuId>,
    /// Execution time since last placed on CPU (slice accounting).
    pub slice_exec: Nanos,
    /// Address space (apps only; daemons/idle have an empty one).
    pub aspace: AddressSpace,
    /// Current action progress.
    pub progress: Progress,
    /// Outcome to report to the workload on its next `next()` call.
    pub pending_outcome: Outcome,
    /// Private random stream for workload decisions.
    pub rng: Stream,
    /// rpciod only: the RPC whose CPU-side work is in progress.
    pub daemon_rpc: Option<Rpc>,
    /// Cache-pressure factor cached from the workload.
    pub cache_factor: f64,
    /// Accounting: total user-mode nanoseconds executed.
    pub user_time: Nanos,
    /// Accounting: wall time of first/last scheduling.
    pub first_run: Option<Nanos>,
    pub last_seen: Nanos,
}

impl Task {
    pub fn new_app(
        tid: Tid,
        name: String,
        workload: Box<dyn Workload>,
        job: Option<JobId>,
        rank: u32,
        cpu: CpuId,
        rng: Stream,
    ) -> Self {
        let cache_factor = workload.cache_factor();
        Task {
            tid,
            name,
            body: Body::App(workload),
            class: SchedClass::Normal,
            state: TaskState::Runnable,
            job,
            rank,
            cpu,
            vruntime: 0,
            on_rq: false,
            on_cpu: None,
            slice_exec: Nanos::ZERO,
            aspace: AddressSpace::new(),
            progress: Progress::NeedAction,
            pending_outcome: Outcome::Start,
            rng,
            daemon_rpc: None,
            cache_factor,
            user_time: Nanos::ZERO,
            first_run: None,
            last_seen: Nanos::ZERO,
        }
    }

    pub fn new_daemon(tid: Tid, body: Body, name: String, cpu: CpuId, rng: Stream) -> Self {
        debug_assert!(body.is_daemon());
        Task {
            tid,
            name,
            body,
            class: SchedClass::Daemon,
            state: TaskState::Blocked(BlockReason::Wait),
            job: None,
            rank: 0,
            cpu,
            vruntime: 0,
            on_rq: false,
            on_cpu: None,
            slice_exec: Nanos::ZERO,
            aspace: AddressSpace::new(),
            progress: Progress::NeedAction,
            pending_outcome: Outcome::Start,
            rng,
            daemon_rpc: None,
            cache_factor: 1.0,
            user_time: Nanos::ZERO,
            first_run: None,
            last_seen: Nanos::ZERO,
        }
    }

    #[inline]
    pub fn is_app(&self) -> bool {
        matches!(self.body, Body::App(_))
    }

    #[inline]
    pub fn is_runnable(&self) -> bool {
        self.state == TaskState::Runnable
    }

    /// Advance vruntime by `delta` of real execution, weighted by the
    /// scheduling class (heavier tasks accrue vruntime more slowly).
    #[inline]
    pub fn charge(&mut self, delta: Nanos) {
        // vruntime += delta * NICE_0_WEIGHT / weight
        self.vruntime += delta.as_nanos() * 1024 / self.class.weight();
        self.slice_exec += delta;
    }
}

/// Post-run metadata about every task, returned alongside the trace so
/// analysis can resolve tids to names, jobs and kinds without the trace
/// itself carrying strings.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskMeta {
    pub tid: Tid,
    pub name: String,
    pub kind: String,
    pub job: Option<JobId>,
    pub rank: u32,
    pub user_time: Nanos,
    pub faults: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BusyLoop;

    #[test]
    fn weights_match_kernel_tables() {
        assert_eq!(SchedClass::Normal.weight(), 1024);
        assert_eq!(SchedClass::Daemon.weight(), 3121);
    }

    #[test]
    fn charge_scales_by_weight() {
        let rng = Stream::new(0, "t");
        let mut app = Task::new_app(
            Tid(1),
            "a".into(),
            Box::new(BusyLoop::new(Nanos(1))),
            None,
            0,
            CpuId(0),
            rng,
        );
        app.charge(Nanos(1000));
        assert_eq!(app.vruntime, 1000);

        let mut d = Task::new_daemon(
            Tid(2),
            Body::Rpciod,
            "rpciod".into(),
            CpuId(0),
            Stream::new(0, "d"),
        );
        d.charge(Nanos(1000));
        // 1000 * 1024 / 3121 = 328: daemons age ~3x slower.
        assert_eq!(d.vruntime, 328);
    }

    #[test]
    fn block_reason_maps_to_switch_state() {
        assert_eq!(BlockReason::Io.switch_state(), SwitchState::BlockedIo);
        assert_eq!(BlockReason::Comm.switch_state(), SwitchState::BlockedComm);
        assert_eq!(BlockReason::Sleep.switch_state(), SwitchState::BlockedSleep);
        assert_eq!(BlockReason::Wait.switch_state(), SwitchState::BlockedWait);
    }

    #[test]
    fn daemons_start_parked() {
        let d = Task::new_daemon(
            Tid(3),
            Body::Events,
            "events/0".into(),
            CpuId(1),
            Stream::new(0, "e"),
        );
        assert_eq!(d.state, TaskState::Blocked(BlockReason::Wait));
        assert!(!d.is_app());
        assert!(d.body.is_daemon());
    }

    #[test]
    fn apps_start_runnable() {
        let t = Task::new_app(
            Tid(1),
            "rank0".into(),
            Box::new(BusyLoop::new(Nanos(5))),
            Some(JobId(0)),
            0,
            CpuId(0),
            Stream::new(0, "a"),
        );
        assert!(t.is_runnable());
        assert!(t.is_app());
        assert_eq!(t.body.kind_name(), "app");
    }
}
