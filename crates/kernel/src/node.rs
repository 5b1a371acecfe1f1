//! The compute-node engine: a discrete-event simulation of a multi-core
//! node running a Linux-2.6.33-like kernel.
//!
//! # Execution model
//!
//! Each CPU is either executing user code of its `current` task, idling,
//! or unwinding a stack of *kernel frames* (interrupt handlers, softirqs,
//! exceptions, syscalls, scheduler halves). Events (timer ticks, network
//! arrivals, timer expiries, per-CPU advance points) drive the engine;
//! between events, user work accrues linearly. Every kernel entry/exit,
//! context switch, wakeup and migration fires a [`Probe`] callback — the
//! instrumentation surface the tracer records.
//!
//! The mechanism chains the paper describes emerge naturally:
//! tick → `run_timer_softirq` → expired handler queues daemon work →
//! daemon wakeup → preemption → (later) domain rebalance → migration;
//! and I/O syscall → rpciod wakeup → `net_tx_action` → response IRQ →
//! `net_rx_action` → wakeup on the IRQ CPU → preemption there.

use crate::activity::{Activity, SchedPart, SoftirqVec, SyscallKind};
use crate::config::NodeConfig;
use crate::hooks::{Probe, SwitchState};
use crate::ids::{CpuId, JobId, Tid};
use crate::mm::Backing;
use crate::net::{NfsModel, Rpc, RpcOp, RpcState};
use crate::rng::Stream;
use crate::sched::CfsRq;
use crate::softirq::SoftirqPending;
use crate::task::{BlockReason, Body, Progress, Task, TaskMeta, TaskState};
use crate::time::Nanos;
use crate::workload::{Action, Outcome, Workload, WorkloadCtx};

use serde::{Deserialize, Serialize};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What to do when a kernel frame finishes.
enum FrameExit {
    /// Timer-interrupt bottom work: raise softirqs, run the sched tick.
    TimerIrq,
    /// Network IRQ: queue the received RPC and raise NET_RX.
    NetIrq { rpc: Rpc },
    /// High-resolution timer expiry: wake the sleeper here.
    HrTimerIrq { wake: Tid },
    /// A softirq handler with its captured work payload.
    SoftirqDone {
        vec: SoftirqVec,
        work: SoftirqExitWork,
    },
    /// Page fault serviced (page already marked present at entry).
    Fault,
    /// Injected hypervisor steal window elapsed (no kernel effect; the
    /// frame's duration *is* the perturbation).
    Steal,
    /// Syscall completes with this effect.
    Syscall(SyscallEffect),
    /// First half of `schedule()`: perform the context switch.
    SchedPre,
    /// Second half: resume the incoming task.
    SchedPost,
}

/// Side effects a softirq applies when its handler finishes.
enum SoftirqExitWork {
    None,
    /// `run_timer_softirq`: queue this many work items for the events
    /// daemon (and wake it if nonzero).
    Timers {
        daemon_items: u32,
    },
    /// `net_rx_action`: completed RPCs whose issuers wake *here*.
    Rx {
        rpcs: Vec<Rpc>,
    },
    /// `run_rebalance_domains`: attempt a pull-migration to this CPU.
    Rebalance,
}

/// Deferred effect of a syscall, applied when its frame pops.
enum SyscallEffect {
    None,
    Mmap {
        backing: Backing,
        pages: u64,
    },
    Munmap {
        region: crate::ids::RegionId,
    },
    BlockIo {
        op: RpcOp,
        bytes: u64,
        blocking: bool,
    },
    Sleep {
        dur: Nanos,
    },
}

/// One entry on a CPU's kernel context stack.
struct Frame {
    activity: Activity,
    /// Remaining execution time (decremented at every sync).
    remaining: Nanos,
    on_exit: FrameExit,
}

/// Per-CPU state.
struct Cpu {
    id: CpuId,
    current: Option<Tid>,
    rq: CfsRq,
    frames: Vec<Frame>,
    pending: SoftirqPending,
    need_resched: bool,
    /// Time this CPU's state was last advanced to.
    last_sync: Nanos,
    /// User execution resumed at (frames empty, task current).
    user_since: Option<Nanos>,
    /// Charge point for the current task's vruntime.
    charge_since: Nanos,
    /// Local jiffies.
    ticks: u64,
    /// Network interrupts since the last TX-completion cleanup pass.
    irqs_since_tx_clean: u32,
}

impl Cpu {
    fn new(id: CpuId) -> Self {
        Cpu {
            id,
            current: None,
            rq: CfsRq::new(),
            frames: Vec::with_capacity(8),
            pending: SoftirqPending::new(),
            need_resched: false,
            last_sync: Nanos::ZERO,
            user_since: None,
            charge_since: Nanos::ZERO,
            ticks: 0,
            irqs_since_tx_clean: 0,
        }
    }

    /// The task context the CPU is in (for probe events).
    #[inline]
    fn ctx_tid(&self) -> Tid {
        self.current.unwrap_or(Tid::IDLE)
    }
}

/// An MPI-like gang of ranks synchronizing on barriers.
struct Job {
    ranks: Vec<Tid>,
    waiting: Vec<Tid>,
}

/// Queue event payloads. Per-CPU advance points are not queued: each
/// CPU holds its own in [`Node::advance`]. (`Ord` only completes the
/// queue's `(t, seq, ev)` key; `seq` is unique, so it never decides.)
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Periodic tick on a CPU.
    Tick { cpu: CpuId },
    /// An NFS response reaches the NIC: interrupt on the IRQ CPU.
    NetArrive { rpc_id: crate::net::RpcId },
    /// High-resolution timer expiry for a sleeping task.
    HrTimer { cpu: CpuId, tid: Tid },
    /// An injected hypervisor steal window begins on this CPU (only
    /// ever scheduled when steal perturbation is configured).
    Steal { cpu: CpuId },
}

/// Aggregate counters the engine keeps for sanity checks and reports.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NodeStats {
    pub ticks: u64,
    pub faults: u64,
    pub softirqs: u64,
    pub switches: u64,
    pub wakeups: u64,
    pub migrations: u64,
    pub rpcs_completed: u64,
    pub hrtimer_irqs: u64,
    pub net_irqs: u64,
    pub syscalls: u64,
    pub events_processed: u64,
    /// Simulation events dispatched by the main loop (queued events
    /// and per-CPU advance points) — the denominator for
    /// engine-throughput measurements.
    pub loop_events: u64,
    /// Re-arms that replaced a CPU's still-pending advance point: the
    /// events a queue holding every advance would have had to pop and
    /// discard as stale.
    pub stale_advances: u64,
}

/// Result of a completed run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Simulation time at which the run ended.
    pub end_time: Nanos,
    /// Post-mortem task table (names, jobs, totals) for trace analysis.
    pub tasks: Vec<TaskMeta>,
    pub stats: NodeStats,
}

impl RunResult {
    /// Tids of application ranks belonging to `job`.
    pub fn job_ranks(&self, job: JobId) -> Vec<Tid> {
        self.tasks
            .iter()
            .filter(|t| t.job == Some(job))
            .map(|t| t.tid)
            .collect()
    }
}

/// The simulated compute node.
pub struct Node {
    cfg: NodeConfig,
    clock: Nanos,
    /// Future events other than advance points (ticks, NFS arrivals,
    /// hrtimers, steal windows), popped in ascending `(time, seq)`
    /// order (`Reverse` turns the max-heap into a min-heap). It holds
    /// a few entries per CPU.
    queue: BinaryHeap<Reverse<(Nanos, u64, Ev)>>,
    /// Monotonic counter shared by queued events and advance points:
    /// the FIFO tie-break for same-time events.
    seq: u64,
    cpus: Vec<Cpu>,
    tasks: Vec<Task>,
    jobs: Vec<Job>,
    rpc: RpcState,
    nfs: NfsModel,
    /// RPCs transmitted to the server, awaiting their NetArrive event.
    pending_responses: Vec<Rpc>,
    /// Work items queued per-CPU for the events daemons (`events/N`
    /// workers are per-CPU in Linux; expired-timer handlers queue work
    /// to the local CPU's worker).
    events_backlog: Vec<u32>,
    events_tids: Vec<Tid>,
    rpciod_tid: Tid,
    /// Per-task fault counters (index = tid-1).
    fault_counts: Vec<u64>,
    /// Engine-internal random streams.
    s_cost: Stream,
    s_tick: Stream,
    s_net: Stream,
    s_daemon: Stream,
    /// Injected-perturbation state; `None` when `cfg.perturb` is empty,
    /// in which case no hook below touches randomness or the queue and
    /// the run is byte-identical to an unperturbed build.
    perturb: Option<crate::perturb::PerturbState>,
    stats: NodeStats,
    live_apps: usize,
    /// Tasks not yet exited (daemons included): the rebalance scan
    /// length.
    live_tasks: u32,
    /// Each CPU's one pending advance point, keyed `(time, seq)` like a
    /// queued event, or [`NO_ADVANCE`]; a re-arm overwrites it. The
    /// keys sit side by side so the loop finds the earliest in a few
    /// compares.
    advance: Vec<(Nanos, u64)>,
}

/// The key of a CPU with no pending advance: after every real key.
const NO_ADVANCE: (Nanos, u64) = (Nanos(u64::MAX), u64::MAX);

impl Node {
    /// Build a node with its kernel daemons (`rpciod`, `events`)
    /// already present.
    pub fn new(cfg: NodeConfig) -> Self {
        assert!(cfg.cpus > 0, "need at least one CPU");
        let seed = cfg.seed;
        let cfg_cpus = cfg.cpus;
        let cpus = (0..cfg.cpus).map(|i| Cpu::new(CpuId(i))).collect();
        let nfs = cfg.nfs.clone();
        let perturb = crate::perturb::PerturbState::new(&cfg.perturb, seed, cfg.cpus as usize);
        let mut node = Node {
            cfg,
            clock: Nanos::ZERO,
            queue: BinaryHeap::with_capacity(64),
            seq: 0,
            cpus,
            tasks: Vec::new(),
            jobs: Vec::new(),
            rpc: RpcState::new(),
            nfs,
            pending_responses: Vec::with_capacity(32),
            events_backlog: vec![0; cfg_cpus as usize],
            events_tids: Vec::new(),
            rpciod_tid: Tid(0),
            fault_counts: Vec::new(),
            s_cost: Stream::new(seed, "kernel-cost"),
            s_tick: Stream::new(seed, "tick"),
            s_net: Stream::new(seed, "net"),
            s_daemon: Stream::new(seed, "daemon"),
            perturb,
            stats: NodeStats::default(),
            live_apps: 0,
            live_tasks: 0,
            advance: vec![NO_ADVANCE; cfg_cpus as usize],
        };
        node.rpciod_tid = node.add_task(Task::new_daemon(
            Tid(0), // patched by add_task
            Body::Rpciod,
            "rpciod".into(),
            CpuId(0),
            Stream::new(seed, "rpciod"),
        ));
        // One `events/N` worker per CPU, as in Linux.
        for i in 0..node.cfg.cpus {
            let tid = node.add_task(Task::new_daemon(
                Tid(0),
                Body::Events,
                format!("events/{i}"),
                CpuId(i),
                Stream::new(seed, &format!("events{i}")),
            ));
            node.events_tids.push(tid);
        }
        node
    }

    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    fn add_task(&mut self, mut task: Task) -> Tid {
        let tid = Tid(self.tasks.len() as u32 + 1);
        task.tid = tid;
        self.tasks.push(task);
        self.fault_counts.push(0);
        self.live_tasks += 1;
        tid
    }

    #[inline]
    fn task(&self, tid: Tid) -> &Task {
        &self.tasks[(tid.0 - 1) as usize]
    }

    #[inline]
    fn task_mut(&mut self, tid: Tid) -> &mut Task {
        &mut self.tasks[(tid.0 - 1) as usize]
    }

    /// Spawn a gang of application ranks that share barrier
    /// synchronization. Rank `i` starts on CPU `i % cpus`.
    pub fn spawn_job(&mut self, name: &str, workloads: Vec<Box<dyn Workload>>) -> JobId {
        self.spawn_job_with_class(name, workloads, crate::task::SchedClass::Normal)
    }

    /// Spawn a job whose ranks run at the given scheduling class. The
    /// paper's related work (Jones et al., HPL) mitigates scheduling
    /// noise "by prioritizing HPC processes over user and kernel
    /// daemons": pass [`SchedClass::Daemon`](crate::task::SchedClass)
    /// to give ranks the elevated weight.
    pub fn spawn_job_with_class(
        &mut self,
        name: &str,
        workloads: Vec<Box<dyn Workload>>,
        class: crate::task::SchedClass,
    ) -> JobId {
        let job_id = JobId(self.jobs.len() as u32);
        let mut ranks = Vec::with_capacity(workloads.len());
        for (i, w) in workloads.into_iter().enumerate() {
            let cpu = CpuId((i % self.cfg.cpus as usize) as u16);
            let rng = Stream::new(self.cfg.seed, &format!("job{}-rank{}", job_id.0, i));
            let tid = self.add_task(Task::new_app(
                Tid(0),
                format!("{name}.{i}"),
                w,
                Some(job_id),
                i as u32,
                cpu,
                rng,
            ));
            // Set class/rank and enqueue on the home CPU in one pass so
            // the rank list can move into the job without a clone.
            let (vr, weight) = {
                let task = self.task_mut(tid);
                task.rank = i as u32;
                task.class = class;
                task.on_rq = true;
                (task.vruntime, task.class.weight())
            };
            self.cpus[cpu.index()].rq.enqueue(vr, tid, weight);
            ranks.push(tid);
            self.live_apps += 1;
        }
        self.jobs.push(Job {
            ranks,
            waiting: Vec::new(),
        });
        job_id
    }

    /// Spawn an independent process (not barrier-synchronized): user
    /// daemons, helper scripts (UMT's Python processes), FTQ.
    pub fn spawn_process(&mut self, name: &str, workload: Box<dyn Workload>) -> Tid {
        let idx = self.tasks.len();
        let cpu = CpuId((idx % self.cfg.cpus as usize) as u16);
        let rng = Stream::new(self.cfg.seed, &format!("proc-{name}-{idx}"));
        let tid = self.add_task(Task::new_app(
            Tid(0),
            name.to_string(),
            workload,
            None,
            0,
            cpu,
            rng,
        ));
        self.live_apps += 1;
        let (vr, weight) = {
            let t = self.task(tid);
            (t.vruntime, t.class.weight())
        };
        self.cpus[cpu.index()].rq.enqueue(vr, tid, weight);
        self.task_mut(tid).on_rq = true;
        tid
    }

    /// Pin an already-spawned task to a specific CPU's runqueue
    /// (initial placement only; the balancer may still move it).
    pub fn place(&mut self, tid: Tid, cpu: CpuId) {
        assert!(cpu.index() < self.cpus.len());
        let old = self.task(tid).cpu;
        if old == cpu {
            return;
        }
        let vr = self.task(tid).vruntime;
        let weight = self.cpus[old.index()]
            .rq
            .remove(vr, tid)
            .expect("place() before run() on a queued task only");
        self.cpus[cpu.index()].rq.enqueue(vr, tid, weight);
        self.task_mut(tid).cpu = cpu;
    }

    fn push_ev(&mut self, t: Nanos, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse((t, self.seq, ev)));
    }

    // ----- core time-keeping -------------------------------------------------

    /// Advance CPU `ci`'s local state to time `t`.
    fn sync_cpu(&mut self, ci: usize, t: Nanos) {
        let last = self.cpus[ci].last_sync;
        debug_assert!(t >= last, "time went backwards on cpu{ci}: {last} -> {t}");
        let dt = t - last;
        if !dt.is_zero() {
            // Charge wall time to the current task's vruntime —
            // except time inside an injected steal window, which is
            // not CPU service (paravirt steal-time accounting: the
            // guest scheduler does not bill the host's absence).
            if let Some(tid) = self.cpus[ci].current {
                let since = self.cpus[ci].charge_since;
                let delta = t - since;
                let stolen = matches!(
                    self.cpus[ci].frames.last(),
                    Some(f) if f.activity == Activity::Steal
                );
                let task = self.task_mut(tid);
                if !stolen {
                    task.charge(delta);
                }
                let vr = task.vruntime;
                self.cpus[ci].rq.observe_vruntime(vr);
            }
            self.cpus[ci].charge_since = t;
            if let Some(frame) = self.cpus[ci].frames.last_mut() {
                debug_assert!(
                    frame.remaining >= dt,
                    "frame overshoot: rem {} dt {}",
                    frame.remaining,
                    dt
                );
                frame.remaining = frame.remaining.saturating_sub(dt);
            } else if let (Some(tid), Some(since)) =
                (self.cpus[ci].current, self.cpus[ci].user_since)
            {
                let user = t - since;
                self.apply_user_work(tid, user);
                self.cpus[ci].user_since = Some(t);
            }
        } else if let Some(tid) = self.cpus[ci].current {
            // Keep vruntime observation fresh even on zero-dt syncs.
            let vr = self.task(tid).vruntime;
            self.cpus[ci].rq.observe_vruntime(vr);
        }
        self.cpus[ci].last_sync = t;
    }

    /// Apply `d` nanoseconds of user-mode progress to a task.
    fn apply_user_work(&mut self, tid: Tid, d: Nanos) {
        if d.is_zero() {
            return;
        }
        let task = self.task_mut(tid);
        task.user_time += d;
        match &mut task.progress {
            Progress::Compute { left } => {
                debug_assert!(*left >= d, "compute overshoot");
                *left = left.saturating_sub(d);
            }
            Progress::ComputeUntil { user_done, .. } => {
                *user_done += d;
            }
            Progress::Touch {
                region,
                cur_page,
                end_page,
                work_per_page,
                into_page,
            } => {
                let wpp = *work_per_page;
                *into_page += d;
                while *into_page >= wpp && *cur_page < *end_page {
                    *into_page -= wpp;
                    *cur_page += 1;
                }
                // Progress may land exactly on a page boundary; any page
                // crossed must have been present (faults stop execution
                // first). Verify in debug builds.
                #[cfg(debug_assertions)]
                {
                    let (r, c, e) = (*region, *cur_page, *end_page);
                    if c < e && *into_page > Nanos::ZERO {
                        debug_assert!(
                            task.aspace.region(r).is_present(c),
                            "worked into absent page"
                        );
                    }
                }
                #[cfg(not(debug_assertions))]
                let _ = region;
            }
            p => debug_assert!(
                d.is_zero(),
                "user work {d} applied to {} ({}) in non-running progress state {p:?}, task state {:?}",
                task.tid,
                task.name,
                task.state
            ),
        }
    }

    /// Recompute the CPU's next advance point, replacing any pending
    /// one. A new point takes the next `seq`, as a queued event would.
    fn resched_advance(&mut self, ci: usize, t: Nanos) {
        let when = if let Some(frame) = self.cpus[ci].frames.last() {
            Some(t + frame.remaining)
        } else if let Some(tid) = self.cpus[ci].current {
            self.user_stop_in(tid, t).map(|d| t + d)
        } else {
            None
        };
        if self.advance[ci] != NO_ADVANCE {
            self.stats.stale_advances += 1;
        }
        self.advance[ci] = match when {
            Some(when) => {
                self.seq += 1;
                (when, self.seq)
            }
            None => NO_ADVANCE,
        };
    }

    /// Time until the running task's next intrinsic stop (fault, action
    /// boundary), or `None` if it can run forever (shouldn't happen for
    /// well-formed workloads but is safe).
    fn user_stop_in(&self, tid: Tid, now: Nanos) -> Option<Nanos> {
        let task = self.task(tid);
        match task.progress {
            Progress::Compute { left } => Some(left),
            Progress::ComputeUntil { wall, .. } => Some(wall.saturating_sub(now)),
            Progress::Touch {
                region,
                cur_page,
                end_page,
                work_per_page,
                into_page,
            } => {
                if cur_page >= end_page {
                    return Some(Nanos::ZERO);
                }
                let r = task.aspace.region(region);
                if into_page.is_zero() && !r.is_present(cur_page) {
                    return Some(Nanos::ZERO);
                }
                let mut work = work_per_page - into_page;
                match r.next_absent(cur_page + 1, end_page) {
                    Some(p) => work += work_per_page * (p - cur_page - 1),
                    None => work += work_per_page * (end_page - cur_page - 1),
                }
                Some(work)
            }
            // Parked in a syscall or blocked: no user stop.
            Progress::InSyscall | Progress::Parked | Progress::NeedAction => Some(Nanos::ZERO),
        }
    }

    // ----- probes + frames ---------------------------------------------------

    fn push_frame<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        activity: Activity,
        cost: Nanos,
        on_exit: FrameExit,
    ) {
        // Leaving user mode: bank the user progress first.
        if self.cpus[ci].frames.is_empty() {
            if let (Some(tid), Some(since)) = (self.cpus[ci].current, self.cpus[ci].user_since) {
                let user = t - since;
                self.apply_user_work(tid, user);
            }
            self.cpus[ci].user_since = None;
        }
        // Injected perturbations scale the service cost (DVFS throttle
        // epochs, NUMA-remote faults) — identity when none configured.
        let cost = match &self.perturb {
            Some(p) => p.scaled_cost(ci, t, activity, cost),
            None => cost,
        };
        let ctx = self.cpus[ci].ctx_tid();
        probe.kernel_enter(t, self.cpus[ci].id, ctx, activity);
        // Probe cost: one tracepoint at entry, one at exit.
        let overhead = self.cfg.probe_overhead * 2;
        self.cpus[ci].frames.push(Frame {
            activity,
            remaining: cost + overhead,
            on_exit,
        });
    }

    /// Pop the completed top frame and apply its exit effect. Then
    /// decide what runs next on this CPU (softirqs, schedule, user).
    fn pop_frame<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        let frame = self.cpus[ci].frames.pop().expect("pop on empty stack");
        debug_assert!(frame.remaining.is_zero(), "popping unfinished frame");
        let ctx = self.cpus[ci].ctx_tid();
        probe.kernel_exit(t, self.cpus[ci].id, ctx, frame.activity);

        match frame.on_exit {
            FrameExit::Fault | FrameExit::Steal => {}
            FrameExit::TimerIrq => self.tick_bottom(ci, probe, t),
            FrameExit::NetIrq { rpc } => {
                self.cpus[ci].pending.rx_queue.push_back(rpc.id);
                // Stash the resolved RPC for the handler.
                self.rpc.mark_in_flight(rpc);
                if self.cpus[ci].pending.raise(SoftirqVec::NetRx) {
                    probe.softirq_raise(t, self.cpus[ci].id, SoftirqVec::NetRx);
                }
                // TX-completion cleanup (freeing transmitted skbs) is
                // batched: every few device interrupts, one
                // net_tx_action pass runs on the IRQ CPU (this is why
                // the paper's Tables II/IV show far fewer tx runs than
                // interrupts).
                self.cpus[ci].irqs_since_tx_clean += 1;
                if self.cpus[ci].irqs_since_tx_clean >= 4 {
                    self.cpus[ci].irqs_since_tx_clean = 0;
                    self.cpus[ci].pending.tx_packets += 1;
                    if self.cpus[ci].pending.raise(SoftirqVec::NetTx) {
                        probe.softirq_raise(t, self.cpus[ci].id, SoftirqVec::NetTx);
                    }
                }
            }
            FrameExit::HrTimerIrq { wake } => {
                let cpu = self.cpus[ci].id;
                self.wake_task(probe, t, wake, cpu, Tid::IDLE);
            }
            FrameExit::SoftirqDone { vec, work } => {
                self.stats.softirqs += 1;
                self.softirq_exit(ci, probe, t, vec, work);
            }
            FrameExit::Syscall(effect) => self.syscall_exit(ci, probe, t, effect),
            FrameExit::SchedPre => {
                self.context_switch(ci, probe, t);
                return; // context_switch pushes SchedPost; skip unwind logic
            }
            FrameExit::SchedPost => {}
        }

        self.unwind(ci, probe, t);
    }

    /// After a frame pops (or when entering from an event), decide what
    /// the CPU does next: run a pending softirq, reschedule, or resume
    /// user code.
    fn unwind<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        if !self.cpus[ci].frames.is_empty() {
            return; // still nested; outer frame continues
        }
        // do_softirq at irq_exit: run pending vectors one at a time.
        if self.cpus[ci].pending.any() {
            let vec = self.cpus[ci].pending.take_next().unwrap();
            self.start_softirq(ci, probe, t, vec);
            return;
        }
        // Scheduling points.
        let needs_sched = match self.cpus[ci].current {
            Some(tid) => self.cpus[ci].need_resched || !self.task(tid).is_runnable(),
            None => !self.cpus[ci].rq.is_empty(),
        };
        if needs_sched {
            self.start_schedule(ci, probe, t);
            return;
        }
        // Resume user execution.
        if let Some(tid) = self.cpus[ci].current {
            self.cpus[ci].user_since = Some(t);
            self.process_task(ci, probe, t, tid);
        }
    }

    /// Start executing one softirq vector.
    fn start_softirq<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        vec: SoftirqVec,
    ) {
        let factor = self.current_cache_factor(ci);
        let costs = &self.cfg.costs;
        let (cost, work) = match vec {
            SoftirqVec::Timer => {
                let n = self.cpus[ci].pending.expired_timers;
                self.cpus[ci].pending.expired_timers = 0;
                let mut cost = costs.softirq_timer_base.sample(&mut self.s_cost, factor);
                let mut daemon_items = 0;
                for _ in 0..n {
                    cost += costs
                        .softirq_timer_per_handler
                        .sample(&mut self.s_cost, factor);
                    if self.s_tick.chance(self.cfg.events_work_prob) {
                        daemon_items += 1;
                    }
                }
                (cost, SoftirqExitWork::Timers { daemon_items })
            }
            SoftirqVec::NetTx => {
                let n = self.cpus[ci].pending.tx_packets.max(1);
                self.cpus[ci].pending.tx_packets = 0;
                let mut cost = Nanos::ZERO;
                for _ in 0..n {
                    cost += costs.net_tx.sample(&mut self.s_cost, factor);
                }
                (cost, SoftirqExitWork::None)
            }
            SoftirqVec::NetRx => {
                let ids: Vec<_> = self.cpus[ci].pending.rx_queue.drain(..).collect();
                let mut rpcs = Vec::with_capacity(ids.len());
                let mut cost = costs.net_rx_base.sample(&mut self.s_cost, factor);
                for id in ids {
                    if let Some(rpc) = self.rpc.complete(id) {
                        // Reads receive the data (the tasklet drains at
                        // most one NFS rsize window per pass); writes
                        // receive a small ack (payload went out on tx).
                        const RSIZE: u64 = 32 << 10;
                        let rx_bytes = match rpc.op {
                            RpcOp::Read => rpc.bytes.min(RSIZE),
                            RpcOp::Write => 128,
                        };
                        cost += Nanos::from_nanos_f64(
                            rx_bytes as f64 / 1024.0 * costs.net_rx_ns_per_kib,
                        );
                        rpcs.push(rpc);
                    }
                }
                (cost, SoftirqExitWork::Rx { rpcs })
            }
            // The scheduler's own softirqs walk kernel-resident data
            // (runqueues, RCU state) that stays cache-hot regardless of
            // the application: no cache-pressure scaling.
            SoftirqVec::Rcu => (
                costs.softirq_rcu.sample(&mut self.s_cost, 1.0),
                SoftirqExitWork::None,
            ),
            SoftirqVec::Rebalance => {
                let scan = self.cpus[ci].pending.rebalance_scan.max(1);
                self.cpus[ci].pending.rebalance_scan = 0;
                let mut cost = costs.softirq_rebalance_base.sample(&mut self.s_cost, 1.0);
                for _ in 0..scan {
                    cost += costs.rebalance_per_task.sample(&mut self.s_cost, 1.0);
                }
                // Finding actionable imbalance means computing move
                // candidates — work that only exists when some queue
                // holds a *waiting* task (an idle CPU beside singly-
                // loaded CPUs has nothing to move). UMT's helper churn
                // queues tasks behind ranks and widens the distribution
                // (paper §IV-C); IRS stays compact.
                let waiting: usize = self.cpus.iter().map(|c| c.rq.len()).sum();
                if waiting > 0 {
                    let loads: Vec<u64> = self
                        .cpus
                        .iter()
                        .map(|c| c.rq.load() + c.current.map_or(0, |t| self.task(t).class.weight()))
                        .collect();
                    let imbalance = (loads.iter().max().copied().unwrap_or(0)
                        - loads.iter().min().copied().unwrap_or(0))
                        / 1024;
                    for _ in 0..imbalance.min(8) {
                        cost += costs.rebalance_imbalance.sample(&mut self.s_cost, 1.0);
                    }
                }
                (cost, SoftirqExitWork::Rebalance)
            }
        };
        self.push_frame(
            ci,
            probe,
            t,
            Activity::Softirq(vec),
            cost,
            FrameExit::SoftirqDone { vec, work },
        );
    }

    /// Apply a softirq's completion effects.
    fn softirq_exit<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        _vec: SoftirqVec,
        work: SoftirqExitWork,
    ) {
        match work {
            SoftirqExitWork::None => {}
            SoftirqExitWork::Timers { daemon_items } => {
                if daemon_items > 0 {
                    // Queue to the local CPU's worker (or the pinned
                    // OS core's worker when daemon_cpu is set).
                    let target_ci = self
                        .cfg
                        .daemon_cpu
                        .map(|c| c.index())
                        .unwrap_or(ci)
                        .min(self.events_tids.len() - 1);
                    self.events_backlog[target_ci] += daemon_items;
                    let tid = self.events_tids[target_ci];
                    self.wake_task(probe, t, tid, CpuId(target_ci as u16), Tid::IDLE);
                }
            }
            SoftirqExitWork::Rx { rpcs } => {
                let here = self.cpus[ci].id;
                for rpc in rpcs {
                    self.stats.rpcs_completed += 1;
                    // Paper §IV-D: the tasklet "wakes up the suspended
                    // processes ... on the CPU that receives the network
                    // interrupt". Writeback RPCs have no waiter.
                    if rpc.blocking {
                        self.wake_task(probe, t, rpc.issuer, here, self.rpciod_tid);
                    }
                }
            }
            SoftirqExitWork::Rebalance => self.rebalance(ci, probe, t),
        }
    }

    /// Pull-migration toward this CPU if it is under-loaded.
    fn rebalance<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        let nr = |cpu: &Cpu| cpu.rq.len() + cpu.current.is_some() as usize;
        let here_nr = nr(&self.cpus[ci]);
        // Find the busiest other CPU with at least one *queued* task.
        let mut busiest: Option<(usize, usize)> = None;
        for (i, cpu) in self.cpus.iter().enumerate() {
            if i == ci || cpu.rq.is_empty() {
                continue;
            }
            let n = nr(cpu);
            if busiest.is_none_or(|(_, bn)| n > bn) {
                busiest = Some((i, n));
            }
        }
        let Some((src, src_nr)) = busiest else {
            return;
        };
        // Imbalance test on task counts (instantaneous weights spike
        // when short-lived daemons wake; counts approximate the load
        // averages CFS balances on): move only if it strictly narrows
        // the imbalance.
        if src_nr < here_nr + 2 {
            return;
        }
        let Some((vr, victim)) = self.cpus[src].rq.peek_rightmost() else {
            return;
        };
        if victim == self.rpciod_tid || self.events_tids.contains(&victim) {
            // rpciod follows its wakers; per-CPU events workers are
            // CPU-bound by definition (and pinned under daemon_cpu).
            if self.cfg.daemon_cpu.is_some() || self.events_tids.contains(&victim) {
                return;
            }
        }
        let weight = self.cpus[src]
            .rq
            .remove(vr, victim)
            .expect("peeked entry removable");
        // Re-key vruntime relative to the destination queue.
        let src_min = self.cpus[src].rq.min_vruntime();
        let dst_min = self.cpus[ci].rq.min_vruntime();
        let new_vr = vr.saturating_sub(src_min).saturating_add(dst_min);
        let dst = self.cpus[ci].id;
        let from = self.cpus[src].id;
        {
            let task = self.task_mut(victim);
            task.vruntime = new_vr;
            task.cpu = dst;
        }
        self.cpus[ci].rq.enqueue(new_vr, victim, weight);
        probe.migrate(t, victim, from, dst);
        self.stats.migrations += 1;
        // An idle destination should schedule the migrated task.
        if self.cpus[ci].current.is_none() {
            self.cpus[ci].need_resched = true;
        }
    }

    // ----- scheduling --------------------------------------------------------

    fn start_schedule<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        let cost = self.cfg.costs.sched_pre.sample(&mut self.s_cost, 1.0);
        self.push_frame(
            ci,
            probe,
            t,
            Activity::Schedule(SchedPart::Before),
            cost,
            FrameExit::SchedPre,
        );
    }

    /// The context switch between the two `schedule()` halves.
    fn context_switch<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        self.cpus[ci].need_resched = false;
        let prev = self.cpus[ci].current;
        let (prev_tid, prev_state) = match prev {
            None => (Tid::IDLE, SwitchState::Preempted),
            Some(tid) => {
                let state = match self.task(tid).state {
                    TaskState::Runnable => SwitchState::Preempted,
                    TaskState::Blocked(r) => r.switch_state(),
                    TaskState::Exited => SwitchState::Exited,
                };
                if state == SwitchState::Preempted && !self.task(tid).on_rq {
                    let (vr, weight) = {
                        let task = self.task(tid);
                        (task.vruntime, task.class.weight())
                    };
                    self.cpus[ci].rq.enqueue(vr, tid, weight);
                    self.task_mut(tid).on_rq = true;
                }
                (tid, state)
            }
        };
        if let Some(prev_tid) = prev {
            self.task_mut(prev_tid).on_cpu = None;
        }
        let next = self.cpus[ci].rq.pop_leftmost();
        let next_tid = next.map(|(_, tid)| tid);
        if let Some(tid) = next_tid {
            let cpu = self.cpus[ci].id;
            let task = self.task_mut(tid);
            task.on_rq = false;
            task.on_cpu = Some(cpu);
        }
        self.cpus[ci].current = next_tid;
        self.cpus[ci].charge_since = t;
        if let Some(tid) = next_tid {
            let cpu = self.cpus[ci].id;
            let task = self.task_mut(tid);
            task.slice_exec = Nanos::ZERO;
            task.cpu = cpu;
            task.last_seen = t;
            if task.first_run.is_none() {
                task.first_run = Some(t);
            }
        }
        if prev_tid != next_tid.unwrap_or(Tid::IDLE) || prev.is_none() {
            probe.sched_switch(
                t,
                self.cpus[ci].id,
                prev_tid,
                prev_state,
                next_tid.unwrap_or(Tid::IDLE),
            );
            self.stats.switches += 1;
        }
        let cost = self.cfg.costs.sched_post.sample(&mut self.s_cost, 1.0);
        self.push_frame(
            ci,
            probe,
            t,
            Activity::Schedule(SchedPart::After),
            cost,
            FrameExit::SchedPost,
        );
    }

    /// `select_idle_sibling`: prefer an idle CPU in the same package
    /// as the nominal target; fall back to the target itself. The
    /// paper's wake-on-the-IRQ-CPU preemption (§IV-D) still occurs
    /// whenever the whole package is busy — the loaded steady state.
    fn select_wake_cpu(&self, target: CpuId, prev: CpuId) -> CpuId {
        if self.cpus[target.index()].current.is_none() {
            return target;
        }
        let per_pkg = self.cfg.cpus_per_package.max(1);
        let pkg = target.0 / per_pkg;
        let lo = pkg * per_pkg;
        let hi = (lo + per_pkg).min(self.cfg.cpus);
        let idle =
            |c: u16| self.cpus[c as usize].current.is_none() && self.cpus[c as usize].rq.is_empty();
        for c in lo..hi {
            if idle(c) {
                return CpuId(c);
            }
        }
        // Whole package busy: the affine wake stacks the task on the
        // waking CPU, as 2.6.33 does — the paper's §IV-D preemption
        // ("that CPU may be running another LAMMPS process, which is
        // preempted"). The displaced task is rescued by the next idle
        // CPU's rebalance tick.
        let _ = prev;
        target
    }

    /// Wake a blocked task onto `target`'s runqueue.
    fn wake_task<P: Probe + ?Sized>(
        &mut self,
        probe: &mut P,
        t: Nanos,
        tid: Tid,
        target: CpuId,
        waker: Tid,
    ) {
        let state = self.task(tid).state;
        if !matches!(state, TaskState::Blocked(_)) {
            return; // already runnable (e.g. daemon got more work mid-run)
        }
        // A task still current somewhere (mid-switch-out after
        // blocking) may not be queued elsewhere: wake it in place, as
        // Linux's ttwu does while `on_cpu` is set. Pinned daemons and
        // per-CPU events workers skip idle-sibling selection entirely.
        let pinned_daemon = self.cfg.daemon_cpu.is_some()
            && (tid == self.rpciod_tid || self.events_tids.contains(&tid))
            && target == self.cfg.daemon_cpu.unwrap();
        let per_cpu_worker = self.events_tids.contains(&tid);
        let target = match self.task(tid).on_cpu {
            Some(cpu) => cpu,
            None if pinned_daemon || per_cpu_worker => target,
            None => {
                let prev = self.task(tid).cpu;
                self.select_wake_cpu(target, prev)
            }
        };
        let ti = target.index();
        // Target CPU state must be current before we mutate its queue.
        self.sync_cpu(ti, t);
        let params = self.cfg.sched;
        let placed = {
            let vr = self.task(tid).vruntime;
            self.cpus[ti].rq.place_waking(vr, &params)
        };
        let weight = self.task(tid).class.weight();
        {
            let task = self.task_mut(tid);
            task.state = TaskState::Runnable;
            task.vruntime = placed;
            task.cpu = target;
            task.progress = Progress::Parked;
            task.on_rq = true;
        }
        self.cpus[ti].rq.enqueue(placed, tid, weight);
        probe.wakeup(t, target, tid, waker);
        self.stats.wakeups += 1;

        // Wakeup preemption check.
        let preempt = match self.cpus[ti].current {
            None => true,
            Some(cur) => {
                let (cur_vr, cur_weight) = {
                    let c = self.task(cur);
                    (c.vruntime, c.class.weight())
                };
                self.cpus[ti]
                    .rq
                    .should_preempt(cur_vr, cur_weight, placed, &params)
            }
        };
        if preempt {
            self.cpus[ti].need_resched = true;
            if self.cpus[ti].frames.is_empty() {
                // CPU is in user mode or idle: deliver promptly.
                self.start_schedule(ti, probe, t);
                self.resched_advance(ti, t);
            }
            // If in kernel mode the flag is honored at unwind time.
        }
    }

    // ----- tick --------------------------------------------------------------

    fn handle_tick<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        self.stats.ticks += 1;
        self.cpus[ci].ticks += 1;
        let factor = self.current_cache_factor(ci);
        let cost = self.cfg.costs.timer_irq.sample(&mut self.s_cost, factor);
        self.push_frame(
            ci,
            probe,
            t,
            Activity::TimerInterrupt,
            cost,
            FrameExit::TimerIrq,
        );
    }

    /// Effects of the timer interrupt, applied at handler exit: raise
    /// softirqs and run the scheduler tick.
    fn tick_bottom<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        let cpu_id = self.cpus[ci].id;
        // Expired software timers (always raise TIMER, as Linux does —
        // the handler body is near-empty when no timers expired).
        let expired = self.s_tick.poisson(self.cfg.timers_per_tick);
        self.cpus[ci].pending.expired_timers += expired;
        if self.cpus[ci].pending.raise(SoftirqVec::Timer) {
            probe.softirq_raise(t, cpu_id, SoftirqVec::Timer);
        }
        let ticks = self.cpus[ci].ticks;
        if ticks.is_multiple_of(self.cfg.sched.rcu_interval_ticks.max(1))
            && self.cpus[ci].pending.raise(SoftirqVec::Rcu)
        {
            probe.softirq_raise(t, cpu_id, SoftirqVec::Rcu);
        }
        // Idle CPUs rebalance every tick (Linux's idle balancing runs
        // far more eagerly than busy balancing); busy CPUs on the
        // configured interval.
        let rebalance_due = if self.cpus[ci].current.is_none() {
            true
        } else {
            ticks.is_multiple_of(self.cfg.sched.rebalance_interval_ticks.max(1))
        };
        if rebalance_due {
            // The balance pass walks every group's load contributions:
            // blocked-but-live tasks still have tracked load, so the
            // scan length follows the number of live tasks (this is
            // what widens UMT's Fig 6 distribution — its Python
            // helpers add scanned entities even while asleep).
            self.cpus[ci].pending.rebalance_scan = self.live_tasks;
            if self.cpus[ci].pending.raise(SoftirqVec::Rebalance) {
                probe.softirq_raise(t, cpu_id, SoftirqVec::Rebalance);
            }
        }
        // Scheduler tick: slice enforcement.
        if let Some(cur) = self.cpus[ci].current {
            let nr = self.cpus[ci].rq.len() + 1;
            if nr > 1 {
                let slice = self.cfg.sched.slice(nr);
                if self.task(cur).slice_exec >= slice {
                    self.cpus[ci].need_resched = true;
                }
            }
        }
    }

    // ----- syscalls & task stepping -------------------------------------------

    fn syscall_exit<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        effect: SyscallEffect,
    ) {
        let Some(tid) = self.cpus[ci].current else {
            debug_assert!(false, "syscall without current task");
            return;
        };
        match effect {
            SyscallEffect::None => {
                self.task_mut(tid).pending_outcome = Outcome::Done;
                self.task_mut(tid).progress = Progress::NeedAction;
            }
            SyscallEffect::Mmap { backing, pages } => {
                let region = self.task_mut(tid).aspace.mmap(backing, pages);
                let task = self.task_mut(tid);
                task.pending_outcome = Outcome::Mapped(region);
                task.progress = Progress::NeedAction;
            }
            SyscallEffect::Munmap { region } => {
                let task = self.task_mut(tid);
                task.aspace.munmap(region);
                task.pending_outcome = Outcome::Done;
                task.progress = Progress::NeedAction;
            }
            SyscallEffect::BlockIo {
                op,
                bytes,
                blocking,
            } => {
                self.rpc.submit(tid, op, bytes, blocking, t);
                if blocking {
                    let task = self.task_mut(tid);
                    task.state = TaskState::Blocked(BlockReason::Io);
                    task.progress = Progress::Parked;
                    task.pending_outcome = Outcome::IoDone { bytes };
                } else {
                    let task = self.task_mut(tid);
                    task.pending_outcome = Outcome::IoDone { bytes };
                    task.progress = Progress::NeedAction;
                }
                let rpciod_cpu = self
                    .cfg
                    .daemon_cpu
                    .unwrap_or_else(|| self.task(self.rpciod_tid).cpu);
                self.wake_task(probe, t, self.rpciod_tid, rpciod_cpu, tid);
            }
            SyscallEffect::Sleep { dur } => {
                let cpu = self.cpus[ci].id;
                {
                    let task = self.task_mut(tid);
                    task.state = TaskState::Blocked(BlockReason::Sleep);
                    task.progress = Progress::Parked;
                    task.pending_outcome = Outcome::Done;
                }
                self.push_ev(t + dur, Ev::HrTimer { cpu, tid });
            }
        }
    }

    /// The current task is in user mode at `t` with the frame stack
    /// empty: process immediate stops (faults, action boundaries) until
    /// it either has future work, enters the kernel, blocks or exits.
    fn process_task<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos, tid: Tid) {
        loop {
            debug_assert_eq!(self.cpus[ci].current, Some(tid));
            if !self.cpus[ci].frames.is_empty() {
                return;
            }
            let progress = self.task(tid).progress;
            match progress {
                Progress::Parked => {
                    // Just rescheduled after a block: deliver the outcome.
                    self.task_mut(tid).progress = Progress::NeedAction;
                }
                Progress::NeedAction => {
                    if !self.next_action(ci, probe, t, tid) {
                        return; // blocked, exited, or entered a frame
                    }
                }
                Progress::Compute { left } => {
                    if left.is_zero() {
                        let task = self.task_mut(tid);
                        task.pending_outcome = Outcome::Done;
                        task.progress = Progress::NeedAction;
                    } else {
                        return; // future work: advance event handles it
                    }
                }
                Progress::ComputeUntil { wall, user_done } => {
                    if wall <= t {
                        let task = self.task_mut(tid);
                        task.pending_outcome = Outcome::Computed { user: user_done };
                        task.progress = Progress::NeedAction;
                    } else {
                        return;
                    }
                }
                Progress::Touch {
                    region,
                    cur_page,
                    end_page,
                    into_page,
                    ..
                } => {
                    if cur_page >= end_page {
                        let task = self.task_mut(tid);
                        task.pending_outcome = Outcome::Done;
                        task.progress = Progress::NeedAction;
                    } else if into_page.is_zero()
                        && !self.task(tid).aspace.region(region).is_present(cur_page)
                    {
                        // Demand-paging fault on first touch.
                        let kind = {
                            let task = self.task_mut(tid);
                            let r = task.aspace.region_mut(region);
                            let faulted = r.touch(cur_page);
                            debug_assert!(faulted);
                            r.backing.fault_kind()
                        };
                        self.stats.faults += 1;
                        self.fault_counts[(tid.0 - 1) as usize] += 1;
                        let cost = self.cfg.costs.fault(kind).sample(&mut self.s_cost, 1.0);
                        self.push_frame(
                            ci,
                            probe,
                            t,
                            Activity::PageFault(kind),
                            cost,
                            FrameExit::Fault,
                        );
                        return;
                    } else {
                        return; // executing inside present pages
                    }
                }
                Progress::InSyscall => {
                    debug_assert!(false, "InSyscall with empty frame stack");
                    return;
                }
            }
        }
    }

    /// Ask the task's body for its next action and begin it. Returns
    /// `true` if the processing loop should continue (instant actions),
    /// `false` if the task entered a frame, blocked, or exited.
    fn next_action<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        tid: Tid,
    ) -> bool {
        enum BodyAction {
            App(Action),
            DaemonTx(Rpc),
            DaemonStep,
        }
        let nranks = self
            .task(tid)
            .job
            .map(|j| self.jobs[j.0 as usize].ranks.len() as u32)
            .unwrap_or(1);
        let body_action = {
            let outcome = self.task(tid).pending_outcome;
            let rank = self.task(tid).rank;
            let task = self.task_mut(tid);
            match &mut task.body {
                Body::App(w) => {
                    let mut ctx = WorkloadCtx {
                        now: t,
                        rank,
                        nranks,
                        outcome,
                        rng: &mut task.rng,
                        aspace: &task.aspace,
                    };
                    BodyAction::App(w.next(&mut ctx))
                }
                Body::Rpciod => match task.daemon_rpc.take() {
                    Some(rpc) => BodyAction::DaemonTx(rpc),
                    None => BodyAction::DaemonStep,
                },
                Body::Events | Body::Idle => BodyAction::DaemonStep,
            }
        };

        match body_action {
            BodyAction::App(action) => self.begin_action(ci, probe, t, tid, action),
            BodyAction::DaemonTx(rpc) => {
                // The RPC's CPU work is done: transmit it.
                self.transmit_rpc(ci, probe, t, rpc);
                true
            }
            BodyAction::DaemonStep => self.daemon_step(ci, probe, t, tid),
        }
    }

    /// Daemon behaviour step (rpciod / events): either start a work
    /// burst or park.
    fn daemon_step<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        tid: Tid,
    ) -> bool {
        let is_rpciod = matches!(self.task(tid).body, Body::Rpciod);
        if is_rpciod {
            if let Some(rpc) = self.rpc.pop_submit() {
                // Writes copy their payload on the way out.
                let payload = match rpc.op {
                    RpcOp::Write => rpc.bytes,
                    RpcOp::Read => 256,
                };
                let work = (Nanos::from_nanos_f64(
                    self.s_daemon
                        .exponential(self.cfg.rpciod_work_per_rpc.as_nanos() as f64),
                ) + Nanos::from_nanos_f64(
                    payload as f64 / 1024.0 * self.cfg.rpciod_ns_per_kib,
                ))
                .max(Nanos(500));
                let task = self.task_mut(tid);
                task.daemon_rpc = Some(rpc);
                task.progress = Progress::Compute { left: work };
                task.pending_outcome = Outcome::Done;
                return true;
            }
        } else if matches!(self.task(tid).body, Body::Events)
            && self
                .events_tids
                .iter()
                .position(|e| *e == tid)
                .is_some_and(|i| self.events_backlog[i] > 0)
        {
            let i = self
                .events_tids
                .iter()
                .position(|e| *e == tid)
                .expect("events tid indexed");
            self.events_backlog[i] -= 1;
            self.stats.events_processed += 1;
            let work = Nanos::from_nanos_f64(
                self.s_daemon
                    .exponential(self.cfg.events_work.as_nanos() as f64),
            )
            .max(Nanos(300));
            let task = self.task_mut(tid);
            task.progress = Progress::Compute { left: work };
            task.pending_outcome = Outcome::Done;
            return true;
        }
        // No work: park.
        {
            let task = self.task_mut(tid);
            task.state = TaskState::Blocked(BlockReason::Wait);
            task.progress = Progress::Parked;
            task.pending_outcome = Outcome::Start;
        }
        self.start_schedule(ci, probe, t);
        false
    }

    /// rpciod finished the CPU part of an RPC: hand it to the NIC.
    fn transmit_rpc<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos, rpc: Rpc) {
        let cpu_id = self.cpus[ci].id;
        self.cpus[ci].pending.tx_packets += 1;
        if self.cpus[ci].pending.raise(SoftirqVec::NetTx) {
            probe.softirq_raise(t, cpu_id, SoftirqVec::NetTx);
        }
        let delay = self.nfs.response_delay(&mut self.s_net, rpc.bytes);
        self.push_ev(t + delay, Ev::NetArrive { rpc_id: rpc.id });
        // Park the RPC until its arrival event; the NetIrq frame exit
        // moves it into the receiving CPU's rx queue.
        self.pending_responses.push(rpc);
        // rpciod immediately looks for more queued RPCs.
        let rpciod = self.rpciod_tid;
        self.task_mut(rpciod).progress = Progress::NeedAction;
    }

    /// Begin an application action. See [`Node::next_action`] for the
    /// return convention.
    fn begin_action<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        tid: Tid,
        action: Action,
    ) -> bool {
        match action {
            Action::Compute { work } => {
                self.task_mut(tid).progress = Progress::Compute { left: work };
                true
            }
            Action::ComputeUntil { wall } => {
                self.task_mut(tid).progress = Progress::ComputeUntil {
                    wall,
                    user_done: Nanos::ZERO,
                };
                true
            }
            Action::Touch {
                region,
                first_page,
                pages,
                work_per_page,
            } => {
                debug_assert!(work_per_page > Nanos::ZERO, "zero work per page");
                self.task_mut(tid).progress = Progress::Touch {
                    region,
                    cur_page: first_page,
                    end_page: first_page + pages,
                    work_per_page,
                    into_page: Nanos::ZERO,
                };
                true
            }
            Action::Mmap { backing, pages } => {
                let cost = self.cfg.costs.syscall_mm.sample(&mut self.s_cost, 1.0);
                self.enter_syscall(
                    ci,
                    probe,
                    t,
                    tid,
                    SyscallKind::Mmap,
                    cost,
                    SyscallEffect::Mmap { backing, pages },
                );
                false
            }
            Action::Munmap { region } => {
                let cost = self.cfg.costs.syscall_mm.sample(&mut self.s_cost, 1.0);
                self.enter_syscall(
                    ci,
                    probe,
                    t,
                    tid,
                    SyscallKind::Munmap,
                    cost,
                    SyscallEffect::Munmap { region },
                );
                false
            }
            Action::Read { bytes } | Action::Write { bytes } | Action::WriteBuffered { bytes } => {
                let (kind, op, blocking) = match action {
                    Action::Read { .. } => (SyscallKind::Read, RpcOp::Read, true),
                    Action::Write { .. } => (SyscallKind::Write, RpcOp::Write, true),
                    _ => (SyscallKind::Write, RpcOp::Write, false),
                };
                let base = self.cfg.costs.syscall_base.sample(&mut self.s_cost, 1.0);
                let copy = Nanos::from_nanos_f64(
                    bytes as f64 / 1024.0 * self.cfg.costs.syscall_ns_per_kib,
                );
                self.enter_syscall(
                    ci,
                    probe,
                    t,
                    tid,
                    kind,
                    base + copy,
                    SyscallEffect::BlockIo {
                        op,
                        bytes,
                        blocking,
                    },
                );
                false
            }
            Action::Sleep { dur } => {
                let cost = self.cfg.costs.syscall_base.sample(&mut self.s_cost, 1.0);
                self.enter_syscall(
                    ci,
                    probe,
                    t,
                    tid,
                    SyscallKind::Nanosleep,
                    cost,
                    SyscallEffect::Sleep { dur },
                );
                false
            }
            Action::Gettime => {
                let cost = self.cfg.costs.syscall_base.sample(&mut self.s_cost, 1.0);
                self.enter_syscall(
                    ci,
                    probe,
                    t,
                    tid,
                    SyscallKind::Gettime,
                    cost,
                    SyscallEffect::None,
                );
                false
            }
            Action::Barrier => {
                let Some(job_id) = self.task(tid).job else {
                    // A process without a job treats barriers as no-ops.
                    self.task_mut(tid).pending_outcome = Outcome::Done;
                    self.task_mut(tid).progress = Progress::NeedAction;
                    return true;
                };
                let job = &mut self.jobs[job_id.0 as usize];
                job.waiting.push(tid);
                // Count only live ranks: exited ranks can't arrive.
                let live = job
                    .ranks
                    .iter()
                    .filter(|r| self.tasks[(r.0 - 1) as usize].state != TaskState::Exited)
                    .count();
                if job.waiting.len() >= live {
                    // Last arrival releases everyone.
                    let waiters = std::mem::take(&mut self.jobs[job_id.0 as usize].waiting);
                    for w in waiters {
                        if w == tid {
                            continue;
                        }
                        let target = self.task(w).cpu;
                        self.wake_task(probe, t, w, target, tid);
                    }
                    let task = self.task_mut(tid);
                    task.pending_outcome = Outcome::Done;
                    task.progress = Progress::NeedAction;
                    true
                } else {
                    {
                        let task = self.task_mut(tid);
                        task.state = TaskState::Blocked(BlockReason::Comm);
                        task.progress = Progress::Parked;
                        task.pending_outcome = Outcome::Done;
                    }
                    self.start_schedule(ci, probe, t);
                    false
                }
            }
            Action::Mark { mark, value } => {
                probe.app_mark(t, self.cpus[ci].id, tid, mark, value);
                let task = self.task_mut(tid);
                task.pending_outcome = Outcome::Done;
                task.progress = Progress::NeedAction;
                true
            }
            Action::Exit => {
                {
                    let task = self.task_mut(tid);
                    task.state = TaskState::Exited;
                    task.progress = Progress::Parked;
                }
                probe.task_exit(t, self.cpus[ci].id, tid);
                self.live_apps -= 1;
                self.live_tasks -= 1;
                self.start_schedule(ci, probe, t);
                false
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_syscall<P: Probe + ?Sized>(
        &mut self,
        ci: usize,
        probe: &mut P,
        t: Nanos,
        tid: Tid,
        kind: SyscallKind,
        cost: Nanos,
        effect: SyscallEffect,
    ) {
        self.stats.syscalls += 1;
        self.task_mut(tid).progress = Progress::InSyscall;
        self.push_frame(
            ci,
            probe,
            t,
            Activity::Syscall(kind),
            cost,
            FrameExit::Syscall(effect),
        );
    }

    /// Cache-pressure factor of whatever the CPU is running.
    fn current_cache_factor(&self, ci: usize) -> f64 {
        self.cpus[ci]
            .current
            .map(|tid| self.task(tid).cache_factor)
            .unwrap_or(1.0)
    }

    // ----- main loop ----------------------------------------------------------

    /// Run the simulation until all application tasks exit or the
    /// horizon is reached.
    pub fn run<P: Probe + ?Sized>(&mut self, probe: &mut P) -> RunResult {
        // Per-CPU ticks are staggered across the period (as on real
        // SMP boots, where CPUs are brought online one at a time):
        // this also bounds how long a displaced task waits for an idle
        // CPU's rebalance tick.
        for i in 0..self.cpus.len() {
            let cpu = self.cpus[i].id;
            let skew = self.cfg.tick_period * i as u64 / self.cpus.len() as u64;
            self.push_ev(self.cfg.tick_period + skew, Ev::Tick { cpu });
            // Kick initial scheduling on CPUs with runnable tasks.
            self.seq += 1;
            self.advance[i] = (Nanos::ZERO, self.seq);
        }
        // Arm the steal schedules (only when configured: the disabled
        // path pushes nothing, keeping event seq numbers — and thus the
        // whole run — byte-identical to a perturbation-free build).
        if self.perturb.as_ref().is_some_and(|p| p.has_steal()) {
            for i in 0..self.cpus.len() {
                let gap = self.perturb.as_mut().and_then(|p| p.steal_gap(i));
                if let Some(gap) = gap {
                    let cpu = self.cpus[i].id;
                    self.push_ev(gap, Ev::Steal { cpu });
                }
            }
        }

        loop {
            // Dispatch the earliest, by `(t, seq)`, of the CPUs' advance
            // points and the queue head.
            let (mut next, mut next_cpu) = (NO_ADVANCE, 0);
            for (ci, &key) in self.advance.iter().enumerate() {
                if key < next {
                    (next, next_cpu) = (key, ci);
                }
            }
            let head = self
                .queue
                .peek()
                .map_or(NO_ADVANCE, |Reverse((t, seq, _))| (*t, *seq));
            let (t, advance) = if next < head {
                (next.0, Some(next_cpu))
            } else if head != NO_ADVANCE {
                (head.0, None)
            } else {
                break;
            };
            if t > self.cfg.horizon {
                self.clock = self.cfg.horizon;
                break;
            }
            self.clock = t;
            self.stats.loop_events += 1;
            match advance {
                Some(ci) => {
                    self.advance[ci] = NO_ADVANCE;
                    self.sync_cpu(ci, t);
                    self.step_cpu(ci, probe, t);
                    self.resched_advance(ci, t);
                }
                None => {
                    let Reverse((_, _, ev)) = self.queue.pop().expect("peeked head");
                    self.dispatch(probe, t, ev);
                }
            }
            if self.live_apps == 0 {
                break;
            }
        }

        let end_time = self.clock;
        // Close any frames still open so the trace's enter/exit pairs
        // balance (LTTng likewise flushes/closes streams at stop).
        for ci in 0..self.cpus.len() {
            let ctx = self.cpus[ci].ctx_tid();
            let id = self.cpus[ci].id;
            while let Some(frame) = self.cpus[ci].frames.pop() {
                probe.kernel_exit(end_time, id, ctx, frame.activity);
            }
        }
        let tasks = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskMeta {
                tid: t.tid,
                name: t.name.clone(),
                kind: t.body.kind_name().to_string(),
                job: t.job,
                rank: t.rank,
                user_time: t.user_time,
                faults: self.fault_counts[i],
            })
            .collect();
        RunResult {
            end_time,
            tasks,
            // Counters move to the result; the node is done after run().
            stats: std::mem::take(&mut self.stats),
        }
    }

    /// Handle one event popped from the queue at time `t`.
    fn dispatch<P: Probe + ?Sized>(&mut self, probe: &mut P, t: Nanos, ev: Ev) {
        match ev {
            Ev::Tick { cpu } => {
                let ci = cpu.index();
                self.sync_cpu(ci, t);
                self.handle_tick(ci, probe, t);
                self.resched_advance(ci, t);
                let skewed = t + self.cfg.tick_period;
                self.push_ev(skewed, Ev::Tick { cpu });
            }
            Ev::NetArrive { rpc_id } => {
                let ci = self.cfg.net_irq_cpu.index();
                self.sync_cpu(ci, t);
                // Find the transmitted RPC.
                let Some(pos) = self.pending_responses.iter().position(|r| r.id == rpc_id) else {
                    return;
                };
                let rpc = self.pending_responses.swap_remove(pos);
                self.stats.net_irqs += 1;
                let factor = self.current_cache_factor(ci);
                let cost = self.cfg.costs.net_irq.sample(&mut self.s_cost, factor);
                self.push_frame(
                    ci,
                    probe,
                    t,
                    Activity::NetworkInterrupt,
                    cost,
                    FrameExit::NetIrq { rpc },
                );
                self.resched_advance(ci, t);
            }
            Ev::HrTimer { cpu, tid } => {
                let ci = cpu.index();
                self.sync_cpu(ci, t);
                self.stats.hrtimer_irqs += 1;
                let factor = self.current_cache_factor(ci);
                let cost = self.cfg.costs.hrtimer_irq.sample(&mut self.s_cost, factor);
                self.push_frame(
                    ci,
                    probe,
                    t,
                    Activity::HrTimerInterrupt,
                    cost,
                    FrameExit::HrTimerIrq { wake: tid },
                );
                self.resched_advance(ci, t);
            }
            Ev::Steal { cpu } => {
                let ci = cpu.index();
                self.sync_cpu(ci, t);
                let p = self.perturb.as_mut().expect("steal event without state");
                let dur = p.steal_duration(ci);
                let gap = p.steal_gap(ci).expect("steal scheduled on this cpu");
                // The window preempts whatever is running (user or
                // kernel): steal nests like a hard IRQ.
                self.push_frame(ci, probe, t, Activity::Steal, dur, FrameExit::Steal);
                self.resched_advance(ci, t);
                self.push_ev(t + dur + gap, Ev::Steal { cpu });
            }
        }
    }

    /// One advance step: pop a finished frame or process user stops.
    fn step_cpu<P: Probe + ?Sized>(&mut self, ci: usize, probe: &mut P, t: Nanos) {
        if let Some(top) = self.cpus[ci].frames.last() {
            if top.remaining.is_zero() {
                self.pop_frame(ci, probe, t);
            }
            // else: an earlier event interrupted and re-armed the
            // advance point past this frame's end. Nothing to do.
            return;
        }
        match self.cpus[ci].current {
            Some(tid) => {
                if self.task(tid).is_runnable() {
                    if self.cpus[ci].need_resched {
                        self.start_schedule(ci, probe, t);
                    } else {
                        if self.cpus[ci].user_since.is_none() {
                            self.cpus[ci].user_since = Some(t);
                        }
                        self.process_task(ci, probe, t, tid);
                    }
                } else {
                    self.start_schedule(ci, probe, t);
                }
            }
            None => {
                if !self.cpus[ci].rq.is_empty() {
                    self.start_schedule(ci, probe, t);
                } else if self.cpus[ci].pending.any() {
                    let vec = self.cpus[ci].pending.take_next().unwrap();
                    self.start_softirq(ci, probe, t, vec);
                }
            }
        }
    }
}
