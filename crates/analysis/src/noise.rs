//! The paper's noise definition, applied per task: group every kernel
//! interruption of a *runnable* application process into
//! [`Interruption`]s and decompose each into per-activity components —
//! exactly the per-interruption detail of the Synthetic OS Noise Chart
//! (Figs 1b, 9b, 10) and of Fig 2b's event breakdown.
//!
//! Accounting rules (paper §III):
//!
//! 1. Only activities *not requested* by the application are noise
//!    (syscall service shows up as a `Requested` component, reported
//!    but excluded from noise totals).
//! 2. Kernel activity only counts while the process is runnable;
//!    everything that happens while it is blocked (communication, I/O
//!    wait, sleep) is invisible to it.
//! 3. Nested events are attributed by self time (see
//!    [`crate::nesting`]), so component durations are additive.

use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Mutex;

use osn_kernel::activity::{Activity, NoiseCategory};
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::columns::code;
use osn_trace::{merge_streams_into, Event, EventColumns, Trace};

use crate::nesting::{
    merge_into, reconstruct_reference, ActivityInstance, ColumnPairing, NestingReport,
};
use crate::timeline::{build_timelines_events, Phase, TaskTimeline, Timelines, UNKNOWN_CPU};

/// One piece of an interruption.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Component {
    /// A kernel activity ran in the task's context (or inside its
    /// preemption gap), for `self_time` nanoseconds.
    Activity(Activity),
    /// Another task ran while this one waited on a runqueue.
    Preemption { by: Tid },
}

impl Component {
    /// Noise category for breakdowns. `None` for requested services.
    pub fn category(&self) -> Option<NoiseCategory> {
        match self {
            Component::Activity(a) => match a.category() {
                NoiseCategory::Requested => None,
                c => Some(c),
            },
            Component::Preemption { .. } => Some(NoiseCategory::Preemption),
        }
    }
}

/// A maximal interval during which a runnable task could not execute
/// user code. Its decomposition lives in the owning [`TaskNoise`]'s
/// component arena: read it with [`TaskNoise::components`], or with
/// [`NoiseAnalysis::components`] when only the analysis is at hand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interruption {
    pub task: Tid,
    pub start: Nanos,
    pub end: Nanos,
    /// This interruption's components are the arena's
    /// `first..first + len`.
    pub(crate) first: u32,
    pub(crate) len: u32,
}

impl Interruption {
    #[inline]
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// One interruption's `(component, duration)` pairs, borrowed from its
/// task's arena; durations sum to [`Interruption::duration`]. Derefs to
/// the slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Components<'a>(pub(crate) &'a [(Component, Nanos)]);

impl<'a> Components<'a> {
    pub fn as_slice(self) -> &'a [(Component, Nanos)] {
        self.0
    }

    /// Total noise (excludes `Requested` components).
    pub fn noise(self) -> Nanos {
        self.0
            .iter()
            .filter(|(c, _)| c.category().is_some())
            .map(|(_, d)| *d)
            .sum()
    }

    /// Noise by category.
    pub fn by_category(self) -> HashMap<NoiseCategory, Nanos> {
        category_totals(self.0)
    }

    /// Does any component match this activity?
    pub fn contains_activity(self, activity: Activity) -> bool {
        self.0
            .iter()
            .any(|(c, _)| matches!(c, Component::Activity(a) if *a == activity))
    }
}

impl std::ops::Deref for Components<'_> {
    type Target = [(Component, Nanos)];

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl<'a> IntoIterator for Components<'a> {
    type Item = &'a (Component, Nanos);
    type IntoIter = std::slice::Iter<'a, (Component, Nanos)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Each noise category's summed duration over `components`; a category
/// is present once any component has it, even at zero duration.
fn category_totals<'a>(
    components: impl IntoIterator<Item = &'a (Component, Nanos)>,
) -> HashMap<NoiseCategory, Nanos> {
    let mut map = HashMap::new();
    for (c, d) in components {
        if let Some(cat) = c.category() {
            *map.entry(cat).or_insert(Nanos::ZERO) += *d;
        }
    }
    map
}

/// All noise experienced by one task. The components of all its
/// interruptions sit back to back in one arena, in interruption order,
/// so a task's decomposition is two allocations however many
/// interruptions it has.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskNoise {
    pub tid: Tid,
    pub interruptions: Vec<Interruption>,
    /// Every interruption's components, in interruption order.
    components: Vec<(Component, Nanos)>,
    /// Total time the task was runnable (running + ready).
    pub runnable_time: Nanos,
    /// Total time actually on a CPU.
    pub running_time: Nanos,
    /// Wall extent (first to last span).
    pub wall: Nanos,
}

impl TaskNoise {
    /// The components of `i`, one of this task's interruptions.
    #[inline]
    pub fn components(&self, i: &Interruption) -> Components<'_> {
        let first = i.first as usize;
        Components(&self.components[first..first + i.len as usize])
    }

    /// Total noise across all interruptions.
    pub fn total_noise(&self) -> Nanos {
        self.interruptions
            .iter()
            .map(|i| self.components(i).noise())
            .sum()
    }

    /// Noise by category, added into one map across all interruptions.
    pub fn by_category(&self) -> HashMap<NoiseCategory, Nanos> {
        category_totals(self.interruptions.iter().flat_map(|i| self.components(i)))
    }

    /// All `(start, self_time)` samples of a specific activity (for
    /// per-event statistics and histograms).
    pub fn activity_samples(&self, matches: impl Fn(Activity) -> bool) -> Vec<(Nanos, Nanos)> {
        let mut out = Vec::new();
        for i in &self.interruptions {
            for (c, d) in self.components(i) {
                if let Component::Activity(a) = c {
                    if matches(*a) {
                        out.push((i.start, *d));
                    }
                }
            }
        }
        out
    }
}

/// The complete noise analysis of a trace.
pub struct NoiseAnalysis {
    /// Every reconstructed kernel activity instance (all contexts).
    pub instances: Vec<ActivityInstance>,
    pub nesting_report: NestingReport,
    pub timelines: Timelines,
    /// Noise per analyzed (application) task.
    pub tasks: HashMap<Tid, TaskNoise>,
    /// Trace end used to close open spans.
    pub end: Nanos,
}

/// One CPU's working buffers: the pairing's output (the CPU's shard of
/// instances, start-ordered) with its report, the pairing's
/// close-sequence scratch, the CPU's scheduler records, and the shard's
/// position index, which the CPU's worker builds right after pairing.
/// Positions are `u32` offsets into the shard. Every buffer is cleared
/// before use.
#[derive(Default)]
struct CpuBuffers {
    shard: Vec<ActivityInstance>,
    report: NestingReport,
    close_seq: Vec<u32>,
    sched: Vec<Event>,
    /// Positions of the asynchronous (irq/softirq) instances — the only
    /// ones Ready-gap decomposition can select.
    asyncs: Vec<u32>,
    /// Positions of each application context's instances: `ctx[s]`
    /// for slot `s` of the sorted application tids. This is the index
    /// that turns the per-task obstruction gather from O(instances) per
    /// rank into O(own instances).
    ctx: Vec<Vec<u32>>,
}

impl CpuBuffers {
    /// Index the shard for the application contexts `tids` (sorted,
    /// deduplicated).
    fn index(&mut self, tids: &[Tid]) {
        self.asyncs.clear();
        self.ctx.resize_with(tids.len(), Vec::new);
        self.ctx.iter_mut().for_each(Vec::clear);
        // Consecutive instances usually share a context (nested frames,
        // repeated ticks in one residency), so memoize the last lookup.
        let mut last: Option<(Tid, Option<usize>)> = None;
        for (pos, inst) in self.shard.iter().enumerate() {
            let pos = pos as u32;
            if is_async(inst.activity) {
                self.asyncs.push(pos);
            }
            let slot = match last {
                Some((t, s)) if t == inst.ctx => s,
                _ => {
                    let s = tids.binary_search_by_key(&inst.ctx.0, |t| t.0).ok();
                    last = Some((inst.ctx, s));
                    s
                }
            };
            if let Some(s) = slot {
                self.ctx[s].push(pos);
            }
        }
    }
}

/// What Ready-gap decomposition reads of one CPU: its asynchronous
/// instances, as start-ordered positions into `instances`.
#[derive(Clone, Copy)]
struct CpuView<'a> {
    instances: &'a [ActivityInstance],
    asyncs: &'a [u32],
}

/// Per-CPU instance positions, grown on demand to the highest CPU any
/// instance ran on.
fn per_cpu_positions(instances: &[ActivityInstance]) -> Vec<Vec<u32>> {
    // Counting pass first so every per-CPU list is allocated exactly
    // once at its final size.
    let mut counts: Vec<usize> = Vec::new();
    for inst in instances {
        let c = inst.cpu.0 as usize;
        if c >= counts.len() {
            counts.resize(c + 1, 0);
        }
        counts[c] += 1;
    }
    let mut per_cpu: Vec<Vec<u32>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (pos, inst) in instances.iter().enumerate() {
        per_cpu[inst.cpu.0 as usize].push(pos as u32);
    }
    per_cpu
}

/// Is this instance asynchronous kernel work (interrupt top half or
/// softirq)? Only these can be re-categorized out of a Ready gap by
/// [`decompose_gap`].
#[inline]
fn is_async(a: Activity) -> bool {
    a.is_hardirq() || matches!(a, Activity::Softirq(_))
}

/// Positions of asynchronous instances per CPU, same shape as
/// `per_cpu`. Ready-gap decomposition only ever selects these, so the
/// gap window scan walks this (small) index instead of every instance
/// on the CPU — under heavy oversubscription every instance sits inside
/// many other tasks' Ready gaps, which made the full scan quadratic.
fn per_cpu_async_positions(instances: &[ActivityInstance], ncpus: usize) -> Vec<Vec<u32>> {
    let mut per_cpu: Vec<Vec<u32>> = vec![Vec::new(); ncpus];
    for (pos, inst) in instances.iter().enumerate() {
        if is_async(inst.activity) {
            per_cpu[inst.cpu.0 as usize].push(pos as u32);
        }
    }
    per_cpu
}

/// Per-CPU running segments of every task (for preemptor attribution),
/// into `running`, indexed by CPU: every list is cleared, and the lists
/// grow to the highest CPU any task runs on. The timelines, not the
/// kernel instances, size it, so a CPU that records no kernel frame
/// still attributes its Ready gaps to the tasks that ran there.
fn running_segments(timelines: &Timelines, running: &mut Vec<Vec<(Nanos, Nanos, Tid)>>) {
    running.iter_mut().for_each(Vec::clear);
    for (tid, tl) in timelines.iter() {
        for span in tl.spans.iter() {
            if let Phase::Running(cpu) = span.phase {
                let c = cpu.0 as usize;
                if c >= running.len() {
                    running.resize_with(c + 1, Vec::new);
                }
                running[c].push((span.start, span.end, *tid));
            }
        }
    }
    for segs in running.iter_mut() {
        // Running spans on one CPU are disjoint with positive length,
        // so starts are unique and the unstable sort is deterministic
        // despite the HashMap iteration order above; the full key keeps
        // it deterministic even on degenerate inputs.
        segs.sort_unstable_by_key(|&(s, e, t)| (s, e, t.0));
    }
}

/// The application tasks of a task table, in table order.
fn app_tids(tasks: &[TaskMeta]) -> Vec<Tid> {
    tasks
        .iter()
        .filter(|m| m.kind == "app")
        .map(|m| m.tid)
        .collect()
}

/// The working buffers of one thread's analyses, kept from call to
/// call so a thread that analyzes many traces (a cluster node worker,
/// a report loop) stops allocating and page-faulting them anew. The
/// calling thread owns it and lends each CPU's buffers to the worker
/// that pairs that CPU, so the reuse holds at any worker count. Every
/// buffer is cleared before use; nothing in it outlives one analysis
/// as data. A task's own vectors are not in it: they become the task's
/// result.
#[derive(Default)]
struct Workspace {
    /// The application tids, sorted and deduplicated: context slot `s`
    /// is `tids[s]`.
    tids: Vec<Tid>,
    /// Per CPU, indexed by CPU.
    cpus: Vec<CpuBuffers>,
    /// The scheduler records of all CPUs in `(t, cpu)` order.
    sched: Vec<Event>,
    running: Vec<Vec<(Nanos, Nanos, Tid)>>,
}

impl Workspace {
    fn set_tasks(&mut self, tasks: &[TaskMeta]) {
        self.tids.clear();
        self.tids.extend(app_tids(tasks));
        self.tids.sort_unstable_by_key(|t| t.0);
        self.tids.dedup();
    }
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Run `f` with this thread's [`Workspace`]. The workspace is moved
/// out for the call, so an analysis nested inside `f` on this thread
/// starts from an empty one instead of sharing it.
fn with_workspace<T>(f: impl FnOnce(&mut Workspace) -> T) -> T {
    let mut ws = WORKSPACE.take();
    let out = f(&mut ws);
    WORKSPACE.set(ws);
    out
}

/// One job of the parallel back half.
enum BackHalfJob {
    Merged(Vec<ActivityInstance>),
    Task(TaskNoise),
}

impl NoiseAnalysis {
    /// Analyze a trace. `end` should be the run's end time.
    ///
    /// This is the sharded engine: each CPU's stream is paired and
    /// indexed on its own worker ([`NoiseAnalysis::from_cpu_blocks`]),
    /// timelines come from the one serial walk the reference engine
    /// also uses ([`build_timelines_events`]), the per-task obstruction
    /// gather goes through per-context position lists instead of
    /// scanning every instance per rank, and application tasks are
    /// analyzed in parallel across host threads. Output is
    /// bit-identical to [`NoiseAnalysis::analyze_reference`].
    pub fn analyze(trace: &Trace, tasks: &[TaskMeta], end: Nanos) -> NoiseAnalysis {
        let shards = trace.ncpus().max(tasks.len());
        Self::analyze_with_workers(trace, tasks, end, crate::par::default_workers(shards))
    }

    /// [`NoiseAnalysis::analyze`] with an explicit worker budget.
    pub fn analyze_with_workers(
        trace: &Trace,
        tasks: &[TaskMeta],
        end: Nanos,
        workers: usize,
    ) -> NoiseAnalysis {
        let Ok(analysis) =
            Self::from_cpu_blocks(trace.ncpus(), tasks, end, workers, |cpu, feed| {
                // Every CPU below `ncpus` has a column block (possibly empty).
                if let Some(cols) = trace.cpu_columns(cpu) {
                    feed(cols);
                }
                Ok::<(), Infallible>(())
            });
        analysis
    }

    /// The one way events become an analysis, for any source of
    /// per-CPU column blocks: an in-memory [`Trace`] lends each CPU's columns whole,
    /// `osn-core`'s store path lends one decoded chunk at a time.
    ///
    /// `blocks(cpu, feed)` passes that CPU's blocks to `feed` in stream
    /// order and may fail; the first failure (in CPU order) is
    /// returned. Each CPU runs on its own worker: one
    /// [`ColumnPairing`] pairs its enter/exit records while its
    /// `SWITCH`/`WAKEUP` records are collected for the timelines, and
    /// the worker then indexes its shard by context. The scheduler
    /// streams are merged (filtering commutes with the `(t, cpu)`
    /// merge) into [`build_timelines_events`], the timeline walk the
    /// reference engine shares. The per-task back half reads the
    /// shards in place, so the global merge of the shards into
    /// `instances` runs as one more job beside the tasks. The calling
    /// thread's buffers are reused from call to call.
    pub fn from_cpu_blocks<E, B>(
        ncpus: usize,
        tasks: &[TaskMeta],
        end: Nanos,
        workers: usize,
        blocks: B,
    ) -> Result<NoiseAnalysis, E>
    where
        E: Send,
        B: Fn(CpuId, &mut dyn FnMut(&EventColumns)) -> Result<(), E> + Sync,
    {
        with_workspace(|ws| {
            ws.set_tasks(tasks);
            ws.cpus.resize_with(ncpus, CpuBuffers::default);
            // Each CPU's worker takes its buffers out of its slot and
            // puts them back filled.
            let slots: Vec<Mutex<CpuBuffers>> = ws.cpus.drain(..).map(Mutex::new).collect();
            let tids = &ws.tids;
            let fed = crate::par::parallel_map(ncpus, workers, |c| {
                let slot = &slots[c];
                let mut bufs = std::mem::take(&mut *slot.lock().expect("slot lock"));
                let mut pairing = ColumnPairing::with_buffers(
                    std::mem::take(&mut bufs.shard),
                    std::mem::take(&mut bufs.close_seq),
                );
                let sched = &mut bufs.sched;
                sched.clear();
                let fed = blocks(CpuId(c as u16), &mut |cols| {
                    pairing.feed_columns(cols);
                    for (i, &k) in cols.code.iter().enumerate() {
                        if k == code::SWITCH || k == code::WAKEUP {
                            sched.push(cols.event(i));
                        }
                    }
                });
                ((bufs.shard, bufs.report), bufs.close_seq) = pairing.finish_with_scratch();
                debug_assert!(bufs.shard.iter().all(|i| i.cpu.0 as usize == c));
                bufs.index(tids);
                *slot.lock().expect("slot lock") = bufs;
                fed
            });
            ws.cpus.extend(
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("slot lock")),
            );
            fed.into_iter().collect::<Result<(), E>>()?;

            let streams: Vec<Vec<Event>> = ws
                .cpus
                .iter_mut()
                .map(|b| std::mem::take(&mut b.sched))
                .collect();
            merge_streams_into(&streams, &mut ws.sched);
            for (bufs, stream) in ws.cpus.iter_mut().zip(streams) {
                bufs.sched = stream;
            }
            let timelines = build_timelines_events(&ws.sched, tasks, end, workers);
            Ok(Self::assemble(None, timelines, tasks, end, workers, ws))
        })
    }

    /// Assemble an analysis from already-reconstructed parts.
    /// `instances` must be in the reference global order
    /// (`(start, cpu, Reverse(end))`, as [`merge_shards`] leaves them)
    /// and `timelines` built over the same events; given that, the
    /// result is bit-identical to [`NoiseAnalysis::analyze`]. The
    /// merged vector is split back into per-CPU shards and indexed,
    /// which [`NoiseAnalysis::from_cpu_blocks`] does on its per-CPU
    /// workers instead, and the same per-task back half runs on them.
    ///
    /// [`merge_shards`]: crate::nesting::merge_shards
    pub fn from_parts(
        instances: Vec<ActivityInstance>,
        nesting_report: NestingReport,
        timelines: Timelines,
        tasks: &[TaskMeta],
        end: Nanos,
        workers: usize,
    ) -> NoiseAnalysis {
        with_workspace(|ws| {
            ws.set_tasks(tasks);
            ws.cpus.iter_mut().for_each(|b| b.shard.clear());
            for inst in &instances {
                let cpu = inst.cpu.0 as usize;
                if cpu >= ws.cpus.len() {
                    ws.cpus.resize_with(cpu + 1, CpuBuffers::default);
                }
                ws.cpus[cpu].shard.push(*inst);
            }
            for bufs in &mut ws.cpus {
                bufs.index(&ws.tids);
            }
            let given = Some((instances, nesting_report));
            Self::assemble(given, timelines, tasks, end, workers, ws)
        })
    }

    /// The per-task back half over indexed shards: analyze every
    /// application task in parallel and bundle the results. Unless the
    /// merged instances are `given`, merging the shards into them is
    /// one more job in the same pool, so it overlaps the tasks.
    fn assemble(
        given: Option<(Vec<ActivityInstance>, NestingReport)>,
        timelines: Timelines,
        tasks: &[TaskMeta],
        end: Nanos,
        workers: usize,
        ws: &mut Workspace,
    ) -> NoiseAnalysis {
        running_segments(&timelines, &mut ws.running);
        let ws = &*ws;
        let views: Vec<CpuView<'_>> = ws
            .cpus
            .iter()
            .map(|b| CpuView {
                instances: &b.shard,
                asyncs: &b.asyncs,
            })
            .collect();

        let targets: Vec<Tid> = app_tids(tasks)
            .into_iter()
            .filter(|t| timelines.get(*t).is_some())
            .collect();
        let merge_jobs = usize::from(given.is_none());
        let jobs = crate::par::parallel_map(merge_jobs + targets.len(), workers, |k| {
            if k < merge_jobs {
                let shards: Vec<&[ActivityInstance]> =
                    ws.cpus.iter().map(|b| b.shard.as_slice()).collect();
                let mut instances = Vec::new();
                merge_into(&shards, &mut instances);
                return BackHalfJob::Merged(instances);
            }
            let tid = targets[k - merge_jobs];
            let tl = timelines.get(tid).expect("filtered above");
            let slot = ws.tids.binary_search_by_key(&tid.0, |t| t.0).ok();
            BackHalfJob::Task(analyze_task(tid, slot, tl, ws, &views, &ws.running))
        });

        let (mut instances, nesting_report) = given.unwrap_or_else(|| {
            let mut report = NestingReport::default();
            for bufs in &ws.cpus {
                report.add(&bufs.report);
            }
            (Vec::new(), report)
        });
        let mut result: HashMap<Tid, TaskNoise> = HashMap::with_capacity(targets.len());
        let mut targets = targets.into_iter();
        for job in jobs {
            match job {
                BackHalfJob::Merged(merged) => instances = merged,
                BackHalfJob::Task(noise) => {
                    result.insert(targets.next().expect("one job per target"), noise);
                }
            }
        }

        NoiseAnalysis {
            instances,
            nesting_report,
            timelines,
            tasks: result,
            end,
        }
    }

    /// The retained sequential reference engine (the pre-sharding seed
    /// path): global reconstruction, the engine's own timeline walk
    /// ([`build_timelines_events`]), and the O(ranks × instances)
    /// obstruction gather. Kept as the
    /// differential-test oracle and the benchmark baseline.
    pub fn analyze_reference(trace: &Trace, tasks: &[TaskMeta], end: Nanos) -> NoiseAnalysis {
        Self::analyze_reference_events(&trace.events(), tasks, end)
    }

    /// [`NoiseAnalysis::analyze_reference`] over a trace already merged
    /// into `(t, cpu)` order ([`Trace::events`]), so a benchmark can
    /// time the reference engine without the merge.
    pub fn analyze_reference_events(
        events: &[Event],
        tasks: &[TaskMeta],
        end: Nanos,
    ) -> NoiseAnalysis {
        let (instances, nesting_report) = reconstruct_reference(events);
        let timelines = build_timelines_events(events, tasks, end, 1);

        let per_cpu = per_cpu_positions(&instances);
        let mut running = Vec::new();
        running_segments(&timelines, &mut running);
        let per_cpu_async = per_cpu_async_positions(&instances, per_cpu.len());
        let views: Vec<CpuView<'_>> = per_cpu_async
            .iter()
            .map(|asyncs| CpuView {
                instances: &instances,
                asyncs,
            })
            .collect();

        let mut result: HashMap<Tid, TaskNoise> = HashMap::new();
        for meta in tasks.iter().filter(|m| m.kind == "app") {
            let Some(tl) = timelines.get(meta.tid) else {
                continue;
            };
            let noise =
                analyze_task_reference(meta.tid, tl, &instances, &per_cpu, &views, &running);
            result.insert(meta.tid, noise);
        }

        NoiseAnalysis {
            instances,
            nesting_report,
            timelines,
            tasks: result,
            end,
        }
    }

    /// The components of `i`, an interruption of one of this
    /// analysis's tasks (as [`NoiseAnalysis::interruptions_of`] returns
    /// them).
    pub fn components(&self, i: &Interruption) -> Components<'_> {
        self.tasks
            .get(&i.task)
            .expect("an interruption of an analyzed task")
            .components(i)
    }

    /// All interruptions of a set of tasks, merged and time-sorted
    /// (job-level view).
    pub fn interruptions_of(&self, tids: &[Tid]) -> Vec<&Interruption> {
        let total: usize = tids
            .iter()
            .filter_map(|t| self.tasks.get(t))
            .map(|tn| tn.interruptions.len())
            .sum();
        let mut out: Vec<&Interruption> = Vec::with_capacity(total);
        out.extend(
            tids.iter()
                .filter_map(|t| self.tasks.get(t))
                .flat_map(|tn| tn.interruptions.iter()),
        );
        // Unstable is fine with a full key: (start, end, task) is
        // unique per interruption, so the order is deterministic.
        out.sort_unstable_by_key(|i| (i.start, i.end, i.task.0));
        out
    }
}

/// Obstruction interval: a piece of time the task could not run user
/// code, with its decomposition source.
#[derive(Clone, Copy)]
enum Obstruction {
    /// Kernel activity in the task's own context: the instance at `pos`
    /// of `cpu`'s view.
    OwnContext { cpu: u16, pos: u32 },
    /// Waiting on `cpu`'s runqueue.
    ReadyGap {
        start: Nanos,
        end: Nanos,
        cpu: CpuId,
    },
}

/// The instance an own-context obstruction names.
#[inline]
fn own<'a>(views: &[CpuView<'a>], cpu: u16, pos: u32) -> &'a ActivityInstance {
    &views[cpu as usize].instances[pos as usize]
}

/// A task's gathered obstructions, each pushed with its
/// `(start, end, insertion)` sort key.
#[derive(Default)]
struct Obstructions {
    list: Vec<Obstruction>,
    keys: Vec<(Nanos, Nanos, u32)>,
}

impl Obstructions {
    fn push(&mut self, obstruction: Obstruction, start: Nanos, end: Nanos) {
        self.keys.push((start, end, self.list.len() as u32));
        self.list.push(obstruction);
    }

    fn push_own(&mut self, cpu: u16, pos: u32, inst: &ActivityInstance) {
        self.push(Obstruction::OwnContext { cpu, pos }, inst.start, inst.end);
    }
}

/// Indexed obstruction gather: only this task's own-context instances
/// are visited, through its slot's position list on each CPU.
fn analyze_task(
    tid: Tid,
    slot: Option<usize>,
    tl: &TaskTimeline,
    ws: &Workspace,
    views: &[CpuView<'_>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    let mut gathered = Obstructions::default();
    // Each CPU's list is start-ordered, so a monotonic cursor over the
    // contiguous timeline spans replaces the per-instance binary search
    // of [`TaskTimeline::runnable_at`]; it restarts with each CPU's
    // list. CPUs go in order, as the reference gather visits them.
    let spans = &tl.spans;
    for (cpu, bufs) in ws.cpus.iter().enumerate() {
        let Some(list) = slot.and_then(|s| bufs.ctx.get(s)) else {
            break;
        };
        let mut idx = 0usize;
        for &pos in list {
            let inst = &bufs.shard[pos as usize];
            while idx < spans.len() && spans[idx].end <= inst.start {
                idx += 1;
            }
            let runnable = spans
                .get(idx)
                .is_some_and(|s| s.start <= inst.start && s.phase.is_runnable());
            if runnable {
                gathered.push_own(cpu as u16, pos, inst);
            }
        }
    }
    merge_obstructions(tid, tl, gathered, views, running)
}

/// Reference obstruction gather: scan every instance on every CPU —
/// O(instances) per rank, the quadratic path the index replaces.
/// Every view holds the global `instances`.
fn analyze_task_reference(
    tid: Tid,
    tl: &TaskTimeline,
    instances: &[ActivityInstance],
    per_cpu: &[Vec<u32>],
    views: &[CpuView<'_>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    let mut gathered = Obstructions::default();
    for (cpu, cpu_insts) in per_cpu.iter().enumerate() {
        for &pos in cpu_insts {
            let inst = &instances[pos as usize];
            if inst.ctx == tid && tl.runnable_at(inst.start) {
                gathered.push_own(cpu as u16, pos, inst);
            }
        }
    }
    merge_obstructions(tid, tl, gathered, views, running)
}

/// Shared back half of the per-task analysis: append Ready gaps to the
/// gathered own-context obstructions, merge touching/overlapping
/// obstructions into interruptions, decompose each into the component
/// arena, and total up the timeline.
fn merge_obstructions(
    tid: Tid,
    tl: &TaskTimeline,
    mut gathered: Obstructions,
    views: &[CpuView<'_>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    for span in tl.ready_spans() {
        let Phase::Ready(cpu) = span.phase else {
            unreachable!()
        };
        let (start, end) = (span.start, span.end);
        gathered.push(Obstruction::ReadyGap { start, end, cpu }, start, end);
    }
    let Obstructions {
        list: obstructions,
        mut keys,
    } = gathered;
    // Sort the `(start, end, insertion)` key tuples instead of the
    // obstructions themselves, at plain-integer comparison cost. The
    // third component is unique, so the order is the stable
    // by-interval order the reference uses. The gather pushed a few
    // already-sorted runs (own-context per CPU, then ready gaps), which
    // the run-detecting stable sort merges in close to linear time.
    keys.sort();

    // Merge touching/overlapping obstructions into interruptions. In
    // sorted order a group is a contiguous key range: its start is the
    // first key's start and its end the running maximum — no per-group
    // rescan, no borrowed group vector. Each group's components are
    // appended to the arena and the interruption keeps their range.
    // Every obstruction yields at most one interruption, and all but a
    // Ready gap with kernel work in it at most one component, so the
    // key count sizes both vectors.
    let mut interruptions = Vec::with_capacity(keys.len());
    let mut components = Vec::with_capacity(keys.len());
    let mut overlap = Vec::new();
    let mut flush = |group: &[(Nanos, Nanos, u32)], end: Nanos| {
        let first = components.len();
        for &(_, _, idx) in group {
            match obstructions[idx as usize] {
                Obstruction::OwnContext { cpu, pos } => {
                    let inst = own(views, cpu, pos);
                    if !inst.self_time.is_zero() {
                        components.push((Component::Activity(inst.activity), inst.self_time));
                    }
                }
                Obstruction::ReadyGap { start, end, cpu } => {
                    decompose_gap(
                        tid,
                        start,
                        end,
                        cpu,
                        views,
                        running,
                        &mut overlap,
                        &mut components,
                    );
                }
            }
        }
        interruptions.push(Interruption {
            task: tid,
            start: group[0].0,
            end,
            first: first as u32,
            len: (components.len() - first) as u32,
        });
    };

    let mut group_at = 0usize;
    let mut group_end = Nanos::ZERO;
    for i in 0..keys.len() {
        let (s, e, _) = keys[i];
        if i > group_at && s > group_end {
            flush(&keys[group_at..i], group_end);
            group_at = i;
            group_end = e;
        } else {
            group_end = group_end.max(e);
        }
    }
    if group_at < keys.len() {
        flush(&keys[group_at..], group_end);
    }

    let runnable_time = tl.time_where(|p| p.is_runnable());
    let running_time = tl.time_where(|p| p.is_running());
    let wall = tl.extent().map(|(s, e)| e - s).unwrap_or(Nanos::ZERO);

    TaskNoise {
        tid,
        interruptions,
        components,
        runnable_time,
        running_time,
        wall,
    }
}

/// Decompose a Ready gap on `cpu` into categorized kernel components
/// plus a preemption remainder attributed to the dominant preemptor.
/// `overlap` is caller-owned scratch (cleared here); gaps see only a
/// handful of distinct preemptors, so a linear-probed vector beats a
/// hash map and — unlike one — breaks duration ties deterministically
/// (first preemptor to reach the maximum wins).
#[allow(clippy::too_many_arguments)]
fn decompose_gap(
    tid: Tid,
    start: Nanos,
    end: Nanos,
    cpu: CpuId,
    views: &[CpuView<'_>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
    overlap: &mut Vec<(Tid, Nanos)>,
    components: &mut Vec<(Component, Nanos)>,
) {
    let gap = end - start;
    if gap.is_zero() {
        return;
    }
    let mut kernel_time = Nanos::ZERO;
    if cpu != UNKNOWN_CPU && (cpu.0 as usize) < views.len() {
        // Only asynchronous kernel work (interrupt top halves and
        // softirqs) is re-categorized out of the gap: that work would
        // have hit this CPU regardless of who ran. The preempting
        // task's own faults, syscalls and schedule frames are part of
        // "kernel and user daemons that preempt the application's
        // processes" (§IV-A) and stay in the preemption bucket.
        // Straddling fragments also stay (partial self-times would
        // distort duration statistics). The async index pre-filters the
        // activity kinds, so only candidates are visited here.
        let CpuView { instances, asyncs } = views[cpu.0 as usize];
        // Positions are sorted by start: find the window in the gap.
        let lo = asyncs.partition_point(|&p| instances[p as usize].start < start);
        for &pos in &asyncs[lo..] {
            let inst = &instances[pos as usize];
            if inst.start >= end {
                break;
            }
            if inst.ctx == tid {
                continue; // already counted as OwnContext
            }
            if inst.end <= end && !inst.self_time.is_zero() {
                components.push((Component::Activity(inst.activity), inst.self_time));
                kernel_time += inst.self_time;
            }
        }
    }
    let remainder = gap.saturating_sub(kernel_time);
    if remainder.is_zero() {
        return;
    }
    // Dominant preemptor: the task with the largest running overlap in
    // the gap on this runqueue's CPU.
    let by = if cpu != UNKNOWN_CPU && (cpu.0 as usize) < running.len() {
        let segs = &running[cpu.0 as usize];
        let lo = segs.partition_point(|(_, e, _)| *e <= start);
        overlap.clear();
        for &(s, e, who) in &segs[lo..] {
            if s >= end {
                break;
            }
            if who == tid {
                continue;
            }
            let o = e.min(end).saturating_sub(s.max(start));
            if !o.is_zero() {
                match overlap.iter_mut().find(|(w, _)| *w == who) {
                    Some((_, d)) => *d += o,
                    None => overlap.push((who, o)),
                }
            }
        }
        let mut by = Tid::IDLE;
        let mut best = Nanos::ZERO;
        for &(who, d) in overlap.iter() {
            if d > best {
                best = d;
                by = who;
            }
        }
        by
    } else {
        Tid::IDLE
    };
    components.push((Component::Preemption { by }, remainder));
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::{SchedPart, SoftirqVec};
    use osn_kernel::hooks::SwitchState;
    use osn_trace::{Event, EventKind};

    const TIMER: Activity = Activity::TimerInterrupt;
    const TSOFT: Activity = Activity::Softirq(SoftirqVec::Timer);
    const PRE: Activity = Activity::Schedule(SchedPart::Before);
    const POST: Activity = Activity::Schedule(SchedPart::After);

    fn ev(t: u64, cpu: u16, tid: u32, kind: EventKind) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind,
        }
    }

    fn meta(tid: u32, kind: &str) -> TaskMeta {
        TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: kind.into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }
    }

    /// The paper's Fig 2b scenario: tick + softirq + schedule +
    /// daemon preemption + schedule = ONE interruption with five
    /// components.
    #[test]
    fn fig2b_interruption_decomposition() {
        let app = 1u32;
        let daemon = 2u32;
        let events = vec![
            // App starts running at t=0.
            ev(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(app),
                },
            ),
            // Timer irq [1000, 3178) in app ctx.
            ev(1000, 0, app, EventKind::KernelEnter(TIMER)),
            ev(3178, 0, app, EventKind::KernelExit(TIMER)),
            // run_timer_softirq [3178, 5020), wakes the daemon.
            ev(3178, 0, app, EventKind::KernelEnter(TSOFT)),
            ev(
                4000,
                0,
                daemon,
                EventKind::Wakeup {
                    tid: Tid(daemon),
                    waker: Tid(app),
                },
            ),
            ev(5020, 0, app, EventKind::KernelExit(TSOFT)),
            // schedule pre [5020, 5402) in app ctx.
            ev(5020, 0, app, EventKind::KernelEnter(PRE)),
            ev(5402, 0, app, EventKind::KernelExit(PRE)),
            // switch app -> daemon (app preempted).
            ev(
                5402,
                0,
                app,
                EventKind::SchedSwitch {
                    prev: Tid(app),
                    prev_state: SwitchState::Preempted,
                    next: Tid(daemon),
                },
            ),
            // daemon's schedule post [5402, 5581) in daemon ctx.
            ev(5402, 0, daemon, EventKind::KernelEnter(POST)),
            ev(5581, 0, daemon, EventKind::KernelExit(POST)),
            // daemon runs user work until 7617, then blocks: sched pre.
            ev(7617, 0, daemon, EventKind::KernelEnter(PRE)),
            ev(7900, 0, daemon, EventKind::KernelExit(PRE)),
            ev(
                7900,
                0,
                daemon,
                EventKind::SchedSwitch {
                    prev: Tid(daemon),
                    prev_state: SwitchState::BlockedWait,
                    next: Tid(app),
                },
            ),
            // app's schedule post [7900, 8079).
            ev(7900, 0, app, EventKind::KernelEnter(POST)),
            ev(8079, 0, app, EventKind::KernelExit(POST)),
        ];
        let trace = Trace::new(events, vec![]);
        let tasks = [meta(app, "app"), meta(daemon, "events")];
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos(20_000));
        assert!(analysis.nesting_report.is_clean());

        let tn = analysis.tasks.get(&Tid(app)).unwrap();
        assert_eq!(
            tn.interruptions.len(),
            1,
            "one merged interruption, got {:?}",
            tn.interruptions
        );
        let i = &tn.interruptions[0];
        let components = tn.components(i);
        assert_eq!(i.start, Nanos(1000));
        assert_eq!(i.end, Nanos(8079));
        // Components: timer 2178 and softirq 1842 in the app's own
        // context; the app's schedule halves 382 + 179; the whole gap
        // (daemon residency including its own schedule frames) is
        // preemption — §IV-A's "kernel and user daemons that preempt
        // the application's processes".
        let get = |c: Component| -> Nanos {
            components
                .iter()
                .filter(|(cc, _)| *cc == c)
                .map(|(_, d)| *d)
                .sum()
        };
        assert_eq!(get(Component::Activity(TIMER)), Nanos(2178));
        assert_eq!(get(Component::Activity(TSOFT)), Nanos(1842));
        assert_eq!(get(Component::Activity(PRE)), Nanos(382));
        assert_eq!(get(Component::Activity(POST)), Nanos(179));
        let preempt = get(Component::Preemption { by: Tid(daemon) });
        assert_eq!(preempt, Nanos(7900 - 5402));
        // Components sum to the interruption duration.
        let total: Nanos = components.iter().map(|(_, d)| *d).sum();
        assert_eq!(total, i.duration());
        // Category view.
        let cats = components.by_category();
        assert_eq!(cats[&NoiseCategory::Periodic], Nanos(2178 + 1842));
        assert_eq!(cats[&NoiseCategory::Scheduling], Nanos(382 + 179));
        assert_eq!(cats[&NoiseCategory::Preemption], preempt);
    }

    #[test]
    fn blocked_task_sees_no_noise() {
        // Task blocks on comm at t=10; a timer interrupt at t=20 in the
        // idle ctx must NOT appear in its noise.
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            ev(
                10,
                0,
                1,
                EventKind::SchedSwitch {
                    prev: Tid(1),
                    prev_state: SwitchState::BlockedComm,
                    next: Tid(0),
                },
            ),
            ev(20, 0, 0, EventKind::KernelEnter(TIMER)),
            ev(25, 0, 0, EventKind::KernelExit(TIMER)),
        ];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &[meta(1, "app")], Nanos(100));
        let tn = analysis.tasks.get(&Tid(1)).unwrap();
        assert_eq!(tn.total_noise(), Nanos::ZERO);
        assert!(tn.interruptions.is_empty());
    }

    #[test]
    fn syscall_is_requested_not_noise() {
        let read = Activity::Syscall(osn_kernel::activity::SyscallKind::Read);
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            ev(10, 0, 1, EventKind::KernelEnter(read)),
            ev(30, 0, 1, EventKind::KernelExit(read)),
        ];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &[meta(1, "app")], Nanos(100));
        let tn = analysis.tasks.get(&Tid(1)).unwrap();
        // The syscall produced an interruption record...
        assert_eq!(tn.interruptions.len(), 1);
        // ...but contributes zero *noise*.
        assert_eq!(tn.total_noise(), Nanos::ZERO);
        assert_eq!(tn.interruptions[0].duration(), Nanos(20));
    }

    #[test]
    fn separate_interruptions_stay_separate() {
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            ev(100, 0, 1, EventKind::KernelEnter(TIMER)),
            ev(110, 0, 1, EventKind::KernelExit(TIMER)),
            ev(500, 0, 1, EventKind::KernelEnter(TIMER)),
            ev(512, 0, 1, EventKind::KernelExit(TIMER)),
        ];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &[meta(1, "app")], Nanos(1000));
        let tn = analysis.tasks.get(&Tid(1)).unwrap();
        assert_eq!(tn.interruptions.len(), 2);
        assert_eq!(tn.interruptions[0].duration(), Nanos(10));
        assert_eq!(tn.interruptions[1].duration(), Nanos(12));
        assert_eq!(tn.total_noise(), Nanos(22));
    }

    #[test]
    fn activity_samples_extraction() {
        let events = vec![
            ev(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            ev(100, 0, 1, EventKind::KernelEnter(TIMER)),
            ev(110, 0, 1, EventKind::KernelExit(TIMER)),
            ev(500, 0, 1, EventKind::KernelEnter(TSOFT)),
            ev(507, 0, 1, EventKind::KernelExit(TSOFT)),
        ];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &[meta(1, "app")], Nanos(1000));
        let tn = analysis.tasks.get(&Tid(1)).unwrap();
        let timers = tn.activity_samples(|a| a == TIMER);
        assert_eq!(timers, vec![(Nanos(100), Nanos(10))]);
        let all = tn.activity_samples(|a| a.is_noise());
        assert_eq!(all.len(), 2);
    }
}
