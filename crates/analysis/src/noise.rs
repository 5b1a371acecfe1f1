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

use std::collections::HashMap;
use std::convert::Infallible;

use osn_kernel::activity::{Activity, NoiseCategory};
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::columns::code;
use osn_trace::{merge_streams, Event, EventColumns, Trace};

use crate::nesting::{
    merge_shards, reconstruct_reference, ActivityInstance, ColumnPairing, NestingReport,
};
use crate::timeline::{
    build_timelines_events, build_timelines_reference, Phase, TaskTimeline, Timelines, UNKNOWN_CPU,
};

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
/// user code, decomposed into components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interruption {
    pub task: Tid,
    pub start: Nanos,
    pub end: Nanos,
    /// `(component, duration)` pairs; durations sum to `duration()`.
    pub components: Vec<(Component, Nanos)>,
}

impl Interruption {
    #[inline]
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    /// Total noise (excludes `Requested` components).
    pub fn noise(&self) -> Nanos {
        self.components
            .iter()
            .filter(|(c, _)| c.category().is_some())
            .map(|(_, d)| *d)
            .sum()
    }

    /// Noise by category.
    pub fn by_category(&self) -> HashMap<NoiseCategory, Nanos> {
        let mut map = HashMap::new();
        for (c, d) in &self.components {
            if let Some(cat) = c.category() {
                *map.entry(cat).or_insert(Nanos::ZERO) += *d;
            }
        }
        map
    }

    /// Does any component match this activity?
    pub fn contains_activity(&self, activity: Activity) -> bool {
        self.components
            .iter()
            .any(|(c, _)| matches!(c, Component::Activity(a) if *a == activity))
    }
}

/// All noise experienced by one task.
#[derive(Clone, Debug, Default)]
pub struct TaskNoise {
    pub tid: Tid,
    pub interruptions: Vec<Interruption>,
    /// Total time the task was runnable (running + ready).
    pub runnable_time: Nanos,
    /// Total time actually on a CPU.
    pub running_time: Nanos,
    /// Wall extent (first to last span).
    pub wall: Nanos,
}

impl TaskNoise {
    /// Total noise across all interruptions.
    pub fn total_noise(&self) -> Nanos {
        self.interruptions.iter().map(|i| i.noise()).sum()
    }

    /// Noise by category.
    pub fn by_category(&self) -> HashMap<NoiseCategory, Nanos> {
        let mut map = HashMap::new();
        for i in &self.interruptions {
            for (cat, d) in i.by_category() {
                *map.entry(cat).or_insert(Nanos::ZERO) += d;
            }
        }
        map
    }

    /// All `(start, self_time)` samples of a specific activity (for
    /// per-event statistics and histograms).
    pub fn activity_samples(&self, matches: impl Fn(Activity) -> bool) -> Vec<(Nanos, Nanos)> {
        let mut out = Vec::new();
        for i in &self.interruptions {
            for (c, d) in &i.components {
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

/// Position indexes into a reconstructed instance list, shared by every
/// per-task analysis. Positions are `u32` offsets into the global
/// instance vector — half the footprint of wide references, and
/// trivially `Send` across the worker pool.
struct InstanceIndex {
    /// Positions per CPU, start-ordered (the global list is
    /// `(start, cpu, Reverse(end))`-sorted, so a per-CPU subsequence
    /// stays start-ordered).
    per_cpu: Vec<Vec<u32>>,
    /// Asynchronous (irq/softirq) positions per CPU — the only
    /// instances Ready-gap decomposition can select; filled in the same
    /// walk as `per_ctx` so the instance array is traversed once.
    per_cpu_async: Vec<Vec<u32>>,
    /// Positions per application context, *cpu-major* — exactly the
    /// order the reference gather visits them — keyed by tid, sorted
    /// for binary search. This is the index that turns the per-task
    /// obstruction gather from O(instances) per rank into
    /// O(own instances).
    per_ctx: Vec<(Tid, Vec<u32>)>,
}

impl InstanceIndex {
    fn build(instances: &[ActivityInstance], app_tids: &[Tid]) -> InstanceIndex {
        let per_cpu = per_cpu_positions(instances);
        let mut per_cpu_async: Vec<Vec<u32>> = vec![Vec::new(); per_cpu.len()];

        let mut tids: Vec<Tid> = app_tids.to_vec();
        tids.sort_unstable_by_key(|t| t.0);
        tids.dedup();
        let mut per_ctx: Vec<(Tid, Vec<u32>)> = tids.into_iter().map(|t| (t, Vec::new())).collect();
        // Cpu-major fill so each context's list replays the reference
        // gather order (cpu 0..n, start-ordered within each) exactly.
        // Consecutive instances usually share a context (nested frames,
        // repeated ticks in one residency), so memoize the last lookup.
        let mut last: Option<(Tid, Option<usize>)> = None;
        for (cpu, list) in per_cpu.iter().enumerate() {
            let asyncs = &mut per_cpu_async[cpu];
            for &pos in list {
                let inst = &instances[pos as usize];
                if is_async(inst.activity) {
                    asyncs.push(pos);
                }
                let ctx = inst.ctx;
                let slot = match last {
                    Some((t, s)) if t == ctx => s,
                    _ => {
                        let s = per_ctx.binary_search_by_key(&ctx.0, |(t, _)| t.0).ok();
                        last = Some((ctx, s));
                        s
                    }
                };
                if let Some(slot) = slot {
                    per_ctx[slot].1.push(pos);
                }
            }
        }
        InstanceIndex {
            per_cpu,
            per_cpu_async,
            per_ctx,
        }
    }

    fn ctx_positions(&self, tid: Tid) -> &[u32] {
        match self.per_ctx.binary_search_by_key(&tid.0, |(t, _)| t.0) {
            Ok(i) => &self.per_ctx[i].1,
            Err(_) => &[],
        }
    }

    fn ncpus(&self) -> usize {
        self.per_cpu.len()
    }
}

/// Per-CPU instance positions, grown on demand — the array length is
/// the instance-derived CPU count, which also sizes the running-segment
/// index (`decompose_gap` bounds-checks against it).
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

/// Per-CPU running segments of every task (for preemptor attribution).
fn running_segments(timelines: &Timelines, ncpus: usize) -> Vec<Vec<(Nanos, Nanos, Tid)>> {
    let mut running: Vec<Vec<(Nanos, Nanos, Tid)>> = vec![Vec::new(); ncpus];
    for (tid, tl) in timelines.iter() {
        for span in tl.spans.iter() {
            if let Phase::Running(cpu) = span.phase {
                if (cpu.0 as usize) < ncpus {
                    running[cpu.0 as usize].push((span.start, span.end, *tid));
                }
            }
        }
    }
    for segs in &mut running {
        // Running spans on one CPU are disjoint with positive length,
        // so starts are unique and the unstable sort is deterministic
        // despite the HashMap iteration order above; the full key keeps
        // it deterministic even on degenerate inputs.
        segs.sort_unstable_by_key(|&(s, e, t)| (s, e, t.0));
    }
    running
}

impl NoiseAnalysis {
    /// Analyze a trace. `end` should be the run's end time.
    ///
    /// This is the sharded engine: each CPU's stream is paired on its
    /// own worker ([`NoiseAnalysis::from_cpu_blocks`]), timelines are
    /// partitioned by task, the per-task obstruction gather goes
    /// through a per-context position index instead of scanning every
    /// instance per rank, and application tasks are analyzed in
    /// parallel across host threads. Output is bit-identical to
    /// [`NoiseAnalysis::analyze_reference`].
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
    /// `SWITCH`/`WAKEUP` records are collected for the timelines.
    /// The pairing shards then go through [`merge_shards`], the
    /// scheduler streams through [`merge_streams`] (filtering commutes
    /// with the `(t, cpu)` merge), and the per-task back half runs on
    /// the result.
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
        let per_cpu = crate::par::parallel_map(ncpus, workers, |c| {
            let mut pairing = ColumnPairing::new();
            let mut sched: Vec<Event> = Vec::new();
            blocks(CpuId(c as u16), &mut |cols| {
                pairing.feed_columns(cols);
                for (i, &k) in cols.code.iter().enumerate() {
                    if k == code::SWITCH || k == code::WAKEUP {
                        sched.push(cols.event(i));
                    }
                }
            })?;
            Ok((pairing.finish(), sched))
        });
        let mut shards = Vec::with_capacity(ncpus);
        let mut streams = Vec::with_capacity(ncpus);
        for cpu in per_cpu {
            let (shard, sched) = cpu?;
            shards.push(shard);
            streams.push(sched);
        }
        let (instances, nesting_report) = merge_shards(shards);
        let timelines = build_timelines_events(&merge_streams(streams), tasks, end, workers);
        Ok(assemble(
            instances,
            nesting_report,
            timelines,
            tasks,
            end,
            workers,
        ))
    }

    /// Assemble an analysis from already-reconstructed parts.
    /// `instances` must be in the reference global order
    /// (`(start, cpu, Reverse(end))`, as [`merge_shards`] leaves them)
    /// and `timelines` built over the same events; given that, the
    /// result is bit-identical to [`NoiseAnalysis::analyze`].
    pub fn from_parts(
        instances: Vec<ActivityInstance>,
        nesting_report: NestingReport,
        timelines: Timelines,
        tasks: &[TaskMeta],
        end: Nanos,
        workers: usize,
    ) -> NoiseAnalysis {
        assemble(instances, nesting_report, timelines, tasks, end, workers)
    }

    /// The retained sequential reference engine (the pre-sharding seed
    /// path): global reconstruction, single-walk timelines, and the
    /// O(ranks × instances) obstruction gather. Kept as the
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
        let timelines = build_timelines_reference(events, tasks, end);

        let per_cpu = per_cpu_positions(&instances);
        let running = running_segments(&timelines, per_cpu.len());
        let per_cpu_async = per_cpu_async_positions(&instances, per_cpu.len());

        let mut result: HashMap<Tid, TaskNoise> = HashMap::new();
        for meta in tasks.iter().filter(|m| m.kind == "app") {
            let Some(tl) = timelines.get(meta.tid) else {
                continue;
            };
            let noise = analyze_task_reference(
                meta.tid,
                tl,
                &instances,
                &per_cpu,
                &per_cpu_async,
                &running,
            );
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

/// Back half of the sharded engine: index the reconstructed
/// instances, analyze every application task in parallel, and bundle
/// the results.
fn assemble(
    instances: Vec<ActivityInstance>,
    nesting_report: NestingReport,
    timelines: Timelines,
    tasks: &[TaskMeta],
    end: Nanos,
    workers: usize,
) -> NoiseAnalysis {
    let apps: Vec<Tid> = tasks
        .iter()
        .filter(|m| m.kind == "app")
        .map(|m| m.tid)
        .collect();
    let index = InstanceIndex::build(&instances, &apps);
    let running = running_segments(&timelines, index.ncpus());

    let targets: Vec<Tid> = apps
        .into_iter()
        .filter(|t| timelines.get(*t).is_some())
        .collect();
    let noises = crate::par::parallel_map(targets.len(), workers, |i| {
        let tid = targets[i];
        let tl = timelines.get(tid).expect("filtered above");
        analyze_task(
            tid,
            tl,
            &instances,
            index.ctx_positions(tid),
            &index.per_cpu_async,
            &running,
        )
    });
    let result: HashMap<Tid, TaskNoise> = targets.into_iter().zip(noises).collect();

    NoiseAnalysis {
        instances,
        nesting_report,
        timelines,
        tasks: result,
        end,
    }
}

/// Obstruction interval: a piece of time the task could not run user
/// code, with its decomposition source.
enum Obstruction<'a> {
    /// Kernel activity in the task's own context.
    OwnContext(&'a ActivityInstance),
    /// Waiting on `cpu`'s runqueue.
    ReadyGap {
        start: Nanos,
        end: Nanos,
        cpu: CpuId,
    },
}

impl Obstruction<'_> {
    fn interval(&self) -> (Nanos, Nanos) {
        match self {
            Obstruction::OwnContext(i) => (i.start, i.end),
            Obstruction::ReadyGap { start, end, .. } => (*start, *end),
        }
    }
}

/// Indexed obstruction gather: only this task's own-context instances
/// are visited, via the per-context position index.
fn analyze_task(
    tid: Tid,
    tl: &TaskTimeline,
    instances: &[ActivityInstance],
    ctx_positions: &[u32],
    per_cpu_async: &[Vec<u32>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    let mut obstructions: Vec<Obstruction<'_>> = Vec::with_capacity(ctx_positions.len());
    // The cpu-major position list is start-ordered within each CPU run,
    // so a monotonic cursor over the contiguous timeline spans replaces
    // the per-instance binary search of [`TaskTimeline::runnable_at`];
    // the cursor rewinds when a new CPU run restarts the clock.
    let spans = &tl.spans;
    let mut idx = 0usize;
    let mut prev_start = Nanos::ZERO;
    for &pos in ctx_positions {
        let inst = &instances[pos as usize];
        if inst.start < prev_start {
            idx = 0;
        }
        prev_start = inst.start;
        while idx < spans.len() && spans[idx].end <= inst.start {
            idx += 1;
        }
        let runnable = spans
            .get(idx)
            .is_some_and(|s| s.start <= inst.start && s.phase.is_runnable());
        if runnable {
            obstructions.push(Obstruction::OwnContext(inst));
        }
    }
    merge_obstructions(tid, tl, obstructions, instances, per_cpu_async, running)
}

/// Reference obstruction gather: scan every instance on every CPU —
/// O(instances) per rank, the quadratic path the index replaces.
fn analyze_task_reference(
    tid: Tid,
    tl: &TaskTimeline,
    instances: &[ActivityInstance],
    per_cpu: &[Vec<u32>],
    per_cpu_async: &[Vec<u32>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    let mut obstructions: Vec<Obstruction<'_>> = Vec::new();
    for cpu_insts in per_cpu {
        for &pos in cpu_insts {
            let inst = &instances[pos as usize];
            if inst.ctx == tid && tl.runnable_at(inst.start) {
                obstructions.push(Obstruction::OwnContext(inst));
            }
        }
    }
    merge_obstructions(tid, tl, obstructions, instances, per_cpu_async, running)
}

/// Shared back half of the per-task analysis: append Ready gaps, merge
/// touching/overlapping obstructions into interruptions, decompose, and
/// total up the timeline.
fn merge_obstructions<'a>(
    tid: Tid,
    tl: &'a TaskTimeline,
    mut obstructions: Vec<Obstruction<'a>>,
    instances: &[ActivityInstance],
    per_cpu_async: &[Vec<u32>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
) -> TaskNoise {
    for span in tl.ready_spans() {
        let Phase::Ready(cpu) = span.phase else {
            unreachable!()
        };
        obstructions.push(Obstruction::ReadyGap {
            start: span.start,
            end: span.end,
            cpu,
        });
    }
    // Sort `(start, end, insertion)` key tuples instead of the
    // obstructions themselves: the third component is unique, so the
    // unstable sort is deterministic and reproduces the stable
    // by-interval order the reference uses — at plain-integer
    // comparison cost, and the 24-byte tuples move instead of the
    // enums. The gather pushed several already-sorted runs (own-context
    // per CPU, then ready gaps), which the pattern-defeating sort
    // exploits.
    let mut keys: Vec<(Nanos, Nanos, u32)> = obstructions
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let (s, e) = o.interval();
            (s, e, i as u32)
        })
        .collect();
    keys.sort_unstable();

    // Merge touching/overlapping obstructions into interruptions. In
    // sorted order a group is a contiguous key range: its start is the
    // first key's start and its end the running maximum — no per-group
    // rescan, no borrowed group vector.
    let mut interruptions: Vec<Interruption> = Vec::new();
    // Preemptor-overlap scratch, reused across every gap of this task.
    let mut overlap: Vec<(Tid, Nanos)> = Vec::new();

    let flush = |group: &[(Nanos, Nanos, u32)],
                 end: Nanos,
                 interruptions: &mut Vec<Interruption>,
                 overlap: &mut Vec<(Tid, Nanos)>| {
        let mut components: Vec<(Component, Nanos)> = Vec::with_capacity(group.len());
        for &(_, _, idx) in group {
            match &obstructions[idx as usize] {
                Obstruction::OwnContext(inst) => {
                    if !inst.self_time.is_zero() {
                        components.push((Component::Activity(inst.activity), inst.self_time));
                    }
                }
                Obstruction::ReadyGap { start, end, cpu } => {
                    decompose_gap(
                        tid,
                        *start,
                        *end,
                        *cpu,
                        instances,
                        per_cpu_async,
                        running,
                        overlap,
                        &mut components,
                    );
                }
            }
        }
        interruptions.push(Interruption {
            task: tid,
            start: group[0].0,
            end,
            components,
        });
    };

    let mut group_at = 0usize;
    let mut group_end = Nanos::ZERO;
    for i in 0..keys.len() {
        let (s, e, _) = keys[i];
        if i > group_at && s > group_end {
            flush(
                &keys[group_at..i],
                group_end,
                &mut interruptions,
                &mut overlap,
            );
            group_at = i;
            group_end = e;
        } else {
            group_end = group_end.max(e);
        }
    }
    if group_at < keys.len() {
        flush(
            &keys[group_at..],
            group_end,
            &mut interruptions,
            &mut overlap,
        );
    }

    let runnable_time = tl.time_where(|p| p.is_runnable());
    let running_time = tl.time_where(|p| p.is_running());
    let wall = tl.extent().map(|(s, e)| e - s).unwrap_or(Nanos::ZERO);

    TaskNoise {
        tid,
        interruptions,
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
    instances: &[ActivityInstance],
    per_cpu_async: &[Vec<u32>],
    running: &[Vec<(Nanos, Nanos, Tid)>],
    overlap: &mut Vec<(Tid, Nanos)>,
    components: &mut Vec<(Component, Nanos)>,
) {
    let gap = end - start;
    if gap.is_zero() {
        return;
    }
    let mut kernel_time = Nanos::ZERO;
    if cpu != UNKNOWN_CPU && (cpu.0 as usize) < per_cpu_async.len() {
        // Only asynchronous kernel work (interrupt top halves and
        // softirqs) is re-categorized out of the gap: that work would
        // have hit this CPU regardless of who ran. The preempting
        // task's own faults, syscalls and schedule frames are part of
        // "kernel and user daemons that preempt the application's
        // processes" (§IV-A) and stay in the preemption bucket.
        // Straddling fragments also stay (partial self-times would
        // distort duration statistics). The async index pre-filters the
        // activity kinds, so only candidates are visited here.
        let insts = &per_cpu_async[cpu.0 as usize];
        // Positions are sorted by start: find the window in the gap.
        let lo = insts.partition_point(|&p| instances[p as usize].start < start);
        for &pos in &insts[lo..] {
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
        assert_eq!(i.start, Nanos(1000));
        assert_eq!(i.end, Nanos(8079));
        // Components: timer 2178 and softirq 1842 in the app's own
        // context; the app's schedule halves 382 + 179; the whole gap
        // (daemon residency including its own schedule frames) is
        // preemption — §IV-A's "kernel and user daemons that preempt
        // the application's processes".
        let get = |c: Component| -> Nanos {
            i.components
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
        let total: Nanos = i.components.iter().map(|(_, d)| *d).sum();
        assert_eq!(total, i.duration());
        // Category view.
        let cats = i.by_category();
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
