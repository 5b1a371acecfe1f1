//! Reconstruction of kernel-activity intervals from the raw event
//! stream, with correct handling of *nested* events.
//!
//! The paper: "We took particular care of nested events, i.e., events
//! that happen while the OS is already performing other activities. For
//! example, the local timer may raise an interrupt while the kernel is
//! performing a tasklet. Handling nested events is particularly
//! important for obtaining correct statistics."
//!
//! Each `KernelEnter`/`KernelExit` pair becomes an [`ActivityInstance`]
//! whose `self_time` excludes the time spent in activities nested inside
//! it — so per-activity duration statistics are additive: the self times
//! of a nest tree sum exactly to the root's wall span.

use osn_kernel::activity::Activity;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_trace::columns::code;
use osn_trace::{merge_by_key, Event, EventColumns, EventKind};

/// One executed kernel activity, reconstructed from its enter/exit pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActivityInstance {
    pub activity: Activity,
    pub cpu: CpuId,
    /// Task context the activity ran in (the interrupted/served task;
    /// `Tid::IDLE` for the idle loop).
    pub ctx: Tid,
    pub start: Nanos,
    pub end: Nanos,
    /// Execution time excluding nested children.
    pub self_time: Nanos,
    /// Nesting depth at which this instance ran (0 = entered from user
    /// or idle context).
    pub depth: u16,
}

impl ActivityInstance {
    /// Wall-clock span including nested children.
    #[inline]
    pub fn span(&self) -> Nanos {
        self.end - self.start
    }
}

/// Problems found while reconstructing (tolerated, but reported).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NestingReport {
    /// Exits with no matching enter (e.g. trace started mid-activity).
    pub orphan_exits: u64,
    /// Enters never closed (trace ended mid-activity).
    pub unclosed_enters: u64,
    /// Exits whose activity did not match the innermost open enter.
    pub mismatched_exits: u64,
}

impl NestingReport {
    pub fn is_clean(&self) -> bool {
        self.orphan_exits == 0 && self.unclosed_enters == 0 && self.mismatched_exits == 0
    }
}

struct OpenFrame {
    activity: Activity,
    ctx: Tid,
    start: Nanos,
    /// Accumulated self time before the last suspension.
    self_acc: Nanos,
    /// When this frame last (re)gained the CPU.
    resumed: Nanos,
    depth: u16,
}

/// Sentinel `end` of an instance slot whose frame is still open (or was
/// dropped by a mismatched exit / never closed). Far beyond any real
/// trace timestamp.
const PENDING: Nanos = Nanos(u64::MAX);

/// An open frame whose instance slot already sits in the output vector.
struct OpenSlot {
    /// Index of the placeholder in `out`.
    idx: usize,
    activity: Activity,
    /// Accumulated self time before the last suspension.
    self_acc: Nanos,
    /// When this frame last (re)gained the CPU.
    resumed: Nanos,
}

/// The enter/exit pairing state machine for one CPU's stream, as a
/// resumable value: feed it columnar blocks in stream order, then
/// [`finish`] it. [`crate::NoiseAnalysis::from_cpu_blocks`] runs one
/// per CPU.
///
/// Instances are emitted in frame-*open* order with their `end` and
/// `self_time` filled in at close, which leaves the shard sorted by
/// `start` (event times are nondecreasing). Within an equal-`start` run
/// the reference order is descending `end` with ties in close order
/// (its stable sort over close-order emission); open order can differ
/// there — e.g. a zero-width frame opening before a longer sibling at
/// the same timestamp — so `fix_equal_start_runs` re-sorts those runs
/// at [`finish`] using the recorded close sequence. No full per-shard
/// sort is needed.
///
/// Being resumable is what lets a store be decoded one chunk at a time
/// into a reused [`EventColumns`] block and keep pairing across chunk
/// boundaries without materializing the CPU's stream.
///
/// [`finish`]: ColumnPairing::finish
#[derive(Default)]
pub struct ColumnPairing {
    out: Vec<ActivityInstance>,
    /// Close sequence per emitted slot, index-aligned with `out`;
    /// unclosed/dropped slots keep `u32::MAX`.
    close_seq: Vec<u32>,
    stack: Vec<OpenSlot>,
    next_seq: u32,
    dropped: usize,
    report: NestingReport,
}

impl ColumnPairing {
    pub fn new() -> ColumnPairing {
        ColumnPairing::default()
    }

    /// Instances closed so far (monotone; cheap progress probe).
    #[inline]
    pub fn closed(&self) -> usize {
        self.next_seq as usize
    }

    #[inline]
    fn on_enter(&mut self, t: Nanos, cpu: CpuId, ctx: Tid, activity: Activity) {
        // Suspend the currently running frame, if any.
        if let Some(top) = self.stack.last_mut() {
            top.self_acc += t - top.resumed;
        }
        let depth = self.stack.len() as u16;
        self.stack.push(OpenSlot {
            idx: self.out.len(),
            activity,
            self_acc: Nanos::ZERO,
            resumed: t,
        });
        self.out.push(ActivityInstance {
            activity,
            cpu,
            ctx,
            start: t,
            end: PENDING,
            self_time: Nanos::ZERO,
            depth,
        });
        self.close_seq.push(u32::MAX);
    }

    #[inline]
    fn on_exit(&mut self, t: Nanos, activity: Activity) {
        match self.stack.last() {
            None => {
                self.report.orphan_exits += 1;
            }
            Some(top) if top.activity != activity => {
                self.report.mismatched_exits += 1;
                // Drop the unmatched frame to resynchronize; its
                // placeholder stays PENDING and is compacted out at
                // finish.
                self.stack.pop();
                self.dropped += 1;
                if let Some(parent) = self.stack.last_mut() {
                    parent.resumed = t;
                }
            }
            Some(_) => {
                let frame = self.stack.pop().expect("checked non-empty");
                let slot = &mut self.out[frame.idx];
                slot.end = t;
                slot.self_time = frame.self_acc + (t - frame.resumed);
                self.close_seq[frame.idx] = self.next_seq;
                self.next_seq += 1;
                if let Some(parent) = self.stack.last_mut() {
                    parent.resumed = t;
                }
            }
        }
    }

    /// Feed one columnar block (this CPU's next records, in stream
    /// order). The hot loop touches only the `code`, `t`, `tid` and
    /// `a` columns — no [`Event`] is materialized — and falls straight
    /// through for the scheduler/app records pairing ignores.
    pub fn feed_columns(&mut self, cols: &EventColumns) {
        let cpu = cols.cpu;
        // Lockstep zip over the four columns elides the bounds checks a
        // shared index would re-pay per column.
        for (((&c, &t), &tid), &a) in cols
            .code
            .iter()
            .zip(cols.t.iter())
            .zip(cols.tid.iter())
            .zip(cols.a.iter())
        {
            if c == code::ENTER {
                let activity = Activity::from_code(a as u16)
                    .expect("column records are validated on construction");
                self.on_enter(Nanos(t), cpu, Tid(tid), activity);
            } else if c == code::EXIT {
                let activity = Activity::from_code(a as u16)
                    .expect("column records are validated on construction");
                self.on_exit(Nanos(t), activity);
            }
        }
    }

    /// Account unclosed frames, compact dropped placeholders, restore
    /// the reference order within equal-`start` runs, and return the
    /// shard.
    pub fn finish(mut self) -> (Vec<ActivityInstance>, NestingReport) {
        self.report.unclosed_enters += self.stack.len() as u64;
        self.dropped += self.stack.len();
        if self.dropped > 0 {
            // Compact out the PENDING placeholders, keeping
            // `close_seq` aligned.
            let mut w = 0;
            for r in 0..self.out.len() {
                if self.out[r].end != PENDING {
                    self.out[w] = self.out[r];
                    self.close_seq[w] = self.close_seq[r];
                    w += 1;
                }
            }
            self.out.truncate(w);
            self.close_seq.truncate(w);
        }
        fix_equal_start_runs(&mut self.out, &self.close_seq);
        (self.out, self.report)
    }
}

/// Re-sort every maximal run of instances sharing a `start` into the
/// reference order: descending `end`, ties in close order. Such runs
/// are rare and short (frames opened at the very same nanosecond), so
/// the per-run scratch allocation is negligible.
fn fix_equal_start_runs(v: &mut [ActivityInstance], close_seq: &[u32]) {
    let mut i = 0;
    while i < v.len() {
        let mut j = i + 1;
        while j < v.len() && v[j].start == v[i].start {
            j += 1;
        }
        if j - i > 1 {
            let run = &mut v[i..j];
            let seq = &close_seq[i..j];
            let mut order: Vec<usize> = (0..run.len()).collect();
            order.sort_unstable_by_key(|&k| (std::cmp::Reverse(run[k].end), seq[k]));
            let sorted: Vec<ActivityInstance> = order.iter().map(|&k| run[k]).collect();
            run.copy_from_slice(&sorted);
        }
        i = j;
    }
}

/// K-way merge of per-CPU shards by (start, cpu), summing the reports.
/// Keys never tie across shards (the cpu differs), so the merge plus
/// per-shard FIFO reproduces the reference stable sort exactly: the
/// result is bit-identical to [`reconstruct_reference`], instances
/// sorted by `(start, cpu, Reverse(end))` — a *parent* sorts before its
/// children.
pub fn merge_shards(
    shards: Vec<(Vec<ActivityInstance>, NestingReport)>,
) -> (Vec<ActivityInstance>, NestingReport) {
    let mut report = NestingReport::default();
    for (_, r) in &shards {
        report.orphan_exits += r.orphan_exits;
        report.unclosed_enters += r.unclosed_enters;
        report.mismatched_exits += r.mismatched_exits;
    }
    let lens: Vec<usize> = shards.iter().map(|(v, _)| v.len()).collect();
    let mut out = Vec::with_capacity(lens.iter().sum());
    merge_by_key(
        &lens,
        |i, j| {
            let inst = &shards[i].0[j];
            (inst.start, inst.cpu.0)
        },
        |i, j| out.push(shards[i].0[j]),
    );
    (out, report)
}

/// The retained sequential reference path (the pre-sharding
/// implementation): one global walk over all events with per-CPU
/// stacks, then a global sort. Kept as the differential-test oracle and
/// the benchmark baseline. `events` is the trace in `(t, cpu)` order
/// ([`osn_trace::Trace::events`]).
pub fn reconstruct_reference(events: &[Event]) -> (Vec<ActivityInstance>, NestingReport) {
    let ncpus = events
        .iter()
        .map(|e| e.cpu.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut stacks: Vec<Vec<OpenFrame>> = (0..ncpus).map(|_| Vec::new()).collect();
    let mut out = Vec::new();
    let mut report = NestingReport::default();

    for event in events {
        let Event { t, cpu, tid, kind } = *event;
        let stack = &mut stacks[cpu.0 as usize];
        match kind {
            EventKind::KernelEnter(activity) => {
                if let Some(top) = stack.last_mut() {
                    top.self_acc += t - top.resumed;
                }
                let depth = stack.len() as u16;
                stack.push(OpenFrame {
                    activity,
                    ctx: tid,
                    start: t,
                    self_acc: Nanos::ZERO,
                    resumed: t,
                    depth,
                });
            }
            EventKind::KernelExit(activity) => match stack.last() {
                None => {
                    report.orphan_exits += 1;
                }
                Some(top) if top.activity != activity => {
                    report.mismatched_exits += 1;
                    stack.pop();
                    if let Some(parent) = stack.last_mut() {
                        parent.resumed = t;
                    }
                }
                Some(_) => {
                    let frame = stack.pop().expect("checked non-empty");
                    let self_time = frame.self_acc + (t - frame.resumed);
                    out.push(ActivityInstance {
                        activity: frame.activity,
                        cpu,
                        ctx: frame.ctx,
                        start: frame.start,
                        end: t,
                        self_time,
                        depth: frame.depth,
                    });
                    if let Some(parent) = stack.last_mut() {
                        parent.resumed = t;
                    }
                }
            },
            _ => {}
        }
    }

    for stack in &stacks {
        report.unclosed_enters += stack.len() as u64;
    }
    out.sort_by_key(|i| (i.start, i.cpu.0, std::cmp::Reverse(i.end)));
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseAnalysis;
    use osn_kernel::activity::SoftirqVec;
    use osn_trace::Trace;

    /// The instances and report of the analysis engine's pairing.
    fn pair(trace: &Trace) -> (Vec<ActivityInstance>, NestingReport) {
        let analysis = NoiseAnalysis::analyze(trace, &[], Nanos::ZERO);
        (analysis.instances, analysis.nesting_report)
    }

    fn enter(t: u64, cpu: u16, tid: u32, a: Activity) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind: EventKind::KernelEnter(a),
        }
    }
    fn exit(t: u64, cpu: u16, tid: u32, a: Activity) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind: EventKind::KernelExit(a),
        }
    }

    const TIMER: Activity = Activity::TimerInterrupt;
    const SOFTIRQ: Activity = Activity::Softirq(SoftirqVec::Timer);

    #[test]
    fn simple_pair() {
        let trace = Trace::new(vec![enter(10, 0, 1, TIMER), exit(15, 0, 1, TIMER)], vec![]);
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances.len(), 1);
        let i = instances[0];
        assert_eq!(i.activity, TIMER);
        assert_eq!(i.start, Nanos(10));
        assert_eq!(i.end, Nanos(15));
        assert_eq!(i.self_time, Nanos(5));
        assert_eq!(i.span(), Nanos(5));
        assert_eq!(i.depth, 0);
        assert_eq!(i.ctx, Tid(1));
    }

    #[test]
    fn nested_self_time_excludes_children() {
        // Softirq [10, 40) interrupted by a timer irq [20, 28):
        // softirq self = 30 - 8 = 22; timer self = 8.
        let trace = Trace::new(
            vec![
                enter(10, 0, 1, SOFTIRQ),
                enter(20, 0, 1, TIMER),
                exit(28, 0, 1, TIMER),
                exit(40, 0, 1, SOFTIRQ),
            ],
            vec![],
        );
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances.len(), 2);
        // Sorted by start: softirq (parent) first.
        assert_eq!(instances[0].activity, SOFTIRQ);
        assert_eq!(instances[0].self_time, Nanos(22));
        assert_eq!(instances[0].span(), Nanos(30));
        assert_eq!(instances[0].depth, 0);
        assert_eq!(instances[1].activity, TIMER);
        assert_eq!(instances[1].self_time, Nanos(8));
        assert_eq!(instances[1].depth, 1);
        // Additivity: self times sum to the root's span.
        let total: Nanos = instances.iter().map(|i| i.self_time).sum();
        assert_eq!(total, instances[0].span());
    }

    #[test]
    fn triple_nesting() {
        let fault = Activity::PageFault(osn_kernel::activity::FaultKind::AnonZero);
        let trace = Trace::new(
            vec![
                enter(0, 0, 1, fault),
                enter(10, 0, 1, SOFTIRQ),
                enter(12, 0, 1, TIMER),
                exit(16, 0, 1, TIMER),
                exit(20, 0, 1, SOFTIRQ),
                exit(30, 0, 1, fault),
            ],
            vec![],
        );
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances.len(), 3);
        let by_act = |a: Activity| instances.iter().find(|i| i.activity == a).unwrap();
        assert_eq!(by_act(fault).self_time, Nanos(20));
        assert_eq!(by_act(SOFTIRQ).self_time, Nanos(6));
        assert_eq!(by_act(TIMER).self_time, Nanos(4));
        assert_eq!(by_act(fault).depth, 0);
        assert_eq!(by_act(SOFTIRQ).depth, 1);
        assert_eq!(by_act(TIMER).depth, 2);
    }

    #[test]
    fn per_cpu_streams_are_independent() {
        let trace = Trace::new(
            vec![
                enter(10, 0, 1, TIMER),
                enter(11, 1, 2, SOFTIRQ),
                exit(14, 1, 2, SOFTIRQ),
                exit(15, 0, 1, TIMER),
            ],
            vec![],
        );
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances.len(), 2);
        // No cross-CPU nesting: both at depth 0.
        assert!(instances.iter().all(|i| i.depth == 0));
    }

    #[test]
    fn orphan_exit_reported() {
        let trace = Trace::new(vec![exit(5, 0, 1, TIMER)], vec![]);
        let (instances, report) = pair(&trace);
        assert!(instances.is_empty());
        assert_eq!(report.orphan_exits, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn unclosed_enter_reported() {
        let trace = Trace::new(vec![enter(5, 0, 1, TIMER)], vec![]);
        let (instances, report) = pair(&trace);
        assert!(instances.is_empty());
        assert_eq!(report.unclosed_enters, 1);
    }

    #[test]
    fn mismatched_exit_resynchronizes() {
        let trace = Trace::new(
            vec![
                enter(0, 0, 1, TIMER),
                exit(5, 0, 1, SOFTIRQ), // wrong activity
                enter(10, 0, 1, TIMER),
                exit(15, 0, 1, TIMER),
            ],
            vec![],
        );
        let (instances, report) = pair(&trace);
        assert_eq!(report.mismatched_exits, 1);
        // The later well-formed pair still reconstructs.
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].start, Nanos(10));
    }

    #[test]
    fn zero_duration_activity() {
        let trace = Trace::new(vec![enter(7, 0, 1, TIMER), exit(7, 0, 1, TIMER)], vec![]);
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances[0].self_time, Nanos(0));
    }

    #[test]
    fn non_kernel_events_ignored() {
        let trace = Trace::new(
            vec![
                enter(1, 0, 1, TIMER),
                Event {
                    t: Nanos(2),
                    cpu: CpuId(0),
                    tid: Tid(1),
                    kind: EventKind::AppMark { mark: 0, value: 0 },
                },
                exit(3, 0, 1, TIMER),
            ],
            vec![],
        );
        let (instances, report) = pair(&trace);
        assert!(report.is_clean());
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].self_time, Nanos(2));
    }
}
