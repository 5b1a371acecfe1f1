//! Per-task state timelines reconstructed from scheduler events.
//!
//! The paper's noise definition needs to know, for every kernel event,
//! whether the affected process was *runnable* at that moment: "we do
//! not consider a kernel interruption as noise if, when it occurs, a
//! process is blocked waiting for communication". This module rebuilds
//! each task's Running / Ready / Blocked phases from the
//! `sched_switch` / `wakeup` stream.

use std::collections::HashMap;

use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind};

/// A task's scheduling phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Current on the given CPU.
    Running(CpuId),
    /// Runnable, waiting on the given CPU's runqueue (preempted or
    /// just woken). `UNKNOWN_CPU` when the queue is not derivable
    /// (initial staging before the first scheduling event).
    Ready(CpuId),
    /// Not runnable.
    Blocked(SwitchState),
    /// Exited.
    Gone,
}

/// Sentinel for a Ready span whose runqueue CPU is unknown.
pub const UNKNOWN_CPU: CpuId = CpuId(u16::MAX);

impl Phase {
    #[inline]
    pub fn is_runnable(self) -> bool {
        matches!(self, Phase::Running(_) | Phase::Ready(_))
    }

    #[inline]
    pub fn is_ready(self) -> bool {
        matches!(self, Phase::Ready(_))
    }

    #[inline]
    pub fn is_running(self) -> bool {
        matches!(self, Phase::Running(_))
    }
}

/// One segment of a task's life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    pub start: Nanos,
    pub end: Nanos,
    pub phase: Phase,
}

/// The full reconstructed timeline of one task.
#[derive(Clone, Debug, Default)]
pub struct TaskTimeline {
    pub tid: Tid,
    /// Contiguous, non-overlapping, time-ordered spans covering
    /// `[first event, trace end]`.
    pub spans: Vec<PhaseSpan>,
}

impl TaskTimeline {
    /// Phase at time `t` (spans are half-open `[start, end)`).
    pub fn phase_at(&self, t: Nanos) -> Option<Phase> {
        let idx = self.spans.partition_point(|s| s.end <= t);
        self.spans
            .get(idx)
            .and_then(|s| if s.start <= t { Some(s.phase) } else { None })
    }

    /// Is the task runnable (running or ready) at `t`?
    pub fn runnable_at(&self, t: Nanos) -> bool {
        self.phase_at(t).is_some_and(|p| p.is_runnable())
    }

    /// Total time in phases matching the predicate.
    pub fn time_where(&self, pred: impl Fn(Phase) -> bool) -> Nanos {
        self.spans
            .iter()
            .filter(|s| pred(s.phase))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Ready gaps that follow a preemption (the paper's "process
    /// preemption" noise): spans where the task sat runnable on a
    /// queue after being involuntarily descheduled or woken.
    pub fn ready_spans(&self) -> impl Iterator<Item = &PhaseSpan> {
        self.spans.iter().filter(|s| s.phase.is_ready())
    }

    /// Wall interval from first to last span.
    pub fn extent(&self) -> Option<(Nanos, Nanos)> {
        Some((self.spans.first()?.start, self.spans.last()?.end))
    }
}

/// Timelines for every task in a trace.
#[derive(Clone, Debug, Default)]
pub struct Timelines {
    map: HashMap<Tid, TaskTimeline>,
}

impl Timelines {
    pub fn get(&self, tid: Tid) -> Option<&TaskTimeline> {
        self.map.get(&tid)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Tid, &TaskTimeline)> {
        self.map.iter()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

struct Builder {
    spans: Vec<PhaseSpan>,
    phase: Phase,
    since: Nanos,
}

impl Builder {
    fn new(meta: &TaskMeta) -> Self {
        let initial = match meta.kind.as_str() {
            "app" => Phase::Ready(UNKNOWN_CPU),
            _ => Phase::Blocked(SwitchState::BlockedWait),
        };
        Builder {
            spans: Vec::new(),
            phase: initial,
            since: Nanos::ZERO,
        }
    }

    fn transition(&mut self, t: Nanos, next: Phase) {
        if next == self.phase {
            return;
        }
        if t > self.since {
            self.spans.push(PhaseSpan {
                start: self.since,
                end: t,
                phase: self.phase,
            });
        }
        self.phase = next;
        self.since = t;
    }

    fn finish(mut self, end: Nanos, tid: Tid) -> TaskTimeline {
        if end > self.since {
            self.spans.push(PhaseSpan {
                start: self.since,
                end,
                phase: self.phase,
            });
        }
        TaskTimeline {
            tid,
            spans: self.spans,
        }
    }
}

/// Build per-task timelines from events in global `(t, cpu)` order,
/// in one walk that moves each task's builder in stream order.
/// `tasks` supplies initial states (applications start Ready at t=0,
/// daemons Blocked) and `end` caps the final open span (use the trace's
/// last timestamp or the run's end time). Timelines depend only on
/// scheduler events, so `events` may be a pre-filtered
/// `SchedSwitch`/`Wakeup` slice — filtering commutes with the per-CPU
/// merge, making the result bit-identical to a full-trace build. On a
/// self-switch (`prev == next`) the prev-role transition comes first.
///
/// The last argument, a worker count, is unused: the walk is serial,
/// because a replay partitioned by task timed slower than this walk on
/// every paper application.
pub fn build_timelines_events(
    events: &[Event],
    tasks: &[TaskMeta],
    end: Nanos,
    _workers: usize,
) -> Timelines {
    let mut builders: HashMap<Tid, Builder> = tasks
        .iter()
        .map(|meta| (meta.tid, Builder::new(meta)))
        .collect();

    for event in events {
        match event.kind {
            EventKind::SchedSwitch {
                prev,
                prev_state,
                next,
            } => {
                if !prev.is_idle() {
                    if let Some(b) = builders.get_mut(&prev) {
                        let phase = match prev_state {
                            SwitchState::Preempted => Phase::Ready(event.cpu),
                            SwitchState::Exited => Phase::Gone,
                            blocked => Phase::Blocked(blocked),
                        };
                        b.transition(event.t, phase);
                    }
                }
                if !next.is_idle() {
                    if let Some(b) = builders.get_mut(&next) {
                        b.transition(event.t, Phase::Running(event.cpu));
                    }
                }
            }
            EventKind::Wakeup { tid, .. } => {
                if let Some(b) = builders.get_mut(&tid) {
                    // Woken: blocked → ready (ignore spurious wakeups of
                    // already-runnable tasks).
                    if matches!(b.phase, Phase::Blocked(_)) {
                        b.transition(event.t, Phase::Ready(event.cpu));
                    }
                }
            }
            _ => {}
        }
    }

    let map = builders
        .into_iter()
        .map(|(tid, b)| (tid, b.finish(end, tid)))
        .collect();
    Timelines { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_trace::Trace;

    fn meta(tid: u32, kind: &str) -> TaskMeta {
        TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: kind.to_string(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }
    }

    fn switch(t: u64, cpu: u16, prev: u32, st: SwitchState, next: u32) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(prev),
            kind: EventKind::SchedSwitch {
                prev: Tid(prev),
                prev_state: st,
                next: Tid(next),
            },
        }
    }

    fn wakeup(t: u64, cpu: u16, tid: u32, waker: u32) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(waker),
            kind: EventKind::Wakeup {
                tid: Tid(tid),
                waker: Tid(waker),
            },
        }
    }

    #[test]
    fn app_lifecycle() {
        // App 1: ready 0-10, running 10-50, preempted (ready) 50-60,
        // running 60-80, blocks on IO 80-95, woken 95, running 100-120,
        // exits at 120.
        let trace = Trace::new(
            vec![
                switch(10, 0, 0, SwitchState::Preempted, 1),
                switch(50, 0, 1, SwitchState::Preempted, 2),
                switch(60, 0, 2, SwitchState::BlockedWait, 1),
                switch(80, 0, 1, SwitchState::BlockedIo, 0),
                wakeup(95, 0, 1, 2),
                switch(100, 0, 0, SwitchState::Preempted, 1),
                switch(120, 0, 1, SwitchState::Exited, 0),
            ],
            vec![],
        );
        let tls = build_timelines_events(
            &trace.events(),
            &[meta(1, "app"), meta(2, "events")],
            Nanos(150),
            1,
        );
        let tl = tls.get(Tid(1)).unwrap();

        assert_eq!(tl.phase_at(Nanos(5)), Some(Phase::Ready(UNKNOWN_CPU)));
        assert_eq!(tl.phase_at(Nanos(30)), Some(Phase::Running(CpuId(0))));
        assert_eq!(tl.phase_at(Nanos(55)), Some(Phase::Ready(CpuId(0))));
        assert_eq!(tl.phase_at(Nanos(70)), Some(Phase::Running(CpuId(0))));
        assert_eq!(
            tl.phase_at(Nanos(85)),
            Some(Phase::Blocked(SwitchState::BlockedIo))
        );
        assert_eq!(tl.phase_at(Nanos(97)), Some(Phase::Ready(CpuId(0))));
        assert_eq!(tl.phase_at(Nanos(110)), Some(Phase::Running(CpuId(0))));
        assert_eq!(tl.phase_at(Nanos(130)), Some(Phase::Gone));

        assert!(tl.runnable_at(Nanos(55)));
        assert!(!tl.runnable_at(Nanos(85)));

        // Time accounting.
        assert_eq!(tl.time_where(|p| p.is_running()), Nanos(40 + 20 + 20));
        assert_eq!(tl.time_where(|p| p.is_ready()), Nanos(10 + 10 + 5));
    }

    #[test]
    fn daemon_starts_blocked() {
        let trace = Trace::new(vec![wakeup(30, 0, 2, 1)], vec![]);
        let tls = build_timelines_events(&trace.events(), &[meta(2, "rpciod")], Nanos(50), 1);
        let tl = tls.get(Tid(2)).unwrap();
        assert_eq!(
            tl.phase_at(Nanos(10)),
            Some(Phase::Blocked(SwitchState::BlockedWait))
        );
        assert_eq!(tl.phase_at(Nanos(40)), Some(Phase::Ready(CpuId(0))));
    }

    #[test]
    fn spans_are_contiguous_and_cover_extent() {
        let trace = Trace::new(
            vec![
                switch(10, 0, 0, SwitchState::Preempted, 1),
                switch(40, 0, 1, SwitchState::BlockedComm, 0),
                wakeup(70, 0, 1, 0),
                switch(75, 0, 0, SwitchState::Preempted, 1),
            ],
            vec![],
        );
        let tls = build_timelines_events(&trace.events(), &[meta(1, "app")], Nanos(100), 1);
        let tl = tls.get(Tid(1)).unwrap();
        for w in tl.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap in timeline");
        }
        assert_eq!(tl.extent(), Some((Nanos(0), Nanos(100))));
    }

    #[test]
    fn phase_at_boundaries() {
        let trace = Trace::new(vec![switch(10, 0, 0, SwitchState::Preempted, 1)], vec![]);
        let tls = build_timelines_events(&trace.events(), &[meta(1, "app")], Nanos(20), 1);
        let tl = tls.get(Tid(1)).unwrap();
        // Half-open: at exactly t=10 the new phase holds.
        assert_eq!(tl.phase_at(Nanos(10)), Some(Phase::Running(CpuId(0))));
        assert_eq!(tl.phase_at(Nanos(9)), Some(Phase::Ready(UNKNOWN_CPU)));
        // At/after end: no phase.
        assert_eq!(tl.phase_at(Nanos(20)), None);
    }

    #[test]
    fn unknown_tasks_ignored() {
        let trace = Trace::new(vec![switch(10, 0, 9, SwitchState::Preempted, 8)], vec![]);
        let tls = build_timelines_events(&trace.events(), &[meta(1, "app")], Nanos(20), 1);
        assert_eq!(tls.len(), 1);
        assert!(tls.get(Tid(9)).is_none());
    }

    #[test]
    fn self_switch_applies_the_prev_role_first() {
        // Task 1 switches to itself on CPU 0 (preempted) and task 2 on
        // CPU 1 (exiting). Prev role first: each passes through its
        // prev-role phase for zero time and ends Running; next role
        // first would leave task 1 Ready and task 2 Gone.
        let trace = Trace::new(
            vec![
                switch(10, 0, 0, SwitchState::Preempted, 1),
                switch(10, 1, 0, SwitchState::Preempted, 2),
                switch(30, 0, 1, SwitchState::Preempted, 1),
                switch(40, 1, 2, SwitchState::Exited, 2),
            ],
            vec![],
        );
        let tls = build_timelines_events(
            &trace.events(),
            &[meta(1, "app"), meta(2, "app")],
            Nanos(50),
            1,
        );
        let span = |start, end, phase| PhaseSpan {
            start: Nanos(start),
            end: Nanos(end),
            phase,
        };
        let ready = Phase::Ready(UNKNOWN_CPU);
        assert_eq!(
            tls.get(Tid(1)).unwrap().spans,
            vec![
                span(0, 10, ready),
                span(10, 30, Phase::Running(CpuId(0))),
                span(30, 50, Phase::Running(CpuId(0))),
            ]
        );
        assert_eq!(
            tls.get(Tid(2)).unwrap().spans,
            vec![
                span(0, 10, ready),
                span(10, 40, Phase::Running(CpuId(1))),
                span(40, 50, Phase::Running(CpuId(1))),
            ]
        );
        for (_, tl) in tls.iter() {
            assert!(tl.spans.iter().all(|s| s.start < s.end), "zero-length span");
        }
    }

    #[test]
    fn spurious_wakeup_of_running_task_ignored() {
        let trace = Trace::new(
            vec![
                switch(10, 0, 0, SwitchState::Preempted, 1),
                wakeup(20, 0, 1, 2),
            ],
            vec![],
        );
        let tls = build_timelines_events(&trace.events(), &[meta(1, "app")], Nanos(30), 1);
        let tl = tls.get(Tid(1)).unwrap();
        assert_eq!(tl.phase_at(Nanos(25)), Some(Phase::Running(CpuId(0))));
    }
}
