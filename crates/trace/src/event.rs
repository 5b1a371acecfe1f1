//! Trace events: the records LTT NG-NOISE emits at every kernel
//! entry/exit point and scheduler tracepoint.

use osn_kernel::activity::{Activity, SoftirqVec};
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};

use crate::columns::EventColumns;
use osn_kernel::time::Nanos;

use serde::{Deserialize, Serialize};

/// The payload of one trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// A kernel activity began (interrupt, softirq, exception,
    /// syscall, scheduler half).
    KernelEnter(Activity),
    /// The matching end.
    KernelExit(Activity),
    /// A softirq vector was raised.
    SoftirqRaise(SoftirqVec),
    /// Context switch: `prev` left in `prev_state`, `next` came in.
    SchedSwitch {
        prev: Tid,
        prev_state: SwitchState,
        next: Tid,
    },
    /// `tid` became runnable on this CPU, woken by `waker`.
    Wakeup { tid: Tid, waker: Tid },
    /// Load balancer moved `tid` between CPUs.
    Migrate { tid: Tid, from: CpuId, to: CpuId },
    /// User-space tracepoint with an application-defined payload.
    AppMark { mark: u32, value: u64 },
    /// Task exit.
    TaskExit { tid: Tid },
}

/// One timestamped trace record. `tid` is the task context the CPU was
/// in when the event fired (`Tid::IDLE` for the idle loop).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Event {
    pub t: Nanos,
    pub cpu: CpuId,
    pub tid: Tid,
    pub kind: EventKind,
}

impl Event {
    /// Ordering key for merging per-CPU streams: time, then CPU (ties
    /// across CPUs are arbitrary but stable).
    #[inline]
    pub fn key(&self) -> (Nanos, u16) {
        (self.t, self.cpu.0)
    }
}

/// A complete collected trace: events in global `(t, cpu)` order plus
/// loss accounting and per-CPU [`EventColumns`] blocks.
///
/// The columns are built once at construction so the reconstruction
/// hot loop runs over each CPU's flat structure-of-arrays records
/// instead of filtering the whole trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<Event>,
    /// Records dropped per CPU because its ring buffer was full
    /// (discard mode, as the paper's low-interference configuration).
    pub lost: Vec<u64>,
    /// Per-CPU columnar blocks, each CPU's records in stream order;
    /// one per CPU the trace covers, `max(lost.len(), 1 + highest cpu
    /// id)`.
    columns: Vec<EventColumns>,
}

/// Split `events` into per-CPU column blocks, at least `ncpus_hint`
/// of them.
fn build_columns(events: &[Event], ncpus_hint: usize) -> Vec<EventColumns> {
    let mut columns: Vec<EventColumns> = Vec::with_capacity(ncpus_hint);
    for e in events {
        let cpu = e.cpu.index();
        if cpu >= columns.len() {
            columns.extend((columns.len()..=cpu).map(|c| EventColumns::new(CpuId(c as u16))));
        }
        columns[cpu].push_event(e);
    }
    columns.extend((columns.len()..ncpus_hint).map(|c| EventColumns::new(CpuId(c as u16))));
    columns
}

impl Trace {
    pub fn new(events: Vec<Event>, lost: Vec<u64>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].key() <= w[1].key()),
            "trace must be sorted"
        );
        let columns = build_columns(&events, lost.len());
        Trace {
            events,
            lost,
            columns,
        }
    }

    /// Build a trace by k-way merging already time-sorted per-CPU
    /// streams (see [`crate::merge::merge_streams`]). This is the
    /// collection path: no global re-sort happens.
    pub fn from_streams(streams: Vec<Vec<Event>>, lost: Vec<u64>) -> Self {
        let nstreams = streams.len();
        let events = crate::merge::merge_streams(streams);
        let columns = build_columns(&events, lost.len().max(nstreams));
        Trace {
            events,
            lost,
            columns,
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn total_lost(&self) -> u64 {
        self.lost.iter().sum()
    }

    /// Number of CPUs the trace was collected from. Always at least
    /// `1 + highest cpu id seen`; known without scanning events.
    #[inline]
    pub fn ncpus(&self) -> usize {
        self.columns.len()
    }

    /// One CPU's records as columnar [`EventColumns`], in stream order
    /// — the zero-gather input of the reconstruction hot loop. `None`
    /// for CPUs beyond the trace's range.
    #[inline]
    pub fn cpu_columns(&self, cpu: CpuId) -> Option<&EventColumns> {
        self.columns.get(cpu.index())
    }

    /// The time span covered by the trace.
    pub fn span(&self) -> Option<(Nanos, Nanos)> {
        Some((self.events.first()?.t, self.events.last()?.t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, cpu: u16, kind: EventKind) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(1),
            kind,
        }
    }

    #[test]
    fn trace_accessors() {
        let events = vec![
            ev(10, 0, EventKind::KernelEnter(Activity::TimerInterrupt)),
            ev(12, 1, EventKind::KernelEnter(Activity::TimerInterrupt)),
            ev(15, 0, EventKind::KernelExit(Activity::TimerInterrupt)),
        ];
        let trace = Trace::new(events, vec![0, 2]);
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.total_lost(), 2);
        assert_eq!(trace.ncpus(), 2);
        assert_eq!(trace.cpu_columns(CpuId(0)).map(EventColumns::len), Some(2));
        assert_eq!(trace.cpu_columns(CpuId(1)).map(EventColumns::len), Some(1));
        assert!(trace.cpu_columns(CpuId(2)).is_none());
        assert_eq!(trace.span(), Some((Nanos(10), Nanos(15))));
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.span(), None);
    }

    #[test]
    fn key_orders_by_time_then_cpu() {
        let a = ev(10, 1, EventKind::AppMark { mark: 0, value: 0 });
        let b = ev(10, 2, EventKind::AppMark { mark: 0, value: 0 });
        let c = ev(11, 0, EventKind::AppMark { mark: 0, value: 0 });
        assert!(a.key() < b.key());
        assert!(b.key() < c.key());
    }
}
