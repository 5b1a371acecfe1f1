//! Trace events: the records LTT NG-NOISE emits at every kernel
//! entry/exit point and scheduler tracepoint.

use osn_kernel::activity::{Activity, SoftirqVec};
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};

use crate::columns::EventColumns;
use osn_kernel::time::Nanos;

use serde::Serialize;

/// The payload of one trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
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

/// A complete collected trace: each CPU's records as one
/// [`EventColumns`] block, in that CPU's stream order, plus loss
/// accounting.
///
/// The columns are what the analysis reads: the reconstruction hot
/// loop runs over each CPU's flat structure-of-arrays records instead
/// of filtering the whole trace. The global `(t, cpu)` order is
/// merged from them on demand ([`Trace::events`]).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Records dropped per CPU because its ring buffer was full
    /// (discard mode, as the paper's low-interference configuration).
    pub lost: Vec<u64>,
    /// Per-CPU columnar blocks, block `c` holding CPU `c`'s records;
    /// one per CPU the trace covers, `max(lost.len(), 1 + highest cpu
    /// id)`.
    columns: Vec<EventColumns>,
}

impl Trace {
    /// A trace of `events`, given in global `(t, cpu)` order.
    pub fn new(events: Vec<Event>, lost: Vec<u64>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].key() <= w[1].key()),
            "trace must be sorted"
        );
        let mut columns: Vec<EventColumns> = Vec::new();
        for e in &events {
            let cpu = e.cpu.index();
            if cpu >= columns.len() {
                columns.extend((columns.len()..=cpu).map(|c| EventColumns::new(CpuId(c as u16))));
            }
            columns[cpu].push_event(e);
        }
        Trace::from_columns(columns, lost)
    }

    /// A trace of per-CPU blocks, block `c` holding CPU `c`'s records in
    /// stream order; blocks are added, empty, up to `lost.len()`.
    pub fn from_columns(mut columns: Vec<EventColumns>, lost: Vec<u64>) -> Self {
        debug_assert!(
            columns.iter().enumerate().all(|(c, b)| b.cpu.index() == c),
            "block c must hold cpu c"
        );
        let have = columns.len();
        columns.extend((have..lost.len()).map(|c| EventColumns::new(CpuId(c as u16))));
        Trace { lost, columns }
    }

    /// Every record in global `(t, cpu)` order, merged from the
    /// per-CPU columns ([`crate::merge::merge_by_key`]).
    pub fn events(&self) -> Vec<Event> {
        let cols = &self.columns;
        let lens: Vec<usize> = cols.iter().map(EventColumns::len).collect();
        let mut out = Vec::with_capacity(self.len());
        // Block c is CPU c: ties on `t` go to the lower CPU by stream
        // index, which is the `(t, cpu)` key.
        crate::merge::merge_by_key(
            &lens,
            |c, i| cols[c].t[i],
            |c, i| out.push(cols[c].event(i)),
        );
        out
    }

    pub fn len(&self) -> usize {
        self.columns.iter().map(EventColumns::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.iter().all(EventColumns::is_empty)
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

    /// Every CPU's block, block `c` holding CPU `c`'s records.
    #[inline]
    pub fn columns(&self) -> &[EventColumns] {
        &self.columns
    }

    /// The time span covered by the trace.
    pub fn span(&self) -> Option<(Nanos, Nanos)> {
        let first = self.columns.iter().filter_map(|b| b.t.first()).min()?;
        let last = self.columns.iter().filter_map(|b| b.t.last()).max()?;
        Some((Nanos(*first), Nanos(*last)))
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
        let trace = Trace::new(events.clone(), vec![0, 2]);
        assert_eq!(trace.events(), events);
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
