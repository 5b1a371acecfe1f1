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
/// loss accounting, per-CPU / per-context position indexes, and
/// per-CPU [`EventColumns`] blocks.
///
/// The indexes and columns are built once at construction (or
/// inherited from the k-way collection merge) so that per-CPU and
/// per-context iteration — the access patterns of the sharded analysis
/// engine — cost O(own events) instead of a filter over the whole
/// trace, and the reconstruction hot loop can run over flat
/// structure-of-arrays columns instead of gathering 32-byte `Event`
/// structs through a position index.
///
/// Serde round-trips only `(events, lost)` — the derived indexes and
/// columns are rebuilt on deserialize, so they can never go stale or
/// bloat a serialized image.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<Event>,
    /// Records dropped per CPU because its ring buffer was full
    /// (discard mode, as the paper's low-interference configuration).
    pub lost: Vec<u64>,
    /// CPUs the trace covers: `max(lost.len(), 1 + highest cpu id)`.
    ncpus: usize,
    /// Positions (into `events`) of each CPU's records, in stream
    /// order.
    cpu_index: Vec<Vec<u32>>,
    /// Positions of each context tid's records, sorted by tid for
    /// binary-search lookup.
    ctx_index: CtxIndex,
    /// Per-CPU columnar blocks, same records as `cpu_index` points at.
    columns: Vec<EventColumns>,
}

/// The serialized shape of [`Trace`]: just the collected data, no
/// derived indexes.
#[derive(Serialize, Deserialize)]
struct TraceWire {
    events: Vec<Event>,
    lost: Vec<u64>,
}

impl Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("events".to_string(), self.events.to_value()),
            ("lost".to_string(), self.lost.to_value()),
        ])
    }
}

impl Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Trace, serde::DeError> {
        let w = TraceWire::from_value(v)?;
        Ok(Trace::from_raw_parts(w.events, w.lost))
    }
}

/// Positions of each context tid's records, sorted by tid.
type CtxIndex = Vec<(Tid, Vec<u32>)>;

fn build_indexes(
    events: &[Event],
    ncpus_hint: usize,
) -> (usize, Vec<Vec<u32>>, CtxIndex, Vec<EventColumns>) {
    let mut cpu_index: Vec<Vec<u32>> = Vec::with_capacity(ncpus_hint);
    let mut columns: Vec<EventColumns> = Vec::with_capacity(ncpus_hint);
    let mut by_ctx: std::collections::HashMap<Tid, Vec<u32>> = std::collections::HashMap::new();
    for (pos, e) in events.iter().enumerate() {
        let cpu = e.cpu.index();
        if cpu >= cpu_index.len() {
            cpu_index.resize_with(cpu + 1, Vec::new);
            columns.extend((columns.len()..=cpu).map(|c| EventColumns::new(CpuId(c as u16))));
        }
        cpu_index[cpu].push(pos as u32);
        columns[cpu].push_event(e);
        by_ctx.entry(e.tid).or_default().push(pos as u32);
    }
    let ncpus = ncpus_hint.max(cpu_index.len());
    cpu_index.resize_with(ncpus, Vec::new);
    columns.extend((columns.len()..ncpus).map(|c| EventColumns::new(CpuId(c as u16))));
    let mut ctx_index: Vec<(Tid, Vec<u32>)> = by_ctx.into_iter().collect();
    ctx_index.sort_unstable_by_key(|(tid, _)| tid.0);
    (ncpus, cpu_index, ctx_index, columns)
}

impl Trace {
    pub fn new(events: Vec<Event>, lost: Vec<u64>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].key() <= w[1].key()),
            "trace must be sorted"
        );
        Trace::from_raw_parts(events, lost)
    }

    /// Build a trace without asserting global `(t, cpu)` order
    /// (deserializing must round-trip arbitrary event vectors
    /// losslessly).
    pub fn from_raw_parts(events: Vec<Event>, lost: Vec<u64>) -> Self {
        let (ncpus, cpu_index, ctx_index, columns) = build_indexes(&events, lost.len());
        Trace {
            events,
            lost,
            ncpus,
            cpu_index,
            ctx_index,
            columns,
        }
    }

    /// Build a trace by k-way merging already time-sorted per-CPU
    /// streams (see [`crate::merge::merge_streams`]). This is the
    /// collection path: no global re-sort happens.
    pub fn from_streams(streams: Vec<Vec<Event>>, lost: Vec<u64>) -> Self {
        let nstreams = streams.len();
        let events = crate::merge::merge_streams(streams);
        let (ncpus, cpu_index, ctx_index, columns) =
            build_indexes(&events, lost.len().max(nstreams));
        Trace {
            events,
            lost,
            ncpus,
            cpu_index,
            ctx_index,
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
        self.ncpus
    }

    /// Positions (into `events`) of one CPU's records.
    #[inline]
    pub fn cpu_positions(&self, cpu: CpuId) -> &[u32] {
        self.cpu_index
            .get(cpu.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate over the events of one CPU, in stream order
    /// (index-backed: O(own events), not O(trace)).
    pub fn cpu_events(&self, cpu: CpuId) -> impl Iterator<Item = &Event> {
        self.cpu_positions(cpu)
            .iter()
            .map(move |&p| &self.events[p as usize])
    }

    /// One CPU's records as columnar [`EventColumns`], in stream order
    /// — the zero-gather input of the reconstruction hot loop. Empty
    /// block for CPUs beyond the trace's range.
    #[inline]
    pub fn cpu_columns(&self, cpu: CpuId) -> Option<&EventColumns> {
        self.columns.get(cpu.index())
    }

    /// Positions (into `events`) of one task context's records.
    #[inline]
    pub fn ctx_positions(&self, tid: Tid) -> &[u32] {
        match self.ctx_index.binary_search_by_key(&tid.0, |(t, _)| t.0) {
            Ok(i) => &self.ctx_index[i].1,
            Err(_) => &[],
        }
    }

    /// Iterate over events in a task's context (index-backed).
    pub fn task_events(&self, tid: Tid) -> impl Iterator<Item = &Event> {
        self.ctx_positions(tid)
            .iter()
            .map(move |&p| &self.events[p as usize])
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
        assert_eq!(trace.cpu_events(CpuId(0)).count(), 2);
        assert_eq!(trace.cpu_events(CpuId(1)).count(), 1);
        assert_eq!(trace.span(), Some((Nanos(10), Nanos(15))));
        assert_eq!(trace.task_events(Tid(1)).count(), 3);
        assert_eq!(trace.task_events(Tid(9)).count(), 0);
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
