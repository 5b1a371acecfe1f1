//! Structure-of-arrays event storage: one CPU's records as parallel
//! columns instead of a `Vec<Event>`.
//!
//! The analysis hot passes never need a whole [`Event`] at once — the
//! nesting reconstructor reads `(t, code, activity, ctx)`, the timeline
//! builder only cares about scheduler records, and the stats passes
//! consume instance durations. Keeping each field in its own flat vec
//! lets those passes run tight branch-light loops over contiguous
//! memory, and lets the chunked-store decoder fill the columns straight
//! from a delta/varint payload without materializing intermediate
//! `Event` structs.
//!
//! The column encoding is exactly the record tuple of
//! [`crate::wire::pack_record`]: `(code, tid, a, b)` plus the
//! timestamp. A block holds records of *one* CPU in stream order, so
//! the CPU id lives once on the block, not per record.

use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;

use crate::event::Event;
use crate::wire::{pack_record, unpack_record};

pub use crate::wire::code;

/// One CPU's events as parallel columns, in stream (time) order.
///
/// All five vecs are the same length; record `i` is
/// `(t[i], code[i], tid[i], a[i], b[i])` in the
/// [`pack_record`]/[`unpack_record`] encoding. Every constructor in
/// this crate and every store decode path validates records before
/// they land in a block, so accessors may assume the tuple decodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventColumns {
    /// CPU the block's records belong to.
    pub cpu: CpuId,
    /// Timestamps, nondecreasing.
    pub t: Vec<u64>,
    /// Record codes (see [`code`]).
    pub code: Vec<u16>,
    /// The record tuple's tid field (context, prev, or woken task
    /// depending on `code` — see [`pack_record`]).
    pub tid: Vec<u32>,
    /// First payload word.
    pub a: Vec<u64>,
    /// Second payload word.
    pub b: Vec<u64>,
}

impl Default for EventColumns {
    fn default() -> EventColumns {
        EventColumns::new(CpuId(0))
    }
}

impl EventColumns {
    /// An empty block for `cpu`.
    pub fn new(cpu: CpuId) -> EventColumns {
        EventColumns {
            cpu,
            t: Vec::new(),
            code: Vec::new(),
            tid: Vec::new(),
            a: Vec::new(),
            b: Vec::new(),
        }
    }

    /// An empty block with room for `n` records.
    pub fn with_capacity(cpu: CpuId, n: usize) -> EventColumns {
        EventColumns {
            cpu,
            t: Vec::with_capacity(n),
            code: Vec::with_capacity(n),
            tid: Vec::with_capacity(n),
            a: Vec::with_capacity(n),
            b: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Drop all records, keeping the capacity (decode-buffer reuse).
    pub fn clear(&mut self) {
        self.t.clear();
        self.code.clear();
        self.tid.clear();
        self.a.clear();
        self.b.clear();
    }

    /// Drop all records and hold `n` zeroed ones instead, keeping the
    /// capacity: a store decoder then writes each column by index, and
    /// must overwrite every record before it lends the block.
    pub fn reset_zeroed(&mut self, n: usize) {
        self.clear();
        self.t.resize(n, 0);
        self.code.resize(n, 0);
        self.tid.resize(n, 0);
        self.a.resize(n, 0);
        self.b.resize(n, 0);
    }

    /// Append one raw record tuple. The caller must have validated it
    /// (store decoders do; [`EventColumns::push_event`] packs from an
    /// already-typed event).
    #[inline]
    pub fn push_raw(&mut self, t: u64, code: u16, tid: u32, a: u64, b: u64) {
        self.t.push(t);
        self.code.push(code);
        self.tid.push(tid);
        self.a.push(a);
        self.b.push(b);
    }

    /// Append a typed event (must belong to this block's CPU).
    #[inline]
    pub fn push_event(&mut self, e: &Event) {
        debug_assert_eq!(e.cpu, self.cpu, "event from the wrong cpu");
        let (code, tid, a, b) = pack_record(e);
        self.push_raw(e.t.as_nanos(), code, tid, a, b);
    }

    /// Rebuild record `i` as a typed [`Event`].
    #[inline]
    pub fn event(&self, i: usize) -> Event {
        let (ctx, kind) = unpack_record(self.code[i], self.tid[i], self.a[i], self.b[i])
            .expect("column records are validated on construction");
        Event {
            t: Nanos(self.t[i]),
            cpu: self.cpu,
            tid: ctx,
            kind,
        }
    }

    /// Iterate the block as typed events, in stream order.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).map(move |i| self.event(i))
    }

    /// The context tid of record `i` (the task the CPU was in):
    /// the waker for wakeups, the wire tid otherwise — the inverse of
    /// what [`pack_record`] does to [`Event::tid`].
    #[inline]
    pub fn ctx_tid(&self, i: usize) -> Tid {
        if self.code[i] == code::WAKEUP {
            Tid(self.a[i] as u32)
        } else {
            Tid(self.tid[i])
        }
    }

    /// Heap footprint of the columns (capacity-based).
    pub fn heap_bytes(&self) -> usize {
        self.t.capacity() * 8
            + self.code.capacity() * 2
            + self.tid.capacity() * 4
            + self.a.capacity() * 8
            + self.b.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use osn_kernel::activity::{Activity, SoftirqVec};
    use osn_kernel::hooks::SwitchState;

    fn sample_events() -> Vec<Event> {
        let mk = |t: u64, tid: u32, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(3),
            tid: Tid(tid),
            kind,
        };
        vec![
            mk(1, 1, EventKind::KernelEnter(Activity::TimerInterrupt)),
            mk(2, 1, EventKind::KernelExit(Activity::TimerInterrupt)),
            mk(3, 0, EventKind::SoftirqRaise(SoftirqVec::NetRx)),
            mk(
                4,
                5,
                EventKind::SchedSwitch {
                    prev: Tid(5),
                    prev_state: SwitchState::BlockedIo,
                    next: Tid(6),
                },
            ),
            mk(
                5,
                9,
                EventKind::Wakeup {
                    tid: Tid(7),
                    waker: Tid(9),
                },
            ),
            mk(
                6,
                7,
                EventKind::Migrate {
                    tid: Tid(7),
                    from: CpuId(3),
                    to: CpuId(0),
                },
            ),
            mk(
                7,
                8,
                EventKind::AppMark {
                    mark: 11,
                    value: u64::MAX - 3,
                },
            ),
            mk(8, 8, EventKind::TaskExit { tid: Tid(8) }),
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        let events = sample_events();
        let mut cols = EventColumns::with_capacity(CpuId(3), events.len());
        for e in &events {
            cols.push_event(e);
        }
        assert_eq!(cols.len(), events.len());
        assert!(!cols.is_empty());
        let back: Vec<Event> = cols.events().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn ctx_tid_matches_event_tid() {
        let events = sample_events();
        let mut cols = EventColumns::new(CpuId(3));
        for e in &events {
            cols.push_event(e);
        }
        for (i, e) in events.iter().enumerate() {
            assert_eq!(cols.ctx_tid(i), e.tid, "record {i}");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut cols = EventColumns::with_capacity(CpuId(0), 64);
        cols.push_raw(1, code::MARK, 0, 0, 0);
        let bytes = cols.heap_bytes();
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.heap_bytes(), bytes);
    }
}
