//! Hierarchical timer-wheel event queue.
//!
//! The simulation engine's future-event set is dominated by a steady
//! stream of short-horizon insertions (per-CPU `Advance` rescheduling,
//! tick rearming, frame completions) mixed with a tail of far-out
//! timers (hrtimer sleeps, NFS round trips). A binary heap pays
//! `O(log n)` per push/pop with poor locality; the classic kernel
//! answer is a hierarchical timer wheel: `LEVELS` rings of 64 slots,
//! where level `k` buckets time at a granularity of
//! `GRANULARITY << (6k)` nanoseconds. Near events hit level 0 and cost
//! `O(1)` to file; far events land in a coarse ring and are cascaded
//! toward level 0 as the clock approaches them. Per-level occupancy
//! bitmaps make "next non-empty slot" a `rotate + trailing_zeros`.
//!
//! ## Ordering contract (fidelity-critical)
//!
//! [`TimerWheel::pop`] yields entries in strictly ascending `(t, seq)`
//! order — exactly the comparator of [`HeapQueue`], the engine's
//! original queue. The engine assigns `seq` monotonically at push
//! time, so FIFO tie-breaks between same-timestamp events are
//! preserved bit-for-bit (the lockstep proptest in
//! `tests/wheel_oracle.rs` checks the wheel against the heap).
//!
//! Buckets are coarser than event timestamps, so a drained level-0
//! slot is sorted by `(t, seq)` into the *near buffer* — a small
//! descending-sorted vector popped from the tail. Pushes that target
//! the already-drained window binary-insert into that buffer, which
//! keeps same-time follow-up events (an `Advance` scheduled for "now")
//! correct without re-sorting.

use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A future-event set ordered by ascending `(t, seq)`: the contract
/// [`TimerWheel`] (the engine's queue) and [`HeapQueue`] (its test
/// reference) share.
///
/// `seq` is assigned by the caller (monotonically, per push) and acts
/// as the FIFO tie-break for same-timestamp events; implementations
/// MUST honour it, so the wheel's pop order is checkable against the
/// heap's entry for entry.
pub trait EventQueue<T> {
    fn push(&mut self, t: Nanos, seq: u64, item: T);
    /// Remove and return the minimum entry by `(t, seq)`.
    fn pop(&mut self) -> Option<(Nanos, u64, T)>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct HeapEntry<T> {
    t: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

/// Reference queue: `BinaryHeap` of `Reverse`-ordered entries — the
/// engine's original event set, kept as the oracle for the wheel's
/// ordering contract (`tests/wheel_oracle.rs`) and as the baseline of
/// `engine_throughput`'s queue-depth sweep.
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, t: Nanos, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEntry { t, seq, item }));
    }

    fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        self.heap
            .pop()
            .map(|Reverse(HeapEntry { t, seq, item })| (t, seq, item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<T> EventQueue<T> for TimerWheel<T> {
    fn push(&mut self, t: Nanos, seq: u64, item: T) {
        TimerWheel::push(self, t, seq, item)
    }

    fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        TimerWheel::pop(self)
    }

    fn len(&self) -> usize {
        TimerWheel::len(self)
    }
}

/// log2 of the level-0 slot width: 1024 ns. Sub-microsecond events
/// (kernel frame costs) share slots and are ordered by the near
/// buffer's sort; coarser choices push more work into that sort,
/// finer ones more cascading.
const GRAN_BITS: u32 = 10;
/// log2 of slots per level.
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// 6 levels span `1 << (10 + 6*6)` ns ≈ 19.5 hours of simulated time;
/// anything beyond parks in `overflow` (never hit by paper campaigns,
/// but kept for correctness).
const LEVELS: usize = 6;

#[inline]
fn shift(level: usize) -> u32 {
    GRAN_BITS + SLOT_BITS * level as u32
}

/// Width of one slot at `level`, in ns.
#[inline]
fn granularity(level: usize) -> u64 {
    1u64 << shift(level)
}

/// Total horizon of `level` relative to the wheel base, in ns.
#[inline]
fn span(level: usize) -> u64 {
    1u64 << (shift(level) + SLOT_BITS)
}

type Entry<T> = (Nanos, u64, T);

/// Min-ordered event queue with O(1) amortized push and near-O(1) pop.
///
/// Invariant between calls: every stored entry has `t >=` the last
/// popped entry's time; pushes must respect simulation causality (no
/// scheduling into the popped past). `debug_assert`s guard this.
pub struct TimerWheel<T> {
    /// Slot storage, `levels[k][slot]`. Unsorted within a slot.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Entries with `t` beyond the top level's span.
    overflow: Vec<Entry<T>>,
    /// Drained current-window entries, sorted descending by `(t, seq)`
    /// so `pop` is a tail `Vec::pop`.
    near: Vec<Entry<T>>,
    /// Lower bound (inclusive) for all entries still in `levels` /
    /// `overflow`; equals `near_horizon` between `pop` calls.
    base: u64,
    /// Pushes below this time go straight to the near buffer.
    near_horizon: u64,
    /// Absolute window start of the last slot cascaded per level. The
    /// slot containing `base` can hold entries from two laps (its
    /// current window plus exactly one span ahead, filed while the
    /// clock was already inside the window); once cascaded, this
    /// marker tells the scan to read its leftovers as next-lap work.
    cascaded: [u64; LEVELS],
    len: usize,
    /// Recycled scratch for slot drains (keeps slot capacity churn down).
    scratch: Vec<Entry<T>>,
    /// `(t, seq)` of the last popped entry; pushes below this would
    /// violate causality (debug-asserted).
    frontier: (Nanos, u64),
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            overflow: Vec::new(),
            near: Vec::new(),
            base: 0,
            near_horizon: 0,
            cascaded: [u64::MAX; LEVELS],
            len: 0,
            scratch: Vec::new(),
            frontier: (Nanos(0), 0),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, t: Nanos, seq: u64, item: T) {
        self.len += 1;
        if t.0 < self.near_horizon {
            self.push_near(t, seq, item);
        } else {
            self.file(t, seq, item);
        }
    }

    /// Remove and return the earliest entry by `(t, seq)`.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        if let Some(e) = self.near.pop() {
            self.len -= 1;
            self.frontier = (e.0, e.1);
            return Some(e);
        }
        let mut iters = 0u64;
        loop {
            iters += 1;
            debug_assert!(
                iters < 1_000_000,
                "pop livelock: base={} horizon={} len={} occ={:?} overflow={}",
                self.base,
                self.near_horizon,
                self.len,
                self.occupancy,
                self.overflow.len()
            );
            if self.len == 0 {
                return None;
            }
            let Some((level, slot, slot_start)) = self.earliest_slot() else {
                // Levels empty but entries remain: everything lives in
                // overflow. Rebase at its minimum and refile.
                self.refile_overflow();
                continue;
            };
            if level == 0 {
                // Drain into the near buffer; this slot's window is
                // now "current", so later same-window pushes join the
                // buffer by binary insertion.
                self.occupancy[0] &= !(1u64 << slot);
                let slot_vec = &mut self.levels[0][slot];
                self.near.append(slot_vec);
                self.near
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
                self.base = slot_start + granularity(0);
                self.near_horizon = self.base;
                let e = self.near.pop().expect("occupied slot drained empty");
                self.len -= 1;
                self.frontier = (e.0, e.1);
                return Some(e);
            }
            // Cascade: refile this window's entries into finer levels
            // (their delta is below granularity(level) = span(level-1),
            // so each lands strictly finer). `base` must never move
            // backward — the circular scans rely on every leveled entry
            // being within `span` *ahead* of `base`, and when the
            // cascaded slot is the one containing `base` its start sits
            // below it. Entries one full lap ahead share the slot; they
            // stay put, and the `cascaded` marker makes the scan read
            // them as next-lap work instead of re-cascading forever.
            self.base = self.base.max(slot_start);
            self.cascaded[level] = slot_start;
            let window_end = slot_start + granularity(level);
            let mut tmp = std::mem::take(&mut self.scratch);
            {
                let slot_vec = &mut self.levels[level][slot];
                let mut i = 0;
                while i < slot_vec.len() {
                    if slot_vec[i].0 .0 < window_end {
                        tmp.push(slot_vec.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                if slot_vec.is_empty() {
                    self.occupancy[level] &= !(1u64 << slot);
                }
            }
            for (t, seq, item) in tmp.drain(..) {
                self.file(t, seq, item);
            }
            self.scratch = tmp;
        }
    }

    /// Earliest occupied `(level, slot, slot_start_ns)` in time order,
    /// scanning each ring circularly from the slot containing `base`.
    ///
    /// Ties on `slot_start` go to the *coarser* level: its window
    /// contains the finer slot's window and may hold earlier entries,
    /// so it must cascade before the finer slot is drained.
    fn earliest_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in (0..LEVELS).rev() {
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            let pos = ((self.base >> shift(level)) & (SLOTS as u64 - 1)) as u32;
            // Rotate so bit 0 is the current slot; trailing_zeros then
            // counts slots ahead (wrapping), i.e. time order.
            let rot = occ.rotate_right(pos);
            let mut ahead = rot.trailing_zeros() as u64;
            let mut start = ((self.base >> shift(level)) + ahead) << shift(level);
            if level > 0 && ahead == 0 && self.cascaded[level] == start {
                // The base-containing slot was already cascaded this
                // lap: whatever it still holds is one full span ahead.
                // Another occupied slot later in the ring comes first.
                let rest = rot & !1u64;
                if rest != 0 {
                    ahead = rest.trailing_zeros() as u64;
                    start = ((self.base >> shift(level)) + ahead) << shift(level);
                } else {
                    start += span(level);
                }
            }
            let slot = ((pos as u64 + ahead) & (SLOTS as u64 - 1)) as usize;
            if best.is_none_or(|(_, _, s)| start < s) {
                best = Some((level, slot, start));
            }
        }
        best
    }

    /// File an entry into the level whose window covers its delta.
    fn file(&mut self, t: Nanos, seq: u64, item: T) {
        debug_assert!(
            t.0 >= self.base,
            "event scheduled into the past: t={} base={}",
            t.0,
            self.base
        );
        let delta = t.0 - self.base;
        // `delta < span(k)` ⟺ `msb(delta) < GRAN_BITS + (k+1)·SLOT_BITS`,
        // so the highest set bit picks the level directly — no
        // per-level compare loop on the push path (`delta | 1` makes
        // zero well-defined and still lands on level 0).
        let msb = 63 - (delta | 1).leading_zeros();
        let level = (msb.saturating_sub(GRAN_BITS) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push((t, seq, item));
            return;
        }
        let slot = ((t.0 >> shift(level)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push((t, seq, item));
        self.occupancy[level] |= 1u64 << slot;
    }

    /// Descending-sorted insert so `near.pop()` stays the minimum.
    fn push_near(&mut self, t: Nanos, seq: u64, item: T) {
        debug_assert!(
            (t, seq) > self.frontier,
            "near-window push below the pop frontier"
        );
        let key = (t, seq);
        let idx = self.near.partition_point(|&(et, es, _)| (et, es) > key);
        self.near.insert(idx, (t, seq, item));
    }

    /// All rings empty, overflow holds the future: jump `base` to the
    /// overflow minimum and refile everything (rare by construction —
    /// requires a >19 h simulated gap).
    fn refile_overflow(&mut self) {
        debug_assert!(
            !self.overflow.is_empty(),
            "len/occupancy bookkeeping broken"
        );
        let min_t = self
            .overflow
            .iter()
            .map(|&(t, _, _)| t.0)
            .min()
            .expect("nonempty overflow");
        // Align down so the minimum lands inside level 0's window.
        self.base = min_t & !(granularity(0) - 1);
        let mut tmp = std::mem::take(&mut self.scratch);
        tmp.append(&mut self.overflow);
        for (t, seq, item) in tmp.drain(..) {
            self.file(t, seq, item);
        }
        self.scratch = tmp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, seq, _)) = w.pop() {
            out.push((t.0, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(Nanos(500), 3, 0);
        w.push(Nanos(500), 1, 0);
        w.push(Nanos(10), 2, 0);
        w.push(Nanos(1_000_000), 4, 0);
        assert_eq!(
            drain(&mut w),
            vec![(10, 2), (500, 1), (500, 3), (1_000_000, 4)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn same_slot_push_after_drain_interleaves() {
        let mut w = TimerWheel::new();
        w.push(Nanos(100), 1, 0);
        w.push(Nanos(900), 2, 0);
        assert_eq!(w.pop().unwrap().0, Nanos(100));
        // 100 and 900 share the 1024 ns slot; pushing 400 after the
        // slot was drained must still come out before 900.
        w.push(Nanos(400), 3, 0);
        assert_eq!(w.pop().unwrap().0, Nanos(400));
        assert_eq!(w.pop().unwrap().0, Nanos(900));
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = TimerWheel::new();
        // One event per level's range, pushed far-to-near.
        let times = [
            granularity(0) * 3,
            span(0) * 2,
            span(1) * 2,
            span(2) * 2,
            span(3) * 2,
            span(4) * 2,
        ];
        for (i, &t) in times.iter().rev().enumerate() {
            w.push(Nanos(t), i as u64, 0);
        }
        let popped: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn overflow_beyond_top_level() {
        let mut w = TimerWheel::new();
        let far = span(LEVELS - 1) * 3;
        w.push(Nanos(far), 1, 0);
        w.push(Nanos(far + 5), 2, 0);
        w.push(Nanos(7), 3, 0);
        let got = drain(&mut w);
        assert_eq!(got, vec![(7, 3), (far, 1), (far + 5, 2)]);
    }

    #[test]
    fn coarse_slot_cascades_before_tied_fine_slot_drains() {
        // A level-1 entry whose slot start ties a later-pushed level-0
        // slot must still pop first: the coarse window [65536, 131072)
        // contains the fine window [65536, 66560).
        let mut w = TimerWheel::new();
        w.push(Nanos(65_600), 1, 0); // level 1 (delta >= span(0))
        w.push(Nanos(100), 2, 0);
        assert_eq!(w.pop().unwrap().0, Nanos(100)); // base -> 1024
        w.push(Nanos(66_000), 3, 0); // delta < span(0): level 0, start 65536
        assert_eq!(drain(&mut w), vec![(65_600, 1), (66_000, 3)]);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Deterministic pseudo-random workload mirroring engine use:
        // pop one, push a couple ahead of the current clock.
        let mut w = TimerWheel::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut clock;
        for _ in 0..64 {
            seq += 1;
            w.push(Nanos(next() % 10_000), seq, 0);
        }
        let mut last = (0u64, 0u64);
        for _ in 0..20_000 {
            let Some((t, s, _)) = w.pop() else { break };
            assert!(
                (t.0, s) > last,
                "out of order: {:?} after {:?}",
                (t.0, s),
                last
            );
            last = (t.0, s);
            clock = t.0;
            for _ in 0..(next() % 3) {
                seq += 1;
                let dt = match next() % 4 {
                    0 => next() % 512,            // same/near slot
                    1 => next() % 100_000,        // level 0/1
                    2 => next() % 50_000_000,     // mid levels
                    _ => next() % 40_000_000_000, // far timers
                };
                w.push(Nanos(clock + dt), seq, 0);
            }
        }
    }
}
