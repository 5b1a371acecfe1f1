//! Lock-free single-producer/single-consumer ring buffer.
//!
//! LTTng's defining implementation property — the reason its overhead is
//! low enough to measure noise without adding it — is per-CPU lockless
//! buffering: each CPU's probe writes to its own buffer with no shared
//! locks, and a consumer drains asynchronously. This module is that
//! structure: a fixed-capacity SPSC ring with acquire/release
//! publication, split into owning [`Producer`]/[`Consumer`] halves so
//! the single-producer and single-consumer contracts are enforced by
//! the type system.
//!
//! Full-buffer behaviour is *discard* (new records dropped and counted),
//! matching the tracer configuration the paper runs: overwriting old
//! events would corrupt the noise statistics, losing new ones under
//! overload is detectable via the loss counter.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Aligns a cursor to its own 128-byte block, so the producer's and
/// consumer's cursors never share a cache line (128 also covers the
/// adjacent-line prefetcher on x86 and the large lines of some aarch64
/// parts).
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer writes (only the producer advances it).
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer reads (only the consumer advances it).
    head: CachePadded<AtomicUsize>,
    /// Records discarded because the ring was full.
    lost: AtomicU64,
}

// SAFETY: slots are transferred between exactly one producer and one
// consumer with release/acquire ordering on tail/head; a slot is only
// accessed by the side that owns it at that point in the protocol.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Producer half. `!Clone`; exactly one exists per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Cached head to avoid an acquire load on every push.
    cached_head: usize,
}

/// Consumer half. `!Clone`; exactly one exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Cached tail to avoid an acquire load on every pop.
    cached_tail: usize,
}

/// Create a ring with capacity rounded up to a power of two (min 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        lost: AtomicU64::new(0),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: 0,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Append a record. Returns `false` (and counts a loss) if the
    /// ring is full.
    #[inline]
    pub fn push(&mut self, value: T) -> bool {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) > s.mask {
            // Possibly full: refresh the consumer position.
            self.cached_head = s.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) > s.mask {
                s.lost.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        // SAFETY: the slot at `tail` is not visible to the consumer
        // until the release store below, and the producer is unique.
        unsafe {
            (*s.buf[tail & s.mask].get()).write(value);
        }
        s.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Records lost so far.
    pub fn lost(&self) -> u64 {
        self.shared.lost.load(Ordering::Relaxed)
    }

    /// Number of records currently buffered (approximate under
    /// concurrency).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(s.head.load(Ordering::Acquire))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }
}

impl<T> Consumer<T> {
    /// Take the oldest record, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = s.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: head < tail (acquire-observed), so the slot was
        // fully written and released by the producer; the consumer is
        // unique and takes ownership of the value.
        let value = unsafe { (*s.buf[head & s.mask].get()).assume_init_read() };
        s.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Records lost so far (producer-side counter).
    pub fn lost(&self) -> u64 {
        self.shared.lost.load(Ordering::Relaxed)
    }

    /// Number of records currently buffered (a lower bound while the
    /// producer runs).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.load(Ordering::Relaxed))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy> Consumer<T> {
    /// Drain everything currently visible in bulk: `f` sees the records
    /// as at most two contiguous slices of the ring (before and after
    /// the wrap point), oldest first, and each slice's slots go back to
    /// the producer with one `head` store after `f` returns. Returns
    /// the count. Records published during the drain wait for the next
    /// one.
    pub fn drain(&mut self, mut f: impl FnMut(&[T])) -> usize {
        let s = &*self.shared;
        let mut head = s.head.load(Ordering::Relaxed);
        self.cached_tail = s.tail.load(Ordering::Acquire);
        let total = self.cached_tail.wrapping_sub(head);
        let mut left = total;
        while left > 0 {
            let start = head & s.mask;
            let n = left.min(s.mask + 1 - start);
            // SAFETY: slots `head..head + n` were written and released
            // by the producer (acquire-observed `tail`), and it cannot
            // reuse them before the `head` store below. `UnsafeCell`
            // and `MaybeUninit` are `repr(transparent)`, so the buffer
            // is laid out as `[T]`; `T: Copy` means reading the slots
            // in place takes nothing the ring would have to drop.
            let slots =
                unsafe { std::slice::from_raw_parts(s.buf.as_ptr().add(start).cast::<T>(), n) };
            f(slots);
            head = head.wrapping_add(n);
            s.head.store(head, Ordering::Release);
            left -= n;
        }
        total
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drop any unconsumed records (MaybeUninit does not drop).
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (mut p, mut c) = ring::<u32>(8);
        for i in 0..5 {
            assert!(p.push(i));
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = ring::<u8>(100);
        assert_eq!(p.capacity(), 128);
        let (p, _c) = ring::<u8>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn full_ring_discards_and_counts() {
        let (mut p, mut c) = ring::<u64>(4);
        for i in 0..4 {
            assert!(p.push(i));
        }
        assert!(!p.push(99), "5th push must fail on a 4-ring");
        assert!(!p.push(100));
        assert_eq!(p.lost(), 2);
        assert_eq!(c.lost(), 2);
        // Old records intact (discard, not overwrite).
        assert_eq!(c.pop(), Some(0));
        // Space freed: pushes work again.
        assert!(p.push(4));
        let rest: Vec<u64> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4]);
    }

    #[test]
    fn drain_collects_all() {
        let (mut p, mut c) = ring::<u32>(16);
        for i in 0..10 {
            p.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(c.drain(|r| out.extend_from_slice(r)), 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(c.drain(|r| out.extend_from_slice(r)), 0);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut p, mut c) = ring::<usize>(4);
        for round in 0..1000 {
            for i in 0..3 {
                assert!(p.push(round * 3 + i));
            }
            for i in 0..3 {
                assert_eq!(c.pop(), Some(round * 3 + i));
            }
        }
        assert_eq!(p.lost(), 0);
    }

    #[test]
    fn concurrent_producer_consumer() {
        // Hammer the ring from two real threads; every pushed value
        // must arrive exactly once, in order.
        let (mut p, mut c) = ring::<u64>(1024);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut pushed = 0u64;
            let mut i = 0u64;
            while i < N {
                if p.push(i) {
                    pushed += 1;
                    i += 1;
                } else {
                    std::thread::yield_now();
                    // Retry the same value: full ring, not lost data.
                }
            }
            pushed
        });
        let mut seen = Vec::with_capacity(N as usize);
        while seen.len() < N as usize {
            match c.pop() {
                Some(v) => seen.push(v),
                None => std::thread::yield_now(),
            }
        }
        let pushed = producer.join().unwrap();
        assert_eq!(pushed, N);
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "order broken");
        assert_eq!(seen[0], 0);
        assert_eq!(*seen.last().unwrap(), N - 1);
    }

    #[test]
    fn drop_with_unconsumed_items_is_safe() {
        // Box values so leaks/double-frees would be visible to miri
        // and asan; plain drop coverage otherwise.
        let (mut p, c) = ring::<Box<u32>>(8);
        for i in 0..6 {
            p.push(Box::new(i));
        }
        drop(c);
        drop(p);
    }
}
