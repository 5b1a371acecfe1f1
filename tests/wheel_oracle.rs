//! Differential oracle for the timer-wheel event queue.
//!
//! The wheel's contract is that it is *observationally identical* to
//! the reference `BinaryHeap` queue: same `(t, seq)` pop order for any
//! causally-valid push/pop interleaving. The engine runs on the wheel
//! alone, so this property-based lockstep oracle against the heap is
//! what pins its event order — and with it every trace and statistic.

use osnoise::kernel::time::Nanos;
use osnoise::kernel::wheel::{EventQueue, HeapQueue, TimerWheel};

use proptest::prelude::*;

/// One scripted queue operation. Pushes carry a delta class so the
/// generated times exercise every wheel level plus the overflow list;
/// the concrete time is `clock + delta`, keeping causality (no pushes
/// below the last pop) the same way the engine does.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push { delta: u64 },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Heavier on pushes so queues grow deep enough to cascade.
        1 => Just(Op::Pop),
        1 => (0u64..4u64).prop_map(|_| Op::Pop),
        1 => Just(Op::Push { delta: 0 }), // same-time: seq tie-break
        2 => (1u64..1024).prop_map(|delta| Op::Push { delta }),
        2 => (1024u64..65_536).prop_map(|delta| Op::Push { delta }),
        2 => (65_536u64..4_194_304).prop_map(|delta| Op::Push { delta }),
        2 => (4_194_304u64..1 << 32).prop_map(|delta| Op::Push { delta }),
        1 => ((1u64 << 40)..(1u64 << 47)).prop_map(|delta| Op::Push { delta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lockstep oracle: run the same op script against the wheel and
    /// the heap; every pop must agree exactly, including `None`s.
    #[test]
    fn wheel_matches_heap_for_arbitrary_scripts(
        ops in prop::collection::vec(op_strategy(), 0..600)
    ) {
        let mut wheel = TimerWheel::new();
        let mut heap = HeapQueue::new();
        let mut clock = 0u64;
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Push { delta } => {
                    seq += 1;
                    let t = Nanos(clock + delta);
                    wheel.push(t, seq, seq);
                    heap.push(t, seq, seq);
                }
                Op::Pop => {
                    let w = wheel.pop();
                    let h = heap.pop();
                    prop_assert_eq!(&w, &h, "pop diverged at clock {}", clock);
                    if let Some((t, _, _)) = w {
                        clock = t.0;
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both to the end: the tail order must agree too.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(&w, &h, "drain diverged");
            if w.is_none() {
                break;
            }
        }
    }
}
