//! Property tests for the lock-free SPSC ring buffer: it must behave
//! exactly like a bounded FIFO queue under any operation sequence.

use proptest::prelude::*;

use osn_trace::ringbuf::ring;

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u32>().prop_map(Op::Push),
        2 => Just(Op::Pop),
        1 => Just(Op::Drain),
    ]
}

proptest! {
    /// Sequential consistency with a model bounded queue.
    #[test]
    fn behaves_like_bounded_fifo(
        capacity in 1usize..64,
        ops in prop::collection::vec(op_strategy(), 0..400),
    ) {
        let (mut producer, mut consumer) = ring::<u32>(capacity);
        let real_cap = producer.capacity();
        prop_assert!(real_cap >= capacity);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut model_lost = 0u64;
        for op in ops {
            match op {
                Op::Push(v) => {
                    let accepted = producer.push(v);
                    if model.len() < real_cap {
                        prop_assert!(accepted);
                        model.push_back(v);
                    } else {
                        prop_assert!(!accepted);
                        model_lost += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(consumer.pop(), model.pop_front());
                }
                Op::Drain => {
                    let mut out = Vec::new();
                    consumer.drain(|r| out.extend_from_slice(r));
                    let expected: Vec<u32> = model.drain(..).collect();
                    prop_assert_eq!(out, expected);
                }
            }
            prop_assert_eq!(producer.lost(), model_lost);
            prop_assert_eq!(producer.len(), model.len());
        }
        // Drain the rest: order preserved.
        let mut rest = Vec::new();
        consumer.drain(|r| rest.extend_from_slice(r));
        let expected: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(rest, expected);
    }

    /// Concurrent: every accepted record arrives exactly once, in order.
    #[test]
    fn concurrent_delivery_is_exact(
        capacity in 2usize..128,
        count in 1usize..2000,
    ) {
        let (mut producer, mut consumer) = ring::<usize>(capacity);
        let handle = std::thread::spawn(move || {
            let mut accepted = Vec::new();
            for i in 0..count {
                if producer.push(i) {
                    accepted.push(i);
                }
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
            }
            accepted
        });
        let mut received = Vec::new();
        loop {
            match consumer.pop() {
                Some(v) => received.push(v),
                None => {
                    if handle.is_finished() {
                        consumer.drain(|r| received.extend_from_slice(r));
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        let accepted = handle.join().unwrap();
        prop_assert_eq!(received, accepted);
    }
}
