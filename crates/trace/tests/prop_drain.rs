//! Property tests for the bulk ring drain and the columnar stop: the
//! bulk drain must hand out exactly what sequential `pop` would, and
//! `TraceSession::stop` must build exactly the columns `Trace::new`
//! deals out of the merged per-CPU streams.

use proptest::prelude::*;

use osn_kernel::activity::Activity;
use osn_kernel::hooks::{Probe, SwitchState};
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_trace::ringbuf::{ring, Consumer};
use osn_trace::{merge_streams, Event, EventKind, EventMask, Trace, TraceSession, Tracer};

#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u32>().prop_map(Op::Push),
        1 => Just(Op::Pop),
        1 => Just(Op::Drain),
    ]
}

proptest! {
    /// Two rings get the same pushes and pops; at each drain one is
    /// drained in bulk and the other popped empty. Small capacities
    /// and long op runs cross the wrap point and fill the ring often.
    #[test]
    fn bulk_drain_equals_sequential_pop(
        capacity in 1usize..16,
        ops in prop::collection::vec(op_strategy(), 0..300),
    ) {
        let (mut bulk_in, mut bulk) = ring::<u32>(capacity);
        let (mut seq_in, mut seq) = ring::<u32>(capacity);
        for op in ops {
            match op {
                Op::Push(v) => prop_assert_eq!(bulk_in.push(v), seq_in.push(v)),
                Op::Pop => prop_assert_eq!(bulk.pop(), seq.pop()),
                Op::Drain => drain_both(&mut bulk, &mut seq),
            }
            prop_assert_eq!(bulk.lost(), seq.lost());
            prop_assert_eq!(bulk.len(), seq.len());
        }
        drain_both(&mut bulk, &mut seq);
        prop_assert!(bulk.is_empty());
    }

    /// Random per-CPU streams (time-sorted per CPU, with ties within
    /// and across CPUs, and rings small enough to overflow): `stop`'s
    /// columns and loss counters equal those of `Trace::new` over the
    /// merge of what each ring accepted.
    #[test]
    fn stop_columns_equal_merged_trace(
        capacity in 1usize..40,
        raw in prop::collection::vec(
            prop::collection::vec((0u64..30, 0u8..4, 0u32..5), 0..50),
            1..5,
        ),
    ) {
        let streams: Vec<Vec<Event>> = raw
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                stream.sort_by_key(|&(t, _, _)| t);
                stream
                    .into_iter()
                    .enumerate()
                    .map(|(i, (t, kind, tid))| record(Nanos(t), CpuId(c as u16), Tid(tid), kind, i as u64))
                    .collect()
            })
            .collect();
        let ncpus = streams.len();
        let (session, mut tracer) = TraceSession::new(ncpus, capacity, EventMask::ALL);
        let cap = capacity.max(2).next_power_of_two();
        // Round-robin across CPUs: ring order is per CPU only.
        let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for e in streams.iter().filter_map(|s| s.get(i)) {
                emit(&mut tracer, e);
            }
        }
        let trace = session.stop();

        // Discard mode: each ring keeps its first `cap` records.
        let lost: Vec<u64> = streams.iter().map(|s| s.len().saturating_sub(cap) as u64).collect();
        let accepted: Vec<Vec<Event>> = streams.iter().map(|s| s[..s.len().min(cap)].to_vec()).collect();
        let expect = Trace::new(merge_streams(accepted), lost.clone());

        prop_assert_eq!(&trace.lost, &lost);
        prop_assert_eq!(trace.ncpus(), ncpus);
        prop_assert_eq!(&trace.columns()[..expect.ncpus()], expect.columns());
        prop_assert!(trace.columns()[expect.ncpus()..].iter().all(|b| b.is_empty()));
        prop_assert_eq!(trace.events(), expect.events());
        prop_assert_eq!(trace.len(), expect.len());
        prop_assert_eq!(trace.span(), expect.span());
    }
}

/// Drain `bulk` in bulk and pop `seq` empty; both must yield the same
/// records, the bulk drain in at most two slices (one wrap point).
fn drain_both(bulk: &mut Consumer<u32>, seq: &mut Consumer<u32>) {
    let mut got = Vec::new();
    let mut slices = 0;
    let n = bulk.drain(|records| {
        slices += 1;
        got.extend_from_slice(records);
    });
    let want: Vec<u32> = std::iter::from_fn(|| seq.pop()).collect();
    prop_assert_eq!(n, got.len());
    prop_assert!(slices <= 2, "{} slices", slices);
    prop_assert_eq!(got, want);
}

/// The record the tracer writes for one of four probe kinds.
fn record(t: Nanos, cpu: CpuId, tid: Tid, kind: u8, value: u64) -> Event {
    let kind = match kind {
        0 => EventKind::KernelEnter(Activity::TimerInterrupt),
        1 => EventKind::KernelExit(Activity::TimerInterrupt),
        2 => EventKind::SchedSwitch {
            prev: tid,
            prev_state: SwitchState::Preempted,
            next: Tid(tid.0 + 1),
        },
        _ => EventKind::AppMark { mark: 7, value },
    };
    Event { t, cpu, tid, kind }
}

/// Fire the probe that records `e`.
fn emit(tracer: &mut Tracer, e: &Event) {
    match e.kind {
        EventKind::KernelEnter(a) => tracer.kernel_enter(e.t, e.cpu, e.tid, a),
        EventKind::KernelExit(a) => tracer.kernel_exit(e.t, e.cpu, e.tid, a),
        EventKind::SchedSwitch {
            prev,
            prev_state,
            next,
        } => tracer.sched_switch(e.t, e.cpu, prev, prev_state, next),
        EventKind::AppMark { mark, value } => tracer.app_mark(e.t, e.cpu, e.tid, mark, value),
        other => unreachable!("not generated: {other:?}"),
    }
}
