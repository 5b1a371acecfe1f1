//! Property tests for the binary wire format: lossless round-trips for
//! arbitrary valid traces, and panic-free rejection of arbitrary bytes.

use proptest::prelude::*;

use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_trace::wire::{decode, encode};
use osn_trace::{Event, EventKind, Trace};

fn activity_strategy() -> impl Strategy<Value = Activity> {
    (1u16..=21).prop_map(|code| Activity::from_code(code).expect("valid code range"))
}

fn switch_state_strategy() -> impl Strategy<Value = SwitchState> {
    (0u16..=5).prop_map(|code| SwitchState::from_code(code).expect("valid state range"))
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        activity_strategy().prop_map(EventKind::KernelEnter),
        activity_strategy().prop_map(EventKind::KernelExit),
        (any::<u32>(), switch_state_strategy(), any::<u32>()).prop_map(|(p, s, n)| {
            EventKind::SchedSwitch {
                prev: Tid(p),
                prev_state: s,
                next: Tid(n),
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(t, w)| EventKind::Wakeup {
            tid: Tid(t),
            waker: Tid(w),
        }),
        (any::<u32>(), any::<u16>(), any::<u16>()).prop_map(|(t, f, o)| EventKind::Migrate {
            tid: Tid(t),
            from: CpuId(f),
            to: CpuId(o),
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(m, v)| EventKind::AppMark { mark: m, value: v }),
        any::<u32>().prop_map(|t| EventKind::TaskExit { tid: Tid(t) }),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (any::<u64>(), any::<u16>(), any::<u32>(), kind_strategy()).prop_map(|(t, cpu, tid, kind)| {
        // Wakeup records re-derive their context tid from the waker
        // (the wire stores only two ids); normalize so round-trips are
        // exact equality.
        let ctx = match kind {
            EventKind::Wakeup { waker, .. } => waker,
            EventKind::SchedSwitch { prev, .. } => prev,
            EventKind::TaskExit { tid } => tid,
            EventKind::Migrate { tid, .. } => tid,
            EventKind::SoftirqRaise(_) => Tid::IDLE,
            _ => Tid(tid),
        };
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: ctx,
            kind,
        }
    })
}

proptest! {
    #[test]
    fn roundtrip_is_lossless(
        events in prop::collection::vec(event_strategy(), 0..200),
        lost in prop::collection::vec(any::<u64>(), 0..16),
    ) {
        let trace = Trace::from_raw_parts(events, lost);
        let decoded = decode(&encode(&trace)).expect("own encoding must decode");
        prop_assert_eq!(decoded.events, trace.events);
        prop_assert_eq!(decoded.lost, trace.lost);
    }

    /// Decoding attacker-controlled bytes must never panic: it returns
    /// a structured error or a valid trace.
    #[test]
    fn decode_arbitrary_bytes_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&data);
    }

    /// Flipping any single byte of a valid encoding either still
    /// decodes (payload bytes) or errors cleanly — never panics.
    #[test]
    fn corrupted_encoding_never_panics(
        events in prop::collection::vec(event_strategy(), 1..20),
        flip_at in any::<prop::sample::Index>(),
        xor in 1u8..,
    ) {
        let trace = Trace::from_raw_parts(events, vec![0]);
        let mut bytes = encode(&trace);
        let idx = flip_at.index(bytes.len());
        bytes[idx] ^= xor;
        let _ = decode(&bytes);
    }
}
