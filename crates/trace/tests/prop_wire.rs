//! Property tests for the record codec: every event kind survives
//! `pack_record` → `unpack_record`, and arbitrary `(code, tid, a, b)`
//! tuples unpack to an event or a typed error, never a panic.

use proptest::prelude::*;

use osn_kernel::activity::{Activity, SoftirqVec};
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_trace::wire::{code, pack_record, unpack_record, WireError};
use osn_trace::{Event, EventKind};

fn activity_strategy() -> impl Strategy<Value = Activity> {
    any::<prop::sample::Index>().prop_map(|i| {
        let all = Activity::all();
        all[i.index(all.len())]
    })
}

fn switch_state_strategy() -> impl Strategy<Value = SwitchState> {
    (0u16..=5).prop_map(|code| SwitchState::from_code(code).expect("valid state range"))
}

fn softirq_strategy() -> impl Strategy<Value = EventKind> {
    any::<prop::sample::Index>()
        .prop_map(|i| EventKind::SoftirqRaise(SoftirqVec::ALL[i.index(SoftirqVec::ALL.len())]))
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        activity_strategy().prop_map(EventKind::KernelEnter),
        activity_strategy().prop_map(EventKind::KernelExit),
        softirq_strategy(),
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
        // Kinds that name a task re-derive their context tid from it
        // (the tuple stores only two ids); normalize so round-trips
        // are exact equality.
        let ctx = match kind {
            EventKind::Wakeup { waker, .. } => waker,
            EventKind::SchedSwitch { prev, .. } => prev,
            EventKind::TaskExit { tid } => tid,
            EventKind::Migrate { tid, .. } => tid,
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
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn roundtrip_is_lossless(e in event_strategy()) {
        let (c, tid, a, b) = pack_record(&e);
        let (ctx, kind) = unpack_record(c, tid, a, b).expect("own packing must unpack");
        prop_assert_eq!(ctx, e.tid);
        prop_assert_eq!(kind, e.kind);
    }

    /// Unpacking an arbitrary tuple returns an event kind or a typed
    /// error — never a panic. Codes and payloads are drawn both near
    /// the valid ranges and across the whole domain.
    #[test]
    fn arbitrary_tuples_unpack_or_fail_typed(
        c in prop_oneof![0u16..=code::TASK_EXIT + 1, any::<u16>()],
        tid in any::<u32>(),
        a in prop_oneof![0u64..=32, (0u64..=8).prop_map(|s| (s << 32) | 7), any::<u64>()],
        b in any::<u64>(),
    ) {
        match unpack_record(c, tid, a, b) {
            Ok(_) => prop_assert!((code::ENTER..=code::TASK_EXIT).contains(&c)),
            Err(WireError::BadCode(bad)) => prop_assert_eq!(bad, c),
            Err(WireError::BadActivity(_) | WireError::BadState(_)) => {
                prop_assert!(matches!(c, code::ENTER | code::EXIT | code::RAISE | code::SWITCH))
            }
        }
    }
}
