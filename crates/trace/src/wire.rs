//! The record codec shared by every on-disk form of a trace.
//!
//! An event's kind packs into a fixed `(code, tid, a, b)` tuple
//! ([`pack_record`]) and unpacks back ([`unpack_record`]); the chunked
//! store (`osn-store`) writes that tuple next to each record's time
//! and CPU, and the columnar decoder ([`crate::columns`]) dispatches on
//! its raw [`code`]. The packing is append-only versioned: a code,
//! activity or switch state this build does not know is a typed
//! [`WireError`], never a panic. [`fnv1a64`] is the integrity hash the
//! store's chunks and footer carry.

use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};

use crate::event::{Event, EventKind};

/// Why a `(code, tid, a, b)` tuple does not unpack.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    BadCode(u16),
    BadActivity(u16),
    BadState(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadCode(c) => write!(f, "unknown record code {c}"),
            WireError::BadActivity(c) => write!(f, "unknown activity code {c}"),
            WireError::BadState(c) => write!(f, "unknown switch state {c}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit hash — the integrity check for store chunks and
/// footers. Not cryptographic; it exists to catch torn writes and bit
/// rot, like CTF's packet checksums.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_OFFSET, bytes)
}

/// The FNV-1a 64 state before any byte: `fnv1a64(b"")`.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a 64 state `h`, so a payload can be
/// hashed piecewise as a decoder consumes it:
/// `fnv1a64_update(fnv1a64_update(FNV1A64_OFFSET, x), y) == fnv1a64(x ++ y)`.
#[inline]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Codes of the `(code, tid, a, b)` record tuple. Public so
/// columnar consumers ([`crate::columns::EventColumns`]) can dispatch
/// on the raw code column without rebuilding [`EventKind`] values.
pub mod code {
    /// `KernelEnter` — `a` is the activity code.
    pub const ENTER: u16 = 1;
    /// `KernelExit` — `a` is the activity code.
    pub const EXIT: u16 = 2;
    /// `SoftirqRaise` — `a` is the softirq's activity code.
    pub const RAISE: u16 = 3;
    /// `SchedSwitch` — `tid` is prev, `a` packs `(prev_state, next)`.
    pub const SWITCH: u16 = 4;
    /// `Wakeup` — `tid` is the woken task, `a` the waker.
    pub const WAKEUP: u16 = 5;
    /// `Migrate` — `tid` is the task, `a` packs `(from, to)`.
    pub const MIGRATE: u16 = 6;
    /// `AppMark` — `a` is the mark, `b` the value.
    pub const MARK: u16 = 7;
    /// `TaskExit` — `tid` is the exiting task.
    pub const TASK_EXIT: u16 = 8;
}

/// Pack an event's kind into the fixed `(code, tid, a, b)` record
/// tuple.
pub fn pack_record(e: &Event) -> (u16, u32, u64, u64) {
    match e.kind {
        EventKind::KernelEnter(act) => (code::ENTER, e.tid.0, act.code() as u64, 0),
        EventKind::KernelExit(act) => (code::EXIT, e.tid.0, act.code() as u64, 0),
        EventKind::SoftirqRaise(vec) => (
            code::RAISE,
            e.tid.0,
            Activity::Softirq(vec).code() as u64,
            0,
        ),
        EventKind::SchedSwitch {
            prev,
            prev_state,
            next,
        } => (
            code::SWITCH,
            prev.0,
            ((prev_state.code() as u64) << 32) | next.0 as u64,
            0,
        ),
        EventKind::Wakeup { tid, waker } => (code::WAKEUP, tid.0, waker.0 as u64, 0),
        EventKind::Migrate { tid, from, to } => (
            code::MIGRATE,
            tid.0,
            ((from.0 as u64) << 16) | to.0 as u64,
            0,
        ),
        EventKind::AppMark { mark, value } => (code::MARK, e.tid.0, mark as u64, value),
        EventKind::TaskExit { tid } => (code::TASK_EXIT, tid.0, 0, 0),
    }
}

/// Whether [`unpack_record`] accepts a tuple with record code `c` and
/// first payload word `a` (the `tid` and `b` fields never make it
/// fail). Decoders that keep the raw tuple test this per record and
/// call [`unpack_record`] only to name the [`WireError`] of a rejected
/// one.
#[inline]
pub fn record_is_valid(c: u16, a: u64) -> bool {
    match c {
        code::ENTER | code::EXIT => Activity::from_code(a as u16).is_some(),
        code::RAISE => matches!(Activity::from_code(a as u16), Some(Activity::Softirq(_))),
        code::SWITCH => SwitchState::from_code((a >> 32) as u16).is_some(),
        code::WAKEUP | code::MIGRATE | code::MARK | code::TASK_EXIT => true,
        _ => false,
    }
}

/// Reverse of [`pack_record`]: rebuild the context tid and kind from
/// the record tuple.
pub fn unpack_record(c: u16, tid: u32, a: u64, b: u64) -> Result<(Tid, EventKind), WireError> {
    let tid = Tid(tid);
    let activity =
        |code: u64| Activity::from_code(code as u16).ok_or(WireError::BadActivity(code as u16));
    let kind = match c {
        code::ENTER => EventKind::KernelEnter(activity(a)?),
        code::EXIT => EventKind::KernelExit(activity(a)?),
        code::RAISE => match activity(a)? {
            Activity::Softirq(vec) => EventKind::SoftirqRaise(vec),
            _ => return Err(WireError::BadActivity(a as u16)),
        },
        code::SWITCH => {
            let state_code = (a >> 32) as u16;
            EventKind::SchedSwitch {
                prev: tid,
                prev_state: SwitchState::from_code(state_code)
                    .ok_or(WireError::BadState(state_code))?,
                next: Tid(a as u32),
            }
        }
        code::WAKEUP => EventKind::Wakeup {
            tid,
            waker: Tid(a as u32),
        },
        code::MIGRATE => EventKind::Migrate {
            tid,
            from: CpuId((a >> 16) as u16),
            to: CpuId(a as u16),
        },
        code::MARK => EventKind::AppMark {
            mark: a as u32,
            value: b,
        },
        code::TASK_EXIT => EventKind::TaskExit { tid },
        other => return Err(WireError::BadCode(other)),
    };
    // The context tid: for SWITCH the wire reuses the tid field as
    // `prev` (which equals the context), for WAKEUP as the woken task.
    let ctx_tid = match kind {
        EventKind::Wakeup { waker, .. } => waker,
        _ => tid,
    };
    Ok((ctx_tid, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::time::Nanos;

    fn roundtrip(e: &Event) -> Event {
        let (c, tid, a, b) = pack_record(e);
        let (tid, kind) = unpack_record(c, tid, a, b).expect("own packing must unpack");
        Event { tid, kind, ..*e }
    }

    /// One event of each of the eight record codes.
    #[test]
    fn roundtrip_preserves_everything() {
        use osn_kernel::activity::{FaultKind, SoftirqVec};
        let mk = |t: u64, cpu: u16, tid: u32, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind,
        };
        let events = [
            mk(1, 0, 1, EventKind::KernelEnter(Activity::TimerInterrupt)),
            mk(
                2,
                0,
                1,
                EventKind::KernelExit(Activity::PageFault(FaultKind::Cow)),
            ),
            mk(3, 0, 0, EventKind::SoftirqRaise(SoftirqVec::NetRx)),
            mk(
                4,
                1,
                5,
                EventKind::SchedSwitch {
                    prev: Tid(5),
                    prev_state: SwitchState::BlockedIo,
                    next: Tid(6),
                },
            ),
            mk(
                5,
                1,
                9,
                EventKind::Wakeup {
                    tid: Tid(7),
                    waker: Tid(9),
                },
            ),
            mk(
                6,
                1,
                7,
                EventKind::Migrate {
                    tid: Tid(7),
                    from: CpuId(1),
                    to: CpuId(3),
                },
            ),
            mk(
                7,
                2,
                8,
                EventKind::AppMark {
                    mark: 11,
                    value: u64::MAX - 3,
                },
            ),
            mk(8, 2, 8, EventKind::TaskExit { tid: Tid(8) }),
        ];
        let codes: Vec<u16> = events.iter().map(|e| pack_record(e).0).collect();
        assert_eq!(codes, (code::ENTER..=code::TASK_EXIT).collect::<Vec<_>>());
        for e in &events {
            assert_eq!(roundtrip(e), *e);
        }
    }

    #[test]
    fn all_activities_roundtrip() {
        for (i, act) in Activity::all().into_iter().enumerate() {
            for kind in [EventKind::KernelEnter(act), EventKind::KernelExit(act)] {
                let e = Event {
                    t: Nanos(i as u64),
                    cpu: CpuId(0),
                    tid: Tid(1),
                    kind,
                };
                assert_eq!(roundtrip(&e), e, "{act:?}");
            }
        }
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Piecewise hashing agrees with one pass at every split.
        for cut in 0..=6 {
            let (x, y) = b"foobar".split_at(cut);
            assert_eq!(fnv1a64_update(fnv1a64(x), y), 0x85944171f73967e8);
        }
    }
}
