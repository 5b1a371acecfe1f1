//! Property tests for the chunk codecs' edge cases, each checked as an
//! encode → decode round trip through the store's single decoder:
//! max-length LEB128 encodings, zero-delta timestamp runs, and
//! truncated-varint tails hiding inside checksum-valid payloads (which
//! must surface as typed errors, never panics).
//!
//! The decoder checksums and decodes in one pass. Its error contract is
//! pinned against a two-pass oracle ([`two_pass`]: the whole-payload
//! FNV-1a first, then a record decoder that builds every record's
//! `EventKind`): on arbitrary streams, and on every byte flip,
//! truncation and checksum bit flip of a chunk, both must return the
//! same columns or the same error.

use proptest::prelude::*;

use osn_kernel::activity::{Activity, FaultKind, SoftirqVec};
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::chunk::{decode_chunk_columns, encode_columns, ChunkMeta, RAW_RECORD_BYTES};
use osn_store::varint::{get_uvarint, put_uvarint};
use osn_store::StoreError;
use osn_trace::wire::{code, fnv1a64, pack_record, record_is_valid, unpack_record};
use osn_trace::{Event, EventColumns, EventKind};

fn mark(t: u64, value: u64) -> Event {
    Event {
        t: Nanos(t),
        cpu: CpuId(0),
        tid: Tid(1),
        kind: EventKind::AppMark { mark: 1, value },
    }
}

/// Encode `events` with the chosen codec and return
/// `(meta, checksum, payload)`.
fn encoded(events: &[Event], compress: bool) -> (ChunkMeta, u64, Vec<u8>) {
    let mut cols = EventColumns::with_capacity(CpuId(0), events.len());
    events.iter().for_each(|e| cols.push_event(e));
    let mut payload = Vec::new();
    let header = encode_columns(&cols, 0..events.len(), compress, &mut payload);
    (ChunkMeta::from_header(0, &header), header.checksum, payload)
}

/// Encode under `compress`, decode through the store's one decoder,
/// and return the block.
fn roundtrip(events: &[Event], compress: bool) -> EventColumns {
    let (meta, checksum, payload) = encoded(events, compress);
    let mut cols = EventColumns::new(CpuId(0));
    decode_chunk_columns(&meta, checksum, &payload, &mut cols).expect("decode");
    cols
}

/// The two-pass reference decoder: verify the whole payload's FNV-1a
/// against `checksum`, then decode it record by record, unpacking each
/// tuple into its `EventKind` to validate it. Same checks, same order,
/// same errors the one-pass decoder promises.
fn two_pass(
    meta: &ChunkMeta,
    checksum: u64,
    payload: &[u8],
    out: &mut EventColumns,
) -> Result<(), StoreError> {
    let corrupt = |reason: &'static str| StoreError::CorruptChunk {
        offset: meta.offset,
        reason,
    };
    if fnv1a64(payload) != checksum {
        return Err(corrupt("payload checksum mismatch"));
    }
    *out = EventColumns::new(CpuId(meta.cpu));
    if payload.len() != meta.payload_len as usize {
        return Err(corrupt("payload length mismatch"));
    }
    let count = meta.count as usize;
    if meta.compressed() {
        let mut pos = 0usize;
        let mut prev = meta.t_first.0;
        for _ in 0..count {
            let mut next =
                || get_uvarint(payload, &mut pos).ok_or_else(|| corrupt("truncated varint"));
            let dt = next()?;
            let code = next()?;
            let tid = next()?;
            let a = next()?;
            let b = next()?;
            let t = prev
                .checked_add(dt)
                .ok_or_else(|| corrupt("timestamp overflow"))?;
            prev = t;
            let code = u16::try_from(code).map_err(|_| corrupt("record code overflow"))?;
            let tid = u32::try_from(tid).map_err(|_| corrupt("tid overflow"))?;
            unpack_record(code, tid, a, b)?;
            out.push_raw(t, code, tid, a, b);
        }
        if pos != payload.len() {
            return Err(corrupt("trailing payload bytes"));
        }
    } else {
        if payload.len() != count * RAW_RECORD_BYTES {
            return Err(corrupt("raw payload size mismatch"));
        }
        for rec in payload.chunks_exact(RAW_RECORD_BYTES) {
            let t = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let code = u16::from_le_bytes(rec[8..10].try_into().unwrap());
            let tid = u32::from_le_bytes(rec[10..14].try_into().unwrap());
            let a = u64::from_le_bytes(rec[14..22].try_into().unwrap());
            let b = u64::from_le_bytes(rec[22..30].try_into().unwrap());
            unpack_record(code, tid, a, b)?;
            out.push_raw(t, code, tid, a, b);
        }
    }
    if out.t.first() != Some(&meta.t_first.0) || out.t.last() != Some(&meta.t_last.0) {
        return Err(corrupt("span disagrees with header"));
    }
    Ok(())
}

/// A decode's outcome in comparable form: the block on success, the
/// error's variant, offset and reason on failure.
fn outcome(result: Result<(), StoreError>, cols: &EventColumns) -> Result<EventColumns, String> {
    result.map(|()| cols.clone()).map_err(|e| format!("{e:?}"))
}

/// Decode through the one-pass decoder and through [`two_pass`] and
/// require the same outcome; returns it.
fn assert_matches_two_pass(
    meta: &ChunkMeta,
    checksum: u64,
    payload: &[u8],
    case: &str,
) -> Result<EventColumns, String> {
    let mut cols = EventColumns::new(CpuId(9));
    let one = outcome(
        decode_chunk_columns(meta, checksum, payload, &mut cols),
        &cols,
    );
    let mut oracle = EventColumns::new(CpuId(9));
    let two = outcome(two_pass(meta, checksum, payload, &mut oracle), &oracle);
    assert_eq!(one, two, "{case}");
    one
}

fn activity_strategy() -> impl Strategy<Value = Activity> {
    (1u16..=22).prop_map(|code| Activity::from_code(code).expect("valid code range"))
}

/// Every record kind, with arbitrary field values.
fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        activity_strategy().prop_map(EventKind::KernelEnter),
        activity_strategy().prop_map(EventKind::KernelExit),
        (0..SoftirqVec::ALL.len()).prop_map(|i| EventKind::SoftirqRaise(SoftirqVec::ALL[i])),
        (any::<u32>(), 0u16..=5, any::<u32>()).prop_map(|(p, s, n)| EventKind::SchedSwitch {
            prev: Tid(p),
            prev_state: SwitchState::from_code(s).expect("valid state range"),
            next: Tid(n),
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

/// `e` as the record codec reads it back: the context tid of a wakeup
/// is its waker, of a switch its prev task, and so on.
fn canonical(e: Event) -> Event {
    let (c, tid, a, b) = pack_record(&e);
    let (tid, kind) = unpack_record(c, tid, a, b).expect("own packing unpacks");
    Event { tid, kind, ..e }
}

/// One CPU's run: time-ordered, non-empty, with deltas from zero (a
/// burst) to past the two-byte varint range.
fn run_strategy() -> impl Strategy<Value = Vec<Event>> {
    (
        any::<u64>(),
        prop::collection::vec((0u64..1 << 20, any::<u32>(), kind_strategy()), 1..200),
    )
        .prop_map(|(t0, raw)| {
            let mut t = t0 >> 1;
            raw.into_iter()
                .map(|(dt, tid, kind)| {
                    t += dt;
                    canonical(Event {
                        t: Nanos(t),
                        cpu: CpuId(0),
                        tid: Tid(tid),
                        kind,
                    })
                })
                .collect()
        })
}

/// A chunk shaped like one a recorder writes: 64 records of one CPU
/// cycling through every record kind, interrupts and faults nested in
/// application time, deltas from 0 to hundreds of microseconds.
fn recorded_like_chunk() -> Vec<Event> {
    let kinds = [
        EventKind::KernelEnter(Activity::TimerInterrupt),
        EventKind::SoftirqRaise(SoftirqVec::Timer),
        EventKind::KernelExit(Activity::TimerInterrupt),
        EventKind::KernelEnter(Activity::Softirq(SoftirqVec::Timer)),
        EventKind::KernelExit(Activity::Softirq(SoftirqVec::Timer)),
        EventKind::KernelEnter(Activity::PageFault(FaultKind::AnonZero)),
        EventKind::KernelExit(Activity::PageFault(FaultKind::AnonZero)),
        EventKind::Wakeup {
            tid: Tid(1207),
            waker: Tid(0),
        },
        EventKind::SchedSwitch {
            prev: Tid(1203),
            prev_state: SwitchState::Preempted,
            next: Tid(1207),
        },
        EventKind::Migrate {
            tid: Tid(1207),
            from: CpuId(3),
            to: CpuId(5),
        },
        EventKind::AppMark {
            mark: 2,
            value: 1 << 40,
        },
        EventKind::TaskExit { tid: Tid(1207) },
    ];
    let mut t = 5_000_000_000u64;
    (0..64u64)
        .map(|i| {
            t += (i * 7919) % 300_000;
            canonical(Event {
                t: Nanos(t),
                cpu: CpuId(0),
                tid: Tid(1203),
                kind: kinds[i as usize % kinds.len()],
            })
        })
        .collect()
}

/// The one-pass decoder agrees with [`two_pass`] on every single-byte
/// flip (three masks per byte), every truncation and every flipped
/// checksum bit of a recorder-shaped chunk, under both codecs. Flips
/// and truncations are decoded against the header's checksum (the
/// checksum must win) and against a recomputed one (the structural
/// check must name the damage), truncations with the index length kept
/// and with it shortened to match.
#[test]
fn one_pass_matches_two_pass_on_every_corruption() {
    let events = recorded_like_chunk();
    for compress in [false, true] {
        let (meta, checksum, payload) = encoded(&events, compress);
        let clean = assert_matches_two_pass(&meta, checksum, &payload, "clean");
        assert_eq!(
            clean.map(|c| c.events().collect::<Vec<_>>()),
            Ok(events.clone())
        );
        let mut structural = 0;
        for i in 0..payload.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = payload.clone();
                bad[i] ^= mask;
                let case = format!("compress={compress} flip byte {i} ^ {mask:#x}");
                let got = assert_matches_two_pass(&meta, checksum, &bad, &case);
                assert!(
                    matches!(&got, Err(e) if e.contains("payload checksum mismatch")),
                    "{case}: a flip must fail the header checksum, got {got:?}"
                );
                if assert_matches_two_pass(&meta, fnv1a64(&bad), &bad, &case).is_err() {
                    structural += 1;
                }
            }
        }
        assert!(structural > 0, "some flip must fail a structural check");
        for cut in 0..payload.len() {
            let short = &payload[..cut];
            let mut shortened = meta;
            shortened.payload_len = cut as u32;
            for (m, sum) in [
                (&meta, checksum),
                (&meta, fnv1a64(short)),
                (&shortened, checksum),
                (&shortened, fnv1a64(short)),
            ] {
                let case = format!("compress={compress} cut={cut} len={}", m.payload_len);
                assert!(
                    assert_matches_two_pass(m, sum, short, &case).is_err(),
                    "{case}"
                );
            }
        }
        for bit in 0..64 {
            let case = format!("compress={compress} checksum bit {bit}");
            let got = assert_matches_two_pass(&meta, checksum ^ (1 << bit), &payload, &case);
            assert!(got.is_err(), "{case}");
        }
    }
}

/// The record validity test agrees with `unpack_record` on every record
/// code 0..=15 × every low-16 value of `a`, each also with its high
/// bits set, and on every value of SWITCH's state half.
#[test]
fn record_is_valid_matches_unpack_record() {
    for c in 0..=15u16 {
        for low in 0..=u16::MAX as u64 {
            for a in [low, low | 0xdead_beef_0000_0000] {
                assert_eq!(
                    record_is_valid(c, a),
                    unpack_record(c, 0, a, 0).is_ok(),
                    "code {c} a {a:#x}"
                );
            }
        }
    }
    for state in 0..=u16::MAX as u64 {
        for next in [0u64, 0xffff_ffff] {
            let a = state << 32 | next;
            assert_eq!(
                record_is_valid(code::SWITCH, a),
                unpack_record(code::SWITCH, 0, a, 0).is_ok(),
                "switch state {state}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every u64 round-trips through LEB128, the encoded length is the
    /// minimal ceil(bits/7), and a one-byte truncation of the encoding
    /// is rejected rather than misread.
    #[test]
    fn leb128_roundtrips_at_every_length(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        let expect_len = if v == 0 { 1 } else { (70 - v.leading_zeros() as usize) / 7 };
        prop_assert_eq!(buf.len(), expect_len);
        prop_assert!(buf.len() <= 10, "LEB128 of u64 never exceeds 10 bytes");
        let mut pos = 0;
        prop_assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
        let mut pos = 0;
        prop_assert_eq!(get_uvarint(&buf[..buf.len() - 1], &mut pos), None);
    }

    /// Zero-delta runs (bursts of records at the same nanosecond, as a
    /// tracer under overload produces) survive the delta predictor:
    /// each repeat costs exactly one zero byte and decodes losslessly.
    #[test]
    fn zero_delta_runs_roundtrip(
        t0 in any::<u64>(),
        run in 1usize..=64,
        value in any::<u64>(),
    ) {
        let events: Vec<Event> = (0..run).map(|i| mark(t0, value ^ i as u64)).collect();
        for compress in [false, true] {
            let cols = roundtrip(&events, compress);
            prop_assert!(cols.t.iter().all(|&t| t == t0));
            prop_assert_eq!(cols.events().collect::<Vec<_>>(), events.clone());
        }
    }

    /// A payload cut mid-varint — with `payload_len` and the checksum
    /// recomputed so the *chunk framing* is valid — must come back as a
    /// typed corrupt-chunk error, never a panic or
    /// a silently short result. This models a recorder that died while
    /// `write(2)` was mid-payload and a footer rebuilt around the torn
    /// tail.
    #[test]
    fn truncated_varint_tail_is_a_typed_error(
        n in 2usize..=32,
        frac in 0.0f64..1.0,
    ) {
        let events: Vec<Event> = (0..n as u64)
            .map(|i| mark(i * 1000, u64::MAX - i))
            .collect();
        let (meta, _, payload) = encoded(&events, true);
        // Cut strictly inside the payload (at least one byte lost).
        let cut = 1 + ((payload.len() - 1) as f64 * frac) as usize;
        let truncated = &payload[..cut.min(payload.len() - 1)];
        let mut meta = meta;
        meta.payload_len = truncated.len() as u32;

        let mut cols = EventColumns::new(CpuId(0));
        match decode_chunk_columns(&meta, fnv1a64(truncated), truncated, &mut cols) {
            Err(StoreError::CorruptChunk { .. }) => {}
            other => prop_assert!(false, "column decode: want CorruptChunk, got {other:?}"),
        }
    }

    /// On arbitrary runs of every record kind, under both codecs, the
    /// one-pass decoder returns the same outcome as [`two_pass`]: the
    /// run itself when intact (a zero mask), and the same error after a
    /// byte flip, checked against the header's checksum or a recomputed
    /// one.
    #[test]
    fn one_pass_matches_two_pass_on_arbitrary_runs(
        events in run_strategy(),
        at in any::<prop::sample::Index>(),
        mask in any::<u8>(),
        recompute in any::<bool>(),
    ) {
        for compress in [false, true] {
            let (meta, checksum, mut payload) = encoded(&events, compress);
            let at = at.index(payload.len());
            payload[at] ^= mask;
            let checksum = if recompute { fnv1a64(&payload) } else { checksum };
            let case = format!("compress={compress} flip {at} ^ {mask:#x} recompute={recompute}");
            let got = assert_matches_two_pass(&meta, checksum, &payload, &case);
            if mask == 0 {
                let back = got.map(|cols| cols.events().collect::<Vec<_>>());
                prop_assert_eq!(back, Ok(events.clone()));
            }
        }
    }

    /// Timestamps near `u64::MAX` still round-trip: the delta codec's
    /// overflow check rejects nothing that a legal encoder produced.
    #[test]
    fn max_magnitude_timestamps_roundtrip(
        base in (u64::MAX - 10_000)..=u64::MAX,
        deltas in prop::collection::vec(0u64..=100, 1..=16),
    ) {
        let mut t = base.saturating_sub(deltas.iter().sum());
        let events: Vec<Event> = deltas
            .iter()
            .map(|&d| {
                t += d;
                mark(t, t)
            })
            .collect();
        for compress in [false, true] {
            let cols = roundtrip(&events, compress);
            prop_assert_eq!(cols.events().collect::<Vec<_>>(), events.clone());
        }
    }
}
