//! Property tests for the chunk codecs' edge cases, each checked as an
//! encode → decode round trip through the store's single decoder:
//! max-length LEB128 encodings, zero-delta timestamp runs, and
//! truncated-varint tails hiding inside checksum-valid payloads (which
//! must surface as typed errors, never panics).

use proptest::prelude::*;

use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::chunk::{decode_chunk_columns, encode_chunk, ChunkMeta};
use osn_store::varint::{get_uvarint, put_uvarint};
use osn_store::StoreError;
use osn_trace::{Event, EventColumns, EventKind};

fn mark(t: u64, value: u64) -> Event {
    Event {
        t: Nanos(t),
        cpu: CpuId(0),
        tid: Tid(1),
        kind: EventKind::AppMark { mark: 1, value },
    }
}

/// Encode `events` with the chosen codec and return `(meta, payload)`.
fn encoded(events: &[Event], compress: bool) -> (ChunkMeta, Vec<u8>) {
    let mut payload = Vec::new();
    let header = encode_chunk(events, 0, compress, &mut payload);
    (ChunkMeta::from_header(0, &header), payload)
}

/// Encode under `compress`, decode through the store's one decoder,
/// and return the block.
fn roundtrip(events: &[Event], compress: bool) -> EventColumns {
    let (meta, payload) = encoded(events, compress);
    let mut cols = EventColumns::new(CpuId(0));
    decode_chunk_columns(&meta, &payload, &mut cols).expect("decode");
    cols
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
        let (meta, payload) = encoded(&events, true);
        // Cut strictly inside the payload (at least one byte lost).
        let cut = 1 + ((payload.len() - 1) as f64 * frac) as usize;
        let truncated = &payload[..cut.min(payload.len() - 1)];
        let mut meta = meta;
        meta.payload_len = truncated.len() as u32;

        let mut cols = EventColumns::new(CpuId(0));
        match decode_chunk_columns(&meta, truncated, &mut cols) {
            Err(StoreError::CorruptChunk { .. }) => {}
            other => prop_assert!(false, "column decode: want CorruptChunk, got {other:?}"),
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
