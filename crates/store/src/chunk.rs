//! Chunk layout: header parsing and payload codecs.
//!
//! A chunk carries the records of exactly one CPU, so the cpu field
//! lives in the header and each record stores only `(t, code, tid, a,
//! b)` — the record codec's kind packing
//! ([`osn_trace::wire::pack_record`]). Two payload codecs:
//!
//! * **raw** — fixed 30-byte little-endian records; seekable within
//!   the chunk, no decode cost.
//! * **compressed** — per-record LEB128 varints with the timestamp
//!   delta-coded against the previous record (the chunk header's
//!   `t_first` seeds the predictor). Kernel events are nanoseconds to
//!   microseconds apart, so deltas are 1–3 bytes; typical payloads
//!   shrink to roughly a third of raw.
//!
//! Every payload is integrity-checked against a fnv1a-64 in the header
//! in the same pass that decodes it
//! ([`decode_chunk_columns`]); a block is lent only after its checksum
//! matched, so a torn tail chunk is detected, never misparsed.

use osn_kernel::ids::CpuId;
use osn_kernel::time::Nanos;
use osn_trace::wire::{
    fnv1a64, fnv1a64_update, pack_record, record_is_valid, unpack_record, FNV1A64_OFFSET,
};
use osn_trace::{Event, EventColumns};

use crate::varint::{get_uvarint, put_uvarint};
use crate::StoreError;

/// Chunk magic ("CHNK").
pub const CHUNK_MAGIC: u32 = 0x4B4E_4843;
/// Fixed chunk header size.
pub const CHUNK_HEADER_BYTES: usize = 40;
/// Chunk flag: payload is delta/varint compressed.
pub const FLAG_COMPRESSED: u16 = 1;
/// Raw (uncompressed) record size inside a chunk payload.
pub const RAW_RECORD_BYTES: usize = 30;
/// Fewest bytes a compressed record takes: five one-byte varints.
const MIN_COMPRESSED_RECORD_BYTES: usize = 5;

/// Parsed chunk header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkHeader {
    pub cpu: u16,
    pub flags: u16,
    pub count: u32,
    pub payload_len: u32,
    pub t_first: Nanos,
    pub t_last: Nanos,
    pub checksum: u64,
}

impl ChunkHeader {
    /// Append the 40-byte header image to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.cpu.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.t_first.0.to_le_bytes());
        out.extend_from_slice(&self.t_last.0.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    /// Parse a header image; `Err` names the first failed check.
    pub fn parse(bytes: &[u8; CHUNK_HEADER_BYTES]) -> Result<ChunkHeader, &'static str> {
        let u16_at = |i: usize| u16::from_le_bytes(bytes[i..i + 2].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        if u32_at(0) != CHUNK_MAGIC {
            return Err("bad chunk magic");
        }
        let header = ChunkHeader {
            cpu: u16_at(4),
            flags: u16_at(6),
            count: u32_at(8),
            payload_len: u32_at(12),
            t_first: Nanos(u64_at(16)),
            t_last: Nanos(u64_at(24)),
            checksum: u64_at(32),
        };
        if header.count == 0 {
            return Err("empty chunk"); // the writer never emits one
        }
        if header.t_first > header.t_last {
            return Err("inverted chunk span");
        }
        if !count_fits(header.flags, header.count, header.payload_len) {
            return Err("count disagrees with payload length");
        }
        Ok(header)
    }
}

/// Whether `count` records fit in `payload_len` bytes under the codec
/// `flags` selects: raw records are exactly [`RAW_RECORD_BYTES`], and a
/// compressed record is at least five one-byte varints. Readers check
/// this before sizing anything from a declared count, so a corrupt
/// count is a typed error, never a huge allocation.
pub(crate) fn count_fits(flags: u16, count: u32, payload_len: u32) -> bool {
    let (count, len) = (count as u64, payload_len as u64);
    if flags & FLAG_COMPRESSED != 0 {
        count * MIN_COMPRESSED_RECORD_BYTES as u64 <= len
    } else {
        count * RAW_RECORD_BYTES as u64 == len
    }
}

/// One footer-index entry: a chunk's header fields plus its offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Offset of the chunk *header* in the file.
    pub offset: u64,
    pub cpu: u16,
    pub flags: u16,
    pub count: u32,
    pub payload_len: u32,
    pub t_first: Nanos,
    pub t_last: Nanos,
}

impl ChunkMeta {
    pub fn from_header(offset: u64, h: &ChunkHeader) -> ChunkMeta {
        ChunkMeta {
            offset,
            cpu: h.cpu,
            flags: h.flags,
            count: h.count,
            payload_len: h.payload_len,
            t_first: h.t_first,
            t_last: h.t_last,
        }
    }

    #[inline]
    pub fn compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }
}

/// Encode `events` (one CPU, time-sorted, non-empty) into `out` and
/// return the finished header. The header's checksum covers exactly
/// the bytes appended here.
pub fn encode_chunk(events: &[Event], cpu: u16, compress: bool, out: &mut Vec<u8>) -> ChunkHeader {
    assert!(!events.is_empty(), "chunks are never empty");
    let start = out.len();
    if compress {
        let mut prev = events[0].t.0;
        for e in events {
            debug_assert_eq!(e.cpu.0, cpu, "chunk events must belong to its CPU");
            debug_assert!(e.t.0 >= prev, "chunk events must be time-sorted");
            let (code, tid, a, b) = pack_record(e);
            put_uvarint(out, e.t.0 - prev);
            prev = e.t.0;
            put_uvarint(out, code as u64);
            put_uvarint(out, tid as u64);
            put_uvarint(out, a);
            put_uvarint(out, b);
        }
    } else {
        out.reserve(events.len() * RAW_RECORD_BYTES);
        for e in events {
            debug_assert_eq!(e.cpu.0, cpu, "chunk events must belong to its CPU");
            let (code, tid, a, b) = pack_record(e);
            out.extend_from_slice(&e.t.0.to_le_bytes());
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(&tid.to_le_bytes());
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    let payload = &out[start..];
    ChunkHeader {
        cpu,
        flags: if compress { FLAG_COMPRESSED } else { 0 },
        count: events.len() as u32,
        payload_len: payload.len() as u32,
        t_first: events[0].t,
        t_last: events[events.len() - 1].t,
        checksum: fnv1a64(payload),
    }
}

/// Checksum and decode a chunk payload into columnar storage in one
/// pass, reusing `out`'s capacity (the payload slice normally points
/// into the reader's memory map). This is the store's only payload
/// decoder: typed rows are read back out of the columns
/// ([`EventColumns::events`]).
///
/// Each record's bytes are folded into the FNV-1a 64 of the payload as
/// they are consumed, and the result is compared with `checksum` (the
/// header's). The record loop validates structure — length, varint
/// structure, timestamp overflow, field widths, record
/// well-formedness ([`record_is_valid`], named by [`unpack_record`]),
/// exact payload consumption, span agreement — so downstream column
/// consumers may assume every record decodes ([`EventColumns`]'s
/// accessor contract). The checksum takes precedence over every
/// structural error, as if it had been checked in a pass of its own:
/// when the loop stops early, the rest of the payload is hashed before
/// either error is returned. `Ok` means the checksum matched; on `Err`
/// `out` is left empty.
pub fn decode_chunk_columns(
    meta: &ChunkMeta,
    checksum: u64,
    payload: &[u8],
    out: &mut EventColumns,
) -> Result<(), StoreError> {
    out.cpu = CpuId(meta.cpu);
    let (hash, hashed, decoded) = decode_records(meta, payload, out);
    let result = if fnv1a64_update(hash, &payload[hashed..]) != checksum {
        Err(StoreError::CorruptChunk {
            offset: meta.offset,
            reason: "payload checksum mismatch",
        })
    } else {
        decoded
    };
    if result.is_err() {
        out.clear();
    }
    result
}

/// The record loop of [`decode_chunk_columns`]: decode `payload` into
/// `out`, hashing each record as it is consumed. Returns the FNV-1a 64
/// state, how many leading payload bytes it covers (all of them unless
/// a structural check stopped the loop), and the first structural
/// error.
fn decode_records(
    meta: &ChunkMeta,
    payload: &[u8],
    out: &mut EventColumns,
) -> (u64, usize, Result<(), StoreError>) {
    let corrupt = |reason: &'static str| {
        Err(StoreError::CorruptChunk {
            offset: meta.offset,
            reason,
        })
    };
    let wire = |code: u16, tid: u32, a: u64, b: u64| {
        Err(StoreError::Wire(
            unpack_record(code, tid, a, b).expect_err("record_is_valid agrees with unpack_record"),
        ))
    };
    let mut h = FNV1A64_OFFSET;
    if payload.len() != meta.payload_len as usize {
        return (h, 0, corrupt("payload length mismatch"));
    }
    let count = meta.count as usize;
    let rows = if meta.compressed() {
        // Record `i` starts at byte `5 * i` or later, so any record past
        // this many fails as a truncated varint before it is written: a
        // count the payload cannot hold never sizes the columns.
        count.min(payload.len() / MIN_COMPRESSED_RECORD_BYTES)
    } else if payload.len() != count * RAW_RECORD_BYTES {
        return (h, 0, corrupt("raw payload size mismatch"));
    } else {
        count
    };
    out.reset_zeroed(rows);
    let EventColumns {
        t: t_col,
        code: code_col,
        tid: tid_col,
        a: a_col,
        b: b_col,
        ..
    } = out;
    if meta.compressed() {
        let mut pos = 0usize;
        let mut prev = meta.t_first.0;
        for i in 0..count {
            let (start, h_start) = (pos, h);
            let Some((dt, code, tid, a, b)) = read_varint_record(payload, &mut pos, &mut h) else {
                return (h_start, start, corrupt("truncated varint"));
            };
            let Some(t) = prev.checked_add(dt) else {
                return (h, pos, corrupt("timestamp overflow"));
            };
            prev = t;
            let Ok(code) = u16::try_from(code) else {
                return (h, pos, corrupt("record code overflow"));
            };
            let Ok(tid) = u32::try_from(tid) else {
                return (h, pos, corrupt("tid overflow"));
            };
            if !record_is_valid(code, a) {
                return (h, pos, wire(code, tid, a, b));
            }
            t_col[i] = t;
            code_col[i] = code;
            tid_col[i] = tid;
            a_col[i] = a;
            b_col[i] = b;
        }
        if pos != payload.len() {
            return (h, pos, corrupt("trailing payload bytes"));
        }
    } else {
        for (i, rec) in payload.chunks_exact(RAW_RECORD_BYTES).enumerate() {
            h = fnv1a64_update(h, rec);
            let t = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let code = u16::from_le_bytes(rec[8..10].try_into().unwrap());
            let tid = u32::from_le_bytes(rec[10..14].try_into().unwrap());
            let a = u64::from_le_bytes(rec[14..22].try_into().unwrap());
            let b = u64::from_le_bytes(rec[22..30].try_into().unwrap());
            if !record_is_valid(code, a) {
                return (h, (i + 1) * RAW_RECORD_BYTES, wire(code, tid, a, b));
            }
            t_col[i] = t;
            code_col[i] = code;
            tid_col[i] = tid;
            a_col[i] = a;
            b_col[i] = b;
        }
    }
    if t_col.first() != Some(&meta.t_first.0) || t_col.last() != Some(&meta.t_last.0) {
        return (h, payload.len(), corrupt("span disagrees with header"));
    }
    (h, payload.len(), Ok(()))
}

/// The five varints of one compressed record, `(dt, code, tid, a, b)`,
/// advancing `*pos` and folding their bytes into `*h`; `None` if the
/// payload ends or a varint is malformed first.
#[inline(always)]
fn read_varint_record(
    payload: &[u8],
    pos: &mut usize,
    h: &mut u64,
) -> Option<(u64, u64, u64, u64, u64)> {
    Some((
        take_varint(payload, pos, h)?,
        take_varint(payload, pos, h)?,
        take_varint(payload, pos, h)?,
        take_varint(payload, pos, h)?,
        take_varint(payload, pos, h)?,
    ))
}

/// One varint at `*pos`, its bytes folded into the FNV-1a 64 state
/// `*h`. Most payload fields (codes, small tids, short deltas) fit in
/// one byte: that case is inlined here, with its hash step, so the
/// hash chain runs alongside the decode instead of in a pass of its
/// own. Longer varints go through [`get_uvarint`].
#[inline(always)]
fn take_varint(payload: &[u8], pos: &mut usize, h: &mut u64) -> Option<u64> {
    let start = *pos;
    let first = *payload.get(start)?;
    if first < 0x80 {
        *pos += 1;
        *h = fnv1a64_update(*h, &[first]);
        return Some(first as u64);
    }
    let v = get_uvarint(payload, pos)?;
    *h = fnv1a64_update(*h, &payload[start..*pos]);
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity;
    use osn_kernel::ids::Tid;
    use osn_trace::EventKind;

    fn sample(cpu: u16) -> Vec<Event> {
        (0..50)
            .map(|i| Event {
                t: Nanos(1_000 + i * 137),
                cpu: CpuId(cpu),
                tid: Tid(7),
                kind: if i % 2 == 0 {
                    EventKind::KernelEnter(Activity::TimerInterrupt)
                } else {
                    EventKind::KernelExit(Activity::TimerInterrupt)
                },
            })
            .collect()
    }

    /// Encode then decode through the single decoder: the columns must
    /// read back as exactly the input events, under both codecs.
    #[test]
    fn payload_roundtrip_both_codecs() {
        for compress in [false, true] {
            let events = sample(3);
            let mut out = Vec::new();
            let header = encode_chunk(&events, 3, compress, &mut out);
            assert_eq!(header.count, 50);
            assert_eq!(header.t_first, Nanos(1_000));
            assert_eq!(header.checksum, fnv1a64(&out));
            let meta = ChunkMeta::from_header(0, &header);
            let mut cols = EventColumns::new(CpuId(0));
            decode_chunk_columns(&meta, header.checksum, &out, &mut cols).unwrap();
            assert_eq!(cols.cpu, CpuId(3));
            assert_eq!(cols.events().collect::<Vec<_>>(), events);
        }
    }

    /// The columns read back as the input events under both codecs, also
    /// when the buffer is reused from a chunk of another CPU.
    #[test]
    fn columns_match_events_both_codecs() {
        let mut cols = EventColumns::new(CpuId(0));
        for compress in [false, true] {
            for cpu in [2, 5] {
                let events = sample(cpu);
                let mut out = Vec::new();
                let header = encode_chunk(&events, cpu, compress, &mut out);
                let meta = ChunkMeta::from_header(0, &header);
                decode_chunk_columns(&meta, header.checksum, &out, &mut cols).unwrap();
                assert_eq!(cols.cpu, CpuId(cpu));
                let typed: Vec<Event> = cols.events().collect();
                assert_eq!(typed, events, "compress={compress} cpu={cpu}");
            }
        }
    }

    #[test]
    fn compression_beats_raw_on_dense_streams() {
        let events = sample(0);
        let (mut raw, mut packed) = (Vec::new(), Vec::new());
        encode_chunk(&events, 0, false, &mut raw);
        encode_chunk(&events, 0, true, &mut packed);
        assert!(
            packed.len() * 3 < raw.len(),
            "expected ≥3× on dense streams: {} vs {}",
            packed.len(),
            raw.len()
        );
    }

    #[test]
    fn header_image_roundtrip() {
        let events = sample(1);
        let mut payload = Vec::new();
        let header = encode_chunk(&events, 1, true, &mut payload);
        let mut img = Vec::new();
        header.write_to(&mut img);
        assert_eq!(img.len(), CHUNK_HEADER_BYTES);
        let back = ChunkHeader::parse(&img.try_into().unwrap()).unwrap();
        assert_eq!(back, header);
    }

    #[test]
    fn parse_rejects_garbage() {
        let zero = [0u8; CHUNK_HEADER_BYTES];
        assert!(ChunkHeader::parse(&zero).is_err());
    }

    #[test]
    fn truncation_at_every_byte_is_corrupt_chunk() {
        for compress in [false, true] {
            let events = sample(0);
            let mut payload = Vec::new();
            let header = encode_chunk(&events, 0, compress, &mut payload);
            let meta = ChunkMeta::from_header(0, &header);
            let mut cols = EventColumns::new(CpuId(0));
            // Truncations at every byte boundary: a typed error, never
            // a panic.
            for cut in 0..payload.len() {
                assert!(
                    matches!(
                        decode_chunk_columns(&meta, header.checksum, &payload[..cut], &mut cols),
                        Err(StoreError::CorruptChunk { .. })
                    ),
                    "compress={compress} cut={cut}"
                );
            }
        }
    }

    #[test]
    fn corrupt_payload_is_typed_error() {
        let events = sample(0);
        let mut payload = Vec::new();
        let header = encode_chunk(&events, 0, true, &mut payload);
        let meta = ChunkMeta::from_header(0, &header);
        payload.truncate(payload.len() / 2);
        let mut cols = EventColumns::new(CpuId(0));
        assert!(matches!(
            decode_chunk_columns(&meta, header.checksum, &payload, &mut cols),
            Err(StoreError::CorruptChunk { .. })
        ));
    }
}
