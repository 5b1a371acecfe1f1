//! Binary trace serialization (the on-disk format, CTF-lite).
//!
//! Fixed 32-byte little-endian records behind a small header, followed
//! by a whole-image checksum:
//!
//! ```text
//! header:  magic "OSNTRACE" | u32 version | u32 ncpus
//!          ncpus × u64 lost-counters | u64 event count
//! record:  u64 t | u16 cpu | u16 code | u32 tid | u64 a | u64 b
//! trailer: u64 fnv1a-64 over every preceding byte   (version ≥ 2)
//! ```
//!
//! Fixed-size records keep the producer path branch-free and make the
//! file seekable; the `code`/`a`/`b` encoding is append-only versioned.
//! Version 1 files (no trailing checksum) are still readable behind an
//! explicit fallback in [`decode`]; anything else is rejected with
//! [`WireError::VersionMismatch`] instead of being parsed as garbage.
//!
//! The `(code, tid, a, b)` kind packing is shared with the chunked
//! store format (`osn-store`) via [`pack_record`]/[`unpack_record`].

use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;

use crate::event::{Event, EventKind, Trace};

pub const MAGIC: &[u8; 8] = b"OSNTRACE";
/// Current format: v2 = v1 plus a trailing fnv1a-64 image checksum.
pub const VERSION: u32 = 2;
/// Oldest version still decodable (explicit fallback, no checksum).
pub const LEGACY_VERSION: u32 = 1;
pub const RECORD_BYTES: usize = 32;
/// Trailing checksum size for `VERSION` ≥ 2 images.
pub const CHECKSUM_BYTES: usize = 8;

/// Decoding errors.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    BadMagic,
    /// The image's version is neither current nor the legacy fallback.
    VersionMismatch {
        found: u32,
        supported: u32,
    },
    /// The trailing image checksum does not match the payload.
    ChecksumMismatch,
    Truncated,
    BadCode(u16),
    BadActivity(u16),
    BadState(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::VersionMismatch { found, supported } => {
                write!(f, "unsupported version {found} (supported ≤ {supported})")
            }
            WireError::ChecksumMismatch => write!(f, "image checksum mismatch"),
            WireError::Truncated => write!(f, "truncated stream"),
            WireError::BadCode(c) => write!(f, "unknown record code {c}"),
            WireError::BadActivity(c) => write!(f, "unknown activity code {c}"),
            WireError::BadState(c) => write!(f, "unknown switch state {c}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit hash — the integrity check for wire images and store
/// chunks. Not cryptographic; it exists to catch torn writes and bit
/// rot, like CTF's packet checksums.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record codes of the `(code, tid, a, b)` wire tuple. Public so
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

/// Pack an event's kind into the fixed `(code, tid, a, b)` wire tuple
/// shared by the whole-trace format and the chunked store.
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

/// Reverse of [`pack_record`]: rebuild the context tid and kind from
/// the wire tuple.
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

fn encode_record(buf: &mut Vec<u8>, e: &Event) {
    let (c, tid, a, b) = pack_record(e);
    buf.extend_from_slice(&e.t.as_nanos().to_le_bytes());
    buf.extend_from_slice(&e.cpu.0.to_le_bytes());
    buf.extend_from_slice(&c.to_le_bytes());
    buf.extend_from_slice(&tid.to_le_bytes());
    buf.extend_from_slice(&a.to_le_bytes());
    buf.extend_from_slice(&b.to_le_bytes());
}

/// Little-endian reads off the front of a byte slice; a short read is
/// [`WireError::Truncated`]. `remaining` lets callers check declared
/// lengths before allocating for them.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.take().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }
}

fn decode_record(buf: &mut Reader) -> Result<Event, WireError> {
    let t = Nanos(buf.u64()?);
    let cpu = CpuId(buf.u16()?);
    let c = buf.u16()?;
    let tid = buf.u32()?;
    let a = buf.u64()?;
    let b = buf.u64()?;
    let (ctx_tid, kind) = unpack_record(c, tid, a, b)?;
    Ok(Event {
        t,
        cpu,
        tid: ctx_tid,
        kind,
    })
}

/// Exact number of bytes [`encode`] produces for `trace`.
pub fn encoded_len(trace: &Trace) -> usize {
    MAGIC.len() + 8 + trace.lost.len() * 8 + 8 + trace.events.len() * RECORD_BYTES + CHECKSUM_BYTES
}

/// Serialize a trace to its full wire image: header, lost counters,
/// every record, then the image checksum. The buffer is allocated at
/// its exact final size, so the emission loop never reallocates.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(trace));
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(trace.lost.len() as u32).to_le_bytes());
    for &l in &trace.lost {
        buf.extend_from_slice(&l.to_le_bytes());
    }
    buf.extend_from_slice(&(trace.events.len() as u64).to_le_bytes());
    for e in &trace.events {
        encode_record(&mut buf, e);
    }
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(buf.len(), encoded_len(trace));
    buf
}

/// Deserialize a trace from bytes.
///
/// Current images (v2) are checksum-verified before any structural
/// parsing; legacy v1 images (pre-checksum) take an explicit fallback
/// path. Any other version is a typed [`WireError::VersionMismatch`].
pub fn decode(full: &[u8]) -> Result<Trace, WireError> {
    let mut buf = Reader(full);
    if buf.remaining() < MAGIC.len() + 8 {
        return Err(WireError::Truncated);
    }
    if &buf.take::<8>()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.u32()?;
    match version {
        VERSION => {
            // Verify the trailing image checksum over everything that
            // precedes it before trusting any declared length.
            let (body, sum) = full.split_at(full.len() - CHECKSUM_BYTES);
            if fnv1a64(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
                return Err(WireError::ChecksumMismatch);
            }
        }
        LEGACY_VERSION => {} // pre-checksum fallback: structure checks only
        found => {
            return Err(WireError::VersionMismatch {
                found,
                supported: VERSION,
            })
        }
    }
    let ncpus = buf.u32()? as usize;
    // Validate declared lengths against the actual payload before any
    // allocation: a corrupted (or hostile) header must not drive a
    // multi-gigabyte `Vec::with_capacity`.
    if ncpus
        .checked_mul(8)
        .and_then(|n| n.checked_add(8))
        .is_none_or(|need| buf.remaining() < need)
    {
        return Err(WireError::Truncated);
    }
    let lost = (0..ncpus)
        .map(|_| buf.u64())
        .collect::<Result<Vec<u64>, _>>()?;
    let count: usize = buf.u64()?.try_into().map_err(|_| WireError::Truncated)?;
    if count
        .checked_mul(RECORD_BYTES)
        .is_none_or(|need| buf.remaining() < need)
    {
        return Err(WireError::Truncated);
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(decode_record(&mut buf)?);
    }
    Ok(Trace::from_raw_parts(events, lost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::{FaultKind, SoftirqVec};

    fn sample_trace() -> Trace {
        let mk = |t: u64, cpu: u16, tid: u32, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind,
        };
        Trace::from_raw_parts(
            vec![
                mk(1, 0, 1, EventKind::KernelEnter(Activity::TimerInterrupt)),
                mk(
                    2,
                    0,
                    1,
                    EventKind::KernelEnter(Activity::PageFault(FaultKind::Cow)),
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
            ],
            vec![0, 5, 0],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.lost, trace.lost);
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn record_size_is_fixed() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        let header = MAGIC.len() + 4 + 4 + trace.lost.len() * 8 + 8;
        assert_eq!(
            bytes.len(),
            header + trace.events.len() * RECORD_BYTES + CHECKSUM_BYTES
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let trace = sample_trace();
        let mut bytes = encode(&trace);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn future_version_rejected_typed() {
        let trace = sample_trace();
        let mut bytes = encode(&trace);
        bytes[8] = 99;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            WireError::VersionMismatch {
                found: 99,
                supported: VERSION
            }
        );
    }

    #[test]
    fn legacy_v1_decodes_via_fallback() {
        // A v1 image is exactly a v2 image with the version field
        // rewritten and the trailing checksum stripped.
        let trace = sample_trace();
        let mut bytes = encode(&trace);
        bytes[8] = LEGACY_VERSION as u8;
        bytes.truncate(bytes.len() - CHECKSUM_BYTES);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.lost, trace.lost);
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let trace = sample_trace();
        let mut bytes = encode(&trace);
        // Flip one bit inside the first record's timestamp.
        let rec0 = MAGIC.len() + 4 + 4 + trace.lost.len() * 8 + 8;
        bytes[rec0] ^= 0x40;
        assert_eq!(decode(&bytes).unwrap_err(), WireError::ChecksumMismatch);
    }

    #[test]
    fn truncated_rejected() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        // Cuts inside the header are structural truncation; a cut in
        // the body of a v2 image surfaces as a checksum failure (the
        // trailing 8 bytes are no longer the image checksum).
        for cut in [3, 12] {
            assert_eq!(
                decode(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut={cut}"
            );
        }
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            WireError::ChecksumMismatch
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::from_raw_parts(vec![], vec![]);
        let back = decode(&encode(&trace)).unwrap();
        assert!(back.events.is_empty());
        assert!(back.lost.is_empty());
    }

    #[test]
    fn all_activities_roundtrip() {
        let events: Vec<Event> = Activity::all()
            .into_iter()
            .enumerate()
            .flat_map(|(i, a)| {
                [
                    Event {
                        t: Nanos(i as u64 * 2),
                        cpu: CpuId(0),
                        tid: Tid(1),
                        kind: EventKind::KernelEnter(a),
                    },
                    Event {
                        t: Nanos(i as u64 * 2 + 1),
                        cpu: CpuId(0),
                        tid: Tid(1),
                        kind: EventKind::KernelExit(a),
                    },
                ]
            })
            .collect();
        let trace = Trace::from_raw_parts(events, vec![0]);
        let back = decode(&encode(&trace)).unwrap();
        assert_eq!(back.events, trace.events);
    }

    /// Pins the byte image of `sample_trace()`: any change to the
    /// header, record layout, kind packing or checksum shows up here.
    #[test]
    fn sample_image_is_pinned() {
        let bytes = encode(&sample_trace());
        assert_eq!(bytes.len(), encoded_len(&sample_trace()));
        assert_eq!(fnv1a64(&bytes), 0x1c38_e8c7_314a_0c1d);
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

/// Write a trace to a file in the wire format.
pub fn write_trace_file(path: &std::path::Path, trace: &Trace) -> std::io::Result<()> {
    std::fs::write(path, encode(trace))
}

/// Read a trace from a wire-format file.
pub fn read_trace_file(path: &std::path::Path) -> std::io::Result<Trace> {
    let raw = std::fs::read(path)?;
    decode(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod file_tests {
    use super::*;
    use crate::EventKind;
    use osn_kernel::ids::{CpuId, Tid};
    use osn_kernel::time::Nanos;

    #[test]
    fn file_roundtrip() {
        let trace = Trace::from_raw_parts(
            vec![Event {
                t: Nanos(5),
                cpu: CpuId(0),
                tid: Tid(1),
                kind: EventKind::KernelEnter(Activity::TimerInterrupt),
            }],
            vec![0],
        );
        let dir = std::env::temp_dir().join("osn-wire-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        write_trace_file(&path, &trace).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back.events, trace.events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_corrupt_file_is_io_error() {
        let dir = std::env::temp_dir().join("osn-wire-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.trace");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = read_trace_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
