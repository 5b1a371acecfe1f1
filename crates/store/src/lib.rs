//! `osn-store`: chunked on-disk trace store.
//!
//! The simulator-side equivalent of LTTng relaying its per-CPU ring
//! buffers into chunked CTF trace files: an append-only store of
//! fixed-capacity per-CPU chunks, each checksummed and individually
//! decodable, behind a footer index that locates any chunk by CPU and
//! time range without scanning the file. Traces no longer have to fit
//! in RAM — a session can spill chunks while the run is producing
//! (a [`writer::StoreWriter`] is the session's sink), and analysis can
//! stream chunks back one at a time ([`reader::ColumnChunks`]),
//! bounded-memory, with results bit-identical to the in-memory path.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! file header   "OSNSTORE" | u32 version | u32 ncpus
//!               | u32 chunk_capacity | u32 flags
//! chunk*        u32 "CHNK" | u16 cpu | u16 flags | u32 count
//!               | u32 payload_len | u64 t_first | u64 t_last
//!               | u64 fnv1a-64(payload) | payload
//! footer        u32 "FOOT" | u32 version | u32 ncpus
//!               | ncpus × u64 lost | u32 meta_len | meta
//!               | u32 nchunks | nchunks × index entry
//! trailer       u64 fnv1a-64(footer) | u64 footer_len | "OSNSTEND"
//! ```
//!
//! The trailer is fixed-size and at the very end, so a reader finds
//! the footer without a scan ([`reader::StoreReader::open`]). When the
//! footer is missing or torn (crashed recorder), the chunks themselves
//! are self-describing: [`reader::StoreReader::recover`] rebuilds the
//! index by scanning forward and drops a torn final chunk, charging
//! its events to the per-CPU loss counters.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod chunk;
pub mod mmap;
pub mod reader;
pub mod varint;
pub mod writer;

pub use chunk::{ChunkHeader, ChunkMeta, CHUNK_HEADER_BYTES};
pub use reader::{ChunkStatsSnapshot, ColumnChunks, RecoveryReport, StoreReader};
pub use writer::{write_store, StoreOptions, StoreSummary, StoreWriter};

/// File magic, first 8 bytes of every store.
pub const FILE_MAGIC: &[u8; 8] = b"OSNSTORE";
/// Trailing magic, last 8 bytes of a completely written store.
pub const END_MAGIC: &[u8; 8] = b"OSNSTEND";
/// Current store format version.
pub const STORE_VERSION: u32 = 1;
/// Fixed file header size.
pub const FILE_HEADER_BYTES: usize = 24;
/// File-level flag: chunk payloads are delta/varint compressed.
pub const FILE_FLAG_COMPRESSED: u32 = 1;
/// Fixed trailer size (footer checksum, footer length, end magic).
pub const TRAILER_BYTES: usize = 24;
/// Footer block magic ("FOOT").
pub const FOOTER_MAGIC: u32 = 0x544F_4F46;

/// Store errors: I/O, or a typed description of what is corrupt.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Not a store file at all.
    BadMagic,
    /// A store from a different format version.
    VersionMismatch {
        found: u32,
        supported: u32,
    },
    /// The footer block or trailer is missing or damaged (use
    /// [`reader::StoreReader::recover`] for tolerant opening).
    CorruptFooter(&'static str),
    /// A chunk at `offset` failed validation.
    CorruptChunk {
        offset: u64,
        reason: &'static str,
    },
    /// A record inside a chunk did not decode.
    Wire(osn_trace::wire::WireError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o: {e}"),
            StoreError::BadMagic => write!(f, "not an osn-store file (bad magic)"),
            StoreError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "store version {found} unsupported (supported {supported})"
                )
            }
            StoreError::CorruptFooter(why) => write!(f, "corrupt footer: {why}"),
            StoreError::CorruptChunk { offset, reason } => {
                write!(f, "corrupt chunk at offset {offset}: {reason}")
            }
            StoreError::Wire(e) => write!(f, "record decode: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<osn_trace::wire::WireError> for StoreError {
    fn from(e: osn_trace::wire::WireError) -> Self {
        StoreError::Wire(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
        }
    }
}
