//! Reading side of the store: strict opening via the footer index
//! ([`StoreReader::open`]), truncation-tolerant opening via a forward
//! chunk scan ([`StoreReader::recover`]), full materialization back to
//! a [`Trace`], and the one bounded-memory per-CPU chunk cursor,
//! [`ColumnChunks`], which lends column blocks to both the streamed
//! analysis path and the catalog's slice path. Every payload is
//! checksummed and decoded in one pass by the one column decoder,
//! [`crate::chunk::decode_chunk_columns`].

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use osn_kernel::ids::CpuId;
use osn_kernel::time::Nanos;
use osn_trace::wire::fnv1a64;
use osn_trace::{EventColumns, Trace};

use crate::chunk::{count_fits, decode_chunk_columns, ChunkHeader, ChunkMeta, CHUNK_HEADER_BYTES};
use crate::mmap::Mmap;
use crate::{
    StoreError, END_MAGIC, FILE_HEADER_BYTES, FILE_MAGIC, FOOTER_MAGIC, STORE_VERSION,
    TRAILER_BYTES,
};

/// Bytes per footer-index entry.
const INDEX_ENTRY_BYTES: usize = 36;

/// Shared gauge of decoded-chunk residency. Every [`ColumnChunks`]
/// holds at most one decoded chunk; `peak_resident` across all
/// concurrent cursors is therefore bounded by the number of cursors — the
/// invariant the out-of-core analysis differential test asserts.
#[derive(Debug, Default)]
pub struct ChunkStats {
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    decoded: AtomicUsize,
    decode_errors: AtomicUsize,
}

impl ChunkStats {
    fn acquire(&self) {
        let now = self.resident.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak_resident.fetch_max(now, Ordering::AcqRel);
    }

    fn release(&self) {
        self.resident.fetch_sub(1, Ordering::AcqRel);
    }

    fn snapshot(&self) -> ChunkStatsSnapshot {
        ChunkStatsSnapshot {
            resident: self.resident.load(Ordering::Acquire),
            peak_resident: self.peak_resident.load(Ordering::Acquire),
            decoded: self.decoded.load(Ordering::Acquire),
            decode_errors: self.decode_errors.load(Ordering::Acquire),
        }
    }
}

/// Point-in-time view of a reader's chunk accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkStatsSnapshot {
    /// Decoded chunks currently held by live [`ColumnChunks`] cursors.
    pub resident: usize,
    /// High-water mark of `resident` since the last reset.
    pub peak_resident: usize,
    /// Total chunks decoded (cursors + full materialization).
    pub decoded: usize,
    /// Chunks that failed validation during a cursor walk (a poisoned
    /// cursor ends early; callers must treat nonzero as failure).
    pub decode_errors: usize,
}

/// What [`StoreReader::recover`] had to do to open the file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chunks dropped because their payload was short or failed its
    /// checksum (with append-only writes: at most the final chunk).
    pub torn_chunks: usize,
    /// Events lost with those chunks, as declared by their headers
    /// (charged into the per-CPU `lost` counters).
    pub torn_events: u64,
    /// File bytes after the last valid chunk that were discarded.
    pub dropped_bytes: u64,
    /// Whether the footer block itself was intact (loss counters and
    /// metadata survive only if it was).
    pub footer_ok: bool,
}

impl RecoveryReport {
    /// True when the file needed no repair at all.
    pub fn clean(&self) -> bool {
        self.torn_chunks == 0 && self.dropped_bytes == 0 && self.footer_ok
    }
}

struct FileHeader {
    ncpus: usize,
    chunk_capacity: usize,
}

/// The opened file plus its (optional) read-only memory map, shared by
/// the reader and every cursor it hands out.
///
/// When the map is present, chunk images are borrowed straight out of
/// the mapped file — the header parse and the one pass that checksums
/// and decodes the payload run over the mapped bytes with no
/// intermediate copy. When mapping
/// fails (exotic filesystems, resource limits) every access falls back
/// to bounded `pread`s into a scratch buffer, preserving the
/// bounded-memory contract rather than slurping the file into RAM.
#[derive(Debug)]
struct StoreData {
    file: File,
    map: Option<Mmap>,
}

impl StoreData {
    /// The raw bytes of one chunk (header + payload): a zero-copy
    /// slice of the memory map when available, otherwise a `pread`
    /// into `scratch`.
    fn chunk_bytes<'a>(
        &'a self,
        meta: &ChunkMeta,
        scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], StoreError> {
        let len = CHUNK_HEADER_BYTES + meta.payload_len as usize;
        let start = meta.offset as usize;
        if let Some(map) = &self.map {
            if let Some(bytes) = map.as_slice().get(start..start + len) {
                return Ok(bytes);
            }
            return Err(StoreError::CorruptChunk {
                offset: meta.offset,
                reason: "chunk beyond mapped file",
            });
        }
        scratch.clear();
        scratch.resize(len, 0);
        self.file.read_exact_at(scratch, meta.offset)?;
        Ok(scratch)
    }
}

struct Footer {
    /// File offset the footer block begins at (validated against the
    /// trailer's length field and checksum).
    start: u64,
    lost: Vec<u64>,
    meta: Vec<u8>,
    chunks: Vec<ChunkMeta>,
}

/// Random-access view of a store file.
pub struct StoreReader {
    data: Arc<StoreData>,
    ncpus: usize,
    chunk_capacity: usize,
    lost: Vec<u64>,
    meta: Vec<u8>,
    /// All chunks in file (= per-CPU time) order.
    chunks: Vec<ChunkMeta>,
    /// Positions into `chunks` per CPU, time-ordered.
    per_cpu: Vec<Vec<u32>>,
    stats: Arc<ChunkStats>,
}

impl StoreReader {
    /// Open a completely written store via its footer index. Fails
    /// with a typed error on any damage; use [`StoreReader::recover`]
    /// to salvage a torn file.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = read_file_header(&file)?;
        let footer = parse_footer(&file, file_len, header.ncpus)?;
        Self::assemble(file, header, footer.lost, footer.meta, footer.chunks)
    }

    /// Whether chunk reads are served from a memory map (false only
    /// when `mmap` failed at open and the reader fell back to `pread`).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        self.data.map.is_some()
    }

    /// Open a possibly torn store by scanning chunks forward from the
    /// file header, validating each payload checksum. A torn final
    /// chunk (short read or checksum failure — a crashed recorder) is
    /// dropped and its events are charged to the per-CPU loss
    /// counters, so downstream accounting sees them on the same
    /// channel as ring-buffer drops. The footer, when intact, still
    /// supplies loss counters and metadata.
    pub fn recover(path: &Path) -> Result<(StoreReader, RecoveryReport), StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = read_file_header(&file)?;
        let mut report = RecoveryReport::default();
        let mut chunks: Vec<ChunkMeta> = Vec::new();
        let mut torn_lost = vec![0u64; header.ncpus];

        // Validate the footer once, up front. The chunk scan may only
        // terminate "cleanly" at a position where a *checksummed*
        // footer actually begins — four garbage bytes that happen to
        // equal `FOOTER_MAGIC` (a torn footer, or payload debris after
        // the last valid chunk) must instead be accounted as a dropped
        // tail, not silently accepted as the end of the file.
        let footer = parse_footer(&file, file_len, header.ncpus).ok();

        let mut pos = FILE_HEADER_BYTES as u64;
        loop {
            if pos + 4 > file_len {
                report.dropped_bytes = file_len - pos;
                break;
            }
            let mut magic = [0u8; 4];
            file.read_exact_at(&mut magic, pos)?;
            if u32::from_le_bytes(magic) == FOOTER_MAGIC
                && footer.as_ref().is_some_and(|f| f.start == pos)
            {
                break; // a validated footer starts here: clean end of the chunk region
            }
            if pos + CHUNK_HEADER_BYTES as u64 > file_len {
                report.dropped_bytes = file_len - pos;
                break;
            }
            let mut raw = [0u8; CHUNK_HEADER_BYTES];
            file.read_exact_at(&mut raw, pos)?;
            let Ok(h) = ChunkHeader::parse(&raw) else {
                // Not a chunk header: garbage tail of unknown extent.
                report.dropped_bytes = file_len - pos;
                break;
            };
            let torn = |report: &mut RecoveryReport, torn_lost: &mut Vec<u64>| {
                report.torn_chunks += 1;
                report.torn_events += h.count as u64;
                if (h.cpu as usize) < torn_lost.len() {
                    torn_lost[h.cpu as usize] += h.count as u64;
                }
                report.dropped_bytes = file_len - pos;
            };
            if h.cpu as usize >= header.ncpus
                || pos + (CHUNK_HEADER_BYTES + h.payload_len as usize) as u64 > file_len
            {
                torn(&mut report, &mut torn_lost);
                break;
            }
            let mut payload = vec![0u8; h.payload_len as usize];
            file.read_exact_at(&mut payload, pos + CHUNK_HEADER_BYTES as u64)?;
            if fnv1a64(&payload) != h.checksum {
                torn(&mut report, &mut torn_lost);
                break;
            }
            chunks.push(ChunkMeta::from_header(pos, &h));
            pos += (CHUNK_HEADER_BYTES + h.payload_len as usize) as u64;
        }

        // The footer may still be intact (e.g. mid-file bit rot rather
        // than truncation); salvage loss counters and metadata if so.
        let (mut lost, meta) = match footer {
            Some(footer) => {
                report.footer_ok = true;
                (footer.lost, footer.meta)
            }
            None => (vec![0u64; header.ncpus], Vec::new()),
        };
        for (slot, torn) in lost.iter_mut().zip(&torn_lost) {
            *slot += torn;
        }
        let reader = Self::assemble(file, header, lost, meta, chunks)?;
        Ok((reader, report))
    }

    fn assemble(
        file: File,
        header: FileHeader,
        lost: Vec<u64>,
        meta: Vec<u8>,
        chunks: Vec<ChunkMeta>,
    ) -> Result<StoreReader, StoreError> {
        let mut per_cpu: Vec<Vec<u32>> = (0..header.ncpus).map(|_| Vec::new()).collect();
        // Chunks tile the file in index order, so the declared counts
        // sum to at most what the file can hold.
        let mut region_end = FILE_HEADER_BYTES as u64;
        for (i, m) in chunks.iter().enumerate() {
            if m.offset < region_end {
                return Err(StoreError::CorruptChunk {
                    offset: m.offset,
                    reason: "chunks overlap",
                });
            }
            region_end = m.offset + (CHUNK_HEADER_BYTES + m.payload_len as usize) as u64;
            let c = m.cpu as usize;
            if c >= header.ncpus {
                return Err(StoreError::CorruptChunk {
                    offset: m.offset,
                    reason: "cpu out of range",
                });
            }
            if let Some(&prev) = per_cpu[c].last() {
                if chunks[prev as usize].t_last > m.t_first {
                    return Err(StoreError::CorruptChunk {
                        offset: m.offset,
                        reason: "chunks out of time order",
                    });
                }
            }
            per_cpu[c].push(i as u32);
        }
        // Map the file for zero-copy chunk access; fall back to pread
        // silently if the platform refuses (the map is an optimization,
        // not a correctness requirement).
        let map = Mmap::map(&file).ok();
        Ok(StoreReader {
            data: Arc::new(StoreData { file, map }),
            ncpus: header.ncpus,
            chunk_capacity: header.chunk_capacity,
            lost,
            meta,
            chunks,
            per_cpu,
            stats: Arc::new(ChunkStats::default()),
        })
    }

    #[inline]
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    #[inline]
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// Per-CPU loss counters (ring drops, plus torn-chunk events when
    /// opened via [`StoreReader::recover`]).
    #[inline]
    pub fn lost(&self) -> &[u64] {
        &self.lost
    }

    /// The opaque metadata blob attached at write time.
    #[inline]
    pub fn metadata(&self) -> &[u8] {
        &self.meta
    }

    /// All chunk index entries, in file order.
    #[inline]
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Total events across all chunks (excluding lost).
    pub fn events(&self) -> u64 {
        self.chunks.iter().map(|m| m.count as u64).sum()
    }

    /// Time span covered by the stored chunks.
    pub fn span(&self) -> Option<(Nanos, Nanos)> {
        let first = self.chunks.iter().map(|m| m.t_first).min()?;
        let last = self.chunks.iter().map(|m| m.t_last).max()?;
        Some((first, last))
    }

    /// Chunk accounting snapshot (see [`ChunkStatsSnapshot`]).
    pub fn stats(&self) -> ChunkStatsSnapshot {
        self.stats.snapshot()
    }

    /// Index lookup: the chunks of `cpu` overlapping `[lo, hi]`, in
    /// time order — two binary searches over the footer index, no file
    /// access. With `range = None`, all of the CPU's chunks.
    pub fn chunks_for(
        &self,
        cpu: CpuId,
        range: Option<(Nanos, Nanos)>,
    ) -> impl Iterator<Item = &ChunkMeta> + '_ {
        let positions = self
            .per_cpu
            .get(cpu.index())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let window = match range {
            None => positions,
            Some((lo, hi)) => {
                // Per-CPU chunks are time-ordered with nondecreasing
                // t_first *and* t_last, so the overlap set is a
                // contiguous run.
                let start = positions.partition_point(|&i| self.chunks[i as usize].t_last < lo);
                let end = positions.partition_point(|&i| self.chunks[i as usize].t_first <= hi);
                &positions[start..end.max(start)]
            }
        };
        window.iter().map(|&i| &self.chunks[i as usize])
    }

    /// A bounded-memory columnar cursor over one CPU's chunks: each
    /// call to [`ColumnChunks::next_chunk`] checksums and decodes the
    /// next chunk in one pass — straight out of the memory map when
    /// available — into a reused [`EventColumns`] block, and lends the
    /// block only after its checksum matched. No `Event` structs are
    /// materialized, and one block's worth of columns is the only
    /// resident decoded state (tracked by the reader's [`ChunkStats`]).
    /// A chunk that fails validation ends the cursor and counts in
    /// `stats().decode_errors`.
    pub fn column_chunks(&self, cpu: CpuId) -> ColumnChunks {
        self.cursor(cpu, None)
    }

    /// Like [`StoreReader::column_chunks`], but seeded only with the
    /// chunks whose `[t_first, t_last]` span overlaps `[lo, hi]` (the
    /// [`StoreReader::chunks_for`] index lookup — a skipped chunk is
    /// never read). Blocks are lent whole: records outside `[lo, hi]`
    /// in the edge chunks are the caller's to narrow on `cols.t`.
    pub fn column_chunks_range(&self, cpu: CpuId, lo: Nanos, hi: Nanos) -> ColumnChunks {
        self.cursor(cpu, Some((lo, hi)))
    }

    fn cursor(&self, cpu: CpuId, range: Option<(Nanos, Nanos)>) -> ColumnChunks {
        ColumnChunks {
            data: Arc::clone(&self.data),
            metas: self.chunks_for(cpu, range).copied().collect(),
            next: 0,
            cols: EventColumns::new(cpu),
            scratch: Vec::new(),
            resident: false,
            poisoned: false,
            stats: Arc::clone(&self.stats),
        }
    }

    /// Materialize the full trace — the inverse of
    /// [`crate::writer::write_store`], identical to the in-memory
    /// collection path: each CPU's chunks are decoded in order into
    /// that CPU's columns, as `TraceSession::stop` drains its rings.
    pub fn read_trace(&self) -> Result<Trace, StoreError> {
        let mut columns = Vec::with_capacity(self.ncpus);
        let mut cols = EventColumns::default();
        let mut scratch = Vec::new();
        for c in 0..self.ncpus {
            let positions = &self.per_cpu[c];
            let total: usize = positions
                .iter()
                .map(|&i| self.chunks[i as usize].count as usize)
                .sum();
            let mut block = EventColumns::with_capacity(CpuId(c as u16), total);
            for meta in positions.iter().map(|&i| &self.chunks[i as usize]) {
                fetch_chunk(&self.data, meta, &mut cols, &mut scratch)?;
                self.stats.decoded.fetch_add(1, Ordering::AcqRel);
                block.extend_from(&cols, 0..cols.len());
            }
            columns.push(block);
        }
        Ok(Trace::from_columns(columns, self.lost.clone()))
    }
}

/// A bounded-memory columnar cursor over one CPU's chunks. See
/// [`StoreReader::column_chunks`].
pub struct ColumnChunks {
    data: Arc<StoreData>,
    metas: Vec<ChunkMeta>,
    next: usize,
    cols: EventColumns,
    scratch: Vec<u8>,
    resident: bool,
    poisoned: bool,
    stats: Arc<ChunkStats>,
}

impl ColumnChunks {
    /// Decode the next chunk into the reused column block and lend it
    /// out. `None` when the CPU's chunks are exhausted; an `Err` item
    /// (recorded in `stats().decode_errors`) ends the cursor — later
    /// calls return `None`.
    #[allow(clippy::should_implement_trait)] // lending cursor, not an Iterator
    pub fn next_chunk(&mut self) -> Option<Result<&EventColumns, StoreError>> {
        if self.resident {
            self.stats.release();
            self.resident = false;
        }
        if self.poisoned || self.next >= self.metas.len() {
            return None;
        }
        let meta = self.metas[self.next];
        self.next += 1;
        match fetch_chunk(&self.data, &meta, &mut self.cols, &mut self.scratch) {
            Ok(()) => {
                self.stats.decoded.fetch_add(1, Ordering::AcqRel);
                self.stats.acquire();
                self.resident = true;
                Some(Ok(&self.cols))
            }
            Err(e) => {
                self.stats.decode_errors.fetch_add(1, Ordering::AcqRel);
                self.poisoned = true;
                Some(Err(e))
            }
        }
    }
}

impl Drop for ColumnChunks {
    fn drop(&mut self) {
        if self.resident {
            self.stats.release();
            self.resident = false;
        }
    }
}

/// Parse one chunk image's header and cross-check it against the
/// index entry, returning the payload bytes and the header's checksum
/// ([`decode_chunk_columns`] verifies it while decoding).
fn verify_chunk<'a>(raw: &'a [u8], meta: &ChunkMeta) -> Result<(&'a [u8], u64), StoreError> {
    let corrupt = |reason: &'static str| StoreError::CorruptChunk {
        offset: meta.offset,
        reason,
    };
    let header_bytes: &[u8; CHUNK_HEADER_BYTES] = raw[..CHUNK_HEADER_BYTES].try_into().unwrap();
    let header = ChunkHeader::parse(header_bytes).map_err(corrupt)?;
    let on_disk = ChunkMeta::from_header(meta.offset, &header);
    if on_disk != *meta {
        return Err(corrupt("index disagrees with chunk header"));
    }
    Ok((&raw[CHUNK_HEADER_BYTES..], header.checksum))
}

/// Read, verify, and decode one chunk from the file (or map) into
/// `cols` in one pass over the payload; `scratch` backs the read when
/// the file is not mapped.
fn fetch_chunk(
    data: &StoreData,
    meta: &ChunkMeta,
    cols: &mut EventColumns,
    scratch: &mut Vec<u8>,
) -> Result<(), StoreError> {
    let raw = data.chunk_bytes(meta, scratch)?;
    let (payload, checksum) = verify_chunk(raw, meta)?;
    decode_chunk_columns(meta, checksum, payload, cols)
}

fn read_file_header(file: &File) -> Result<FileHeader, StoreError> {
    let mut raw = [0u8; FILE_HEADER_BYTES];
    file.read_exact_at(&mut raw, 0).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::BadMagic // shorter than any store file
        } else {
            StoreError::Io(e)
        }
    })?;
    if &raw[..8] != FILE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let u32_at = |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().unwrap());
    let version = u32_at(8);
    if version != STORE_VERSION {
        return Err(StoreError::VersionMismatch {
            found: version,
            supported: STORE_VERSION,
        });
    }
    let ncpus = u32_at(12) as usize;
    let chunk_capacity = u32_at(16) as usize;
    if ncpus == 0 || ncpus > u16::MAX as usize || chunk_capacity == 0 {
        return Err(StoreError::CorruptFooter("implausible file header"));
    }
    Ok(FileHeader {
        ncpus,
        chunk_capacity,
    })
}

fn parse_footer(file: &File, file_len: u64, ncpus: usize) -> Result<Footer, StoreError> {
    let corrupt = StoreError::CorruptFooter;
    if file_len < (FILE_HEADER_BYTES + TRAILER_BYTES) as u64 {
        return Err(corrupt("file too short for a trailer"));
    }
    let mut trailer = [0u8; TRAILER_BYTES];
    file.read_exact_at(&mut trailer, file_len - TRAILER_BYTES as u64)?;
    if &trailer[16..24] != END_MAGIC {
        return Err(corrupt("missing end magic"));
    }
    let crc = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    let footer_len = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    let max_footer = file_len - (FILE_HEADER_BYTES + TRAILER_BYTES) as u64;
    if footer_len > max_footer {
        return Err(corrupt("footer length out of range"));
    }
    let footer_start = file_len - TRAILER_BYTES as u64 - footer_len;
    let mut raw = vec![0u8; footer_len as usize];
    file.read_exact_at(&mut raw, footer_start)?;
    if fnv1a64(&raw) != crc {
        return Err(corrupt("footer checksum mismatch"));
    }

    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<std::ops::Range<usize>, StoreError> {
        if *pos + n > raw.len() {
            return Err(StoreError::CorruptFooter("footer truncated"));
        }
        let r = *pos..*pos + n;
        *pos += n;
        Ok(r)
    };
    let u32_field =
        |raw: &[u8], r: std::ops::Range<usize>| u32::from_le_bytes(raw[r].try_into().unwrap());
    let u64_field =
        |raw: &[u8], r: std::ops::Range<usize>| u64::from_le_bytes(raw[r].try_into().unwrap());

    if u32_field(&raw, take(&mut pos, 4)?) != FOOTER_MAGIC {
        return Err(corrupt("bad footer magic"));
    }
    if u32_field(&raw, take(&mut pos, 4)?) != STORE_VERSION {
        return Err(corrupt("footer version mismatch"));
    }
    if u32_field(&raw, take(&mut pos, 4)?) as usize != ncpus {
        return Err(corrupt("footer cpu count disagrees with header"));
    }
    let mut lost = Vec::with_capacity(ncpus);
    for _ in 0..ncpus {
        lost.push(u64_field(&raw, take(&mut pos, 8)?));
    }
    let meta_len = u32_field(&raw, take(&mut pos, 4)?) as usize;
    let meta = raw[take(&mut pos, meta_len)?].to_vec();
    let nchunks = u32_field(&raw, take(&mut pos, 4)?) as usize;
    if raw.len() - pos != nchunks * INDEX_ENTRY_BYTES {
        return Err(corrupt("index size disagrees with chunk count"));
    }
    let mut chunks = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        let offset = u64_field(&raw, take(&mut pos, 8)?);
        let cpu = u16::from_le_bytes(raw[take(&mut pos, 2)?].try_into().unwrap());
        let flags = u16::from_le_bytes(raw[take(&mut pos, 2)?].try_into().unwrap());
        let count = u32_field(&raw, take(&mut pos, 4)?);
        let payload_len = u32_field(&raw, take(&mut pos, 4)?);
        let t_first = Nanos(u64_field(&raw, take(&mut pos, 8)?));
        let t_last = Nanos(u64_field(&raw, take(&mut pos, 8)?));
        let end = offset
            .checked_add((CHUNK_HEADER_BYTES + payload_len as usize) as u64)
            .ok_or(corrupt("chunk offset overflow"))?;
        if offset < FILE_HEADER_BYTES as u64 || end > footer_start {
            return Err(corrupt("chunk outside the chunk region"));
        }
        if !count_fits(flags, count, payload_len) {
            return Err(corrupt("index count disagrees with payload length"));
        }
        chunks.push(ChunkMeta {
            offset,
            cpu,
            flags,
            count,
            payload_len,
            t_first,
            t_last,
        });
    }
    Ok(Footer {
        start: footer_start,
        lost,
        meta,
        chunks,
    })
}
