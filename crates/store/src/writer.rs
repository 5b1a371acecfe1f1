//! Appending side of the store: [`StoreWriter`] buffers each CPU's
//! records, writes full chunks, and ends the file with the footer
//! index. It is also the [`EventSink`] a spilling
//! [`osn_trace::TraceSession`] owns while the run streams its rings to
//! disk; the session's `stop` hands it back to be finished.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use osn_kernel::ids::CpuId;
use osn_trace::wire::fnv1a64;
use osn_trace::{Event, EventColumns, EventSink, Trace};

use crate::chunk::{encode_columns, ChunkMeta, CHUNK_HEADER_BYTES};
use crate::{END_MAGIC, FILE_FLAG_COMPRESSED, FILE_MAGIC, FOOTER_MAGIC, STORE_VERSION};

/// Store creation knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Events per chunk. Chunks flush whenever a CPU's buffer reaches
    /// this; it is also the reader's per-stream memory bound and the
    /// granularity of a time-range seek (a window decodes whole chunks).
    pub chunk_capacity: usize,
    /// Delta/varint-compress chunk payloads (on by default; raw is for
    /// debugging and codec comparison).
    pub compress: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            chunk_capacity: 1 << 12,
            compress: true,
        }
    }
}

impl StoreOptions {
    #[must_use]
    pub fn with_chunk_capacity(mut self, chunk_capacity: usize) -> Self {
        self.chunk_capacity = chunk_capacity;
        self
    }

    #[must_use]
    pub fn with_compress(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }
}

/// What [`StoreWriter::finish`] reports about the written file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Total file size.
    pub bytes: u64,
    /// Number of chunks written.
    pub chunks: usize,
    /// Number of events written.
    pub events: u64,
}

/// Append-only chunked store writer.
///
/// Events arrive per CPU (already time-sorted — ring order); each CPU
/// buffers up to `chunk_capacity` events, then flushes one chunk.
/// `finish` flushes stragglers and writes the footer index + trailer.
pub struct StoreWriter {
    out: BufWriter<File>,
    offset: u64,
    ncpus: usize,
    opts: StoreOptions,
    /// Per-CPU buffered records not yet chunked.
    pending: Vec<EventColumns>,
    index: Vec<ChunkMeta>,
    lost: Vec<u64>,
    meta: Vec<u8>,
    events: u64,
    /// Reused chunk image buffer (header + payload).
    scratch: Vec<u8>,
}

impl StoreWriter {
    /// Create a store at `path` (truncating any existing file).
    pub fn create(path: &Path, ncpus: usize, opts: StoreOptions) -> std::io::Result<StoreWriter> {
        assert!(ncpus > 0, "store needs at least one CPU");
        assert!(ncpus <= u16::MAX as usize, "cpu ids are u16");
        assert!(opts.chunk_capacity > 0, "chunk capacity must be positive");
        let mut out = BufWriter::new(File::create(path)?);
        let mut header = Vec::with_capacity(crate::FILE_HEADER_BYTES);
        header.extend_from_slice(FILE_MAGIC);
        header.extend_from_slice(&STORE_VERSION.to_le_bytes());
        header.extend_from_slice(&(ncpus as u32).to_le_bytes());
        header.extend_from_slice(&(opts.chunk_capacity as u32).to_le_bytes());
        let flags = if opts.compress {
            FILE_FLAG_COMPRESSED
        } else {
            0
        };
        header.extend_from_slice(&flags.to_le_bytes());
        out.write_all(&header)?;
        Ok(StoreWriter {
            out,
            offset: header.len() as u64,
            ncpus,
            opts,
            pending: (0..ncpus)
                .map(|c| EventColumns::new(CpuId(c as u16)))
                .collect(),
            index: Vec::new(),
            lost: vec![0; ncpus],
            meta: Vec::new(),
            events: 0,
            scratch: Vec::new(),
        })
    }

    #[inline]
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// Append a batch of one CPU's events (time-sorted, at or after
    /// everything previously appended for that CPU).
    pub fn append(&mut self, cpu: CpuId, events: &[Event]) -> std::io::Result<()> {
        let c = cpu.index();
        assert!(
            c < self.ncpus,
            "cpu {c} out of range for {}-cpu store",
            self.ncpus
        );
        events.iter().for_each(|e| self.pending[c].push_event(e));
        self.events += events.len() as u64;
        self.flush_full_chunks(c)
    }

    /// Append a whole in-memory trace (its per-CPU columns, loss
    /// counters included). The store must span at least the trace's
    /// CPUs.
    pub fn append_trace(&mut self, trace: &Trace) -> std::io::Result<()> {
        assert!(
            trace.ncpus() <= self.ncpus,
            "trace spans {} cpus, store only {}",
            trace.ncpus(),
            self.ncpus
        );
        for cols in trace.columns() {
            self.append_columns(cols)?;
        }
        self.set_lost(&trace.lost);
        Ok(())
    }

    /// Append one CPU's block (time-sorted, at or after everything
    /// previously appended for that CPU). With nothing pending for the
    /// CPU, its whole chunks are encoded straight from `cols`; only the
    /// tail is buffered.
    fn append_columns(&mut self, cols: &EventColumns) -> std::io::Result<()> {
        let c = cols.cpu.index();
        let cap = self.opts.chunk_capacity;
        let mut done = 0;
        if self.pending[c].is_empty() {
            while cols.len() - done >= cap {
                self.write_chunk(cols, done..done + cap)?;
                done += cap;
            }
        }
        self.pending[c].extend_from(cols, done..cols.len());
        self.events += cols.len() as u64;
        self.flush_full_chunks(c)
    }

    /// Record per-CPU ring loss counters for the footer (padded or
    /// truncated to the store's CPU count).
    pub fn set_lost(&mut self, lost: &[u64]) {
        for (slot, &l) in self.lost.iter_mut().zip(lost) {
            *slot = l;
        }
    }

    /// Attach an opaque metadata blob (the core layer stores run
    /// config + results as JSON) to the footer.
    pub fn set_metadata(&mut self, meta: Vec<u8>) {
        self.meta = meta;
    }

    /// Write every full chunk pending for CPU `c`.
    fn flush_full_chunks(&mut self, c: usize) -> std::io::Result<()> {
        let cap = self.opts.chunk_capacity;
        self.flush_chunks(c, self.pending[c].len() / cap * cap)
    }

    /// Write the first `n` pending records of CPU `c` as chunks of
    /// `chunk_capacity` (the last may be shorter), then drop the written
    /// prefix with one copy of its remainder, so a large batch costs
    /// one memmove instead of one per chunk.
    fn flush_chunks(&mut self, c: usize, n: usize) -> std::io::Result<()> {
        let pending = std::mem::take(&mut self.pending[c]);
        let mut done = 0;
        let mut result = Ok(());
        while done < n {
            let end = (done + self.opts.chunk_capacity).min(n);
            result = self.write_chunk(&pending, done..end);
            if result.is_err() {
                break;
            }
            done = end;
        }
        self.pending[c] = pending;
        self.pending[c].drain_front(done);
        result
    }

    /// Write records `range` of `cols` as one chunk of `cols.cpu`.
    fn write_chunk(&mut self, cols: &EventColumns, range: Range<usize>) -> std::io::Result<()> {
        // Reserve the header slot, encode the payload after it, then
        // patch the header in — one write, one reused buffer.
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.resize(CHUNK_HEADER_BYTES, 0);
        let header = encode_columns(cols, range, self.opts.compress, &mut buf);
        let mut img = Vec::with_capacity(CHUNK_HEADER_BYTES);
        header.write_to(&mut img);
        buf[..CHUNK_HEADER_BYTES].copy_from_slice(&img);
        self.index
            .push(ChunkMeta::from_header(self.offset, &header));
        self.out.write_all(&buf)?;
        self.offset += buf.len() as u64;
        self.scratch = buf;
        Ok(())
    }

    /// Flush remaining events, write the footer index and trailer, and
    /// flush the file. The writer is consumed; a completely written
    /// store always ends in the 24-byte trailer.
    pub fn finish(mut self) -> std::io::Result<StoreSummary> {
        for c in 0..self.ncpus {
            self.flush_chunks(c, self.pending[c].len())?;
        }
        let mut footer = Vec::new();
        footer.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
        footer.extend_from_slice(&STORE_VERSION.to_le_bytes());
        footer.extend_from_slice(&(self.ncpus as u32).to_le_bytes());
        for &l in &self.lost {
            footer.extend_from_slice(&l.to_le_bytes());
        }
        footer.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        footer.extend_from_slice(&self.meta);
        footer.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for m in &self.index {
            footer.extend_from_slice(&m.offset.to_le_bytes());
            footer.extend_from_slice(&m.cpu.to_le_bytes());
            footer.extend_from_slice(&m.flags.to_le_bytes());
            footer.extend_from_slice(&m.count.to_le_bytes());
            footer.extend_from_slice(&m.payload_len.to_le_bytes());
            footer.extend_from_slice(&m.t_first.0.to_le_bytes());
            footer.extend_from_slice(&m.t_last.0.to_le_bytes());
        }
        let crc = fnv1a64(&footer);
        let footer_len = footer.len() as u64;
        self.out.write_all(&footer)?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&footer_len.to_le_bytes())?;
        self.out.write_all(END_MAGIC)?;
        self.offset += footer_len + crate::TRAILER_BYTES as u64;
        self.out.flush()?;
        Ok(StoreSummary {
            bytes: self.offset,
            chunks: self.index.len(),
            events: self.events,
        })
    }
}

/// One-call convenience: write a whole in-memory trace (plus an opaque
/// metadata blob) as a store file.
pub fn write_store(
    path: &Path,
    trace: &Trace,
    meta: &[u8],
    opts: StoreOptions,
) -> std::io::Result<StoreSummary> {
    let mut w = StoreWriter::create(path, trace.ncpus().max(1), opts)?;
    w.append_trace(trace)?;
    w.set_metadata(meta.to_vec());
    w.finish()
}

impl EventSink for StoreWriter {
    fn append(&mut self, cpu: CpuId, events: &[Event]) -> std::io::Result<()> {
        StoreWriter::append(self, cpu, events)
    }
}
