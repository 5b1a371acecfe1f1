//! The catalog index: scan a directory tree for `.osn` stores and
//! summarize each one from its self-describing footer.
//!
//! Indexing one store costs one streamed (out-of-core) analysis — the
//! per-class duration summaries need enter/exit pairing, not just the
//! footer blob. That cost is paid **once per store version**: the
//! index persists to `.osn-catalog.json` in the scanned root, keyed by
//! `(relative path, mtime, size)`, and a rescan reuses every entry
//! whose key is unchanged. Unreadable files are skipped with a
//! recorded reason, never a failure — a directory of mixed-quality
//! stores (including torn files, which open via
//! [`osn_store::StoreReader::recover`]) must still serve the readable
//! ones.

use std::io;
use std::path::Path;
use std::time::UNIX_EPOCH;

use osn_analysis::ClassColumns;
use osn_core::analyze_store;
use osn_store::StoreReader;
use osn_trace::wire::fnv1a64;

use serde::{Deserialize, Serialize};

/// File name of the persistent index inside the scanned root.
pub const INDEX_FILE: &str = ".osn-catalog.json";

/// Per-event-class summary of one store (count and duration moments
/// over all ranks — the catalog-level view of Tables I–VI).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    pub class: String,
    pub count: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
}

/// One indexed store.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Stable id: file stem plus a short hash of the relative path
    /// (two `amg.osn` in different subdirectories stay distinct).
    pub id: String,
    /// Path relative to the catalog root.
    pub path: String,
    /// Modification time (nanoseconds since epoch) and size at index
    /// time — the cache key for reuse across rescans.
    pub mtime_ns: u64,
    pub bytes: u64,
    pub app: String,
    pub seed: u64,
    /// FNV-1a over the canonical JSON of the experiment config: two
    /// runs are comparable when their hashes match.
    pub config_hash: String,
    pub ncpus: usize,
    pub nranks: usize,
    pub events: u64,
    pub lost: u64,
    pub chunks: usize,
    pub span_start_ns: u64,
    pub span_end_ns: u64,
    pub wall_ns: u64,
    /// True when opening required repair (torn chunks or dropped tail).
    pub recovered: bool,
    /// Classes with at least one event, in `EventClass::ALL` order.
    pub classes: Vec<ClassSummary>,
}

/// A file that could not be indexed, with why.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SkippedStore {
    pub path: String,
    pub reason: String,
}

/// The scanned state of one directory tree.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    pub entries: Vec<CatalogEntry>,
    pub skipped: Vec<SkippedStore>,
}

impl Catalog {
    pub fn get(&self, id: &str) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Load the persisted index from `root` (empty catalog when the
    /// index file is absent or unreadable — a scan will rebuild it).
    pub fn load(root: &Path) -> Catalog {
        let entries = std::fs::read(root.join(INDEX_FILE))
            .ok()
            .and_then(|bytes| serde_json::from_slice(&bytes).ok())
            .unwrap_or_default();
        Catalog {
            entries,
            skipped: Vec::new(),
        }
    }
}

/// What one scan did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Stores analyzed fresh this scan.
    pub indexed: usize,
    /// Stores reused from the previous catalog (unchanged mtime/size).
    pub reused: usize,
    /// Previously indexed stores that disappeared.
    pub removed: usize,
    /// Files present but unreadable (see [`Catalog::skipped`]).
    pub skipped: usize,
}

/// Scan `root` recursively for `.osn` files ([`osn_core::store::osn_files`]:
/// linked directories are not entered), reusing `prev` entries
/// whose `(path, mtime, size)` key is unchanged, and persist the
/// refreshed index to `.osn-catalog.json` when anything changed.
pub fn scan(root: &Path, prev: &Catalog) -> io::Result<(Catalog, ScanOutcome)> {
    let mut files: Vec<String> = osn_core::store::osn_files(root)?
        .iter()
        .filter_map(|p| Some(p.strip_prefix(root).ok()?.to_string_lossy().to_string()))
        .collect();
    files.sort();

    let mut outcome = ScanOutcome::default();
    let mut next = Catalog::default();
    for rel in &files {
        let path = root.join(rel);
        let Ok(meta) = std::fs::metadata(&path) else {
            continue; // vanished between listing and stat
        };
        let mtime_ns = mtime_nanos(&meta);
        let bytes = meta.len();
        if let Some(entry) = prev
            .entries
            .iter()
            .find(|e| e.path == *rel && e.mtime_ns == mtime_ns && e.bytes == bytes)
        {
            next.entries.push(entry.clone());
            outcome.reused += 1;
            continue;
        }
        match index_store(&path, rel, mtime_ns, bytes) {
            Ok(entry) => {
                next.entries.push(entry);
                outcome.indexed += 1;
            }
            Err(reason) => {
                next.skipped.push(SkippedStore {
                    path: rel.clone(),
                    reason,
                });
                outcome.skipped += 1;
            }
        }
    }
    outcome.removed = prev
        .entries
        .iter()
        .filter(|e| !next.entries.iter().any(|n| n.path == e.path))
        .count();

    if outcome.indexed > 0 || outcome.removed > 0 || !root.join(INDEX_FILE).exists() {
        persist_index(root, &next.entries)?;
    }
    Ok((next, outcome))
}

/// Write the index atomically (temp file + rename) so a crashed scan
/// never leaves a half-written index for the next start to trip on.
fn persist_index(root: &Path, entries: &[CatalogEntry]) -> io::Result<()> {
    let bytes = serde_json::to_vec_pretty(&entries.to_vec())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = root.join(format!("{INDEX_FILE}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, root.join(INDEX_FILE))
}

fn mtime_nanos(meta: &std::fs::Metadata) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Stable id for a store: file stem + 8 hex digits of the relative
/// path's hash.
pub fn store_id(rel: &str) -> String {
    let stem = Path::new(rel)
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "store".to_string());
    format!("{stem}-{:08x}", fnv1a64(rel.as_bytes()) as u32)
}

fn index_store(path: &Path, rel: &str, mtime_ns: u64, bytes: u64) -> Result<CatalogEntry, String> {
    let (reader, recovery) = StoreReader::recover(path).map_err(|e| format!("cannot open: {e}"))?;
    let (meta, analysis) = analyze_store(&reader).map_err(|e| format!("analysis failed: {e}"))?;
    let classes = ClassColumns::build(&analysis, &meta.ranks)
        .all_stats()
        .into_iter()
        .filter(|(_, s)| s.count > 0)
        .map(|(class, s)| ClassSummary {
            class: class.name().to_string(),
            count: s.count,
            total_ns: s.total.as_nanos(),
            mean_ns: s.avg.as_nanos(),
            max_ns: s.max.as_nanos(),
        })
        .collect();
    let config_json = serde_json::to_vec(&meta.config).map_err(|e| e.to_string())?;
    let span = reader.span().unwrap_or_default();
    Ok(CatalogEntry {
        id: store_id(rel),
        path: rel.to_string(),
        mtime_ns,
        bytes,
        app: meta.config.app.name().to_string(),
        seed: meta.config.node.seed,
        config_hash: format!("{:016x}", fnv1a64(&config_json)),
        ncpus: reader.ncpus(),
        nranks: meta.ranks.len(),
        events: reader.events(),
        lost: reader.lost().iter().sum(),
        chunks: reader.chunks().len(),
        span_start_ns: span.0.as_nanos(),
        span_end_ns: span.1.as_nanos(),
        wall_ns: meta.result.end_time.as_nanos(),
        recovered: !recovery.clean(),
        classes,
    })
}
