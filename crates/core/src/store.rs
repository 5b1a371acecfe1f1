//! On-disk runs: persist traced experiments as `osn-store` files and
//! analyze them back — either fully materialized or out-of-core.
//!
//! Two producer paths write a store:
//!
//! * [`persist_run`] — serialize a completed in-memory [`AppRun`];
//! * [`record_app`] — run the experiment with a *spilling* trace
//!   session, so per-CPU rings stream to disk while the node runs and
//!   the trace is never resident in memory.
//!
//! Two consumer paths read one back:
//!
//! * [`load_run`] — materialize the trace and re-analyze, recovering a
//!   full [`AppRun`] (byte-identical analysis to the original run);
//! * [`streamed_report`] — out-of-core: [`analyze_store`] feeds each
//!   CPU's chunks, decoded once, columnar and straight off the memory
//!   map, to the same per-CPU analysis the in-memory path uses
//!   ([`NoiseAnalysis::from_cpu_blocks`]), holding at most one decoded
//!   chunk per CPU, and reports through [`AppReport::from_analysis`].
//!   Differentially proven bit-identical to the in-memory path.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use osn_analysis::NoiseAnalysis;
use osn_kernel::ids::Tid;
use osn_kernel::node::RunResult;
use osn_store::{SpillWriter, StoreError, StoreOptions, StoreReader, StoreSummary, StoreWriter};
use osn_trace::session::{EventMask, TraceSession};

use serde::{Deserialize, Serialize};

use crate::experiment::{AppRun, ExperimentConfig};
use crate::report::AppReport;

pub use osn_store as format;
pub use osn_store::{RecoveryReport, StoreOptions as Options, StoreReader as Reader};

/// How often the background spill thread sweeps the rings while the
/// node runs. The simulation produces events far faster than wall
/// time, so this is a ring-pressure knob, not a latency one.
const SPILL_POLL: Duration = Duration::from_micros(100);

/// Everything about a run except its events, stored as the footer's
/// JSON metadata blob: enough to re-analyze the trace without re-running
/// the simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoredRunMeta {
    pub config: ExperimentConfig,
    pub result: RunResult,
    /// Tids of the application's ranks (the job table is not
    /// persisted, so rank membership is).
    pub ranks: Vec<Tid>,
    /// Where the events came from: `"native"` for host captures,
    /// absent/`None` for simulator output (pre-existing stores carry
    /// no key and deserialize to `None`).
    pub source: Option<String>,
}

/// `StoredRunMeta.source` value written by `osnoise capture`.
pub const SOURCE_NATIVE: &str = "native";

impl StoredRunMeta {
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("run metadata serializes")
    }

    pub fn from_bytes(bytes: &[u8]) -> io::Result<StoredRunMeta> {
        serde_json::from_slice(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("run metadata: {e}")))
    }

    /// Whether this store was captured on a real host rather than
    /// produced by the simulator.
    pub fn is_native(&self) -> bool {
        self.source.as_deref() == Some(SOURCE_NATIVE)
    }
}

/// Persist a completed in-memory run as a store file (trace, loss
/// counters, and [`StoredRunMeta`] footer blob).
pub fn persist_run(run: &AppRun, path: &Path, opts: StoreOptions) -> io::Result<StoreSummary> {
    let meta = StoredRunMeta {
        config: run.config.clone(),
        result: run.result.clone(),
        ranks: run.ranks.clone(),
        source: None,
    };
    osn_store::writer::write_store(path, &run.trace, &meta.to_bytes(), opts)
}

/// Run one application with the trace *spilling to disk as it runs*:
/// a background thread drains the per-CPU rings into chunked store
/// writes, so memory holds only ring + chunk buffers, never the trace.
/// Returns the run metadata and the written-file summary; analyze the
/// file with [`streamed_report`] or [`load_run`].
pub fn record_app(
    config: ExperimentConfig,
    path: &Path,
    opts: StoreOptions,
) -> io::Result<(StoredRunMeta, StoreSummary)> {
    let ncpus = config.node.cpus as usize;
    let writer = StoreWriter::create(path, ncpus.max(1), opts)?;
    let spill = SpillWriter::new(writer);

    let (mut node, job) = config.spawn(config.node.clone());
    let (session, mut tracer) = TraceSession::new(ncpus, config.ring_capacity, EventMask::ALL);
    let spilling = session.spill(Box::new(spill.clone()), SPILL_POLL);
    let result = node.run(&mut tracer);
    let lost = spilling.stop()?;
    let ranks = result.job_ranks(job);
    let meta = StoredRunMeta {
        config,
        result,
        ranks,
        source: None,
    };
    let summary = spill.finish(&lost, meta.to_bytes())?;
    Ok((meta, summary))
}

/// Materialize a stored run: read the trace back (byte-identical to
/// the in-memory original), parse the metadata, and re-analyze.
pub fn load_run(path: &Path) -> io::Result<AppRun> {
    let reader = StoreReader::open(path)?;
    let trace = reader.read_trace()?;
    let meta = StoredRunMeta::from_bytes(reader.metadata())?;
    let analysis = NoiseAnalysis::analyze(&trace, &meta.result.tasks, meta.result.end_time);
    Ok(AppRun {
        app: meta.config.app,
        config: meta.config,
        trace,
        result: meta.result,
        ranks: meta.ranks,
        analysis,
    })
}

/// Out-of-core analysis of an open store: parse the footer's run
/// metadata, then feed each CPU's chunks to
/// [`NoiseAnalysis::from_cpu_blocks`]. Each chunk is decoded exactly
/// once — straight out of the memory map — into the cursor's reused
/// [`osn_trace::EventColumns`] block, so at most one decoded chunk per
/// CPU is resident (`reader.stats()` proves the bound) and no full
/// `Event` stream is ever materialized.
///
/// Output is bit-identical to `NoiseAnalysis::analyze` on the
/// materialized trace: per-CPU chunk sequences replay each CPU's
/// stream exactly. A chunk that fails to decode fails the analysis
/// with that cursor's own [`osn_store::StoreError`].
pub fn analyze_store(reader: &StoreReader) -> io::Result<(StoredRunMeta, NoiseAnalysis)> {
    let meta = StoredRunMeta::from_bytes(reader.metadata())?;
    let (tasks, end) = (&meta.result.tasks, meta.result.end_time);
    let ncpus = reader.ncpus();
    let workers = osn_analysis::default_workers(ncpus.max(tasks.len()));
    let analysis = NoiseAnalysis::from_cpu_blocks(ncpus, tasks, end, workers, |cpu, feed| {
        let mut cursor = reader.column_chunks(cpu);
        while let Some(block) = cursor.next_chunk() {
            feed(block?);
        }
        Ok::<(), StoreError>(())
    })?;
    Ok((meta, analysis))
}

/// Fully out-of-core report of one stored run: open, stream-analyze,
/// and assemble the paper report without ever materializing the trace.
pub fn streamed_report(path: &Path) -> io::Result<(AppReport, StoredRunMeta)> {
    report_store(&StoreReader::open(path)?)
}

/// [`streamed_report`] for possibly-damaged files: open through
/// [`StoreReader::recover`] (a torn final chunk is dropped and charged
/// to the loss counters) and report what was salvaged alongside the
/// recovery summary.
pub fn recovered_report(path: &Path) -> io::Result<(AppReport, StoredRunMeta, RecoveryReport)> {
    let (reader, recovery) = StoreReader::recover(path)?;
    let (report, meta) = report_store(&reader)?;
    Ok((report, meta, recovery))
}

fn report_store(reader: &StoreReader) -> io::Result<(AppReport, StoredRunMeta)> {
    let (meta, analysis) = analyze_store(reader)?;
    let report = AppReport::from_analysis(
        meta.config.app,
        &meta.ranks,
        meta.config.node.net_irq_cpu,
        &analysis,
    );
    Ok((report, meta))
}

/// Persist a whole campaign: one `<app>.osn` per run under `dir`
/// (created if missing). Returns the written paths in run order.
pub fn persist_campaign(
    runs: &[AppRun],
    dir: &Path,
    opts: StoreOptions,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(runs.len());
    for run in runs {
        let path = dir.join(format!("{}.osn", run.app.name()));
        persist_run(run, &path, opts)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Every `*.osn` file at or beneath `dir`, unordered.
///
/// The walk recurses on [`std::fs::DirEntry::file_type`], which does
/// not follow symlinks: a linked directory is not entered, so a link
/// loop can neither repeat a store nor hang the walk. Any other entry
/// named `*.osn` (a file, or a link to one) is listed. An unreadable
/// `dir` is an error; an unreadable subdirectory is skipped.
pub fn osn_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, found: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)?.flatten() {
            let path = entry.path();
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                let _ = walk(&path, found);
            } else if path.extension().is_some_and(|x| x == "osn") {
                found.push(path);
            }
        }
        Ok(())
    }
    let mut found = Vec::new();
    walk(dir, &mut found)?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::time::Nanos;
    use osn_workloads::App;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-core-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_config(app: App) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper(app, Nanos::from_millis(150));
        config.node.cpus = 2;
        config.nranks = 2;
        config
    }

    #[test]
    fn persist_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("sphot.osn");
        let run = crate::experiment::run_app(tiny_config(App::Sphot));
        persist_run(&run, &path, StoreOptions::default()).unwrap();
        let loaded = load_run(&path).unwrap();
        assert_eq!(loaded.trace.events(), run.trace.events());
        assert_eq!(loaded.trace.lost, run.trace.lost);
        assert_eq!(loaded.ranks, run.ranks);
        assert_eq!(loaded.result.end_time, run.result.end_time);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_app_matches_run_app() {
        let dir = tmpdir("record");
        let path = dir.join("amg.osn");
        let config = tiny_config(App::Amg);
        let (meta, summary) = record_app(config.clone(), &path, StoreOptions::default()).unwrap();
        assert!(summary.events > 0);
        let reference = crate::experiment::run_app(config);
        let loaded = load_run(&path).unwrap();
        assert_eq!(loaded.trace.events(), reference.trace.events());
        assert_eq!(meta.ranks, reference.ranks);
        assert_eq!(meta.result.end_time, reference.result.end_time);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_metadata_is_invalid_data() {
        // A footer blob of nothing but `[` once overflowed the JSON
        // parser's stack and aborted the process.
        let dir = tmpdir("deep-meta");
        let path = dir.join("deep.osn");
        let deep = vec![b'['; 200_000];
        let trace = osn_trace::Trace::default();
        osn_store::writer::write_store(&path, &trace, &deep, StoreOptions::default()).unwrap();
        let err = load_run(&path).err().expect("deep metadata must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting"), "{err}");
        let err = streamed_report(&path).expect_err("deep metadata must not report");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
