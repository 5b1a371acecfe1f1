//! On-disk store throughput: chunked write speed, codec effectiveness,
//! and out-of-core streamed analysis vs the in-memory engine.
//!
//! For every Sequoia app (written to `target/bench/BENCH_PR4.json`):
//!
//! * **Write** — `persist_run` MB/s and events/s, delta/varint codec
//!   vs raw records, plus the resulting compression ratio against the
//!   in-memory event footprint.
//! * **Analyze** — full out-of-core pipeline (open + mmap'd columnar
//!   chunk cursors + `analyze_store` + report) vs two in-memory
//!   baselines on the same run: the *resident* engine (trace already
//!   in RAM) and the *from-file* engine (`read_trace` materialization
//!   then analyze — the `load_run` path, which is the apples-to-apples
//!   comparison since both sides pay decode + checksum + I/O). Every
//!   timed rep asserts byte-identical serialized reports — each rep
//!   doubles as a differential check.
//! * **Chunk kernel** — ns per record to fetch every chunk of the
//!   store through the column cursors (header check, then the one pass
//!   that checksums and decodes the payload into columns), best of
//!   reps.
//! * **Memory** — the reader's chunk-residency proxy (peak resident
//!   chunks × chunk capacity × record size) against the materialized
//!   trace footprint.
//! * **Faults** — `streamed_minor_faults`, the process's minor page
//!   faults during the fastest streamed rep (field 10 of
//!   `/proc/self/stat`, read just outside the timed region); the field
//!   is left out where that file cannot be read.
//!
//! Knobs: `OSN_SECS` (default 10), `OSN_REPS` (default 3), `OSN_SEED`.

use std::path::PathBuf;

use osn_bench::{best_of, duration, load_or_run, seed, timed};
use osn_core::report::AppReport;
use osn_core::store::{self, Options};
use osn_workloads::App;

use serde::Serialize;

#[derive(Serialize)]
struct AppRow {
    app: String,
    sim_secs: u64,
    events: usize,
    /// Compressed store size / raw-records store size / in-memory.
    file_bytes: u64,
    raw_file_bytes: u64,
    memory_bytes: u64,
    compression_ratio: f64,
    chunks: usize,
    /// Best-of-reps wall-clock write and analyze timings.
    write_s: f64,
    write_mb_per_sec: f64,
    write_events_per_sec: f64,
    in_memory_analyze_s: f64,
    in_memory_from_file_s: f64,
    streamed_analyze_s: f64,
    streamed_over_in_memory: f64,
    streamed_over_resident: f64,
    /// Best-of-reps ns per record to checksum and decode every chunk
    /// of the compressed store through the column cursors.
    chunk_fetch_ns_per_record: f64,
    /// Reader residency proxy: peak chunks × capacity × record bytes.
    peak_resident_chunks: usize,
    streamed_peak_bytes: u64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    reps: usize,
    chunk_capacity: usize,
    /// Each [`AppRow`], plus `streamed_minor_faults` after
    /// `streamed_analyze_s` where it could be read.
    apps: Vec<serde::Value>,
    aggregate_write_mb_per_sec: f64,
    /// Sum of streamed times over sum of *from-file* in-memory times
    /// (both sides pay open + decode + checksum; streamed does
    /// strictly less work). BENCH_PR4 used the resident-trace
    /// denominator, reported here as
    /// `aggregate_streamed_over_resident`.
    aggregate_streamed_over_in_memory: f64,
    aggregate_streamed_over_resident: f64,
    /// Ratio of sums: Σ memory_bytes / Σ file_bytes — the same
    /// direction as every per-app `compression_ratio` (in-memory event
    /// footprint over compressed file size). The old aggregate divided
    /// raw-*file* bytes by compressed-file bytes, a different metric
    /// that sat below every per-app value; that ratio is now
    /// `aggregate_raw_file_over_file`.
    aggregate_compression_ratio: f64,
    aggregate_raw_file_over_file: f64,
    compression_ratio_definition: String,
    streamed_over_in_memory_definition: String,
}

fn scratch(app: App, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "osn-bench-store-{}-{tag}-{}.osn",
        app.name(),
        std::process::id()
    ))
}

/// The process's minor page faults so far: field 10 of
/// `/proc/self/stat`, counted from after the last `)` because the
/// command name may hold spaces. `None` where the file cannot be read
/// or parsed.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields = &stat[stat.rfind(')')? + 1..];
    // The text after the command name starts at field 3.
    fields.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// `row` as JSON with `faults` placed after `streamed_analyze_s`, or
/// without that field when the count is unknown.
fn row_value(row: &AppRow, faults: Option<u64>) -> serde::Value {
    let serde::Value::Map(mut fields) = serde::Serialize::to_value(row) else {
        panic!("a row serializes to a map");
    };
    if let Some(faults) = faults {
        let at = fields
            .iter()
            .position(|(k, _)| k == "streamed_analyze_s")
            .map_or(fields.len(), |i| i + 1);
        fields.insert(
            at,
            (
                "streamed_minor_faults".to_string(),
                serde::Value::U64(faults),
            ),
        );
    }
    serde::Value::Map(fields)
}

fn main() {
    let sim = duration();
    let sim_secs = sim.as_nanos() / 1_000_000_000;
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let seed = seed();
    // OSN_CHUNK_CAP: events per chunk (default = the store's own);
    // small values stress cross-chunk pairing resumption in the
    // columnar cursors — bench_smoke uses this.
    let opts = match std::env::var("OSN_CHUNK_CAP")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(cap) => Options::default().with_chunk_capacity(cap),
        None => Options::default(),
    };

    let mut apps = Vec::new();
    let (mut tot_bytes, mut tot_write, mut tot_mem, mut tot_stream) = (0u64, 0.0f64, 0.0, 0.0);
    let (mut tot_raw, mut tot_mem_bytes, mut tot_from_file) = (0u64, 0u64, 0.0f64);
    for &app in App::ALL.iter() {
        let run = load_or_run(app);
        let path = scratch(app, "delta");
        let raw_path = scratch(app, "raw");

        // ---- Write throughput, both codecs. ----
        store::persist_run(&run, &path, opts).expect("persist");
        let (write_s, summary) = best_of(reps, || {
            timed(|| store::persist_run(&run, &path, opts).expect("persist"))
        });
        let raw_summary =
            store::persist_run(&run, &raw_path, opts.with_compress(false)).expect("persist raw");
        let memory_bytes = (run.trace.len() * std::mem::size_of::<osn_trace::Event>()) as u64;

        // ---- Streamed vs in-memory analysis, differentially checked. ----
        let in_memory_report = AppReport::build(&run);
        let in_memory_json = serde_json::to_vec(&in_memory_report).expect("serializable");
        // Each timed closure returns what it allocated, so that it is
        // freed outside the timed region.
        let (streamed_analyze_s, (peak_resident, streamed_minor_faults)) = best_of(reps, || {
            let before = minor_faults();
            let (s, (reader, report, _analysis)) = timed(|| {
                let reader = store::Reader::open(&path).expect("open");
                let (meta, analysis) = store::analyze_store(&reader).expect("analyze");
                let report = AppReport::from_analysis(
                    meta.config.app,
                    &meta.ranks,
                    meta.config.node.net_irq_cpu,
                    &analysis,
                );
                (reader, report, analysis)
            });
            let faults = before.zip(minor_faults()).map(|(a, b)| b.saturating_sub(a));
            assert_eq!(
                serde_json::to_vec(&report).expect("serializable"),
                in_memory_json,
                "{}: streamed report differs from in-memory",
                app.name()
            );
            (s, (reader.stats().peak_resident, faults))
        });
        // From-file in-memory baseline: materialize the trace from the
        // same store, then run the resident engine — the `load_run`
        // path, paying the same open/decode/checksum the streamed side
        // pays.
        let (in_memory_from_file_s, ()) = best_of(reps, || {
            let (s, (report, _trace, _analysis)) = timed(|| {
                let reader = store::Reader::open(&path).expect("open");
                let meta = osn_core::StoredRunMeta::from_bytes(reader.metadata()).expect("meta");
                let trace = reader.read_trace().expect("read");
                let analysis = osn_core::analysis::NoiseAnalysis::analyze(
                    &trace,
                    &meta.result.tasks,
                    meta.result.end_time,
                );
                let report = AppReport::from_analysis(
                    meta.config.app,
                    &meta.ranks,
                    meta.config.node.net_irq_cpu,
                    &analysis,
                );
                (report, trace, analysis)
            });
            assert_eq!(
                serde_json::to_vec(&report).expect("serializable"),
                in_memory_json,
                "{}: from-file report differs from in-memory",
                app.name()
            );
            (s, ())
        });
        // The chunk kernel alone: every chunk of every CPU, fetched
        // and decoded into columns, nothing downstream.
        let reader = store::Reader::open(&path).expect("open");
        let (chunk_fetch_s, ()) = best_of(reps, || {
            let (s, records) = timed(|| {
                let mut records = 0usize;
                for cpu in 0..reader.ncpus() as u16 {
                    let mut cursor = reader.column_chunks(osn_kernel::ids::CpuId(cpu));
                    while let Some(cols) = cursor.next_chunk() {
                        records += std::hint::black_box(cols.expect("intact store")).len();
                    }
                }
                records
            });
            assert_eq!(records as u64, reader.events(), "every record decoded");
            (s, ())
        });
        let (in_memory_analyze_s, _) = best_of(reps, || {
            timed(|| {
                let analysis = osn_core::analysis::NoiseAnalysis::analyze(
                    &run.trace,
                    &run.result.tasks,
                    run.result.end_time,
                );
                let _ = AppReport::from_analysis(
                    run.app,
                    &run.ranks,
                    run.config.node.net_irq_cpu,
                    &analysis,
                );
                analysis
            })
        });

        let row = AppRow {
            app: app.name().to_string(),
            sim_secs,
            events: run.trace.len(),
            file_bytes: summary.bytes,
            raw_file_bytes: raw_summary.bytes,
            memory_bytes,
            compression_ratio: memory_bytes as f64 / summary.bytes as f64,
            chunks: summary.chunks,
            write_s,
            write_mb_per_sec: summary.bytes as f64 / write_s / 1e6,
            write_events_per_sec: summary.events as f64 / write_s,
            in_memory_analyze_s,
            in_memory_from_file_s,
            streamed_analyze_s,
            streamed_over_in_memory: streamed_analyze_s / in_memory_from_file_s,
            streamed_over_resident: streamed_analyze_s / in_memory_analyze_s,
            chunk_fetch_ns_per_record: chunk_fetch_s * 1e9 / summary.events as f64,
            peak_resident_chunks: peak_resident,
            streamed_peak_bytes: (peak_resident
                * opts.chunk_capacity
                * std::mem::size_of::<osn_trace::Event>()) as u64,
        };
        println!(
            "{:>10}: {:>9} events  write {:>7.1} MB/s  {:>5.2}x smaller  chunk fetch {:>5.1} ns/record  streamed/from-file {:>5.2}x  /resident {:>5.2}x  peak {:>3} chunks",
            row.app,
            row.events,
            row.write_mb_per_sec,
            row.compression_ratio,
            row.chunk_fetch_ns_per_record,
            row.streamed_over_in_memory,
            row.streamed_over_resident,
            row.peak_resident_chunks
        );
        tot_bytes += summary.bytes;
        tot_raw += raw_summary.bytes;
        tot_mem_bytes += memory_bytes;
        tot_write += write_s;
        tot_mem += in_memory_analyze_s;
        tot_from_file += in_memory_from_file_s;
        tot_stream += streamed_analyze_s;
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&raw_path);
        apps.push(row_value(&row, streamed_minor_faults));
    }

    let compression_def = "memory_bytes / file_bytes (in-memory event footprint over \
compressed store size); the aggregate is the ratio of sums over all apps, \
direction-consistent with every per-app compression_ratio"
        .to_string();
    let streamed_def = "streamed_analyze_s / in_memory_from_file_s (both sides open the \
store and pay decode + checksum; the denominator materializes the trace and runs the \
resident engine — the load_run path). streamed_over_resident keeps the BENCH_PR4 \
denominator (trace already in RAM) for continuity"
        .to_string();
    let report = Report {
        seed,
        reps,
        chunk_capacity: opts.chunk_capacity,
        aggregate_write_mb_per_sec: tot_bytes as f64 / tot_write / 1e6,
        aggregate_streamed_over_in_memory: tot_stream / tot_from_file,
        aggregate_streamed_over_resident: tot_stream / tot_mem,
        aggregate_compression_ratio: tot_mem_bytes as f64 / tot_bytes as f64,
        aggregate_raw_file_over_file: tot_raw as f64 / tot_bytes as f64,
        compression_ratio_definition: compression_def,
        streamed_over_in_memory_definition: streamed_def,
        apps,
    };
    println!(
        "aggregate: write {:.1} MB/s, streamed {:.2}x the from-file in-memory time \
({:.2}x resident), compression {:.2}x",
        report.aggregate_write_mb_per_sec,
        report.aggregate_streamed_over_in_memory,
        report.aggregate_streamed_over_resident,
        report.aggregate_compression_ratio
    );
    let pr4 = osn_bench::write_bench_json(
        "BENCH_PR4.json",
        serde_json::to_vec(&report).expect("serializable"),
    );
    println!("wrote {}", pr4.display());

    // BENCH_PR6.json is shared with analysis_throughput: this binary
    // owns every key except the analysis_* section.
    let own = match serde_json::from_str::<serde::Value>(
        &serde_json::to_string(&report).expect("serializable"),
    ) {
        Ok(serde::Value::Map(entries)) => entries,
        _ => panic!("report serializes to a map"),
    };
    let pr6 = osn_bench::merge_bench_json("BENCH_PR6.json", own, |k| {
        !(k.starts_with("analysis") || k == "aggregate_analysis_events_per_sec")
    });
    println!("wrote {}", pr6.display());
}
