//! `osn-bench`: the experiment harness for the paper's figures and
//! the pipeline's own speed.
//!
//! Each `src/bin/figNN_*.rs` binary reruns (or loads from the shared
//! on-disk cache) the needed traced runs and prints the series the
//! paper reports; Fig 3 and Tables I–VI are printed by `osnoise
//! campaign`. The `*_throughput`, `cluster_scale` and
//! `capture_overhead` binaries measure the pipeline's own speed and
//! write their `BENCH_PR*.json` under `target/bench/`
//! ([`write_bench_json`]), leaving the committed baselines at the repo
//! root untouched; `scripts/bench_gate.sh` compares the two.
//!
//! Environment knobs:
//! * `OSN_SECS` — simulated seconds per application run (default 10).
//! * `OSN_SEED` — campaign seed (default the paper-date seed).
//! * `OSN_NO_CACHE=1` — ignore and overwrite the trace cache.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use osn_core::kernel::time::Nanos;
use osn_core::workloads::App;
use osn_core::{load_run, persist_run, run_app, AppRun, ExperimentConfig};
use osn_store::StoreOptions;

fn target_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(name);
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write one bench result file `name` (a `BENCH_PR*.json`) under
/// `target/bench/` and return its path.
pub fn write_bench_json(name: &str, json: Vec<u8>) -> PathBuf {
    let path = target_dir("bench").join(name);
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Merge one producer's section into a shared bench JSON file under
/// `target/bench/` (`BENCH_PR6.json` is written by both
/// `analysis_throughput` and `store_throughput`): read the existing
/// top-level map if any, drop the keys this producer owns (`owns`
/// returns true), keep everyone else's, and write back `own` followed
/// by the kept keys. Key order is deterministic: each producer's keys
/// stay in the order it emits them.
pub fn merge_bench_json(
    name: &str,
    own: Vec<(String, serde::Value)>,
    owns: impl Fn(&str) -> bool,
) -> PathBuf {
    let mut entries = own;
    if let Ok(text) = fs::read_to_string(target_dir("bench").join(name)) {
        if let Ok(serde::Value::Map(existing)) = serde_json::from_str::<serde::Value>(&text) {
            entries.extend(existing.into_iter().filter(|(k, _)| !owns(k)));
        }
    }
    let doc = serde::Value::Map(entries);
    write_bench_json(name, serde_json::to_vec_pretty(&doc).expect("serializable"))
}

/// Wall-clock seconds one call of `f` took, with its result. Every
/// throughput bin times with this one clock: a thread's on-CPU time in
/// `/proc/thread-self/schedstat` moves in scheduler-tick steps (4 ms on
/// a 250 Hz kernel), too coarse for runs of tens of milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The fastest of `reps` (at least one) calls of `f`, each returning
/// its own seconds (usually from [`timed`]) and a result, with that
/// call's result.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut best, mut out) = f();
    for _ in 1..reps {
        let (secs, o) = f();
        if secs < best {
            best = secs;
            out = o;
        }
    }
    (best, out)
}

/// Simulated duration per app run, from `OSN_SECS`.
pub fn duration() -> Nanos {
    let secs: u64 = std::env::var("OSN_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    Nanos::from_secs(secs.max(1))
}

/// Campaign seed, from `OSN_SEED`.
pub fn seed() -> u64 {
    std::env::var("OSN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0511_2011)
}

/// Run (or load from cache) one traced application run. The cache
/// holds one `.osn` store per run, written by [`persist_run`] and read
/// back by [`load_run`], which recomputes the analysis; a cache file
/// that does not read is replaced by a fresh run.
pub fn load_or_run(app: App) -> AppRun {
    let dur = duration();
    let seed = seed();
    let path = target_dir("osn-cache").join(format!(
        "{}-{}s-{:x}.osn",
        app.name(),
        dur.as_nanos() / 1_000_000_000,
        seed
    ));
    if std::env::var("OSN_NO_CACHE").is_err() {
        if let Ok(run) = load_run(&path) {
            return run;
        }
    }
    let run = run_app(ExperimentConfig::paper(app, dur).with_seed(seed));
    let _ = persist_run(&run, &path, StoreOptions::default());
    run
}

/// Render a histogram as an ASCII bar chart (the harness's stand-in
/// for the paper's Matlab figures).
pub fn render_histogram(h: &osn_core::analysis::Histogram, width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let peak = h.counts.iter().copied().max().unwrap_or(0).max(1);
    for (center, count) in h.centers().iter().zip(&h.counts) {
        let bar = (count * width as u64 / peak) as usize;
        let _ = writeln!(
            out,
            "{:>10.2}us |{:<width$}| {}",
            center.as_micros_f64(),
            "#".repeat(bar),
            count,
            width = width
        );
    }
    let _ = writeln!(
        out,
        "  (cut at p99; {} samples above the cut, {:.2}% tail)",
        h.overflow,
        h.tail_fraction() * 100.0
    );
    out
}

/// Render a time series of (t, value) pairs as the list of its biggest
/// spikes.
pub fn render_spikes(series: &[(Nanos, Nanos)], top: usize) -> String {
    use std::fmt::Write as _;
    let mut sorted: Vec<&(Nanos, Nanos)> = series.iter().collect();
    sorted.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
    let mut out = String::new();
    for (t, v) in sorted.into_iter().take(top) {
        let _ = writeln!(out, "  t={:>12} spike={}", t.to_string(), v);
    }
    out
}

/// Per-decile event counts over a run: a textual Fig 5 / Fig 7
/// placement trace.
pub fn render_deciles(samples: &[(Nanos, Nanos)], span: (Nanos, Nanos)) -> String {
    use std::fmt::Write as _;
    let (start, end) = span;
    let total = (end - start).max(Nanos(1));
    let mut counts = [0u64; 10];
    for (t, _) in samples {
        if *t < start || *t >= end {
            continue;
        }
        let idx = (((*t - start).as_nanos() as u128 * 10) / total.as_nanos() as u128) as usize;
        counts[idx.min(9)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (i, c) in counts.iter().enumerate() {
        let bar = (c * 40 / peak) as usize;
        let _ = writeln!(out, "  {:>3}0% |{:<40}| {}", i, "#".repeat(bar), c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_core::analysis::Histogram;

    #[test]
    fn duration_and_seed_have_defaults() {
        assert!(duration() >= Nanos::from_secs(1));
        let _ = seed();
    }

    #[test]
    fn histogram_rendering() {
        let h = Histogram::build(&[Nanos(1000), Nanos(1100), Nanos(5000)], 4, 100.0);
        let text = render_histogram(&h, 20);
        assert!(text.contains('#'));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn decile_rendering() {
        let samples = vec![(Nanos(5), Nanos(1)), (Nanos(95), Nanos(1))];
        let text = render_deciles(&samples, (Nanos(0), Nanos(100)));
        assert_eq!(text.lines().count(), 10);
        assert!(text.contains("| 1"));
    }

    #[test]
    fn spike_rendering() {
        let series = vec![(Nanos(1), Nanos(10)), (Nanos(2), Nanos(99))];
        let text = render_spikes(&series, 1);
        assert!(text.contains("99"));
        assert!(!text.contains("spike=10ns"));
    }
}
