//! Bench regression gate: compare a fresh bench run against the
//! committed `BENCH_PR*.json` baselines and fail on aggregate
//! regression.
//!
//! ```text
//! bench_gate <baseline_dir> <fresh_dir> [--threshold 0.85] [--metric-floor 0.70]
//! ```
//!
//! Every `BENCH_PR*.json` in the baseline dir that holds an
//! `aggregate_*` metric must exist in the fresh dir. For each file the
//! top-level `aggregate_*` metrics are scored `fresh/baseline` (or
//! inverted for lower-is-better metrics); the
//! gate passes when the geometric mean over all metrics stays at or
//! above the threshold (default 0.85, i.e. at most a 15% aggregate
//! regression) AND no single metric falls below the per-metric floor
//! (default 0.70 — a collapse in one metric cannot hide behind five
//! healthy ones).
//!
//! On ANY failure the full per-metric table is still printed — every
//! metric with its old value, new value, score, direction, and
//! verdict — so one look at a red CI log shows the complete picture,
//! not just the first offender. Exit code 0 = pass, 1 = regression or
//! missing data.

use std::path::Path;
use std::process::ExitCode;

/// Metrics where smaller numbers are better. Everything else
/// (speedups, MB/s, ratios-vs-raw, nodes/s) is higher-is-better.
const LOWER_IS_BETTER: &[&str] = &[
    "aggregate_streamed_over_in_memory",
    "aggregate_streamed_over_resident",
    "aggregate_validation_ratio_error",
    "aggregate_capture_overhead_ns",
];

/// One scored (or unscorable) metric row of the final table.
struct Row {
    file: String,
    key: String,
    base: Option<f64>,
    new: Option<f64>,
    /// `None` when the metric could not be scored (missing / non-positive).
    score: Option<f64>,
    verdict: &'static str,
    failing: bool,
}

/// Pull the top-level `"aggregate_*": <number>` pairs out of a bench
/// JSON without a full parser (the vendored serde shim exposes no
/// generic `Value`). Nested keys never start with `aggregate`, so a
/// plain scan is exact here.
fn aggregates(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while let Some(pos) = text[i..].find("\"aggregate") {
        let start = i + pos + 1;
        let Some(len) = text[start..].find('"') else {
            break;
        };
        let key = text[start..start + len].to_string();
        let mut j = start + len + 1;
        while j < bytes.len() && (bytes[j] == b':' || bytes[j].is_ascii_whitespace()) {
            j += 1;
        }
        let num_start = j;
        while j < bytes.len()
            && (bytes[j].is_ascii_digit() || matches!(bytes[j], b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            j += 1;
        }
        if let Ok(v) = text[num_start..j].parse::<f64>() {
            out.push((key, v));
        }
        i = j.max(start + len + 1);
    }
    out
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "-".into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.85f64;
    let mut metric_floor = 0.70f64;
    let mut dirs = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--threshold" {
            threshold = iter
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(threshold);
        } else if a == "--metric-floor" {
            metric_floor = iter
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(metric_floor);
        } else {
            dirs.push(a.clone());
        }
    }
    let [baseline_dir, fresh_dir] = dirs.as_slice() else {
        eprintln!(
            "usage: bench_gate <baseline_dir> <fresh_dir> [--threshold 0.85] [--metric-floor 0.70]"
        );
        return ExitCode::FAILURE;
    };

    let mut files: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_PR") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {baseline_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no BENCH_PR*.json baselines in {baseline_dir}");
        return ExitCode::FAILURE;
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut unreadable = false;
    for file in &files {
        let base_text = match std::fs::read_to_string(Path::new(baseline_dir).join(file)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: cannot read baseline: {e}");
                unreadable = true;
                continue;
            }
        };
        let base = aggregates(&base_text);
        if base.is_empty() {
            // A snapshot with nothing to gate, such as a `benchmark
            // compare` summary: no bench binary writes a fresh copy.
            println!("{file}: no aggregate_* metrics, nothing to gate");
            continue;
        }
        let fresh_path = Path::new(fresh_dir).join(file);
        let fresh_text = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: fresh run missing ({}): {e}", fresh_path.display());
                unreadable = true;
                continue;
            }
        };
        let fresh = aggregates(&fresh_text);
        for (key, base) in base {
            let new = fresh.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            let lower = LOWER_IS_BETTER.contains(&key.as_str());
            let (score, verdict, failing) = match new {
                None => (None, "LOST", true),
                Some(new) if base <= 0.0 || new <= 0.0 => (None, "NONPOSITIVE", true),
                Some(new) => {
                    let score = if lower { base / new } else { new / base };
                    if score < metric_floor {
                        (Some(score), "FLOOR", true)
                    } else {
                        (Some(score), "ok", false)
                    }
                }
            };
            rows.push(Row {
                file: file.clone(),
                key,
                base: Some(base),
                new,
                score,
                verdict,
                failing,
            });
        }
    }

    // The complete table, pass or fail: every metric, both values,
    // the direction-aware score, and a per-row verdict.
    println!(
        "{:<16} {:<38} {:>14} {:>14} {:>8}  {:<6} verdict",
        "file", "metric", "old", "new", "score", "dir"
    );
    for r in &rows {
        println!(
            "{:<16} {:<38} {:>14} {:>14} {:>8}  {:<6} {}",
            r.file,
            r.key,
            fmt_opt(r.base),
            fmt_opt(r.new),
            fmt_opt(r.score),
            if LOWER_IS_BETTER.contains(&r.key.as_str()) {
                "lower"
            } else {
                "higher"
            },
            r.verdict
        );
    }

    let scored: Vec<f64> = rows.iter().filter_map(|r| r.score).collect();
    if scored.is_empty() {
        eprintln!("no comparable metrics found");
        return ExitCode::FAILURE;
    }
    let geo_mean = (scored.iter().map(|s| s.ln()).sum::<f64>() / scored.len() as f64).exp();
    println!(
        "geometric mean over {} metrics: {geo_mean:.3} (threshold {threshold:.2}, floor {metric_floor:.2})",
        scored.len()
    );

    let failing: Vec<&Row> = rows.iter().filter(|r| r.failing).collect();
    if unreadable || !failing.is_empty() {
        for r in &failing {
            eprintln!(
                "FAIL {}: {} {} ({} -> {}, score {})",
                r.file,
                r.key,
                r.verdict,
                fmt_opt(r.base),
                fmt_opt(r.new),
                fmt_opt(r.score)
            );
        }
        eprintln!(
            "FAIL: {} failing metric(s){}",
            failing.len(),
            if unreadable {
                " plus unreadable/missing bench file(s)"
            } else {
                ""
            }
        );
        return ExitCode::FAILURE;
    }
    if geo_mean < threshold {
        eprintln!(
            "FAIL: aggregate bench regression {:.1}% (> {:.0}% allowed)",
            (1.0 - geo_mean) * 100.0,
            (1.0 - threshold) * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("PASS");
    ExitCode::SUCCESS
}
