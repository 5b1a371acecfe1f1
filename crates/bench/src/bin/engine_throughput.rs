//! Engine throughput: events/sec over the paper campaign.
//!
//! For every Sequoia app this runs the paper node configuration
//! (untraced, `NullProbe` — pure engine speed, no tracer cost in the
//! numerator) and writes `target/bench/BENCH_PR1.json` with per-app
//! events/sec and wall-clock times ([`osn_bench::timed`]). Every rep
//! must dispatch the *same* number of events as the warm-up (the
//! engine is deterministic per seed) — the binary asserts that, so a
//! throughput run doubles as a cheap determinism check.
//!
//! Knobs: `OSN_SECS` — simulated seconds per app run (default 10;
//! below ~5 the per-run times are too short to time reliably);
//! `OSN_REPS` — timed repetitions per configuration, best time kept
//! (default 3).

use osn_bench::{best_of, timed};
use osn_core::ExperimentConfig;
use osn_kernel::hooks::NullProbe;
use osn_kernel::time::Nanos;
use osn_workloads::App;

use serde::Serialize;

#[derive(Serialize)]
struct AppRow {
    app: String,
    sim_secs: u64,
    /// Events dispatched by the main loop (identical across reps).
    events: u64,
    /// Re-arms that replaced a still-pending advance point: the stale
    /// events a queue holding every advance would have popped.
    stale_events: u64,
    /// Best-of-reps wall-clock seconds.
    wall_s: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    reps: usize,
    /// Whole-engine runs, one per app.
    apps: Vec<AppRow>,
    /// Total events over total best-of-reps wall-clock time.
    aggregate_events_per_sec: f64,
}

/// One timed run: paper config for `app`, no tracer.
/// Returns (wall seconds, loop events, superseded advances).
fn timed_run(app: App, sim: Nanos, seed: u64) -> (f64, u64, u64) {
    let config = ExperimentConfig::paper(app, sim).with_seed(seed);
    let (mut node, _) = config.spawn(config.node.clone());
    let (secs, result) = timed(|| node.run(&mut NullProbe));
    (secs, result.stats.loop_events, result.stats.stale_advances)
}

fn main() {
    let sim_secs: u64 = std::env::var("OSN_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
        .max(1);
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let seed = 0x0511_2011u64;
    let sim = Nanos::from_secs(sim_secs);

    let mut apps = Vec::new();
    let (mut tot_wall, mut tot_events) = (0.0f64, 0u64);
    for &app in App::ALL.iter() {
        // Warm-up (page in code + allocator), then timed reps.
        let (_, events, stale) = timed_run(app, sim, seed);
        let (wall_s, ()) = best_of(reps, || {
            let (secs, ev, _) = timed_run(app, sim, seed);
            assert_eq!(ev, events, "{}: loop_events differ across reps", app.name());
            (secs, ())
        });
        let row = AppRow {
            app: app.name().to_string(),
            sim_secs,
            events,
            stale_events: stale,
            wall_s,
            events_per_sec: events as f64 / wall_s,
        };
        println!(
            "{:>10}: {:>9} events  {:>8.1} kev/s",
            row.app,
            row.events,
            row.events_per_sec / 1e3
        );
        tot_wall += wall_s;
        tot_events += events;
        apps.push(row);
    }

    let report = Report {
        seed,
        reps,
        apps,
        aggregate_events_per_sec: tot_events as f64 / tot_wall,
    };
    println!(
        "aggregate: {} events in {:.2}s -> {:.1} kev/s",
        tot_events,
        tot_wall,
        report.aggregate_events_per_sec / 1e3
    );

    let path = osn_bench::write_bench_json(
        "BENCH_PR1.json",
        serde_json::to_vec(&report).expect("serializable"),
    );
    println!("wrote {}", path.display());
}
