//! Analysis throughput: sharded/fused engine vs the retained sequential
//! reference, over real traces.
//!
//! Two sections, both written to `target/bench/BENCH_PR3.json`:
//!
//! * **Paper campaign** — for every Sequoia app, time the full analysis
//!   phase (trace → `NoiseAnalysis` → `AppReport`) through the new
//!   engine (`NoiseAnalysis::analyze` + fused `AppReport::from_analysis`)
//!   and the reference (`analyze_reference` + multi-pass
//!   `build_reference`), asserting the serialized reports are
//!   bit-identical — every timed rep doubles as a differential check.
//! * **Rank sweep** — ranks pushed past the CPU count, where the
//!   reference's O(ranks × instances) obstruction gather separates from
//!   the per-context index.
//!
//! Knobs: `OSN_SECS` — simulated seconds per campaign run (default 10);
//! `OSN_REPS` — timed repetitions, best kept (default 3); `OSN_SEED`.
//!
//! The campaign section is additionally merged into `BENCH_PR6.json`
//! under `analysis_*` keys (plus `aggregate_analysis_events_per_sec`,
//! total campaign events over total engine seconds) — the columnar
//! engine's headline throughput, shared with `store_throughput`'s
//! streaming metrics in the same file.

use osn_bench::{best_of, duration, load_or_run, seed, timed};
use osn_core::analysis::NoiseAnalysis;
use osn_core::report::AppReport;
use osn_core::trace::Event;
use osn_core::{run_app, AppRun, ExperimentConfig};
use osn_kernel::time::Nanos;
use osn_workloads::App;

use serde::Serialize;

#[derive(Serialize)]
struct AppRow {
    app: String,
    sim_secs: u64,
    events: usize,
    instances: usize,
    /// Best-of-reps wall-clock seconds for analyze + report assembly.
    reference_s: f64,
    engine_s: f64,
    reference_events_per_sec: f64,
    engine_events_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SweepRow {
    cpus: u16,
    ranks: usize,
    sim_secs: u64,
    events: usize,
    instances: usize,
    /// Best-of-reps wall-clock seconds for the analysis alone (no report).
    reference_s: f64,
    engine_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    reps: usize,
    host_workers: usize,
    apps: Vec<AppRow>,
    /// Total reference time over total engine time across the campaign.
    aggregate_speedup: f64,
    sweep: Vec<SweepRow>,
    largest_sweep_speedup: f64,
}

/// The reference engine over `events`, the run's trace already merged
/// into `(t, cpu)` order: the merge is left out of the timed region, as
/// the engine's inputs (the trace's columns) are.
fn analyze_reference(run: &AppRun, events: &[Event]) -> NoiseAnalysis {
    NoiseAnalysis::analyze_reference_events(events, &run.result.tasks, run.result.end_time)
}

fn analyze_engine(run: &AppRun) -> NoiseAnalysis {
    NoiseAnalysis::analyze(&run.trace, &run.result.tasks, run.result.end_time)
}

/// The engine's analysis phase: sharded analysis plus the fused report.
fn engine_report(run: &AppRun) -> AppReport {
    let analysis = analyze_engine(run);
    AppReport::from_analysis(run.app, &run.ranks, run.config.node.net_irq_cpu, &analysis)
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
    let host_workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);

    // ---- Paper campaign: full analysis phase, report included. ----
    let mut apps = Vec::new();
    let (mut tot_ref, mut tot_eng) = (0.0f64, 0.0f64);
    for &app in App::ALL.iter() {
        let run = load_or_run(app);
        let events = run.trace.events();
        // Warm-up rep of each side, then timed reps.
        let reference_report = AppReport::build_reference(&run, &analyze_reference(&run, &events));
        let engine_json = serde_json::to_vec(&engine_report(&run)).expect("serializable");
        let reference_json = serde_json::to_vec(&reference_report).expect("serializable");
        assert_eq!(
            reference_json,
            engine_json,
            "{}: engine report differs from reference",
            app.name()
        );

        let (reference_s, _) = best_of(reps, || {
            timed(|| AppReport::build_reference(&run, &analyze_reference(&run, &events)))
        });
        let (engine_s, _) = best_of(reps, || timed(|| engine_report(&run)));

        let row = AppRow {
            app: app.name().to_string(),
            sim_secs,
            events: run.trace.len(),
            instances: run.analysis.instances.len(),
            reference_s,
            engine_s,
            reference_events_per_sec: run.trace.len() as f64 / reference_s,
            engine_events_per_sec: run.trace.len() as f64 / engine_s,
            speedup: reference_s / engine_s,
        };
        println!(
            "{:>10}: {:>9} events  ref {:>8.1} kev/s  engine {:>8.1} kev/s  speedup {:.2}x",
            row.app,
            row.events,
            row.reference_events_per_sec / 1e3,
            row.engine_events_per_sec / 1e3,
            row.speedup
        );
        tot_ref += reference_s;
        tot_eng += engine_s;
        apps.push(row);
    }
    let aggregate_speedup = tot_ref / tot_eng;
    println!(
        "campaign aggregate: ref {:.3}s vs engine {:.3}s -> {:.2}x",
        tot_ref, tot_eng, aggregate_speedup
    );

    // ---- Rank sweep: quadratic gather vs per-context index. ----
    let sweep_secs = (sim_secs / 2).max(2);
    let sweep_sim = Nanos::from_secs(sweep_secs);
    let mut sweep = Vec::new();
    let mut largest_sweep_speedup = 0.0f64;
    for ranks in [8usize, 32, 64, 256] {
        let cpus = 8u16;
        let mut config = ExperimentConfig::paper(App::Amg, sweep_sim).with_seed(seed);
        config.node.cpus = cpus;
        config.nranks = ranks;
        let run = run_app(config);
        let events = run.trace.events();

        // Differential check once per configuration.
        let reference = analyze_reference(&run, &events);
        assert_eq!(
            run.analysis.instances, reference.instances,
            "sweep ranks={ranks}: instances differ"
        );
        for (tid, tn) in &run.analysis.tasks {
            assert_eq!(
                Some(&tn.interruptions),
                reference.tasks.get(tid).map(|t| &t.interruptions),
                "sweep ranks={ranks}: interruptions of {tid} differ"
            );
            assert!(
                Some(tn) == reference.tasks.get(tid),
                "sweep ranks={ranks}: components of {tid} differ"
            );
        }

        let (reference_s, _) = best_of(reps, || timed(|| analyze_reference(&run, &events)));
        let (engine_s, _) = best_of(reps, || timed(|| analyze_engine(&run)));
        let row = SweepRow {
            cpus,
            ranks,
            sim_secs: sweep_secs,
            events: run.trace.len(),
            instances: reference.instances.len(),
            reference_s,
            engine_s,
            speedup: reference_s / engine_s,
        };
        println!(
            "sweep ranks={:>3} on {} cpus: {:>9} events  ref {:>7.3}s  engine {:>7.3}s  speedup {:.2}x",
            row.ranks, row.cpus, row.events, row.reference_s, row.engine_s, row.speedup
        );
        largest_sweep_speedup = row.speedup;
        sweep.push(row);
    }

    let report = Report {
        seed,
        reps,
        host_workers,
        apps,
        aggregate_speedup,
        sweep,
        largest_sweep_speedup,
    };
    let path = osn_bench::write_bench_json(
        "BENCH_PR3.json",
        serde_json::to_vec(&report).expect("serializable"),
    );
    println!("wrote {}", path.display());

    // ---- BENCH_PR6.json analysis section (shared with store_throughput). ----
    let tot_events: usize = report.apps.iter().map(|r| r.events).sum();
    let aggregate_analysis_events_per_sec = tot_events as f64 / tot_eng;
    let own = vec![
        ("analysis_seed".to_string(), serde::Value::U64(seed)),
        ("analysis_reps".to_string(), serde::Value::U64(reps as u64)),
        (
            "analysis_host_workers".to_string(),
            serde::Value::U64(host_workers as u64),
        ),
        (
            "analysis_apps".to_string(),
            serde_json::to_value(&report.apps).expect("report renders as JSON"),
        ),
        (
            "analysis_aggregate_speedup_vs_reference".to_string(),
            serde::Value::F64(aggregate_speedup),
        ),
        (
            "aggregate_analysis_events_per_sec".to_string(),
            serde::Value::F64(aggregate_analysis_events_per_sec),
        ),
    ];
    let pr6 = osn_bench::merge_bench_json("BENCH_PR6.json", own, |k| {
        k.starts_with("analysis") || k == "aggregate_analysis_events_per_sec"
    });
    println!(
        "wrote {} (aggregate {:.1} Mev/s over the campaign)",
        pr6.display(),
        aggregate_analysis_events_per_sec / 1e6
    );
}
