//! Cross-crate pipeline tests: store round trips, export, lossy-trace
//! degradation, tracer configuration, and the overhead experiment on
//! real end-to-end runs.

use std::path::PathBuf;

use osnoise::analysis::NoiseAnalysis;
use osnoise::core::{load_run, persist_run, run_app, ExperimentConfig};
use osnoise::ftq::sim::{series_from_trace, FtqParams, FtqWorkload};
use osnoise::kernel::node::Node;
use osnoise::kernel::prelude::*;
use osnoise::paraver;
use osnoise::store::writer::write_store;
use osnoise::store::{StoreOptions, StoreReader};
use osnoise::trace::session::{EventMask, TraceSession};
use osnoise::workloads::App;

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osn-pipeline-{tag}-{}.osn", std::process::id()))
}

fn small_run() -> osnoise::core::AppRun {
    let mut config = ExperimentConfig::paper(App::Irs, Nanos::from_millis(600));
    config.node.cpus = 4;
    config.nranks = 4;
    run_app(config)
}

#[test]
fn wire_roundtrip_on_a_real_trace() {
    let run = small_run();
    let path = store_path("real");
    persist_run(&run, &path, StoreOptions::default()).expect("persist");
    let loaded = load_run(&path).expect("own store must load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.trace.events, run.trace.events);
    assert_eq!(loaded.trace.lost, run.trace.lost);

    // Re-analysis of the loaded trace gives identical noise totals.
    assert_eq!(loaded.ranks, run.ranks);
    for tid in &run.ranks {
        assert_eq!(
            loaded.analysis.tasks[tid].total_noise(),
            run.analysis.tasks[tid].total_noise()
        );
    }
}

#[test]
fn paraver_export_validates_on_a_real_trace() {
    let run = small_run();
    let prv = paraver::write_full_prv(
        &run.trace,
        &run.analysis.instances,
        &run.result.tasks,
        run.result.end_time,
    );
    let records =
        paraver::validate_prv(&prv, run.result.tasks.len(), run.config.node.cpus as usize)
            .expect("generated .prv validates");
    assert!(records > 1_000);
    // Companion files generate without panicking and mention tasks.
    let pcf = paraver::pcf::write_pcf();
    assert!(pcf.contains("run_timer_softirq"));
    let row = paraver::row::write_row(run.config.node.cpus as usize, &run.result.tasks);
    assert!(row.contains("irs.0"));
}

#[test]
fn lossy_trace_degrades_gracefully() {
    // A deliberately tiny ring loses most records; analysis must not
    // panic and must report the damage honestly.
    let cfg = NodeConfig::default()
        .with_cpus(2)
        .with_horizon(Nanos::from_millis(300))
        .with_seed(3);
    let mut node = Node::new(cfg);
    node.spawn_job(
        "busy",
        osnoise::workloads::ranks(App::Amg, 2, Nanos::from_millis(200)),
    );
    let (session, mut tracer) = TraceSession::new(2, 64, EventMask::ALL);
    let result = node.run(&mut tracer);
    let trace = session.stop();
    assert!(
        trace.total_lost() > 0,
        "expected losses with a 64-slot ring"
    );

    let analysis = NoiseAnalysis::analyze(&trace, &result.tasks, result.end_time);
    // The nesting report surfaces the corruption instead of hiding it.
    assert!(
        !analysis.nesting_report.is_clean(),
        "losses should show up as unmatched events"
    );
}

#[test]
fn event_mask_reduces_trace_volume() {
    let run_with = |mask: EventMask| {
        let cfg = NodeConfig::default()
            .with_cpus(2)
            .with_horizon(Nanos::from_millis(300))
            .with_seed(9);
        let mut node = Node::new(cfg);
        node.spawn_job(
            "w",
            osnoise::workloads::ranks(App::Sphot, 2, Nanos::from_millis(200)),
        );
        let (session, mut tracer) = TraceSession::new(2, 1 << 18, mask);
        node.run(&mut tracer);
        session.stop()
    };
    let full = run_with(EventMask::ALL);
    let kernel_only = run_with(EventMask::KERNEL);
    let sched_only = run_with(EventMask::SCHED);
    assert!(kernel_only.len() < full.len());
    assert!(sched_only.len() < kernel_only.len());
    assert!(!full.is_empty() && !sched_only.is_empty());
    // Identical simulation under the hood: kernel-only events are a
    // subset of the full trace's events.
    let full_kernel = full
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                osnoise::trace::EventKind::KernelEnter(_)
                    | osnoise::trace::EventKind::KernelExit(_)
            )
        })
        .count();
    assert_eq!(full_kernel, kernel_only.len());
}

#[test]
fn ftq_series_survives_the_wire() {
    let params = FtqParams {
        samples: 200,
        ..FtqParams::default()
    };
    let cfg = NodeConfig::default()
        .with_cpus(1)
        .with_horizon(Nanos::from_millis(300))
        .with_seed(4);
    let mut node = Node::new(cfg);
    node.spawn_process("ftq", Box::new(FtqWorkload::new(params)));
    let (session, mut tracer) = TraceSession::with_defaults(1);
    node.run(&mut tracer);
    let trace = session.stop();

    let direct = series_from_trace(&trace, &params).expect("series");
    let path = store_path("ftq");
    write_store(&path, &trace, &[], StoreOptions::default()).expect("write");
    let roundtripped = StoreReader::open(&path).unwrap().read_trace().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(roundtripped.events, trace.events);
    let indirect = series_from_trace(&roundtripped, &params).expect("series");
    assert_eq!(direct, indirect);
    assert_eq!(direct.ops.len(), 200);
}

#[test]
fn probe_overhead_experiment_is_sub_percent() {
    use osnoise::trace::overhead::{measure_overhead_avg, LTTNG_CLASS_OVERHEAD};
    let config = ExperimentConfig::paper(App::Amg, Nanos::from_secs(2));
    // A single traced-vs-untraced comparison is dominated by timing
    // butterfly effects; average a few seeds, as the paper's multi-app
    // average does.
    let seeds = [11u64, 12, 13, 14, 15, 16, 17, 18];
    let report = measure_overhead_avg(&config.node, LTTNG_CLASS_OVERHEAD, &seeds, |node_cfg| {
        let mut node = Node::new(node_cfg);
        node.spawn_job(
            "amg",
            osnoise::workloads::ranks(App::Amg, 8, Nanos::from_secs(2)),
        );
        node
    });
    assert!(
        report.percent().abs() < 1.5,
        "overhead {:.3}% (paper: ~0.28%)",
        report.percent()
    );
}

#[test]
fn matlab_exports_match_analysis() {
    use osnoise::analysis::chart::NoiseChart;
    let run = small_run();
    let chart = NoiseChart::build(&run.analysis, run.observed_rank());
    let csv = paraver::matlab::chart_csv(&chart);
    // Header + one row per point.
    assert_eq!(csv.lines().count(), chart.points.len() + 1);
    // Total noise recoverable from the CSV.
    let total: u64 = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(1).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(Nanos(total), chart.total_noise());
}
