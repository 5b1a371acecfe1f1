//! Cluster engine throughput: node simulations per second as the
//! worker-thread count scales, with every timed rep doubling as a
//! determinism check (the serialized report must be byte-identical
//! across reps *and* across thread counts).
//!
//! Written to `target/bench/BENCH_PR5.json`. Knobs: `OSN_SECS`
//! (per-node simulated seconds, default 10), `OSN_REPS` (default 3),
//! `OSN_SEED`, `OSN_CLUSTER_NODES` (default 8).

use std::time::Instant;

use osn_bench::seed;
use osn_core::cluster::{run_cluster, ClusterConfig};
use osn_core::kernel::time::Nanos;
use osn_core::workloads::App;

use serde::Serialize;

#[derive(Serialize)]
struct WorkerRow {
    workers: usize,
    /// Best-of-reps wall time for the whole campaign (sims + coupling
    /// + report).
    run_s: f64,
    nodes_per_sec: f64,
    /// `None` when the host has fewer CPUs than worker threads — a
    /// "speedup" measured on an oversubscribed host is scheduling
    /// noise, not parallel efficiency, so it is suppressed rather
    /// than reported as a (dis)honest number.
    speedup_vs_1: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    reps: usize,
    app: String,
    nodes: usize,
    sim_secs: u64,
    granularity_us: u64,
    /// `available_parallelism()` of the benchmarking host, recorded so
    /// per-worker rows can be judged against real core counts.
    host_cpus: usize,
    rows: Vec<WorkerRow>,
    /// Peak simulation throughput over the thread-count sweep — the
    /// gated metric (higher is better).
    aggregate_nodes_per_sec: f64,
}

fn main() {
    let sim_secs: u64 = std::env::var("OSN_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
        .max(1);
    let nodes: usize = std::env::var("OSN_CLUSTER_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(2);
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let seed = seed();

    let mut config = ClusterConfig::new(App::Amg, nodes, Nanos::from_secs(sim_secs));
    config.cpus = Some(2);
    config.seed = seed;

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<WorkerRow> = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 4, 8] {
        config.workers = Some(workers);
        let mut run_s = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let outcome = run_cluster(&config);
            run_s = run_s.min(t.elapsed().as_secs_f64());
            let json = serde_json::to_vec(&outcome.report).expect("serializable");
            match &reference {
                Some(expected) => assert_eq!(
                    &json, expected,
                    "report differs at {workers} workers — determinism broken"
                ),
                None => reference = Some(json),
            }
        }
        let nodes_per_sec = nodes as f64 / run_s;
        let speedup_vs_1 =
            (workers <= host_cpus).then(|| rows.first().map(|r| r.run_s / run_s).unwrap_or(1.0));
        match speedup_vs_1 {
            Some(s) => println!(
                "{workers:>2} workers: {run_s:>7.3}s  {nodes_per_sec:>6.2} nodes/s  speedup {s:>5.2}x"
            ),
            None => println!(
                "{workers:>2} workers: {run_s:>7.3}s  {nodes_per_sec:>6.2} nodes/s  speedup n/a ({host_cpus} host CPUs)"
            ),
        }
        rows.push(WorkerRow {
            workers,
            run_s,
            nodes_per_sec,
            speedup_vs_1,
        });
    }

    let aggregate = rows.iter().map(|r| r.nodes_per_sec).fold(0.0, f64::max);
    let report = Report {
        seed,
        reps,
        app: App::Amg.name().to_string(),
        nodes,
        sim_secs,
        granularity_us: config.granularity.as_nanos() / 1_000,
        host_cpus,
        rows,
        aggregate_nodes_per_sec: aggregate,
    };
    println!("aggregate: {aggregate:.2} nodes/s peak");
    let path = osn_bench::write_bench_json(
        "BENCH_PR5.json",
        serde_json::to_vec(&report).expect("serializable"),
    );
    println!("wrote {}", path.display());
}
