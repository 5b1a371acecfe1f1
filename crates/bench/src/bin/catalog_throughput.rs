//! Catalog service throughput: queries/second against a live
//! in-process `osn-catalog` daemon at 1/4/16 concurrent keep-alive
//! clients running a mixed endpoint workload (listing, cached reports,
//! chunk-seek slices, histograms, signature compares, stats). Every
//! `/runs/{id}/report` response is differentially checked against the
//! offline report bytes, so the bench doubles as a byte-identity check
//! under load.
//!
//! Written to `target/bench/BENCH_PR9.json`. Knobs: `OSN_SECS`
//! (simulated seconds per recorded store, default 10), `OSN_REPS`
//! (default 3), `OSN_SEED`, `OSN_CATALOG_QUERIES` (queries per client
//! per rep, default 200).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use osn_bench::{duration, seed};
use osn_catalog::service::RunsResponse;
use osn_catalog::{Client, Service, ServiceConfig};
use osn_core::workloads::App;
use osn_core::ExperimentConfig;

use serde::Serialize;

#[derive(Serialize)]
struct ClientRow {
    clients: usize,
    /// Queries per client per rep.
    queries: usize,
    /// Best-of-reps wall time for all clients to drain their queries.
    run_s: f64,
    qps: f64,
    /// `None` when the host has fewer CPUs than client threads — a
    /// "speedup" measured on an oversubscribed host is scheduling
    /// noise, not concurrency, so it is suppressed rather than
    /// reported as a (dis)honest number.
    speedup_vs_1: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    sim_secs: u64,
    reps: usize,
    runs_indexed: usize,
    events_indexed: u64,
    /// `available_parallelism()` of the benchmarking host, recorded so
    /// the concurrency rows can be judged against real core counts.
    host_cpus: usize,
    rows: Vec<ClientRow>,
    aggregate_catalog_qps_c1: f64,
    aggregate_catalog_qps_c4: f64,
    aggregate_catalog_qps_c16: f64,
}

fn main() {
    let dur = duration();
    let sim_secs = dur.as_nanos() / 1_000_000_000;
    let seed = seed();
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let queries: usize = std::env::var("OSN_CATALOG_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
        .max(1);

    // Record two stores into a cache dir keyed by duration and seed;
    // repeats reuse them (the catalog re-indexes from the files).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/osn-cache")
        .join(format!("catalog-{sim_secs}s-{seed:x}"));
    std::fs::create_dir_all(&root).expect("create store dir");
    for (app, store_seed) in [(App::Sphot, seed), (App::Amg, seed + 1)] {
        let path = root.join(format!("{}.osn", app.name()));
        if path.exists() {
            continue;
        }
        let config = ExperimentConfig::paper(app, dur).with_seed(store_seed);
        osn_core::record_app(config, &path, osn_core::store::Options::default())
            .expect("record store");
        println!("recorded {}", path.display());
    }

    let mut config = ServiceConfig::new(root);
    config.threads = 16;
    config.rescan = None;
    let service = Service::start(config).expect("start service");
    let addr = service.addr();

    // Reference bytes for the differential check, fetched once.
    let mut probe = Client::connect(addr).expect("connect");
    let (status, body) = probe.get("/runs").expect("list runs");
    assert_eq!(status, 200);
    let runs: RunsResponse = serde_json::from_slice(&body).expect("parse /runs");
    assert_eq!(runs.count, 2, "both recorded stores indexed");
    let events_indexed: u64 = runs.runs.iter().map(|r| r.events).sum();
    let mut reports: HashMap<String, Vec<u8>> = HashMap::new();
    for run in &runs.runs {
        let (status, body) = probe
            .get(&format!("/runs/{}/report", run.id))
            .expect("fetch report");
        assert_eq!(status, 200);
        reports.insert(run.id.clone(), body);
    }

    // The mixed workload: each entry is (target, expected report id).
    let a = &runs.runs[0];
    let b = &runs.runs[1];
    let mid = a.span_start_ns + (a.span_end_ns - a.span_start_ns) / 2;
    let q1 = a.span_start_ns + (a.span_end_ns - a.span_start_ns) / 4;
    let targets: Arc<Vec<(String, Option<String>)>> = Arc::new(vec![
        ("/runs".to_string(), None),
        (format!("/runs/{}/report", a.id), Some(a.id.clone())),
        (format!("/runs/{}/slice?t0={q1}&t1={mid}", a.id), None),
        (format!("/runs/{}/report", b.id), Some(b.id.clone())),
        (
            format!("/runs/{}/histogram?class=page_fault&bins=64", a.id),
            None,
        ),
        (format!("/compare?a={}&b={}", a.id, b.id), None),
        ("/stats".to_string(), None),
        (
            format!(
                "/runs/{}/slice?t0={q1}&t1={mid}&class=timer_interrupt",
                b.id
            ),
            None,
        ),
    ]);
    let reports = Arc::new(reports);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<ClientRow> = Vec::new();
    for clients in [1usize, 4, 16] {
        let mut run_s = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::thread::scope(|s| {
                for worker in 0..clients {
                    let targets = Arc::clone(&targets);
                    let reports = Arc::clone(&reports);
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        for i in 0..queries {
                            let (target, expect) = &targets[(worker + i) % targets.len()];
                            let (status, body) = client.get(target).expect("query");
                            assert_eq!(status, 200, "GET {target}");
                            if let Some(id) = expect {
                                assert_eq!(&body, &reports[id], "report bytes diverged under load");
                            }
                        }
                    });
                }
            });
            run_s = run_s.min(t.elapsed().as_secs_f64());
        }
        let qps = (clients * queries) as f64 / run_s;
        let speedup_vs_1 =
            (clients <= host_cpus).then(|| rows.first().map(|r| qps / r.qps).unwrap_or(1.0));
        match speedup_vs_1 {
            Some(s) => println!(
                "{clients:>2} clients: {run_s:>7.3}s  {qps:>8.1} queries/s  speedup {s:>5.2}x"
            ),
            None => println!(
                "{clients:>2} clients: {run_s:>7.3}s  {qps:>8.1} queries/s  speedup n/a ({host_cpus} host CPUs)"
            ),
        }
        rows.push(ClientRow {
            clients,
            queries,
            run_s,
            qps,
            speedup_vs_1,
        });
    }

    let (qps_c1, qps_c4, qps_c16) = (rows[0].qps, rows[1].qps, rows[2].qps);
    let report = Report {
        seed,
        sim_secs,
        reps,
        runs_indexed: runs.count,
        events_indexed,
        host_cpus,
        rows,
        aggregate_catalog_qps_c1: qps_c1,
        aggregate_catalog_qps_c4: qps_c4,
        aggregate_catalog_qps_c16: qps_c16,
    };
    println!(
        "aggregate: {:.1} / {:.1} / {:.1} queries/s at 1/4/16 clients",
        report.aggregate_catalog_qps_c1,
        report.aggregate_catalog_qps_c4,
        report.aggregate_catalog_qps_c16
    );
    service.shutdown();

    let path = osn_bench::write_bench_json(
        "BENCH_PR9.json",
        serde_json::to_vec_pretty(&report).expect("serializable"),
    );
    println!("wrote {}", path.display());
}
