//! `cluster`: repeated 10 000-rank UMT curves on the `auto` tier — a
//! 128-node mechanistic sample of 600 ms on 2 CPUs per node, staggered
//! starts, 1 ms granularity, 2 workers. The surrogate fit and the BSP
//! coupling over synthetic ranks dominate; the kernel runs only the
//! sample, and the store and HTTP layers never run. One op is one curve.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use osn_core::analysis::collective::{NoiseSurrogate, RankSeries};
use osn_core::analysis::NoiseChart;
use osn_core::cluster::{run_cluster, ClusterConfig, Tier};
use osn_core::run_app;
use osn_core::workloads::App;

use crate::spans::{Profile, Spans};
use crate::workloads::{timed, Ctx, Measured};

const WORKERS: usize = 2;

fn config(ctx: &Ctx) -> ClusterConfig {
    let mut config = ClusterConfig::new(App::Umt, ctx.sizes.cluster_nodes, ctx.sizes.cluster_sim);
    config.seed = ctx.derive("cluster", 0);
    config.cpus = Some(2);
    config.workers = Some(WORKERS);
    config.tier = Tier::Auto;
    config
}

fn curve_bytes(config: &ClusterConfig) -> Vec<u8> {
    serde_json::to_vec(&run_cluster(config).report).expect("report serializes")
}

pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let config = config(ctx);

    // Set-up: the reference curve every later curve must reproduce.
    let mut reference: Option<Vec<u8>> = None;
    for _ in 0..ctx.setups() {
        let (s, bytes) = timed(|| curve_bytes(&config));
        m.setup_s.push(s);
        match &reference {
            Some(want) => {
                m.tally
                    .same_bytes(&bytes, want, "cluster curve across set-ups");
            }
            None => reference = Some(bytes),
        }
    }
    let reference = reference.expect("at least one set-up");
    let (untraced, traced) = ctx.phases();

    let start = Instant::now();
    while m.op_ms.is_empty() || start.elapsed() < untraced {
        let (s, bytes) = timed(|| curve_bytes(&config));
        m.op_ms.push(s * 1e3);
        m.tally.same_bytes(&bytes, &reference, "cluster curve");
    }
    m.detail = vec![(
        "ops_per_s".into(),
        m.op_ms.len() as f64 / start.elapsed().as_secs_f64(),
    )];

    if let Some(traced) = traced {
        run_traced(ctx, &config, &reference, traced, &mut m);
    }
    m
}

/// Each curve, then its mechanistic sample re-simulated on the same
/// worker count and the surrogate re-fitted, each as a span. What the
/// curve spends beyond those two is coupling, synthesis and the report.
fn run_traced(
    ctx: &Ctx,
    config: &ClusterConfig,
    reference: &[u8],
    phase: Duration,
    m: &mut Measured,
) {
    let mut spans = Spans::new(true, ctx.origin, 0);
    let plan = config.sample_plan();
    let start = Instant::now();
    let mut ops = 0;
    while ops == 0 || start.elapsed() < phase {
        spans.next_op();
        spans.begin("cluster.op");
        let bytes = spans.time("cluster.curve", || curve_bytes(config));
        m.tally
            .same_bytes(&bytes, reference, "traced cluster curve");
        let sample = spans.time("cluster.sample_sims", || {
            sample_series(config, &plan.mechanistic)
        });
        spans.time("analysis.surrogate_fit", || {
            std::hint::black_box(NoiseSurrogate::fit(&sample, config.granularity))
        });
        spans.end();
        ops += 1;
    }
    let spans = spans.finish();
    let p = Profile::new(&spans);
    m.traced_op_ms = p.durations_ms("cluster.curve");
    let per_op = |name| p.total_ms(name) / ops as f64;
    let (curve, sims, fit) = (
        per_op("cluster.curve"),
        per_op("cluster.sample_sims"),
        per_op("analysis.surrogate_fit"),
    );
    m.per_layer = vec![
        ("cluster.sample_sims_ms", sims),
        ("analysis.surrogate_fit_ms", fit),
        ("cluster.unattributed_ms", curve - sims - fit),
    ];
    m.spans = spans;
}

/// The mechanistic sample's rank series, simulated on `WORKERS` threads
/// exactly as the cluster engine builds them.
fn sample_series(config: &ClusterConfig, nodes: &[usize]) -> Vec<RankSeries> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<RankSeries>>> = Mutex::new(vec![None; nodes.len()]);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&node) = nodes.get(k) else { break };
                let run = run_app(config.node_experiment(node));
                let series = RankSeries::new(
                    NoiseChart::build(&run.analysis, run.observed_rank()),
                    run.result.end_time,
                );
                out.lock().expect("no sample thread panicked")[k] = Some(series);
            });
        }
    });
    out.into_inner()
        .expect("no sample thread panicked")
        .into_iter()
        .map(|s| s.expect("every sample node simulated"))
        .collect()
}
