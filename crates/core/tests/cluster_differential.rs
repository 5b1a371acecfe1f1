//! Differential validation of the mechanistic cluster engine.
//!
//! Three contracts:
//!
//! 1. **Mechanistic vs analytic.** The fixed-grid coupling (the
//!    analytic model's sampling assumptions, run mechanistically) must
//!    agree with `ScaleModel`'s Monte-Carlo `E[max_N W]` over the
//!    pooled windows within statistical tolerance, and the full
//!    mechanistic run must land in the same ballpark — above the
//!    single-node mean (amplification is real) and near the analytic
//!    expectation (the model explains what the simulation pays).
//!
//! 2. **Determinism.** A fixed campaign seed yields a byte-identical
//!    serialized report regardless of worker-thread count.
//!
//! 3. **Stored path.** Spilling every node to an `.osn` store during
//!    the run and re-deriving the report out-of-core is byte-identical
//!    to the in-memory path.

use osn_core::cluster::{run_cluster, run_cluster_stored, ClusterConfig, RunOpts};
use osn_core::store::Options;
use osn_kernel::time::Nanos;
use osn_workloads::App;

fn config(app: App, nodes: usize, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(app, nodes, Nanos::from_millis(600));
    config.cpus = Some(2);
    config.seed = seed;
    config
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-cluster-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mechanistic_amplification_matches_scale_model() {
    // AMG is the noisy workload — the amplification signal is largest.
    let seeds = [77u64, 1234, 0xDEAD];
    let mut ratios = Vec::new();
    for seed in seeds {
        let r = run_cluster(&config(App::Amg, 6, seed)).report;
        assert!(r.phases > 300, "seed {seed}: only {} phases", r.phases);

        // Tight differential: grid coupling vs pooled-window analytic
        // model. Same windows, same max-over-N statistic; they differ
        // only by Monte-Carlo error and sampling with/without
        // replacement.
        assert!(
            (0.7..=1.4).contains(&r.grid_over_analytic),
            "seed {seed}: grid/analytic {} out of tolerance (grid {}, analytic {})",
            r.grid_over_analytic,
            r.grid_mean_max_noise,
            r.pooled_expected_max,
        );
        ratios.push(r.grid_over_analytic);

        // The full mechanistic dynamics (skew, elongation, slack
        // absorption, staggered starts) must amplify — the barrier
        // pays at least the mean single-node window noise — and stay
        // in the analytic ballpark.
        assert!(
            r.mean_max_noise >= r.single_node_mean_noise,
            "seed {seed}: no amplification ({} < {})",
            r.mean_max_noise,
            r.single_node_mean_noise,
        );
        let mech_over_pooled =
            r.mean_max_noise.as_nanos() as f64 / r.pooled_expected_max.as_nanos().max(1) as f64;
        assert!(
            (0.5..=2.0).contains(&mech_over_pooled),
            "seed {seed}: mechanistic {} vs pooled analytic {} (ratio {mech_over_pooled})",
            r.mean_max_noise,
            r.pooled_expected_max,
        );

        // The analytic amplification curve is monotone in N, and the
        // mechanistic curve ends above where it starts.
        for pair in r.curve.windows(2) {
            assert!(
                pair[1].analytic_expected_max >= pair[0].analytic_expected_max,
                "seed {seed}: analytic curve not monotone",
            );
        }
        let first = r.curve.first().unwrap();
        let last = r.curve.last().unwrap();
        assert!(
            last.mean_max_noise >= first.mean_max_noise,
            "seed {seed}: mechanistic curve fell from {} to {}",
            first.mean_max_noise,
            last.mean_max_noise,
        );
    }
    // Across seeds the estimator is unbiased: the mean ratio is within
    // a few percent of 1.
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (0.85..=1.15).contains(&mean),
        "mean grid/analytic ratio {mean} biased (per-seed: {ratios:?})",
    );
}

#[test]
fn aligned_starts_suppress_amplification() {
    // The co-scheduled ablation: with stagger off, every node's
    // periodic noise hits the same phase window, so the max over ranks
    // amplifies far less than independent sampling predicts.
    let staggered = config(App::Amg, 6, 77);
    let mut aligned = staggered.clone();
    aligned.stagger = false;
    let s = run_cluster(&staggered).report;
    let a = run_cluster(&aligned).report;
    assert!(a.node_starts.iter().all(|t| t.is_zero()));
    assert!(s.node_starts.iter().any(|t| !t.is_zero()));
    assert!(
        a.grid_over_analytic < 0.8 * s.grid_over_analytic,
        "aligned {} vs staggered {}: co-scheduling should suppress amplification",
        a.grid_over_analytic,
        s.grid_over_analytic,
    );
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let mut reports = Vec::new();
    for workers in [1usize, 4, 8] {
        let mut c = config(App::Sphot, 4, 42);
        c.workers = Some(workers);
        let json = serde_json::to_string(&run_cluster(&c).report).unwrap();
        reports.push((workers, json));
    }
    for (workers, json) in &reports[1..] {
        assert_eq!(
            json, &reports[0].1,
            "report differs between 1 and {workers} workers",
        );
    }
}

/// Injection schedules derive from the campaign seed, never from
/// worker scheduling: a faulted campaign (one injection of every
/// class, kernel and cluster tier) is byte-identical across worker
/// counts, for several seeds.
#[test]
fn injected_report_is_byte_identical_across_worker_counts() {
    for seed in [7u64, 1234, 0xDEAD] {
        let mut reports = Vec::new();
        for workers in [1usize, 4, 8] {
            let mut c = config(App::Sphot, 4, seed);
            c.max_phases = 150;
            c.inject = osn_core::parse_inject_spec(
                "steal:interval=5ms,duration=100us,node=1; \
                 dvfs:period=20ms,duty=0.3,factor=2,node=2; \
                 numa:split=1,factor=2,node=3; \
                 crash:node=1,at=50ms,down=20ms; \
                 straggler:node=2,factor=1.2; \
                 partition:node=3,at=100ms,dur=100ms,delay=300us; \
                 jitter:mean=10us",
            )
            .unwrap();
            c.workers = Some(workers);
            let json = serde_json::to_string(&run_cluster(&c).report).unwrap();
            reports.push((workers, json));
        }
        for (workers, json) in &reports[1..] {
            assert_eq!(
                json, &reports[0].1,
                "seed {seed}: injected report differs between 1 and {workers} workers",
            );
        }
    }
}

#[test]
fn stored_path_report_matches_in_memory() {
    let c = config(App::Sphot, 3, 9);
    let in_memory = serde_json::to_string(&run_cluster(&c).report).unwrap();
    let dir = tmpdir("stored");
    let (stored, paths) =
        run_cluster_stored(&c, &dir, Options::default(), RunOpts::default()).unwrap();
    assert_eq!(paths.len(), 3);
    for p in &paths {
        assert!(p.exists(), "{} missing", p.display());
    }
    assert_eq!(serde_json::to_string(&stored).unwrap(), in_memory);
    std::fs::remove_dir_all(&dir).ok();
}
