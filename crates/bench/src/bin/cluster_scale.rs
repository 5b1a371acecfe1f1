//! Tiered cluster scaling: what the surrogate tier buys and what it
//! costs. Three sections, all in `target/bench/BENCH_PR8.json`:
//!
//! 1. **Validation scales** (64/256/512 nodes): full-mechanistic vs
//!    `sampled:0.25` on the same seed — wall time for each tier and
//!    the sampled/mechanistic amplification ratio (the fidelity
//!    number; 1.0 = perfect).
//! 2. **Extension scales** (10k/100k ranks): the tiers mechanistic
//!    simulation cannot reach in bench time. The speedup denominator
//!    is a real measurement, not an extrapolation: one full-
//!    mechanistic 10k-rank campaign of the exact extension config
//!    took 435 s (23.0 nodes/s, mean max noise 2.238 ms) — see
//!    `MECH_10K_*` below. Extension rows are therefore pinned to that
//!    baseline's seed; set `OSN_SCALE_FULL_MECH=1` to re-measure the
//!    baseline in-run (minutes) instead, which also unpins the seed.
//! 3. **Regimes** at 10k ranks: staggered vs aligned tick phases; the
//!    aligned run must keep the sub-analytic absorption regime
//!    (mechanistic finding: 0.33-0.70x of the analytic `E[max]`).
//!
//! Gated aggregates: `aggregate_effective_nodes_per_sec_10k` (higher
//! is better; the auto tier's staggered 10k point),
//! `aggregate_tier_speedup` (that point over the measured mechanistic
//! 23.0 nodes/s; the tentpole demands >= 100x),
//! `aggregate_validation_ratio_error` (lower is better; max |ratio-1|
//! over the validation scales, clamped to a 0.02 deadband so
//! seed-level jitter inside the fidelity envelope cannot flap the
//! gate).
//!
//! Knobs: `OSN_SEED` (validation scales; extension scales only with
//! `OSN_SCALE_FULL_MECH=1`), `OSN_REPS` (best-of wall-time reps,
//! default 2), `OSN_SCALE_MS` (per-node simulated milliseconds,
//! default 600 — the envelope validated by `tier_differential`),
//! `OSN_SCALE_MAX` (largest extension scale, default 100_000).

use std::time::Instant;

use osn_bench::seed;
use osn_core::cluster::{run_cluster, ClusterConfig, ClusterReport, Tier};
use osn_core::kernel::time::Nanos;
use osn_core::workloads::App;

use serde::Serialize;

#[derive(Serialize)]
struct ValidationRow {
    nodes: usize,
    mech_s: f64,
    sampled_s: f64,
    mech_nodes_per_sec: f64,
    mech_mean_max_ns: u64,
    sampled_mean_max_ns: u64,
    /// sampled / mechanistic mean per-phase critical noise.
    ratio: f64,
}

#[derive(Serialize)]
struct ScaleRow {
    ranks: usize,
    staggered: bool,
    mechanistic_sample: usize,
    run_s: f64,
    effective_nodes_per_sec: f64,
    mean_max_ns: u64,
    slowdown: f64,
    /// mean max noise over the analytic order-statistics expectation
    /// at the same N (the regime indicator: aligned absorbs to
    /// 0.33-0.70x through the unsaturated sub-scales).
    vs_analytic: f64,
    /// mean max noise over the full-mechanistic 10k baseline's
    /// (staggered 10k rows only — the fidelity-vs-speed dial).
    vs_mechanistic: Option<f64>,
}

/// One full-mechanistic 10k-rank campaign of the extension config
/// (UMT, 600 ms, 1 ms granularity, 2 cpus, staggered, seed 7),
/// measured 2026-08-08: 435 s wall (1-CPU container, the CI
/// environment). Re-measure with `OSN_SCALE_FULL_MECH=1`.
const MECH_10K_SEED: u64 = 7;
const MECH_10K_NODES_PER_SEC: f64 = 23.0;
const MECH_10K_MEAN_MAX_NS: u64 = 2_238_000;

#[derive(Serialize)]
struct Report {
    seed: u64,
    reps: usize,
    app: String,
    sim_ms: u64,
    granularity_us: u64,
    host_cpus: usize,
    /// The full-mechanistic 10k-rank speedup denominator and whether
    /// it was re-measured in this run (`OSN_SCALE_FULL_MECH=1`) or
    /// taken from the recorded `MECH_10K_*` measurement.
    mech_10k_nodes_per_sec: f64,
    mech_10k_mean_max_ns: u64,
    mech_10k_measured_in_run: bool,
    validation: Vec<ValidationRow>,
    scale: Vec<ScaleRow>,
    aggregate_effective_nodes_per_sec_10k: f64,
    aggregate_tier_speedup: f64,
    aggregate_validation_ratio_error: f64,
}

fn config(app: App, nodes: usize, dur: Nanos, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(app, nodes, dur);
    c.cpus = Some(2);
    c.seed = seed;
    c
}

fn timed(c: &ClusterConfig, reps: usize) -> (f64, ClusterReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        report = Some(run_cluster(c).report);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, report.expect("at least one rep"))
}

fn vs_analytic(r: &ClusterReport) -> f64 {
    let p = r.curve.last().expect("curve has the full-scale point");
    p.mean_max_noise.as_nanos() as f64 / p.analytic_expected_max.as_nanos().max(1) as f64
}

fn main() {
    let sim_ms: u64 = std::env::var("OSN_SCALE_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600)
        .max(50);
    let max_ranks: usize = std::env::var("OSN_SCALE_MAX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000)
        .max(10_000);
    let reps: usize = std::env::var("OSN_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
        .max(1);
    let seed = seed();
    let dur = Nanos::from_millis(sim_ms);
    let app = App::Umt;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // 1. Validation scales: both tiers affordable, same seed.
    let mut validation = Vec::new();
    for nodes in [64usize, 256, 512] {
        let (mech_s, mech) = timed(&config(app, nodes, dur, seed), reps);
        let mut c = config(app, nodes, dur, seed);
        c.tier = Tier::Sampled { fraction: 0.25 };
        let (sampled_s, sampled) = timed(&c, reps);
        let ratio =
            sampled.mean_max_noise.as_nanos() as f64 / mech.mean_max_noise.as_nanos().max(1) as f64;
        let mech_nodes_per_sec = nodes as f64 / mech_s;
        println!(
            "validate {nodes:>4} nodes: mech {mech_s:>7.2}s ({mech_nodes_per_sec:>6.1} nodes/s)  \
             sampled {sampled_s:>6.2}s  ratio {ratio:.4}"
        );
        validation.push(ValidationRow {
            nodes,
            mech_s,
            sampled_s,
            mech_nodes_per_sec,
            mech_mean_max_ns: mech.mean_max_noise.as_nanos(),
            sampled_mean_max_ns: sampled.mean_max_noise.as_nanos(),
            ratio,
        });
    }

    // 2 + 3. Extension scales. The mechanistic baseline is the
    // measured full 10k campaign (MECH_10K_*), so the extension rows
    // run on its seed; OSN_SCALE_FULL_MECH=1 re-measures the baseline
    // here (expect ~7 minutes) and keeps OSN_SEED in force.
    let full_mech = std::env::var("OSN_SCALE_FULL_MECH").is_ok_and(|v| v == "1");
    let (ext_seed, mech_nps_10k, mech_mean_max_10k) = if full_mech {
        println!("measuring full-mechanistic 10k baseline (seed {seed})...");
        let (mech_s, mech) = timed(&config(app, 10_000, dur, seed), 1);
        let nps = 10_000.0 / mech_s;
        println!(
            "baseline 10000 ranks (mechanistic): {mech_s:>7.2}s  {nps:>8.1} nodes/s  \
             mean max {:.3}ms",
            mech.mean_max_noise.as_nanos() as f64 / 1e6,
        );
        (seed, nps, mech.mean_max_noise.as_nanos())
    } else {
        (MECH_10K_SEED, MECH_10K_NODES_PER_SEC, MECH_10K_MEAN_MAX_NS)
    };
    let mut scale = Vec::new();
    let mut eff_10k = 0.0f64;
    // (ranks, staggered, tier). At 10k: the auto tier's 128-node
    // sample is the headline point (staggered + aligned for the
    // regime check), and a 256-node sample shows the fidelity end of
    // the dial — at this operating point it tracks the measured
    // mechanistic mean-max within a few permil at ~4x the baseline
    // documented cost of auto.
    let mut points: Vec<(usize, bool, Tier)> = vec![
        (10_000, true, Tier::Auto),
        (10_000, false, Tier::Auto),
        (10_000, true, Tier::Sampled { fraction: 0.0256 }),
    ];
    if max_ranks > 10_000 {
        points.push((max_ranks, true, Tier::Auto));
    }
    for (ranks, staggered, tier) in points {
        let mut c = config(app, ranks, dur, ext_seed);
        c.tier = tier;
        c.stagger = staggered;
        let (run_s, r) = timed(&c, reps);
        let effective_nodes_per_sec = ranks as f64 / run_s;
        let t = r.tier.as_ref().expect("extension tiers are sampled");
        let va = vs_analytic(&r);
        let vm = (staggered && ranks == 10_000)
            .then(|| r.mean_max_noise.as_nanos() as f64 / mech_mean_max_10k.max(1) as f64);
        if staggered && ranks == 10_000 && tier == Tier::Auto {
            eff_10k = effective_nodes_per_sec;
        }
        println!(
            "scale {ranks:>6} ranks ({}, {:>4}-node sample): {run_s:>7.2}s  \
             {effective_nodes_per_sec:>8.0} nodes/s  slowdown {:.4}x  vs analytic {va:.3}{}",
            if staggered { "staggered" } else { "aligned" },
            t.mechanistic_nodes,
            r.slowdown,
            vm.map(|v| format!("  vs mech {v:.3}")).unwrap_or_default(),
        );
        scale.push(ScaleRow {
            ranks,
            staggered,
            mechanistic_sample: t.mechanistic_nodes,
            run_s,
            effective_nodes_per_sec,
            mean_max_ns: r.mean_max_noise.as_nanos(),
            slowdown: r.slowdown,
            vs_analytic: va,
            vs_mechanistic: vm,
        });
    }

    let ratio_error = validation
        .iter()
        .map(|v| (v.ratio - 1.0).abs())
        .fold(0.0, f64::max)
        .max(0.02);
    let tier_speedup = eff_10k / mech_nps_10k.max(1e-9);
    println!(
        "aggregate: {eff_10k:.0} effective nodes/s at 10k ({tier_speedup:.0}x the measured \
         {mech_nps_10k:.1} nodes/s mechanistic baseline), validation ratio error {ratio_error:.3}"
    );

    let report = Report {
        seed,
        reps,
        app: app.name().to_string(),
        sim_ms,
        granularity_us: 1_000,
        host_cpus,
        mech_10k_nodes_per_sec: mech_nps_10k,
        mech_10k_mean_max_ns: mech_mean_max_10k,
        mech_10k_measured_in_run: full_mech,
        validation,
        scale,
        aggregate_effective_nodes_per_sec_10k: eff_10k,
        aggregate_tier_speedup: tier_speedup,
        aggregate_validation_ratio_error: ratio_error,
    };
    let path = osn_bench::write_bench_json(
        "BENCH_PR8.json",
        serde_json::to_vec(&report).expect("serializable"),
    );
    println!("wrote {}", path.display());
}
