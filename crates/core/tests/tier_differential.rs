//! Differential validation of the tiered cluster engine.
//!
//! Four contracts:
//!
//! 1. **Degenerate tier.** `sampled:1.0` leaves no rank to synthesize,
//!    so its serialized report is byte-identical to the mechanistic
//!    path's.
//!
//! 2. **Surrogate fidelity.** At sub-scales where both tiers are
//!    affordable, a `sampled:0.25` campaign's amplification must land
//!    within [0.9, 1.1] of the full-mechanistic ground truth — across
//!    node counts and seeds.
//!
//! 3. **Determinism.** Tiered reports are byte-identical across
//!    worker-thread counts (the sampling plan and every synthetic draw
//!    are pure functions of the config).
//!
//! 4. **Injection composition.** Cluster-tier faults attribute
//!    correctly whether they land on a mechanistic or a synthetic
//!    rank.
//!
//! 5. **Golden bytes.** Three small reports hash to pinned FNV-1a-64
//!    values, so a report that drifts from an earlier build fails here
//!    even when every run of the new build agrees with itself.

use osn_core::cluster::{parse_inject_spec, run_cluster, ClusterConfig, Tier};
use osn_kernel::time::Nanos;
use osn_trace::wire::fnv1a64;
use osn_workloads::App;

fn config(app: App, nodes: usize, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(app, nodes, Nanos::from_millis(600));
    config.cpus = Some(2);
    config.seed = seed;
    config
}

#[test]
fn sampled_full_fraction_is_byte_identical_to_mechanistic() {
    let mut mech = config(App::Sphot, 6, 41);
    mech.tier = Tier::Mechanistic;
    let mut full = config(App::Sphot, 6, 41);
    full.tier = Tier::Sampled { fraction: 1.0 };
    let a = serde_json::to_string(&run_cluster(&mech).report).unwrap();
    let b = serde_json::to_string(&run_cluster(&full).report).unwrap();
    assert_eq!(a, b, "sampled:1.0 must collapse to the mechanistic path");
}

#[test]
fn sampled_quarter_amplification_matches_mechanistic() {
    // The load-bearing tolerance of the tiered engine: at every
    // sub-scale where full mechanistic is affordable, the sampled
    // campaign's mean per-phase critical noise must agree with ground
    // truth within 10%.
    //
    // UMT is the fidelity workload: it is the heaviest faulter in the
    // suite (3554 faults/s) but never triggers anon-reclaim storms, so
    // its per-node noise mass is not dominated by single sub-Pareto
    // (alpha < 1) draws. AMG's 69 ms reclaim tail makes per-realization
    // agreement information-theoretically unreachable for any sampled
    // estimator (one unsampled storm moves ground truth by 2x); that
    // envelope boundary is documented in DESIGN.md.
    let seeds = [7u64, 17, 55];
    for nodes in [64usize, 128, 256] {
        for seed in seeds {
            let mech = run_cluster(&config(App::Umt, nodes, seed)).report;
            let mut sampled_config = config(App::Umt, nodes, seed);
            sampled_config.tier = Tier::Sampled { fraction: 0.25 };
            let sampled = run_cluster(&sampled_config).report;
            let t = sampled.tier.as_ref().expect("tiered report metadata");
            assert_eq!(t.mechanistic_nodes, nodes / 4);
            assert_eq!(t.synthetic_nodes, nodes - nodes / 4);
            let ratio = sampled.mean_max_noise.as_nanos() as f64
                / mech.mean_max_noise.as_nanos().max(1) as f64;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{nodes} nodes, seed {seed}: sampled/mechanistic amplification \
                 {ratio:.4} out of [0.9, 1.1] (sampled {}, mechanistic {})",
                sampled.mean_max_noise,
                mech.mean_max_noise,
            );
            // The embedded self-validation (surrogate twins vs the
            // mechanistic sample) must agree too. Sub-scales below 16
            // ranks are skipped: E[max] over so few draws is noisy
            // enough that twin scatter alone spans +-30%.
            for v in t.validation.iter().filter(|v| v.nodes >= 16) {
                assert!(
                    (0.85..=1.15).contains(&v.ratio),
                    "{nodes} nodes, seed {seed}: self-validation @ {} ranks \
                     ratio {:.4} (surrogate {}, mechanistic {})",
                    v.nodes,
                    v.ratio,
                    v.surrogate_mean_max,
                    v.mechanistic_mean_max,
                );
            }
        }
    }
}

#[test]
fn tiered_report_is_byte_identical_across_worker_counts() {
    let mut reports = Vec::new();
    for workers in [1usize, 4, 8] {
        let mut c = config(App::Amg, 48, 99);
        c.tier = Tier::Sampled { fraction: 0.25 };
        c.workers = Some(workers);
        reports.push(serde_json::to_string(&run_cluster(&c).report).unwrap());
    }
    assert_eq!(reports[0], reports[1], "1 vs 4 workers");
    assert_eq!(reports[0], reports[2], "1 vs 8 workers");
}

#[test]
fn crash_attributes_on_mechanistic_and_synthetic_ranks() {
    // Build a tiered campaign, then crash (i) a rank inside the
    // mechanistic sample and (ii) a synthetic rank. Both must show up
    // as Crash barrier time, and the crashed rank must pace the
    // barrier while it is down.
    let mut base = config(App::Sphot, 32, 7);
    base.tier = Tier::Sampled { fraction: 0.25 };
    let plan = base.sample_plan();
    let mech_rank = plan.mechanistic[0];
    let synth_rank = (0..32)
        .find(|i| !plan.mechanistic.contains(i))
        .expect("some rank is synthetic");

    for (tag, victim) in [("mechanistic", mech_rank), ("synthetic", synth_rank)] {
        let mut c = base.clone();
        c.inject = parse_inject_spec(&format!("crash:node={victim},at=100ms,down=80ms")).unwrap();
        // Cluster-tier faults never change the sampling plan.
        assert_eq!(c.sample_plan(), plan, "{tag}: plan moved under injection");
        let r = run_cluster(&c).report;
        let crash = r
            .barrier_injected
            .iter()
            .find(|(class, _)| class.name() == "crash")
            .map(|(_, d)| *d)
            .unwrap();
        assert!(
            crash >= Nanos::from_millis(70),
            "{tag} rank {victim}: crash paid only {crash} at the barrier"
        );
        // The outage pays on the victim's side of the ledger: a
        // mechanistic victim appears in its rank row, a synthetic one
        // in the folded summary.
        if victim == mech_rank {
            let row = r.ranks.iter().find(|x| x.rank == victim).unwrap();
            assert!(
                row.self_noise >= Nanos::from_millis(70),
                "{tag}: victim row self-noise {}",
                row.self_noise
            );
        } else {
            let s = r.synthetic_ranks.as_ref().unwrap();
            assert!(
                s.max_self_noise >= Nanos::from_millis(70),
                "{tag}: synthetic max self-noise {}",
                s.max_self_noise
            );
        }
    }
}

/// FNV-1a-64 of the serialized report of `c`.
fn report_hash(c: &ClusterConfig) -> u64 {
    fnv1a64(&serde_json::to_vec(&run_cluster(c).report).unwrap())
}

#[test]
fn tiered_reports_match_pinned_golden_bytes() {
    // Staggered `sampled`: synthetic ranks, surrogate validation, the
    // folded synthetic summary.
    let mut staggered = config(App::Sphot, 32, 7);
    staggered.tier = Tier::Sampled { fraction: 0.25 };
    // Every cluster-tier fault class on a tiered AMG campaign: node 1
    // is synthetic, nodes 2 and 3 are in the mechanistic sample.
    let mut faulted = config(App::Amg, 32, 99);
    faulted.tier = Tier::Sampled { fraction: 0.25 };
    faulted.inject = parse_inject_spec(
        "crash:node=1,at=100ms,down=30ms; straggler:node=2,factor=1.2; \
         partition:node=3,at=50ms,dur=150ms,delay=500us; jitter:mean=10us",
    )
    .unwrap();
    // Fully mechanistic with phase-aligned starts.
    let mut aligned = config(App::Sphot, 6, 41);
    aligned.stagger = false;
    for (name, c, want) in [
        ("staggered sampled", &staggered, 0x42d5_e682_9769_34d9u64),
        ("faulted AMG sampled:0.25", &faulted, 0xe4c1_6330_e2b2_bb27),
        ("mechanistic aligned", &aligned, 0x8982_0469_b7b8_0228),
    ] {
        let got = report_hash(c);
        assert_eq!(got, want, "{name}: report hash {got:#018x} drifted");
    }
}
