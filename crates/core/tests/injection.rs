//! Differential validation of deterministic perturbation injection.
//!
//! Two contracts:
//!
//! 1. **Additivity.** Injection disabled is a strict no-op: a node
//!    configured with an explicitly empty [`KernelPerturbations`] is
//!    byte-identical to the default configuration — the injection
//!    hooks draw no randomness and push no events when off.
//!
//! 2. **Attribution.** Each injected class surfaces as the right new
//!    row: hypervisor steal time appears as the `steal` activity in
//!    the trace and as the `Steal` class in the noise signature, and
//!    signature drift against the healthy baseline flags it as an
//!    appearing class — across several seeds.

use osn_analysis::signature::NoiseSignature;
use osn_analysis::stats::EventClass;
use osn_core::{run_app, ExperimentConfig};
use osn_kernel::activity::Activity;
use osn_kernel::prelude::{DvfsSpec, KernelPerturbations, StealSpec};
use osn_kernel::time::Nanos;
use osn_workloads::App;

fn base(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(App::Sphot, Nanos::from_millis(300)).with_seed(seed);
    config.node.cpus = 2;
    config.nranks = 2;
    config
}

#[test]
fn empty_perturbations_are_byte_identical_to_default() {
    for seed in [7u64, 77, 0xBEEF] {
        let healthy = run_app(base(seed));
        let mut explicit = base(seed);
        explicit.node.perturb = KernelPerturbations::default();
        let empty = run_app(explicit);
        assert_eq!(
            healthy.trace.events(),
            empty.trace.events(),
            "seed {seed}: an empty injection config must not alter the trace"
        );
        assert_eq!(healthy.trace.lost, empty.trace.lost);
        assert_eq!(healthy.result.end_time, empty.result.end_time);
    }
}

#[test]
fn steal_injection_appears_as_new_signature_row() {
    for seed in [7u64, 77, 0xBEEF] {
        let healthy = run_app(base(seed));
        let mut cfg = base(seed);
        cfg.node.perturb.steal.push(StealSpec {
            cpu: None,
            mean_interval: Nanos::from_millis(2),
            mean_duration: Nanos::from_micros(100),
        });
        let stolen = run_app(cfg);

        // The trace carries the new activity...
        let has_steal = stolen
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, osn_trace::EventKind::KernelEnter(Activity::Steal)));
        assert!(has_steal, "seed {seed}: no steal frames in the trace");
        assert!(
            !healthy
                .trace
                .events()
                .iter()
                .any(|e| matches!(e.kind, osn_trace::EventKind::KernelEnter(Activity::Steal))),
            "seed {seed}: healthy run must not contain steal frames"
        );

        // ...the signature grows the Steal row...
        let sig = NoiseSignature::build(&stolen.analysis, &stolen.ranks);
        let sig_healthy = NoiseSignature::build(&healthy.analysis, &healthy.ranks);
        let steal_row = sig.entry(EventClass::Steal);
        assert!(
            steal_row.is_some_and(|e| e.share > 0.0),
            "seed {seed}: Steal signature row empty"
        );
        assert!(
            sig_healthy
                .entry(EventClass::Steal)
                .is_none_or(|e| e.share == 0.0),
            "seed {seed}: healthy signature must have no Steal noise"
        );

        // ...and drift against the healthy baseline flags it as an
        // appearing class (infinite frequency ratio).
        let drifts = sig.drift(&sig_healthy, 1.5);
        let steal_drift = drifts.iter().find(|d| d.class == EventClass::Steal);
        assert!(
            steal_drift.is_some_and(|d| d.freq_ratio.is_infinite()),
            "seed {seed}: drift did not attribute the appearing Steal class: {drifts:?}"
        );
    }
}

#[test]
fn dvfs_injection_inflates_kernel_costs() {
    for seed in [7u64, 77, 0xBEEF] {
        let healthy = run_app(base(seed));
        let mut cfg = base(seed);
        // Permanent 4x throttle (duty 1.0): every kernel activity
        // costs 4x, so total noise must rise sharply.
        cfg.node.perturb.dvfs.push(DvfsSpec {
            cpu: None,
            period: Nanos::from_millis(10),
            duty: 1.0,
            factor: 4.0,
        });
        let throttled = run_app(cfg);
        let sig = NoiseSignature::build(&throttled.analysis, &throttled.ranks);
        let sig_healthy = NoiseSignature::build(&healthy.analysis, &healthy.ranks);
        assert!(
            sig.total_noise > sig_healthy.total_noise * 2,
            "seed {seed}: 4x throttle raised total noise only from {} to {}",
            sig_healthy.total_noise,
            sig.total_noise
        );
    }
}
