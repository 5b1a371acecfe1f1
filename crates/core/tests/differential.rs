//! Differential test for the parallel sharded analysis engine: on a
//! real two-app paper campaign, the sharded/fused pipeline must produce
//! a bit-identical `PaperReport` to the retained sequential reference
//! (global reconstruction, single-walk timelines, quadratic gather,
//! multi-pass statistics), and the one-pass noise signature must equal
//! the per-class statistics it replaced.

use osn_analysis::{class_stats, ClassColumns, EventClass, NoiseAnalysis, NoiseSignature};
use osn_core::campaign::{run_campaign, CampaignConfig};
use osn_core::report::PaperReport;
use osn_kernel::time::Nanos;
use osn_workloads::App;

#[test]
fn parallel_engine_matches_sequential_reference() {
    let config = CampaignConfig {
        apps: vec![App::Sphot, App::Amg],
        duration: Nanos::from_millis(250),
        seed: 0x0511_2011,
        nranks: Some(4),
        cpus: Some(4),
    };
    let runs = run_campaign(&config);

    for run in &runs {
        let reference =
            NoiseAnalysis::analyze_reference(&run.trace, &run.result.tasks, run.result.end_time);

        // Intermediate layers are already identical, not just the final
        // report: instances, anomaly counts, and per-task noise.
        assert_eq!(
            run.analysis.instances,
            reference.instances,
            "{}: instance lists differ",
            run.app.name()
        );
        assert_eq!(
            run.analysis.nesting_report,
            reference.nesting_report,
            "{}: nesting reports differ",
            run.app.name()
        );
        assert_eq!(
            run.analysis.tasks.len(),
            reference.tasks.len(),
            "{}: analyzed task sets differ",
            run.app.name()
        );
        for (tid, tn) in &run.analysis.tasks {
            let rn = reference
                .tasks
                .get(tid)
                .unwrap_or_else(|| panic!("{}: {tid} missing in reference", run.app.name()));
            assert_eq!(
                tn.interruptions,
                rn.interruptions,
                "{}: interruptions of {tid} differ",
                run.app.name()
            );
            assert_eq!(tn.runnable_time, rn.runnable_time);
            assert_eq!(tn.running_time, rn.running_time);
            assert_eq!(tn.wall, rn.wall);
            assert!(tn == rn, "{}: components of {tid} differ", run.app.name());
        }
        // Enough work happened for the comparison to mean something.
        assert!(
            !run.analysis.instances.is_empty(),
            "{}: empty instance list",
            run.app.name()
        );
    }

    // End to end: the fused single-pass report equals the multi-pass
    // reference report, bit for bit, through serialization.
    let fused = PaperReport::build(&runs);
    let reference = PaperReport::build_reference(&runs);
    let fused_json = serde_json::to_string(&fused).expect("serialize fused");
    let reference_json = serde_json::to_string(&reference).expect("serialize reference");
    assert_eq!(fused_json, reference_json, "paper reports differ");
}

/// `NoiseSignature::build` folds every class in one pass; on all five
/// apps it must equal a signature assembled from ten separate
/// `class_stats` calls, float for float.
#[test]
fn one_pass_signature_matches_per_class_reference() {
    let config = CampaignConfig {
        apps: App::ALL.to_vec(),
        duration: Nanos::from_millis(150),
        seed: 0x0511_2011,
        nranks: Some(2),
        cpus: Some(2),
    };
    let runs = run_campaign(&config);
    assert_eq!(runs.len(), 5);

    for run in &runs {
        let name = run.app.name();
        let per_class: Vec<_> = EventClass::ALL
            .iter()
            .map(|c| (*c, class_stats(&run.analysis, &run.ranks, *c)))
            .collect();
        assert_eq!(
            ClassColumns::build(&run.analysis, &run.ranks).all_stats(),
            per_class,
            "{name}"
        );
        for tid in &run.ranks {
            let one: Vec<_> = EventClass::ALL
                .iter()
                .map(|c| (*c, class_stats(&run.analysis, &[*tid], *c)))
                .collect();
            assert_eq!(
                ClassColumns::build(&run.analysis, &[*tid]).all_stats(),
                one,
                "{name} {tid}"
            );
        }

        let total: Nanos = per_class.iter().map(|(_, s)| s.total).sum();
        assert!(!total.is_zero(), "{name}: no noise to compare");
        let signature = NoiseSignature::build(&run.analysis, &run.ranks);
        assert_eq!(signature.total_noise, total, "{name}");
        assert_eq!(signature.entries.len(), per_class.len(), "{name}");
        for (entry, (class, s)) in signature.entries.iter().zip(&per_class) {
            assert_eq!(entry.class, *class, "{name}");
            assert_eq!(
                entry.freq_per_sec.to_bits(),
                s.freq_per_sec.to_bits(),
                "{name}"
            );
            assert_eq!(entry.mean_ns.to_bits(), (s.avg.as_nanos() as f64).to_bits());
            let share = s.total.as_nanos() as f64 / total.as_nanos() as f64;
            assert_eq!(entry.share.to_bits(), share.to_bits(), "{name} {class:?}");
        }
    }
}
