//! Figure-level experiments: the FTQ validation of §III-C (Fig 1),
//! the FTQ execution-trace decomposition (Fig 2), and the noise
//! disambiguation demonstrations of §V (Figs 9 and 10).

use osn_analysis::chart::NoiseChart;
use osn_analysis::disambiguate::{
    composite_interruptions, confusable_pairs, Composite, ConfusablePair,
};
use osn_analysis::noise::{Components, Interruption, NoiseAnalysis};
use osn_ftq::series::{FtqComparison, FtqSeries};
use osn_ftq::sim::{series_from_trace, FtqParams, FtqWorkload};
use osn_kernel::config::NodeConfig;
use osn_kernel::ids::Tid;
use osn_kernel::node::{Node, RunResult};
use osn_kernel::time::Nanos;
use osn_trace::session::TraceSession;
use osn_trace::Trace;

use crate::experiment::AppRun;

/// A completed FTQ experiment: both the indirect (FTQ) and direct
/// (LTT NG-NOISE) views of the same run.
pub struct FtqExperiment {
    pub params: FtqParams,
    pub trace: Trace,
    pub result: RunResult,
    pub ftq_tid: Tid,
    pub analysis: NoiseAnalysis,
    /// Fig 1a: the FTQ sample series.
    pub series: FtqSeries,
    /// Fig 1b: the synthetic OS noise chart.
    pub chart: NoiseChart,
    /// §III-C: per-quantum comparison of the two.
    pub comparison: FtqComparison,
}

/// Run FTQ under tracing (Fig 1 experiment).
pub fn run_ftq(params: FtqParams, node_cfg: NodeConfig) -> FtqExperiment {
    let cpus = node_cfg.cpus as usize;
    let mut node = Node::new(node_cfg);
    let tid = node.spawn_process("ftq", Box::new(FtqWorkload::new(params)));
    let (session, mut tracer) = TraceSession::new(cpus, 1 << 21, osn_trace::EventMask::ALL);
    let result = node.run(&mut tracer);
    let trace = session.stop();
    let analysis = NoiseAnalysis::analyze(&trace, &result.tasks, result.end_time);
    let series = series_from_trace(&trace, &params).expect("FTQ produced samples");
    let chart = NoiseChart::build(&analysis, tid);
    let traced = chart.bucket(series.origin, series.quantum, series.ops.len());
    let comparison = FtqComparison::new(&series, &traced);
    FtqExperiment {
        params,
        trace,
        result,
        ftq_tid: tid,
        analysis,
        series,
        chart,
        comparison,
    }
}

/// The default Fig 1 configuration: FTQ alone on the paper's node.
pub fn fig1_config(samples: u32) -> (FtqParams, NodeConfig) {
    let params = FtqParams {
        samples,
        ..FtqParams::default()
    };
    let horizon = params.quantum * (samples as u64 + 20);
    let node = NodeConfig::default().with_horizon(horizon);
    (params, node)
}

/// Fig 2's interruption: the paper's exemplar contains a timer
/// interrupt, its softirq, the two schedule halves, and a daemon
/// preemption. Prefer an interruption with a preemption component and
/// a timer tick; fall back to the largest multi-component one.
pub fn fig2_interruption(exp: &FtqExperiment) -> Option<&Interruption> {
    use osn_analysis::noise::Component;
    use osn_kernel::activity::Activity;
    let tn = exp.analysis.tasks.get(&exp.ftq_tid)?;
    let interruptions = &tn.interruptions;
    let preempted = interruptions
        .iter()
        .filter(|i| {
            let components = tn.components(i);
            components.contains_activity(Activity::TimerInterrupt)
                && components
                    .iter()
                    .any(|(c, _)| matches!(c, Component::Preemption { .. }))
        })
        .max_by_key(|i| tn.components(i).len());
    preempted.or_else(|| {
        interruptions
            .iter()
            .filter(|i| tn.components(i).len() >= 3)
            .max_by_key(|i| i.duration())
    })
}

/// §V-B / Fig 9: quanta whose single FTQ spike hides multiple distinct
/// event classes *within one interruption*.
pub fn fig9_composites(exp: &FtqExperiment) -> Vec<Composite> {
    let interruptions = with_components(&exp.analysis, &[exp.ftq_tid]);
    composite_interruptions(&interruptions, 2)
}

/// §V-B / Fig 9, quantum-level: FTQ folds *all* events inside one
/// iteration into a single spike ("micro benchmarks are not able to
/// distinguish two unrelated events if they happen in the same
/// iteration"). Returns, per quantum that contains two or more
/// separate interruptions of *different* dominant classes, the quantum
/// index and the interruptions' (class, noise) pairs.
pub fn fig9_quantum_composites(
    exp: &FtqExperiment,
) -> Vec<(usize, Vec<(osn_analysis::EventClass, Nanos)>)> {
    use osn_analysis::disambiguate::dominant_class;
    let origin = exp.series.origin;
    let quantum = exp.series.quantum;
    let nq = exp.series.ops.len();
    let mut per_quantum: Vec<Vec<(osn_analysis::EventClass, Nanos)>> = vec![Vec::new(); nq];
    if let Some(tn) = exp.analysis.tasks.get(&exp.ftq_tid) {
        for i in &tn.interruptions {
            if i.start < origin {
                continue;
            }
            let idx = ((i.start - origin) / quantum) as usize;
            if idx >= nq {
                continue;
            }
            let components = tn.components(i);
            if let Some(class) = dominant_class(components) {
                per_quantum[idx].push((class, components.noise()));
            }
        }
    }
    per_quantum
        .into_iter()
        .enumerate()
        .filter(|(_, events)| events.len() >= 2 && events.iter().any(|(c, _)| *c != events[0].0))
        .collect()
}

/// The interruptions of `tids` in time order
/// ([`NoiseAnalysis::interruptions_of`]), each with its components.
fn with_components<'a>(
    analysis: &'a NoiseAnalysis,
    tids: &[Tid],
) -> Vec<(&'a Interruption, Components<'a>)> {
    analysis
        .interruptions_of(tids)
        .into_iter()
        .map(|i| (i, analysis.components(i)))
        .collect()
}

/// §V-A / Fig 10: near-identical interruptions with different causes
/// in an application run.
pub fn fig10_pairs(run: &AppRun, tolerance: Nanos, limit: usize) -> Vec<ConfusablePair> {
    let interruptions = with_components(&run.analysis, &run.ranks);
    confusable_pairs(&interruptions, tolerance, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ftq() -> FtqExperiment {
        let (params, node) = fig1_config(300);
        let node = node.with_cpus(2).with_seed(21);
        run_ftq(params, node)
    }

    #[test]
    fn fig1_series_and_chart_agree() {
        let exp = quick_ftq();
        assert_eq!(exp.series.ops.len(), 300);
        // The two methods see similar total noise (§III-C: "the data
        // output from these two methods are very similar").
        let (ftq_total, traced_total) = exp.comparison.totals();
        assert!(traced_total > Nanos::ZERO);
        let ratio = ftq_total.as_nanos() as f64 / traced_total.as_nanos().max(1) as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "ftq {ftq_total} vs traced {traced_total}"
        );
        // And per-quantum shapes correlate strongly.
        let corr = exp.comparison.correlation();
        assert!(corr > 0.8, "correlation {corr}");
    }

    #[test]
    fn fig1_ftq_overestimates_on_average() {
        let exp = quick_ftq();
        // "FTQ slightly overestimates the OS noise, for FTQ does not
        // account for partially completed basic operations."
        let frac = exp.comparison.overestimate_fraction();
        assert!(frac > 0.5, "overestimate fraction {frac}");
    }

    #[test]
    fn fig9_finds_composites_with_dense_buffer_faults() {
        // Page the sample buffer every 10 quanta so faults land on the
        // 10 ms tick boundaries: composite interruptions appear.
        let params = FtqParams {
            samples: 400,
            quanta_per_page: 10,
            ..FtqParams::default()
        };
        let node = NodeConfig::default()
            .with_cpus(2)
            .with_seed(33)
            .with_horizon(Nanos::from_millis(600));
        let exp = run_ftq(params, node);
        let composites = fig9_composites(&exp);
        assert!(!composites.is_empty(), "no composite interruptions found");
    }
}
