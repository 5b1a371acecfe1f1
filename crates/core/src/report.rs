//! Paper-report assembly: every table and figure of the evaluation,
//! computed from traced runs, plus text renderers for the bench
//! binaries and EXPERIMENTS.md.

use std::fmt::Write as _;

use osn_analysis::breakdown::Breakdown;
use osn_analysis::histogram::Histogram;
use osn_analysis::stats::{
    class_samples, class_stats, wall_of, ClassColumns, EventClass, EventStats,
};
use osn_analysis::NoiseAnalysis;
use osn_kernel::activity::NoiseCategory;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_workloads::App;

use serde::Serialize;

use crate::experiment::{observed_rank_of, AppRun};

/// Everything the paper reports about one application.
#[derive(Clone, Debug, Serialize)]
pub struct AppReport {
    pub app: App,
    pub nranks: usize,
    /// Application wall time (longest rank).
    pub wall: Nanos,
    /// Fig 3: noise fraction per category.
    pub breakdown: Vec<(NoiseCategory, f64)>,
    /// Total noise / runnable time.
    pub noise_ratio: f64,
    /// Tables I–VI rows: per-event-class statistics of the *observed
    /// process* — rank 0, which starts on the network-IRQ CPU. The
    /// paper's per-process rates (100 tick ev/s; net-IRQ rates equal to
    /// the node's RPC response rate) are consistent with analyzing the
    /// process co-located with the interrupt CPU.
    pub classes: Vec<(EventClass, EventStats)>,
    /// Histograms for Figs 4 (page faults), 6 (rebalance), 8 (timer
    /// softirq).
    pub fault_hist: Histogram,
    pub rebalance_hist: Histogram,
    pub timer_softirq_hist: Histogram,
}

/// Histogram shapes of Figs 4, 6 and 8.
const FAULT_BINS: usize = 60;
const REBALANCE_BINS: usize = 40;
const TIMER_SOFTIRQ_BINS: usize = 40;
const HIST_PCT: f64 = 99.0;

impl AppReport {
    /// Assemble the report from the run's (sharded-engine) analysis
    /// through [`AppReport::from_analysis`].
    pub fn build(run: &AppRun) -> AppReport {
        Self::from_analysis(
            run.app,
            &run.ranks,
            run.config.node.net_irq_cpu,
            &run.analysis,
        )
    }

    /// The assembly from bare parts — no [`AppRun`] (and hence no
    /// materialized trace) needed. This is the out-of-core entry point:
    /// `osn-store` streaming analysis reports through here. One
    /// [`ClassColumns`] walk over the ranks replaces the breakdown +
    /// three histogram-sample passes of [`AppReport::build_reference`].
    pub fn from_analysis(
        app: App,
        ranks: &[Tid],
        net_irq_cpu: CpuId,
        analysis: &NoiseAnalysis,
    ) -> AppReport {
        let columns = ClassColumns::build(analysis, ranks);
        Self::from_columns(app, ranks, net_irq_cpu, analysis, &columns)
    }

    /// [`AppReport::from_analysis`] over the ranks' columns
    /// (`ClassColumns::build(analysis, ranks)`), for a caller that keeps
    /// them: they give the breakdown, wall and histograms, and the
    /// observed rank's own columns give the Tables I–VI rows.
    pub fn from_columns(
        app: App,
        ranks: &[Tid],
        net_irq_cpu: CpuId,
        analysis: &NoiseAnalysis,
        columns: &ClassColumns,
    ) -> AppReport {
        let observed = [observed_rank_of(analysis, ranks, net_irq_cpu)];
        let breakdown = columns.breakdown();
        let hist = |class: EventClass, bins: usize| columns.histogram(class, bins, HIST_PCT);
        AppReport {
            app,
            nranks: ranks.len().max(1),
            wall: columns.wall(),
            breakdown: breakdown.fractions(),
            noise_ratio: breakdown.noise_ratio(),
            classes: ClassColumns::build(analysis, &observed).all_stats(),
            fault_hist: hist(EventClass::PageFault, FAULT_BINS),
            rebalance_hist: hist(EventClass::RebalanceDomains, REBALANCE_BINS),
            timer_softirq_hist: hist(EventClass::RunTimerSoftirq, TIMER_SOFTIRQ_BINS),
        }
    }

    /// The retained multi-pass assembly (the pre-fusion seed path),
    /// over an independently supplied analysis — the differential-test
    /// oracle and benchmark baseline.
    pub fn build_reference(run: &AppRun, analysis: &NoiseAnalysis) -> AppReport {
        let nranks = run.ranks.len().max(1);
        let b = Breakdown::compute(analysis, &run.ranks);
        let observed = [observed_rank_of(
            analysis,
            &run.ranks,
            run.config.node.net_irq_cpu,
        )];
        let classes = EventClass::ALL
            .iter()
            .map(|class| (*class, class_stats(analysis, &observed, *class)))
            .collect();
        let hist = |class: EventClass, bins: usize| {
            Histogram::build(&class_samples(analysis, &run.ranks, class), bins, HIST_PCT)
        };
        AppReport {
            app: run.app,
            nranks,
            wall: wall_of(analysis, &run.ranks),
            breakdown: b.fractions(),
            noise_ratio: b.noise_ratio(),
            classes,
            fault_hist: hist(EventClass::PageFault, FAULT_BINS),
            rebalance_hist: hist(EventClass::RebalanceDomains, REBALANCE_BINS),
            timer_softirq_hist: hist(EventClass::RunTimerSoftirq, TIMER_SOFTIRQ_BINS),
        }
    }

    pub fn stats(&self, class: EventClass) -> EventStats {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
            .unwrap_or_else(EventStats::empty)
    }

    pub fn fraction(&self, cat: NoiseCategory) -> f64 {
        self.breakdown
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    }
}

/// The full paper report (all five Sequoia applications).
#[derive(Clone, Debug, Serialize)]
pub struct PaperReport {
    pub apps: Vec<AppReport>,
}

impl PaperReport {
    pub fn build(runs: &[AppRun]) -> PaperReport {
        PaperReport {
            apps: runs.iter().map(AppReport::build).collect(),
        }
    }

    /// Rebuild the full report through the retained sequential engine:
    /// every run is re-analyzed with
    /// [`NoiseAnalysis::analyze_reference`] and assembled with the
    /// multi-pass [`AppReport::build_reference`]. The differential test
    /// asserts this is bit-identical to [`PaperReport::build`].
    pub fn build_reference(runs: &[AppRun]) -> PaperReport {
        PaperReport {
            apps: runs
                .iter()
                .map(|run| {
                    let analysis = NoiseAnalysis::analyze_reference(
                        &run.trace,
                        &run.result.tasks,
                        run.result.end_time,
                    );
                    AppReport::build_reference(run, &analysis)
                })
                .collect(),
        }
    }

    pub fn app(&self, app: App) -> Option<&AppReport> {
        self.apps.iter().find(|a| a.app == app)
    }

    /// Render one of the paper's statistics tables (I, II, III, IV, V
    /// or VI, depending on the class).
    pub fn render_table(&self, class: EventClass) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>14} {:>10}",
            "", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"
        );
        for report in &self.apps {
            let s = report.stats(class);
            let _ = writeln!(
                out,
                "{:<8} {:>12.0} {:>12} {:>14} {:>10}",
                report.app.name().to_uppercase(),
                s.freq_per_sec,
                s.avg.as_nanos(),
                s.max.as_nanos(),
                s.min.as_nanos()
            );
        }
        out
    }

    /// Render the Fig 3 breakdown as a percentage table.
    pub fn render_breakdown(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<8}", "");
        for cat in NoiseCategory::NOISE {
            let _ = write!(out, " {:>12}", cat.name());
        }
        let _ = writeln!(out, " {:>12}", "noise/run");
        for report in &self.apps {
            let _ = write!(out, "{:<8}", report.app.name().to_uppercase());
            for cat in NoiseCategory::NOISE {
                let _ = write!(out, " {:>11.1}%", report.fraction(cat) * 100.0);
            }
            let _ = writeln!(out, " {:>11.3}%", report.noise_ratio * 100.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_app, ExperimentConfig};

    fn tiny_run(app: App) -> AppRun {
        let mut config = ExperimentConfig::paper(app, Nanos::from_millis(250));
        config.node.cpus = 4;
        config.nranks = 4;
        run_app(config)
    }

    #[test]
    fn report_builds_and_renders() {
        let run = tiny_run(App::Sphot);
        let report = PaperReport::build(std::slice::from_ref(&run));
        let app = report.app(App::Sphot).expect("sphot present");
        // Timer ticks at ~100/s per rank.
        let timer = app.stats(EventClass::TimerInterrupt);
        assert!(
            (40.0..=200.0).contains(&timer.freq_per_sec),
            "tick freq {}",
            timer.freq_per_sec
        );
        // Fractions sum to ~1.
        let total: f64 = app.breakdown.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions sum {total}");
        // Render paths don't panic and contain the app name.
        assert!(report.render_table(EventClass::PageFault).contains("SPHOT"));
        assert!(report.render_breakdown().contains("SPHOT"));
        // Serializes.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("Sphot"));
    }
}
