//! Single-application experiment driver: spawn, trace, analyze.

use osn_analysis::NoiseAnalysis;
use osn_kernel::config::NodeConfig;
use osn_kernel::ids::{JobId, Tid};
use osn_kernel::node::{Node, RunResult};
use osn_kernel::time::Nanos;
use osn_trace::session::{EventMask, TraceSession};
use osn_trace::Trace;
use osn_workloads::App;

use serde::{Deserialize, Serialize};

/// Configuration of one traced application run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    pub app: App,
    /// MPI ranks (the paper: "8 MPI tasks (one task per core)").
    pub nranks: usize,
    /// Target application duration.
    pub duration: Nanos,
    pub node: NodeConfig,
    /// Per-CPU ring capacity (records).
    pub ring_capacity: usize,
}

impl ExperimentConfig {
    /// The paper's setup for one app: 8 ranks on 8 CPUs.
    pub fn paper(app: App, duration: Nanos) -> Self {
        let node = NodeConfig::default().with_horizon(duration * 3);
        ExperimentConfig {
            app,
            nranks: node.cpus as usize,
            duration,
            node,
            ring_capacity: 1 << 21,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.node.seed = seed;
        self
    }

    /// Build a node from `node` and put the application on it: the
    /// ranks as one job, then each helper process as `python.<i>`.
    /// Returns the node, ready to run, and the ranks' job.
    pub fn spawn(&self, node: NodeConfig) -> (Node, JobId) {
        let mut node = Node::new(node);
        let job = node.spawn_job(
            self.app.name(),
            osn_workloads::ranks(self.app, self.nranks, self.duration),
        );
        for (i, helper) in osn_workloads::helpers(self.app, self.duration)
            .into_iter()
            .enumerate()
        {
            node.spawn_process(&format!("python.{i}"), helper);
        }
        (node, job)
    }
}

/// A completed traced run of one application.
pub struct AppRun {
    pub app: App,
    pub config: ExperimentConfig,
    pub trace: Trace,
    pub result: RunResult,
    /// Tids of the application's ranks.
    pub ranks: Vec<Tid>,
    pub analysis: NoiseAnalysis,
}

impl AppRun {
    /// The wall basis for per-rank frequencies: the longest rank
    /// extent.
    pub fn wall(&self) -> Nanos {
        osn_analysis::stats::wall_of(&self.analysis, &self.ranks)
    }

    /// The *observed process* for the paper's per-process tables: the
    /// rank that spends the most time running on the network-IRQ CPU
    /// (the paper's per-process rates — 100 tick ev/s, net-IRQ rates
    /// equal to the node's RPC response rate — correspond to tracing
    /// the process co-located with the interrupt CPU).
    pub fn observed_rank(&self) -> Tid {
        observed_rank_of(&self.analysis, &self.ranks, self.config.node.net_irq_cpu)
    }
}

/// [`AppRun::observed_rank`] against an arbitrary analysis.
pub fn observed_rank_of(
    analysis: &NoiseAnalysis,
    ranks: &[Tid],
    irq_cpu: osn_kernel::ids::CpuId,
) -> Tid {
    use osn_analysis::timeline::Phase;
    ranks
        .iter()
        .copied()
        .max_by_key(|tid| {
            analysis
                .timelines
                .get(*tid)
                .map(|tl| tl.time_where(|p| p == Phase::Running(irq_cpu)).as_nanos())
                .unwrap_or(0)
        })
        .unwrap_or(Tid::IDLE)
}

/// Run one application under full tracing and analyze the trace.
pub fn run_app(config: ExperimentConfig) -> AppRun {
    let (mut node, job) = config.spawn(config.node.clone());
    let (session, mut tracer) = TraceSession::new(
        config.node.cpus as usize,
        config.ring_capacity,
        EventMask::ALL,
    );
    let result = node.run(&mut tracer);
    let trace = session.stop();
    let ranks = result.job_ranks(job);
    let analysis = NoiseAnalysis::analyze(&trace, &result.tasks, result.end_time);
    AppRun {
        app: config.app,
        config,
        trace,
        result,
        ranks,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_amg_run_produces_analysis() {
        let mut config = ExperimentConfig::paper(App::Amg, Nanos::from_millis(300));
        config.node.cpus = 4;
        config.nranks = 4;
        let run = run_app(config);
        assert_eq!(run.ranks.len(), 4);
        assert!(
            run.trace.len() > 100,
            "trace has {} events",
            run.trace.len()
        );
        assert_eq!(run.trace.total_lost(), 0, "ring too small");
        assert!(run.analysis.nesting_report.is_clean());
        // Every rank accumulated some noise.
        for tid in &run.ranks {
            let tn = run.analysis.tasks.get(tid).expect("rank analyzed");
            assert!(tn.total_noise() > Nanos::ZERO, "{tid} saw no noise");
        }
        assert!(run.wall() > Nanos::from_millis(100));
        // Page faults happened (AMG's signature).
        assert!(run.result.stats.faults > 100);
    }
}
