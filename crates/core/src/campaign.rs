//! Multi-application campaigns: run the whole Sequoia suite (each app
//! on its own simulated node, as in the paper's one-app-at-a-time
//! experiments), in parallel across host threads.

use osn_analysis::{default_workers, parallel_map};
use osn_kernel::time::Nanos;
use osn_workloads::App;

use crate::experiment::{run_app, AppRun, ExperimentConfig};
use crate::report::PaperReport;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub apps: Vec<App>,
    pub duration: Nanos,
    pub seed: u64,
    /// Ranks per app (defaults to one per CPU).
    pub nranks: Option<usize>,
    pub cpus: Option<u16>,
}

impl CampaignConfig {
    pub fn paper(duration: Nanos) -> Self {
        CampaignConfig {
            apps: App::ALL.to_vec(),
            duration,
            seed: 0x0511_2011,
            nranks: None,
            cpus: None,
        }
    }

    fn experiment(&self, app: App) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper(app, self.duration).with_seed(self.seed);
        if let Some(cpus) = self.cpus {
            config.node.cpus = cpus;
            config.nranks = cpus as usize;
        }
        if let Some(nranks) = self.nranks {
            config.nranks = nranks;
        }
        config
    }
}

/// Run every app of the campaign in parallel (the simulations are
/// independent nodes) on [`parallel_map`]'s pool of at most the
/// calling thread's worker budget (`available_parallelism()` at top
/// level). Each app's analysis runs inside its worker on that worker's
/// share of the budget, so the nested pools together never start more
/// threads than the budget. Results come back in `config.apps` order
/// regardless of completion order.
pub fn run_campaign(config: &CampaignConfig) -> Vec<AppRun> {
    let napps = config.apps.len();
    parallel_map(napps, default_workers(napps), |idx| {
        run_app(config.experiment(config.apps[idx]))
    })
}

/// Convenience: run the campaign and build the paper report.
pub fn campaign_report(config: &CampaignConfig) -> (Vec<AppRun>, PaperReport) {
    let runs = run_campaign(config);
    let report = PaperReport::build(&runs);
    (runs, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_app_campaign_runs_in_parallel() {
        let config = CampaignConfig {
            apps: vec![App::Sphot, App::Lammps],
            duration: Nanos::from_millis(200),
            seed: 5,
            nranks: Some(2),
            cpus: Some(2),
        };
        let (runs, report) = campaign_report(&config);
        assert_eq!(runs.len(), 2);
        assert_eq!(report.apps.len(), 2);
        assert_eq!(runs[0].app, App::Sphot);
        assert_eq!(runs[1].app, App::Lammps);
        for run in &runs {
            assert!(!run.trace.is_empty());
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig {
            apps: vec![App::Sphot],
            duration: Nanos::from_millis(150),
            seed: 9,
            nranks: Some(2),
            cpus: Some(2),
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a[0].trace.len(), b[0].trace.len());
        assert_eq!(a[0].result.end_time, b[0].result.end_time);
        assert_eq!(a[0].trace.events(), b[0].trace.events());
    }
}
