//! `osn-core`: the high-level experiment API tying the whole
//! reproduction together — run a traced application, run the full
//! Sequoia campaign, and assemble every table and figure of
//! *"A Quantitative Analysis of OS Noise"* (IPDPS 2011).
//!
//! A run is analyzed the same way whether its trace is in memory or in
//! a `.osn` store: [`analyze_store`] feeds the store's chunks to the
//! same per-CPU analysis (`osn_analysis::NoiseAnalysis::from_cpu_blocks`)
//! that `NoiseAnalysis::analyze` feeds an in-memory trace.
//!
//! ```no_run
//! use osn_core::campaign::{campaign_report, CampaignConfig};
//! use osn_kernel::time::Nanos;
//!
//! let config = CampaignConfig::paper(Nanos::from_secs(10));
//! let (_runs, report) = campaign_report(&config);
//! println!("{}", report.render_breakdown());
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod campaign;
pub mod capture;
pub mod cluster;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod scale;
pub mod store;

pub use campaign::{campaign_report, run_campaign, CampaignConfig};
pub use capture::{capture_meta, capture_to_store, write_capture};
pub use cluster::{
    parse_duration, parse_inject_spec, parse_tier, run_cluster, run_cluster_opts,
    run_cluster_stored, ClusterConfig, ClusterOutcome, ClusterReport, ClusterScalePoint, Injection,
    RankSummary, RunOpts, SamplePlan, Tier, TierMeta, TierValidation,
};
pub use experiment::{run_app, AppRun, ExperimentConfig};
pub use figures::{
    fig10_pairs, fig1_config, fig2_interruption, fig9_composites, run_ftq, FtqExperiment,
};
pub use report::{AppReport, PaperReport};
pub use scale::{ScaleModel, ScalePoint};
pub use store::{
    analyze_store, load_run, persist_campaign, persist_run, record_app, recovered_report,
    streamed_report, StoredRunMeta,
};

// Re-export the building blocks so downstream users need one import.
pub use osn_analysis as analysis;
pub use osn_ftq as ftq;
pub use osn_kernel as kernel;
pub use osn_paraver as paraver;
pub use osn_trace as trace;
pub use osn_workloads as workloads;
