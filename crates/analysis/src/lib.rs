//! `osn-analysis`: offline quantitative OS-noise analysis — the second
//! half of the paper's LTT NG-NOISE contribution.
//!
//! Starting from a raw trace (`osn-trace`), this crate reconstructs
//! nested kernel-activity intervals, rebuilds task state timelines,
//! applies the paper's noise-accounting rules (runnable-only,
//! requested-service-excluded, nesting-aware), and produces every
//! quantitative artifact of the paper: per-event statistics
//! (Tables I–VI), category breakdowns (Fig 3), duration histograms
//! (Figs 4/6/8), synthetic OS-noise charts (Figs 1/9/10), and the noise
//! disambiguation analyses of §V.
//!
//! One entry point turns events into an analysis:
//! [`NoiseAnalysis::from_cpu_blocks`] pairs each CPU's columnar blocks
//! with one [`ColumnPairing`] and collects its scheduler records, then
//! merges the shards and builds the timelines. An in-memory trace
//! ([`NoiseAnalysis::analyze`]) and a store read chunk by chunk
//! (`osn_core::analyze_store`) both feed it. The sequential
//! [`NoiseAnalysis::analyze_reference`] is kept as the oracle the
//! engine is tested against.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod breakdown;
pub mod chart;
pub mod collective;
pub mod disambiguate;
pub mod histogram;
pub mod nesting;
pub mod noise;
pub mod par;
pub mod report;
pub mod signature;
pub mod stats;
pub mod timeline;

pub use breakdown::Breakdown;
pub use chart::{ChartPoint, NoiseChart};
pub use collective::{
    couple_stream, BspParams, CollectiveBreakdown, NoiseSample, NoiseSurrogate, PeriodicComb,
    PhaseView, RankSeries, RankStats, ResidualBin, SyntheticRank,
};
pub use histogram::Histogram;
pub use nesting::{ActivityInstance, ColumnPairing, NestingReport};
pub use noise::{Component, Components, Interruption, NoiseAnalysis, TaskNoise};
pub use par::{default_workers, parallel_map};
pub use signature::{comparison_table, Drift, NoiseSignature, SignatureEntry};
pub use stats::{
    class_histogram, class_samples, class_samples_timed, class_stats, ClassColumns, EventClass,
    EventStats,
};
pub use timeline::{Phase, PhaseSpan, TaskTimeline, Timelines};
