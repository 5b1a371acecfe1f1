//! # osnoise — a quantitative analysis of OS noise
//!
//! A full Rust reproduction of *"A Quantitative Analysis of OS Noise"*
//! (Morari, Gioiosa, Wisniewski, Cazorla, Valero — IEEE IPDPS 2011):
//! the LTT NG-NOISE methodology for per-event OS-noise attribution,
//! rebuilt on a discrete-event compute-node simulator.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! * [`kernel`] — the simulated Linux-2.6.33-class compute node
//!   (scheduler, demand paging, softirqs, NFS/rpciod I/O path).
//! * [`trace`] — the LTTng-style tracer: per-CPU lock-free ring
//!   buffers, the record codec of the on-disk store, overhead
//!   measurement.
//! * [`analysis`] — nesting-aware reconstruction, runnable-only noise
//!   accounting, per-event statistics, histograms, breakdowns,
//!   synthetic noise charts, disambiguation.
//! * [`store`] — chunked on-disk trace store: spill-to-disk recording,
//!   footer-indexed chunk files, out-of-core streamed analysis.
//! * [`catalog`] — trace catalog + HTTP query service over a
//!   directory of store files (`osnoise serve`).
//! * [`paraver`] — Paraver `.prv`/`.pcf`/`.row` and CSV exports.
//! * [`ftq`] — the FTQ microbenchmark (simulated and native).
//! * [`workloads`] — LLNL Sequoia behavioural models.
//! * [`core`] — campaign driver and paper-report assembly.
//!
//! ## Quick start
//!
//! ```
//! use osnoise::core::{run_app, ExperimentConfig};
//! use osnoise::kernel::time::Nanos;
//! use osnoise::workloads::App;
//!
//! let config = ExperimentConfig::paper(App::Sphot, Nanos::from_millis(200));
//! let run = run_app(config);
//! let noise = run.analysis.tasks[&run.ranks[0]].total_noise();
//! println!("rank 0 experienced {noise} of OS noise");
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub use osn_analysis as analysis;
pub use osn_catalog as catalog;
pub use osn_core as core;
pub use osn_ftq as ftq;
pub use osn_kernel as kernel;
pub use osn_paraver as paraver;
pub use osn_store as store;
pub use osn_trace as trace;
pub use osn_workloads as workloads;
