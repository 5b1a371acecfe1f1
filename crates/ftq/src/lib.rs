//! `osn-ftq`: the Fixed Time Quantum microbenchmark (Sottile & Minnich)
//! — the indirect noise-measurement baseline the paper validates
//! LTT NG-NOISE against (§III-C, Figs 1 and 9).
//!
//! Six pieces:
//! * [`sim`] — FTQ as a simulated workload whose per-quantum samples are
//!   recovered from the trace's user-space marks;
//! * [`fwq`] — the Fixed Work Quantum companion benchmark;
//! * [`native`] — the real benchmark running on the host;
//! * [`series`] — the `N_max − N_i` noise estimate and the §III-C
//!   FTQ-vs-tracer comparison;
//! * [`capture`] — the native loop as a *recorder*: per-quantum gap
//!   detection plus procfs counter deltas, synthesizing the simulator's
//!   event stream from real host noise;
//! * [`procfs`] — fixture-testable parsers for the `/proc` counter
//!   files the capture samples.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod capture;
pub mod fwq;
pub mod native;
pub mod procfs;
pub mod series;
pub mod sim;

pub use capture::{
    classify, deltas_between, run_capture, Capture, CaptureConfig, CaptureReport, CounterDeltas,
    GapClass, CAPTURE_APP_TID, CAPTURE_CPU, CAPTURE_PREEMPTOR_TID,
};
pub use fwq::{fwq_series_from_trace, FwqParams, FwqSeries, FwqWorkload, FWQ_MARK};
pub use procfs::ProcSnapshot;
pub use series::{FtqComparison, FtqSeries};
pub use sim::{series_from_trace, FtqParams, FtqWorkload, FTQ_MARK};
