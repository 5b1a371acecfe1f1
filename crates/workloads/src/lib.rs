//! `osn-workloads`: behavioural models of the LLNL Sequoia benchmarks
//! (AMG, IRS, LAMMPS, SPHOT, UMT) used in the paper's case study, plus
//! the helper processes (UMT's Python scripts) that shape its
//! scheduling noise.
//!
//! The models reproduce each application's *kernel stimulus profile* —
//! page-fault rate/kind/placement, I/O intensity, phase structure — not
//! its numerics; see DESIGN.md for the calibration table.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod helper;
pub mod injector;
pub mod phases;
pub mod profile;
pub mod sequoia;

pub use helper::PythonHelper;
pub use injector::{InjectorWorkload, NoiseInjector};
pub use phases::{Phase, PhaseBuilder, PhaseProgram, PhaseWorkload};
pub use profile::{App, BackingMix, Profile};
pub use sequoia::SequoiaWorkload;

use osn_kernel::time::Nanos;
use osn_kernel::workload::Workload;

/// Build the `nranks` rank workloads of an application for a run of
/// roughly `duration`.
pub fn ranks(app: App, nranks: usize, duration: Nanos) -> Vec<Box<dyn Workload>> {
    (0..nranks)
        .map(|_| Box::new(SequoiaWorkload::new(app.profile(duration))) as Box<dyn Workload>)
        .collect()
}

/// Build the helper processes the application needs (UMT's Python
/// scripts); empty for the others.
pub fn helpers(app: App, duration: Nanos) -> Vec<Box<dyn Workload>> {
    let profile = app.profile(duration);
    (0..profile.helpers)
        .map(|_| Box::new(PythonHelper::new(duration)) as Box<dyn Workload>)
        .collect()
}
