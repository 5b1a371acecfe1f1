//! `osn-kernel`: a discrete-event simulator of a multi-core compute node
//! running a Linux-2.6.33-like kernel, built as the substrate for
//! reproducing *"A Quantitative Analysis of OS Noise"* (IPDPS 2011).
//!
//! The simulator generates every OS-noise mechanism the paper measures —
//! periodic timer interrupts and their `run_timer_softirq` bottom half,
//! demand-paging page faults, CFS scheduling with domain rebalancing,
//! daemon preemption, and the NFS/rpciod network-I/O path — and exposes
//! an instrumentation surface ([`hooks::Probe`]) equivalent to the
//! paper's "all kernel entry and exit points".
//!
//! # Quick tour
//!
//! ```
//! use osn_kernel::prelude::*;
//!
//! let cfg = NodeConfig::default().with_horizon(Nanos::from_millis(50));
//! let mut node = Node::new(cfg);
//! node.spawn_job(
//!     "demo",
//!     (0..8)
//!         .map(|_| Box::new(BusyLoop::new(Nanos::from_millis(30))) as Box<dyn Workload>)
//!         .collect(),
//! );
//! let mut probe = CountingProbe::new(8);
//! let result = node.run(&mut probe);
//! assert!(result.stats.ticks > 0);
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod activity;
pub mod config;
pub mod cost;
pub mod hooks;
pub mod ids;
pub mod mm;
pub mod net;
pub mod node;
pub mod perturb;
pub mod rng;
pub mod sched;
pub mod softirq;
pub mod task;
pub mod time;
pub mod workload;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::activity::{
        Activity, FaultKind, NoiseCategory, SchedPart, SoftirqVec, SyscallKind,
    };
    pub use crate::config::NodeConfig;
    pub use crate::cost::{CostModel, CostModels};
    pub use crate::hooks::{CountingProbe, NullProbe, Probe, SwitchState};
    pub use crate::ids::{CpuId, JobId, RegionId, Tid};
    pub use crate::mm::{AddressSpace, Backing, PAGE_SIZE};
    pub use crate::node::{Node, NodeStats, RunResult};
    pub use crate::perturb::{DvfsSpec, KernelPerturbations, NumaSpec, StealSpec};
    pub use crate::rng::{Dist, Stream};
    pub use crate::task::TaskMeta;
    pub use crate::time::{Interval, Nanos};
    pub use crate::workload::{Action, BusyLoop, Outcome, Script, Workload, WorkloadCtx};
}
