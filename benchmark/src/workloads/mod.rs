//! The five workloads. Each sets up its inputs from the seed (timed, a
//! few times over), runs its operation in a loop for the measured
//! phase, and checks every output it produces. A traced run splits the
//! time: the first half untraced, as the reference for the tracing
//! overhead, the second half with spans around each call into a layer.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use osn_core::kernel::rng::derive_indexed_seed;
use osn_core::kernel::time::Nanos;

use crate::check::Tally;
use crate::spans::Span;

mod capture;
mod cluster;
mod offline;
mod pipeline;
mod serve;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Offline,
    Cluster,
    Serve,
    ServeCold,
    Capture,
}

impl Workload {
    /// The fixed order a full run goes through.
    pub const ALL: [Workload; 5] = [
        Workload::Offline,
        Workload::Cluster,
        Workload::Serve,
        Workload::ServeCold,
        Workload::Capture,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline",
            Workload::Cluster => "cluster",
            Workload::Serve => "serve",
            Workload::ServeCold => "serve-cold",
            Workload::Capture => "capture",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `--smoke` shrinks every one of them so the whole
/// benchmark finishes in seconds; its numbers are for tests only.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Simulated seconds per recorded store.
    pub store_sim: Nanos,
    pub cluster_nodes: usize,
    pub cluster_sim: Nanos,
    pub capture_len: Nanos,
    pub warmup_capture_len: Nanos,
    /// Set-ups per run; the reported set-up time is their median.
    pub setups: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                store_sim: Nanos::from_secs(1),
                cluster_nodes: 1_000,
                cluster_sim: Nanos::from_millis(300),
                capture_len: Nanos::from_millis(250),
                warmup_capture_len: Nanos::from_millis(50),
                setups: 1,
            }
        } else {
            Sizes {
                store_sim: Nanos::from_secs(10),
                cluster_nodes: 10_000,
                cluster_sim: Nanos::from_millis(600),
                capture_len: Nanos::from_millis(500),
                warmup_capture_len: Nanos::from_millis(200),
                setups: 3,
            }
        }
    }
}

/// Everything a workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for stores; the workload owns it.
    pub dir: PathBuf,
    /// Shared clock origin of every span of the run.
    pub origin: Instant,
}

impl Ctx {
    /// Seed of member `index` of the input family `label`.
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        derive_indexed_seed(self.seed, label, index)
    }

    /// Set-ups to time: a traced run reports no set-up time, so one.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            self.sizes.setups
        }
    }

    /// Length of the untraced and (in a traced run) the traced phase.
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 2, Some(total / 2))
        } else {
            (total, None)
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Measured {
    pub tally: Tally,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each op of the untraced phase.
    pub op_ms: Vec<f64>,
    /// Latency of each op of the traced phase.
    pub traced_op_ms: Vec<f64>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Workload-specific context: named counts, rates and percentiles.
    pub detail: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

pub fn run(workload: Workload, ctx: &Ctx) -> Measured {
    match workload {
        Workload::Offline => offline::run(ctx),
        Workload::Cluster => cluster::run(ctx),
        Workload::Serve => serve::run_warm(ctx),
        Workload::ServeCold => serve::run_cold(ctx),
        Workload::Capture => capture::run(ctx),
    }
}

/// Wall seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}
