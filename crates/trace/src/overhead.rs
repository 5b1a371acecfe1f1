//! Instrumentation-overhead measurement (paper §III-A).
//!
//! "A concern about LTT NG-NOISE was the overhead introduced by the
//! instrumentation. ... The result ... is an overhead in the order of
//! 0.28% (average among all the LLNL Sequoia applications we tested)."
//!
//! This module measures exactly that: run the same workload twice — once
//! with probes free (tracing off) and once with a per-event probe cost —
//! and compare completion times.

use osn_kernel::config::NodeConfig;
use osn_kernel::hooks::NullProbe;
use osn_kernel::node::{Node, RunResult};
use osn_kernel::time::Nanos;

/// Per-tracepoint cost representative of LTTng-class tracers
/// (~119 ns/event on 2010-era hardware per Desnoyers & Dagenais).
pub const LTTNG_CLASS_OVERHEAD: Nanos = Nanos(120);

/// Result of one overhead measurement.
#[derive(Clone, Copy, Debug)]
pub struct OverheadReport {
    /// Wall time with probes free.
    pub base: Nanos,
    /// Wall time with per-event probe cost charged.
    pub traced: Nanos,
    /// Relative slowdown: `(traced - base) / base`.
    pub overhead_fraction: f64,
}

impl OverheadReport {
    pub fn percent(&self) -> f64 {
        self.overhead_fraction * 100.0
    }
}

/// Measure tracer overhead for a workload scenario.
///
/// `build` must construct the same node + job for a given config; it is
/// called twice with identical seeds and differing only in
/// `probe_overhead`.
pub fn measure_overhead(
    cfg: &NodeConfig,
    per_event: Nanos,
    build: impl Fn(NodeConfig) -> Node,
) -> OverheadReport {
    let base_cfg = {
        let mut c = cfg.clone();
        c.probe_overhead = Nanos::ZERO;
        c
    };
    let traced_cfg = {
        let mut c = cfg.clone();
        c.probe_overhead = per_event;
        c
    };
    let base = run_wall(build(base_cfg));
    let traced = run_wall(build(traced_cfg));
    let overhead_fraction = if base.is_zero() {
        0.0
    } else {
        (traced.as_nanos() as f64 - base.as_nanos() as f64) / base.as_nanos() as f64
    };
    OverheadReport {
        base,
        traced,
        overhead_fraction,
    }
}

fn run_wall(mut node: Node) -> Nanos {
    let result: RunResult = node.run(&mut NullProbe);
    result.end_time
}

/// Average the overhead over several seeds. A single comparison is
/// dominated by timing butterfly effects (the probe cost perturbs
/// event interleavings, which re-rolls every stochastic kernel-cost
/// draw downstream); the paper's 0.28 % figure is itself a multi-run
/// average across applications.
pub fn measure_overhead_avg(
    cfg: &NodeConfig,
    per_event: Nanos,
    seeds: &[u64],
    build: impl Fn(NodeConfig) -> Node,
) -> OverheadReport {
    assert!(!seeds.is_empty());
    let mut base_total = 0u64;
    let mut traced_total = 0u64;
    for &seed in seeds {
        let mut seeded = cfg.clone();
        seeded.seed = seed;
        let r = measure_overhead(&seeded, per_event, &build);
        base_total += r.base.as_nanos();
        traced_total += r.traced.as_nanos();
    }
    let base = Nanos(base_total / seeds.len() as u64);
    let traced = Nanos(traced_total / seeds.len() as u64);
    let overhead_fraction = if base.is_zero() {
        0.0
    } else {
        (traced.as_nanos() as f64 - base.as_nanos() as f64) / base.as_nanos() as f64
    };
    OverheadReport {
        base,
        traced,
        overhead_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::prelude::*;

    #[test]
    fn overhead_is_small_and_positive_for_compute_bound_work() {
        let cfg = NodeConfig::default()
            .with_cpus(2)
            .with_horizon(Nanos::from_secs(5))
            .with_seed(77);
        let report = measure_overhead(&cfg, LTTNG_CLASS_OVERHEAD, |c| {
            let mut node = Node::new(c);
            node.spawn_job(
                "w",
                vec![
                    Box::new(BusyLoop::new(Nanos::from_secs(1))),
                    Box::new(BusyLoop::new(Nanos::from_secs(1))),
                ],
            );
            node
        });
        assert!(report.traced > report.base);
        // The paper's figure: "in the order of 0.28%". A pure compute
        // workload with only ticks should be well below 1%.
        assert!(
            report.percent() < 1.0,
            "overhead {:.4}% too high",
            report.percent()
        );
        assert!(report.percent() > 0.0);
    }

    #[test]
    fn zero_cost_probes_are_free() {
        let cfg = NodeConfig::default()
            .with_cpus(1)
            .with_horizon(Nanos::from_secs(2))
            .with_seed(3);
        let report = measure_overhead(&cfg, Nanos::ZERO, |c| {
            let mut node = Node::new(c);
            node.spawn_job("w", vec![Box::new(BusyLoop::new(Nanos::from_millis(200)))]);
            node
        });
        assert_eq!(report.base, report.traced);
        assert_eq!(report.overhead_fraction, 0.0);
    }
}
