//! Node configuration.

use serde::{Deserialize, Serialize};

use crate::cost::CostModels;
use crate::ids::CpuId;
use crate::net::NfsModel;
use crate::perturb::KernelPerturbations;
use crate::sched::SchedParams;
use crate::time::Nanos;

/// Full configuration of a simulated compute node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Number of CPUs (the paper's testbed: dual quad-core = 8).
    pub cpus: u16,
    /// Periodic tick interval. The paper configures the lowest possible
    /// periodic timer frequency, 100 events/second per CPU (Table V),
    /// i.e. a 10 ms period.
    pub tick_period: Nanos,
    /// Which CPU receives network interrupts (no irqbalance on the
    /// isolated testbed: a single fixed CPU).
    pub net_irq_cpu: CpuId,
    /// CPUs per physical package (dual quad-core Opteron: 4). Wakeups
    /// prefer an idle sibling within the target's package
    /// (`select_idle_sibling`).
    pub cpus_per_package: u16,
    /// Pin kernel daemons (rpciod, events) to this CPU — the classic
    /// "leave one processor to take care of the system activities"
    /// mitigation (Petrini et al., SC'03: 1.87x at 8k CPUs).
    pub daemon_cpu: Option<CpuId>,
    /// Root seed; all internal streams derive from it.
    pub seed: u64,
    /// Kernel activity cost models.
    pub costs: CostModels,
    /// Scheduler tunables.
    pub sched: SchedParams,
    /// NFS server / wire model.
    pub nfs: NfsModel,
    /// Simulation horizon: the run stops at this time even if tasks
    /// have not exited.
    pub horizon: Nanos,
    /// Per-probe-event tracer overhead charged to the traced CPU
    /// (0 = tracing off / free; LTTng-class tracers cost on the order
    /// of 100–200 ns per event).
    pub probe_overhead: Nanos,
    /// Mean expired software timers per tick (kernel bookkeeping
    /// timers: writeback, RPC retransmit guards, watchdogs...).
    pub timers_per_tick: f64,
    /// Probability that an expired timer handler queues work for the
    /// `events` daemon (which then wakes and preempts someone).
    pub events_work_prob: f64,
    /// Mean nanoseconds of daemon CPU work per queued `events` item.
    pub events_work: Nanos,
    /// Mean nanoseconds of rpciod CPU work per RPC processed.
    pub rpciod_work_per_rpc: Nanos,
    /// Extra rpciod nanoseconds per KiB of RPC payload (copy to the
    /// transmit path).
    pub rpciod_ns_per_kib: f64,
    /// Injected perturbations (DVFS throttling, hypervisor steal time,
    /// NUMA-asymmetric faults). Empty by default — and `serde(default)`
    /// so configs serialized before this field existed still load.
    #[serde(default)]
    pub perturb: KernelPerturbations,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            cpus: 8,
            tick_period: Nanos::from_millis(10),
            net_irq_cpu: CpuId(0),
            cpus_per_package: 4,
            daemon_cpu: None,
            seed: 0x0511_2011, // IPDPS 2011
            costs: CostModels::paper_defaults(),
            sched: SchedParams::default(),
            nfs: NfsModel::default(),
            horizon: Nanos::from_secs(10),
            probe_overhead: Nanos::ZERO,
            timers_per_tick: 0.35,
            events_work_prob: 0.02,
            events_work: Nanos::from_micros(2),
            rpciod_work_per_rpc: Nanos::from_micros(5),
            rpciod_ns_per_kib: 40.0,
            perturb: KernelPerturbations::default(),
        }
    }
}

impl NodeConfig {
    /// Convenience: set the horizon.
    pub fn with_horizon(mut self, horizon: Nanos) -> Self {
        self.horizon = horizon;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_cpus(mut self, cpus: u16) -> Self {
        self.cpus = cpus;
        self
    }

    pub fn with_probe_overhead(mut self, overhead: Nanos) -> Self {
        self.probe_overhead = overhead;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = NodeConfig::default();
        assert_eq!(c.cpus, 8, "dual quad-core Opteron");
        assert_eq!(c.tick_period, Nanos::from_millis(10), "100 Hz tick");
        assert_eq!(c.probe_overhead, Nanos::ZERO, "tracing off by default");
    }

    #[test]
    fn builder_methods() {
        let c = NodeConfig::default()
            .with_horizon(Nanos::from_secs(2))
            .with_seed(7)
            .with_cpus(4)
            .with_probe_overhead(Nanos(120));
        assert_eq!(c.horizon, Nanos::from_secs(2));
        assert_eq!(c.seed, 7);
        assert_eq!(c.cpus, 4);
        assert_eq!(c.probe_overhead, Nanos(120));
    }

    #[test]
    fn serde_roundtrip() {
        let c = NodeConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: NodeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cpus, c.cpus);
        assert_eq!(back.tick_period, c.tick_period);
        assert_eq!(back.seed, c.seed);
        assert!(back.perturb.is_empty());
    }

    /// Configs serialized before the `perturb` field existed must
    /// still deserialize (to the empty injection).
    #[test]
    fn perturb_field_defaults_on_old_configs() {
        let c = NodeConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        // `perturb` is the final field: cut it out of the serialized
        // form to reconstruct what an old config file looks like.
        let idx = json.find(",\"perturb\":").expect("perturb serialized last");
        let stripped = format!("{}}}", &json[..idx]);
        let back: NodeConfig = serde_json::from_str(&stripped).unwrap();
        assert!(back.perturb.is_empty());
    }

    /// Configs and store footers written while the engine still had a
    /// selectable `queue` field must keep loading; the field is ignored.
    #[test]
    fn retired_queue_field_still_deserializes() {
        let json = serde_json::to_string(&NodeConfig::default().with_seed(11)).unwrap();
        let old = json.replacen("{", "{\"queue\":\"Heap\",", 1);
        assert!(old.contains("\"queue\":\"Heap\""));
        let back: NodeConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back.seed, 11);
        assert_eq!(back.cpus, NodeConfig::default().cpus);
    }
}
