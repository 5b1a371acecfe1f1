//! Deterministic, seed-derived perturbation injection for the kernel
//! tier.
//!
//! Three perturbation classes model a machine that is *not* healthy:
//!
//! * **DVFS / thermal throttling** ([`DvfsSpec`]) — periodic epochs in
//!   which every sampled kernel-service cost on the affected CPU is
//!   scaled up (the handler code runs at a lower clock). Recovered in
//!   analysis as a *mean-duration* drift across event classes.
//! * **Hypervisor steal time** ([`StealSpec`]) — windows in which the
//!   vCPU is descheduled by the host and the guest makes no progress.
//!   Injected as [`Activity::Steal`] frames that preempt whatever is
//!   running; recovered as a brand-new `steal` signature row.
//! * **NUMA-asymmetric faults** ([`NumaSpec`]) — CPUs at or above a
//!   split index pay a remote-access multiplier on page-fault service;
//!   recovered as a page-fault mean drift.
//!
//! Determinism contract: every schedule derives from
//! [`derive_indexed_seed`] with a `"perturb-*"` label and the CPU
//! index, so injection never reads the engine's existing streams and
//! an **empty config draws nothing and pushes no events** — the
//! unperturbed run is byte-identical to a build without this module
//! (the differential tests assert exactly that).

use serde::{Deserialize, Serialize};

use crate::activity::Activity;
use crate::rng::{bounded, derive_indexed_seed, Stream};
use crate::time::Nanos;

/// Periodic DVFS / thermal-throttling epochs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DvfsSpec {
    /// CPU to throttle; `None` throttles every CPU (package-wide
    /// thermal cap), each with its own seed-derived epoch phase.
    pub cpu: Option<u16>,
    /// Epoch period.
    pub period: Nanos,
    /// Fraction of each period spent throttled, clamped to `[0, 1]`.
    pub duty: f64,
    /// Multiplier on sampled kernel costs while throttled (> 1 slows).
    pub factor: f64,
}

/// Hypervisor steal-time windows (exponential interarrival/duration).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StealSpec {
    /// Victim vCPU; `None` steals from every CPU independently.
    pub cpu: Option<u16>,
    /// Mean gap between steal windows on one CPU.
    pub mean_interval: Nanos,
    /// Mean length of one steal window.
    pub mean_duration: Nanos,
}

/// NUMA-asymmetric page-fault service costs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NumaSpec {
    /// CPUs with index `>= split_cpu` are remote to the page arena.
    pub split_cpu: u16,
    /// Multiplier on page-fault costs for remote CPUs.
    pub factor: f64,
}

/// The full kernel-tier injection config. Defaults to *nothing*: an
/// empty value is the healthy machine and must stay byte-identical to
/// runs that predate this type (it is `#[serde(default)]` in
/// `NodeConfig`, so old serialized configs still deserialize).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct KernelPerturbations {
    pub dvfs: Vec<DvfsSpec>,
    pub steal: Vec<StealSpec>,
    pub numa: Option<NumaSpec>,
}

// Hand-written so that an absent field — or the whole value being
// absent, as in configs serialized before this type existed — reads as
// the default (no injection), matching upstream `#[serde(default)]`.
impl Deserialize for KernelPerturbations {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.is_null() {
            return Ok(Self::default());
        }
        let m = v
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "KernelPerturbations"))?;
        fn field_or_default<T: Deserialize + Default>(
            m: &[(String, serde::Value)],
            name: &str,
        ) -> Result<T, serde::DeError> {
            let v = serde::__private::field(m, name);
            if v.is_null() {
                Ok(T::default())
            } else {
                T::from_value(v)
            }
        }
        Ok(KernelPerturbations {
            dvfs: field_or_default(m, "dvfs")?,
            steal: field_or_default(m, "steal")?,
            numa: field_or_default(m, "numa")?,
        })
    }
}

impl KernelPerturbations {
    /// True when no perturbation is configured (the engine then builds
    /// no state, draws no randomness, and pushes no events).
    pub fn is_empty(&self) -> bool {
        self.dvfs.is_empty() && self.steal.is_empty() && self.numa.is_none()
    }
}

/// One resolved DVFS spec: integer epoch arithmetic plus a per-CPU
/// seed-derived phase so epochs across CPUs don't align artificially.
#[derive(Debug)]
struct DvfsEpoch {
    cpu: Option<u16>,
    period: u64,
    throttled: u64,
    factor: f64,
    /// Phase offset per CPU, in `[0, period)`.
    phase: Vec<u64>,
}

/// Per-CPU steal schedule state: a dedicated stream plus the spec it
/// draws from.
#[derive(Debug)]
struct StealState {
    stream: Stream,
    mean_interval: Nanos,
    mean_duration: Nanos,
}

/// Runtime injection state owned by the engine. Built only when the
/// config is non-empty.
#[derive(Debug)]
pub struct PerturbState {
    dvfs: Vec<DvfsEpoch>,
    /// Indexed by CPU; `None` = no steal on that CPU.
    steal: Vec<Option<StealState>>,
    numa: Option<NumaSpec>,
}

impl PerturbState {
    /// Resolve a config against a node's seed and CPU count. `None`
    /// when the config is empty — the caller skips every hook.
    pub fn new(cfg: &KernelPerturbations, seed: u64, ncpus: usize) -> Option<PerturbState> {
        if cfg.is_empty() {
            return None;
        }
        let dvfs = cfg
            .dvfs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let period = s.period.as_nanos().max(1);
                let duty = s.duty.clamp(0.0, 1.0);
                let throttled = (period as f64 * duty).round() as u64;
                let phase = (0..ncpus)
                    .map(|c| {
                        let label = format!("perturb-dvfs-{i}");
                        bounded(derive_indexed_seed(seed, &label, c as u64), period)
                    })
                    .collect();
                DvfsEpoch {
                    cpu: s.cpu,
                    period,
                    throttled,
                    factor: s.factor,
                    phase,
                }
            })
            .collect();
        let steal = (0..ncpus)
            .map(|c| {
                // First matching spec wins; one schedule per CPU.
                cfg.steal
                    .iter()
                    .find(|s| s.cpu.is_none() || s.cpu == Some(c as u16))
                    .map(|s| StealState {
                        stream: Stream::from_seed(derive_indexed_seed(
                            seed,
                            "perturb-steal",
                            c as u64,
                        )),
                        mean_interval: s.mean_interval,
                        mean_duration: s.mean_duration,
                    })
            })
            .collect();
        Some(PerturbState {
            dvfs,
            steal,
            numa: cfg.numa,
        })
    }

    /// The multiplicative cost scale for a kernel frame entered on
    /// `cpu` at time `t`: DVFS throttle epochs, plus the NUMA factor
    /// for page faults. Steal frames are wall-clock windows, not CPU
    /// work, and are never scaled.
    pub fn cost_scale(&self, cpu: usize, t: Nanos, activity: Activity) -> f64 {
        if activity == Activity::Steal {
            return 1.0;
        }
        let mut scale = 1.0;
        for e in &self.dvfs {
            if e.cpu.is_some_and(|c| c as usize != cpu) {
                continue;
            }
            let phase = (t.as_nanos() + e.phase[cpu]) % e.period;
            if phase < e.throttled {
                scale *= e.factor;
            }
        }
        if let Some(numa) = &self.numa {
            if matches!(activity, Activity::PageFault(_)) && cpu >= numa.split_cpu as usize {
                scale *= numa.factor;
            }
        }
        scale
    }

    /// Apply [`PerturbState::cost_scale`] to a sampled cost. Identity
    /// when the scale is exactly 1.0 (no float round-trip).
    pub fn scaled_cost(&self, cpu: usize, t: Nanos, activity: Activity, cost: Nanos) -> Nanos {
        crate::cost::scale_cost(cost, self.cost_scale(cpu, t, activity))
    }

    /// Whether any CPU has a steal schedule.
    pub fn has_steal(&self) -> bool {
        self.steal.iter().any(Option::is_some)
    }

    /// The gap to the next steal window on `cpu` (drawn from the CPU's
    /// dedicated stream), or `None` if the CPU has no steal schedule.
    /// Always at least 1 ns so consecutive windows make progress.
    pub fn steal_gap(&mut self, cpu: usize) -> Option<Nanos> {
        let s = self.steal.get_mut(cpu)?.as_mut()?;
        Some(s.stream.interarrival(s.mean_interval).max(Nanos(1)))
    }

    /// The length of the steal window that just started on `cpu`.
    pub fn steal_duration(&mut self, cpu: usize) -> Nanos {
        let s = self.steal[cpu].as_mut().expect("steal scheduled");
        s.stream.interarrival(s.mean_duration).max(Nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dvfs(cpu: Option<u16>, period_us: u64, duty: f64, factor: f64) -> DvfsSpec {
        DvfsSpec {
            cpu,
            period: Nanos::from_micros(period_us),
            duty,
            factor,
        }
    }

    #[test]
    fn empty_config_builds_no_state() {
        let cfg = KernelPerturbations::default();
        assert!(cfg.is_empty());
        assert!(PerturbState::new(&cfg, 42, 4).is_none());
    }

    #[test]
    fn dvfs_scale_covers_duty_fraction() {
        let cfg = KernelPerturbations {
            dvfs: vec![dvfs(Some(0), 100, 0.25, 2.0)],
            ..Default::default()
        };
        let p = PerturbState::new(&cfg, 7, 2).unwrap();
        let period = Nanos::from_micros(100).as_nanos();
        let throttled = (0..period)
            .step_by(97)
            .filter(|&t| p.cost_scale(0, Nanos(t), Activity::TimerInterrupt) > 1.0)
            .count();
        let total = (period / 97) as usize + 1;
        let frac = throttled as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.02, "duty fraction off: {frac}");
        // The other CPU is untouched.
        assert_eq!(p.cost_scale(1, Nanos(0), Activity::TimerInterrupt), 1.0);
    }

    #[test]
    fn numa_scales_faults_only_on_remote_cpus() {
        use crate::activity::FaultKind;
        let cfg = KernelPerturbations {
            numa: Some(NumaSpec {
                split_cpu: 2,
                factor: 3.0,
            }),
            ..Default::default()
        };
        let p = PerturbState::new(&cfg, 7, 4).unwrap();
        let fault = Activity::PageFault(FaultKind::AnonZero);
        assert_eq!(p.cost_scale(1, Nanos(0), fault), 1.0);
        assert_eq!(p.cost_scale(2, Nanos(0), fault), 3.0);
        assert_eq!(p.cost_scale(3, Nanos(500), fault), 3.0);
        // Non-fault work is unaffected.
        assert_eq!(p.cost_scale(3, Nanos(0), Activity::TimerInterrupt), 1.0);
    }

    #[test]
    fn steal_frames_are_never_scaled() {
        let cfg = KernelPerturbations {
            dvfs: vec![dvfs(None, 100, 1.0, 4.0)],
            ..Default::default()
        };
        let p = PerturbState::new(&cfg, 7, 1).unwrap();
        assert_eq!(p.cost_scale(0, Nanos(0), Activity::Steal), 1.0);
        assert!(p.cost_scale(0, Nanos(0), Activity::TimerInterrupt) > 1.0);
    }

    #[test]
    fn steal_schedule_is_deterministic_per_seed() {
        let cfg = KernelPerturbations {
            steal: vec![StealSpec {
                cpu: None,
                mean_interval: Nanos::from_millis(5),
                mean_duration: Nanos::from_micros(200),
            }],
            ..Default::default()
        };
        let draw = |seed: u64| {
            let mut p = PerturbState::new(&cfg, seed, 2).unwrap();
            (0..8)
                .map(|_| (p.steal_gap(0).unwrap(), p.steal_duration(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11), "same seed, same schedule");
        assert_ne!(draw(11), draw(12), "different seed, different schedule");
    }

    #[test]
    fn steal_cpu_filter_respected() {
        let cfg = KernelPerturbations {
            steal: vec![StealSpec {
                cpu: Some(1),
                mean_interval: Nanos::from_millis(1),
                mean_duration: Nanos::from_micros(50),
            }],
            ..Default::default()
        };
        let mut p = PerturbState::new(&cfg, 3, 4).unwrap();
        assert!(p.has_steal());
        assert!(p.steal_gap(0).is_none());
        assert!(p.steal_gap(1).is_some());
        assert!(p.steal_gap(2).is_none());
    }

    #[test]
    fn bounded_maps_into_span_without_bias_at_edges() {
        assert_eq!(bounded(0, 1000), 0);
        assert_eq!(bounded(u64::MAX, 1000), 999);
        // Midpoint maps near span/2.
        let mid = bounded(u64::MAX / 2, 1000);
        assert!((499..=500).contains(&mid), "{mid}");
    }

    #[test]
    fn serde_default_is_empty() {
        let cfg: KernelPerturbations = serde_json::from_str("{}").unwrap();
        assert!(cfg.is_empty());
        let back = serde_json::to_string(&KernelPerturbations::default()).unwrap();
        let again: KernelPerturbations = serde_json::from_str(&back).unwrap();
        assert!(again.is_empty());
    }
}
