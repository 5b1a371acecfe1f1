//! `osn-cluster`: a mechanistic multi-node campaign.
//!
//! Where [`crate::scale::ScaleModel`] *extrapolates* the amplification
//! of OS noise by a bulk-synchronous collective (resampling one node's
//! empirical window distribution), this module *runs* it: N independent
//! [`osn_kernel`] nodes are instantiated with per-node RNG streams
//! derived from one campaign seed, simulated in parallel across host
//! threads, and coupled with the barrier model of
//! [`osn_analysis::collective`] — each phase ends when the slowest
//! rank arrives, skew carries across phases, and the critical rank's
//! noise decomposition says which noise class paid for the barrier.
//!
//! Rank start offsets are staggered (seed-derived, uniform in
//! `[0, duration/8)`) so periodic noise is *not* phase-aligned across
//! nodes — the condition under which the paper's amplification
//! argument holds. Setting [`ClusterConfig::stagger`] to `false`
//! simulates the perfectly co-scheduled cluster instead, where
//! synchronized ticks hit every rank in the same window and the
//! barrier amplifies almost nothing.
//!
//! Determinism contract: a fixed [`ClusterConfig`] yields a
//! byte-identical [`ClusterReport`] regardless of `workers` (node
//! results, synthetic ranks and couplings are gathered by index; each
//! coupling and the report are sequential folds in rank order).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use osn_analysis::chart::NoiseChart;
use osn_analysis::collective::{
    BspParams, CollectiveBreakdown, DelayWindow, InjectedClass, NoiseSurrogate, RankFaults,
    RankSeries, RankStats, SyntheticRank,
};
use osn_analysis::{default_workers, parallel_map};
use osn_kernel::activity::NoiseCategory;
use osn_kernel::perturb::{DvfsSpec, KernelPerturbations, NumaSpec, StealSpec};
use osn_kernel::rng::{bounded, derive_indexed_seed};
use osn_kernel::time::Nanos;
use osn_store::StoreOptions;
use osn_workloads::App;

use serde::Serialize;

use crate::experiment::{observed_rank_of, run_app, AppRun, ExperimentConfig};
use crate::scale::ScaleModel;
use crate::store::{analyze_store, record_app};

/// Label under which per-node seeds derive from the campaign seed.
const NODE_SEED_LABEL: &str = "cluster-node";
/// Label under which per-node start offsets derive from the campaign
/// seed.
const STAGGER_LABEL: &str = "cluster-stagger";
/// Label under which per-rank network-jitter seeds derive from the
/// campaign seed.
const JITTER_LABEL: &str = "cluster-jitter";
/// Staggered start offsets are uniform in `[0, duration / STAGGER_DIV)`.
const STAGGER_DIV: u64 = 8;
/// Label under which per-node sampling priorities derive (tiered mode).
const SAMPLE_LABEL: &str = "tier-sample";
/// Label under which synthetic-rank draw seeds derive (tiered mode).
const SYNTH_LABEL: &str = "tier-synth";
/// Label under which validation-twin draw seeds derive (tiered mode).
const VALIDATE_LABEL: &str = "tier-validate";
/// `--tier auto` runs campaigns up to this size fully mechanistically.
const AUTO_SAMPLE: usize = 128;
/// Floor on the mechanistic sample of a tiered campaign.
const MIN_SAMPLE: usize = 8;
/// Sub-scales at which the surrogate is validated against its own
/// mechanistic sample are capped here.
const VALIDATE_CAP: usize = 256;
/// The pooled-window analytic column reads at most this many ranks
/// (pooling all 100k ranks' windows would dwarf the report's own
/// memory cap for no statistical gain).
const POOL_CAP: usize = 256;
/// Synthetic ranks are compiled on the worker pool in jobs of this
/// many ranks.
const SYNTH_CHUNK: usize = 256;

/// One injected perturbation. Kernel-tier variants (`Dvfs`, `Steal`,
/// `Numa`) lower into [`KernelPerturbations`] on the target node's
/// config and show up as new activity/signature rows in that node's
/// trace; cluster-tier variants (`Crash`, `Straggler`, `Partition`,
/// `Jitter`) act on the BSP coupling via [`RankFaults`] and show up as
/// [`InjectedClass`] rows in the barrier decomposition. Every schedule
/// derives from the campaign seed — byte-identical across worker
/// counts.
#[derive(Clone, Debug, PartialEq)]
pub enum Injection {
    /// DVFS/thermal throttling: kernel costs scaled by `factor` for a
    /// `duty` fraction of every `period`, on one node or all.
    Dvfs {
        node: Option<usize>,
        period: Nanos,
        duty: f64,
        factor: f64,
    },
    /// Hypervisor steal-time windows preempting the running task.
    Steal {
        node: Option<usize>,
        mean_interval: Nanos,
        mean_duration: Nanos,
    },
    /// NUMA-asymmetric page-fault costs: CPUs `>= split_cpu` pay
    /// `factor`× per fault.
    Numa {
        node: Option<usize>,
        split_cpu: u16,
        factor: f64,
    },
    /// Node crash at `at`, restarting (from where it left off) after
    /// `down`.
    Crash { node: usize, at: Nanos, down: Nanos },
    /// Persistent straggler: the node's compute demand is scaled.
    Straggler { node: usize, factor: f64 },
    /// Network partition over `[at, at + duration)`: the node's
    /// barrier arrivals inside the window are delayed by `delay`.
    Partition {
        node: usize,
        at: Nanos,
        duration: Nanos,
        delay: Nanos,
    },
    /// Per-phase exponential network jitter on barrier arrival.
    Jitter { node: Option<usize>, mean: Nanos },
}

impl Injection {
    /// Whether a node-filtered injection applies to node `index`.
    fn applies(node: &Option<usize>, index: usize) -> bool {
        node.is_none_or(|n| n == index)
    }
}

/// Simulation tier of a cluster campaign: how many nodes run the full
/// mechanistic kernel simulation versus being synthesized from a noise
/// surrogate fitted to the mechanistic sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Tier {
    /// Every node is simulated mechanistically (the pre-tiered
    /// behaviour, and the default).
    #[default]
    Mechanistic,
    /// Mechanistic up to `AUTO_SAMPLE` nodes; larger campaigns run a
    /// `AUTO_SAMPLE`-node mechanistic sample and synthesize the rest.
    Auto,
    /// A fixed mechanistic fraction of the campaign (clamped to at
    /// least `MIN_SAMPLE` nodes). `fraction: 1.0` is byte-identical
    /// to `Mechanistic`.
    Sampled { fraction: f64 },
}

/// Parse a `--tier` spec: `mechanistic` (or `mech`), `auto`,
/// `sampled` (auto sizing) or `sampled:<fraction>` with the fraction
/// in `(0, 1]`.
pub fn parse_tier(s: &str) -> Result<Tier, String> {
    let s = s.trim();
    match s {
        "mechanistic" | "mech" => return Ok(Tier::Mechanistic),
        "auto" | "sampled" => return Ok(Tier::Auto),
        _ => {}
    }
    if let Some(frac) = s.strip_prefix("sampled:") {
        let fraction: f64 = frac
            .trim()
            .parse()
            .map_err(|_| format!("bad sample fraction `{frac}`"))?;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(format!("sample fraction {fraction} not in (0, 1]"));
        }
        return Ok(Tier::Sampled { fraction });
    }
    Err(format!(
        "unknown tier `{s}` (mechanistic, auto, sampled:<fraction>)"
    ))
}

/// Parse a duration with an `ns`/`us`/`ms`/`s` suffix (e.g. `200us`,
/// `1.5ms`, `50000ns`).
pub fn parse_duration(s: &str) -> Result<Nanos, String> {
    let s = s.trim();
    let (num, mult) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration `{s}` needs a ns/us/ms/s suffix"));
    };
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration value `{s}`"))?;
    let ns = (value * mult).round();
    // `u64::MAX as f64` is 2^64, the first value that would saturate.
    if !(0.0..u64::MAX as f64).contains(&ns) {
        return Err(format!("duration `{s}` out of range"));
    }
    Ok(Nanos(ns as u64))
}

/// Parse an `--inject` spec: `;`-separated injections, each
/// `kind:key=value,key=value`. Kinds and keys (durations take
/// ns/us/ms/s suffixes; `node` is optional where listed):
///
/// * `dvfs:period=10ms,duty=0.2,factor=3[,node=N]`
/// * `steal:interval=5ms,duration=200us[,node=N]`
/// * `numa:split=4,factor=2.5[,node=N]`
/// * `crash:node=N,at=100ms,down=50ms`
/// * `straggler:node=N,factor=1.5`
/// * `partition:node=N,at=50ms,dur=100ms,delay=2ms`
/// * `jitter:mean=50us[,node=N]`
pub fn parse_inject_spec(spec: &str) -> Result<Vec<Injection>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_one_injection)
        .collect()
}

fn parse_one_injection(s: &str) -> Result<Injection, String> {
    let (kind, args) = s.split_once(':').unwrap_or((s, ""));
    let kind = kind.trim();
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for item in args.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        let (k, v) = item
            .split_once('=')
            .ok_or_else(|| format!("`{item}` in `{s}` is not key=value"))?;
        pairs.push((k.trim(), v.trim()));
    }
    let mut used: Vec<&str> = Vec::new();
    let mut get = |key: &'static str| -> Option<&str> {
        used.push(key);
        pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    };
    let req = |v: Option<&str>, key: &str| {
        v.map(str::to_owned)
            .ok_or_else(|| format!("`{kind}` needs `{key}=`"))
    };
    let dur = |v: String| parse_duration(&v);
    let num =
        |v: String| -> Result<f64, String> { v.parse().map_err(|_| format!("bad number `{v}`")) };
    // A slowdown factor scales simulated time: zero, negative or
    // non-finite would stall the run instead of slowing it.
    let factor = |v: String| match num(v.clone())? {
        f if f.is_finite() && f > 0.0 => Ok(f),
        _ => Err(format!("factor `{v}` must be a positive finite number")),
    };
    let idx = |v: String| -> Result<usize, String> {
        v.parse().map_err(|_| format!("bad node index `{v}`"))
    };

    let parsed = match kind {
        "dvfs" => Injection::Dvfs {
            node: get("node").map(str::to_owned).map(idx).transpose()?,
            period: dur(req(get("period"), "period")?)?,
            duty: num(req(get("duty"), "duty")?)?,
            factor: factor(req(get("factor"), "factor")?)?,
        },
        "steal" => Injection::Steal {
            node: get("node").map(str::to_owned).map(idx).transpose()?,
            mean_interval: dur(req(get("interval"), "interval")?)?,
            mean_duration: dur(req(get("duration"), "duration")?)?,
        },
        "numa" => Injection::Numa {
            node: get("node").map(str::to_owned).map(idx).transpose()?,
            split_cpu: req(get("split"), "split")?
                .parse()
                .map_err(|_| "bad `split=` cpu index".to_string())?,
            factor: factor(req(get("factor"), "factor")?)?,
        },
        "crash" => Injection::Crash {
            node: idx(req(get("node"), "node")?)?,
            at: dur(req(get("at"), "at")?)?,
            down: dur(req(get("down"), "down")?)?,
        },
        "straggler" => Injection::Straggler {
            node: idx(req(get("node"), "node")?)?,
            factor: factor(req(get("factor"), "factor")?)?,
        },
        "partition" => Injection::Partition {
            node: idx(req(get("node"), "node")?)?,
            at: dur(req(get("at"), "at")?)?,
            duration: dur(req(get("dur"), "dur")?)?,
            delay: dur(req(get("delay"), "delay")?)?,
        },
        "jitter" => Injection::Jitter {
            node: get("node").map(str::to_owned).map(idx).transpose()?,
            mean: dur(req(get("mean"), "mean")?)?,
        },
        other => {
            return Err(format!(
                "unknown injection kind `{other}` (dvfs, steal, numa, crash, straggler, partition, jitter)"
            ))
        }
    };
    if let Some((k, _)) = pairs.iter().find(|(k, _)| !used.contains(k)) {
        return Err(format!("unknown key `{k}` for `{kind}`"));
    }
    Ok(parsed)
}

/// Configuration of one mechanistic cluster campaign.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub app: App,
    /// Simulated nodes (one BSP rank per node, as in the paper's
    /// scale discussion).
    pub nodes: usize,
    /// Per-node simulated duration.
    pub duration: Nanos,
    /// Compute granularity between barriers.
    pub granularity: Nanos,
    /// Campaign seed; node `i` runs with
    /// `derive_indexed_seed(seed, "cluster-node", i)`.
    pub seed: u64,
    /// CPUs per node (None = the paper's 8).
    pub cpus: Option<u16>,
    /// Cap on simulated phases (0 = as many as the traces allow).
    pub max_phases: usize,
    /// Stagger node start offsets (the default). Real cluster nodes
    /// boot at arbitrary points of their periodic-noise cycles; with
    /// `false`, every rank starts its trace at 0 and periodic noise is
    /// phase-aligned across the whole cluster — the perfectly
    /// co-scheduled ablation, where tick noise does *not* amplify.
    pub stagger: bool,
    /// Host worker threads for the node simulations (None = the
    /// calling thread's worker budget, `available_parallelism` at top
    /// level). Does not affect results.
    pub workers: Option<usize>,
    /// Injected perturbations (empty = the healthy cluster).
    pub inject: Vec<Injection>,
    /// Simulation tier.
    pub tier: Tier,
}

impl ClusterConfig {
    pub fn new(app: App, nodes: usize, duration: Nanos) -> ClusterConfig {
        ClusterConfig {
            app,
            nodes,
            duration,
            granularity: Nanos::from_millis(1),
            seed: 0x0511_2011,
            cpus: None,
            max_phases: 0,
            stagger: true,
            workers: None,
            inject: Vec::new(),
            tier: Tier::Mechanistic,
        }
    }

    /// How many nodes the campaign simulates mechanistically.
    pub fn sample_size(&self) -> usize {
        let n = self.nodes;
        match self.tier {
            Tier::Mechanistic => n,
            Tier::Auto => n.min(AUTO_SAMPLE),
            Tier::Sampled { fraction } => {
                let m = (fraction * n as f64).round() as usize;
                m.clamp(MIN_SAMPLE.min(n), n)
            }
        }
    }

    /// The stratified mechanistic sample. Nodes are ordered by their
    /// staggered start offset and split into strata so the sample
    /// covers the whole stagger phase (the surrogate must see ranks at
    /// every alignment of the periodic comb); within a stratum the
    /// pick order is a seed-derived hash — deterministic, and
    /// independent of worker count. Nodes targeted by kernel-tier
    /// injections are forced into the sample: their traces differ
    /// mechanistically and no surrogate fitted to healthy nodes can
    /// synthesize them. (Cluster-tier faults need no forcing — they
    /// apply at coupling time to mechanistic and synthetic ranks
    /// alike.)
    pub fn sample_plan(&self) -> SamplePlan {
        let n = self.nodes;
        let m = self.sample_size();
        if m >= n {
            return SamplePlan::full(n);
        }
        let mut forced: Vec<usize> = self
            .inject
            .iter()
            .filter_map(|inj| match inj {
                Injection::Dvfs { node: Some(i), .. }
                | Injection::Steal { node: Some(i), .. }
                | Injection::Numa { node: Some(i), .. }
                    if *i < n =>
                {
                    Some(*i)
                }
                _ => None,
            })
            .collect();
        forced.sort_unstable();
        forced.dedup();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (self.node_start(i), i));
        let strata = m.clamp(1, 8);
        let mut chosen: Vec<usize> = Vec::with_capacity(m + forced.len());
        for s in 0..strata {
            let slice = &order[s * n / strata..(s + 1) * n / strata];
            let quota = (s + 1) * m / strata - s * m / strata;
            let mut stratum = slice.to_vec();
            stratum.sort_by_key(|&i| {
                (
                    forced.binary_search(&i).is_err(),
                    derive_indexed_seed(self.seed, SAMPLE_LABEL, i as u64),
                    i,
                )
            });
            chosen.extend(stratum.into_iter().take(quota));
        }
        chosen.extend(forced);
        chosen.sort_unstable();
        chosen.dedup();
        SamplePlan {
            mechanistic: chosen,
            strata,
        }
    }

    /// The seed node `index` runs with.
    pub fn node_seed(&self, index: usize) -> u64 {
        derive_indexed_seed(self.seed, NODE_SEED_LABEL, index as u64)
    }

    /// The trace position node `index`'s BSP rank starts at. Seed- and
    /// index-derived, uniform in `[0, duration / 8)`, so node clocks
    /// are decorrelated deterministically. All zero when `stagger` is
    /// off.
    pub fn node_start(&self, index: usize) -> Nanos {
        if !self.stagger {
            return Nanos::ZERO;
        }
        let span = (self.duration.as_nanos() / STAGGER_DIV).max(1);
        // Widening multiply instead of `% span`: maps the full u64 draw
        // uniformly into [0, span) with no modulo bias (span is nowhere
        // near a divisor of 2^64 for realistic durations).
        Nanos(bounded(
            derive_indexed_seed(self.seed, STAGGER_LABEL, index as u64),
            span,
        ))
    }

    /// The single-node experiment for node `index`, with any
    /// kernel-tier injections that target it lowered into its
    /// [`KernelPerturbations`].
    pub fn node_experiment(&self, index: usize) -> ExperimentConfig {
        let mut config =
            ExperimentConfig::paper(self.app, self.duration).with_seed(self.node_seed(index));
        if let Some(cpus) = self.cpus {
            config.node.cpus = cpus;
            config.nranks = cpus as usize;
        }
        let perturb = self.node_perturb(index);
        if !perturb.is_empty() {
            config.node.perturb = perturb;
        }
        config
    }

    /// The kernel-tier perturbations node `index` runs with.
    pub fn node_perturb(&self, index: usize) -> KernelPerturbations {
        let mut p = KernelPerturbations::default();
        for inj in &self.inject {
            match inj {
                Injection::Dvfs {
                    node,
                    period,
                    duty,
                    factor,
                } if Injection::applies(node, index) => p.dvfs.push(DvfsSpec {
                    cpu: None,
                    period: *period,
                    duty: *duty,
                    factor: *factor,
                }),
                Injection::Steal {
                    node,
                    mean_interval,
                    mean_duration,
                } if Injection::applies(node, index) => p.steal.push(StealSpec {
                    cpu: None,
                    mean_interval: *mean_interval,
                    mean_duration: *mean_duration,
                }),
                Injection::Numa {
                    node,
                    split_cpu,
                    factor,
                } if Injection::applies(node, index) => {
                    p.numa = Some(NumaSpec {
                        split_cpu: *split_cpu,
                        factor: *factor,
                    })
                }
                _ => {}
            }
        }
        p
    }

    /// The cluster-tier faults rank `index` couples with. A pure
    /// function of `(config, index)` — byte-identical across worker
    /// counts.
    pub fn rank_faults(&self, index: usize) -> RankFaults {
        let mut f = RankFaults::default();
        for inj in &self.inject {
            match inj {
                Injection::Crash { node, at, down } if *node == index => {
                    f.outages.push((*at, *at + *down));
                }
                Injection::Straggler { node, factor } if *node == index => {
                    f.slow_factor *= factor;
                }
                Injection::Partition {
                    node,
                    at,
                    duration,
                    delay,
                } if *node == index => f.delays.push(DelayWindow {
                    start: *at,
                    end: *at + *duration,
                    delay: *delay,
                }),
                Injection::Jitter { node, mean } if Injection::applies(node, index) => {
                    f.jitter_mean += *mean;
                    f.jitter_seed = derive_indexed_seed(self.seed, JITTER_LABEL, index as u64);
                }
                _ => {}
            }
        }
        f
    }

    fn bsp(&self) -> BspParams {
        BspParams {
            max_phases: self.max_phases,
            ..BspParams::new(self.granularity)
        }
    }
}

/// Which nodes of a campaign run mechanistically. A pure function of
/// the config (computed before any parallelism), so tiered campaigns
/// keep the byte-identical-across-workers contract.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplePlan {
    /// Sorted global node indices simulated mechanistically.
    pub mechanistic: Vec<usize>,
    /// Stagger-phase strata the sample was drawn from.
    pub strata: usize,
}

impl SamplePlan {
    /// The untiered plan: every node mechanistic.
    pub fn full(n: usize) -> SamplePlan {
        SamplePlan {
            mechanistic: (0..n).collect(),
            strata: 1,
        }
    }

    /// Whether every one of the campaign's `n` nodes is mechanistic.
    pub fn is_full(&self, n: usize) -> bool {
        self.mechanistic.len() == n
    }
}

/// One surrogate-validation point: the mechanistic sample's first `v`
/// ranks coupled as-is versus `v` synthetic twins drawn at the same
/// starts and faults.
#[derive(Clone, Debug, Serialize)]
pub struct TierValidation {
    pub nodes: usize,
    pub mechanistic_mean_max: Nanos,
    pub surrogate_mean_max: Nanos,
    /// surrogate / mechanistic mean per-phase max noise (1.0 = the
    /// surrogate amplifies exactly like the ground truth).
    pub ratio: f64,
}

/// Tier metadata embedded in the report so tiered runs are
/// self-describing (absent when the campaign was fully mechanistic).
#[derive(Clone, Debug, Serialize)]
pub struct TierMeta {
    /// `"auto"` or `"sampled"`.
    pub mode: String,
    /// Achieved mechanistic fraction (after clamping and forcing).
    pub sample_fraction: f64,
    pub strata: usize,
    pub mechanistic_nodes: usize,
    pub synthetic_nodes: usize,
    /// Global node indices of the mechanistic sample (the report's
    /// `node_seeds`, `node_starts` and `ranks` rows follow this
    /// order).
    pub mechanistic_indices: Vec<usize>,
    /// Surrogate-vs-mechanistic amplification at sub-scales of the
    /// sample.
    pub validation: Vec<TierValidation>,
}

/// Streamed accounting over the synthetic rank population: the
/// per-rank [`RankStats`] rows are folded into count/mean/M2/max plus
/// a fixed-size log2 sketch instead of being materialized in the
/// report (at 100k ranks the row vector would dominate it).
#[derive(Clone, Debug, Serialize)]
pub struct RankSummary {
    pub count: usize,
    pub mean_self_noise: Nanos,
    pub stddev_self_noise: Nanos,
    pub max_self_noise: Nanos,
    pub mean_wait: Nanos,
    /// Phases in which a synthetic rank paced the barrier.
    pub critical_phases: usize,
    /// log2 sketch of per-rank self-noise: bucket 0 counts noise-free
    /// ranks, bucket k ranks with self-noise in `[2^(k-1), 2^k)` ns.
    /// Trailing zero buckets are trimmed.
    pub self_noise_log2: Vec<u64>,
}

impl RankSummary {
    fn fold<'a>(rows: impl Iterator<Item = &'a RankStats>) -> RankSummary {
        let (mut count, mut mean, mut m2) = (0usize, 0.0f64, 0.0f64);
        let (mut max, mut wait_sum) = (Nanos::ZERO, 0u128);
        let mut critical = 0usize;
        let mut hist = [0u64; 65];
        for r in rows {
            count += 1;
            let v = r.self_noise.as_nanos() as f64;
            let delta = v - mean;
            mean += delta / count as f64;
            m2 += delta * (v - mean);
            max = max.max(r.self_noise);
            wait_sum += r.wait.as_nanos() as u128;
            critical += r.critical_phases;
            let n = r.self_noise.as_nanos();
            let bucket = if n == 0 {
                0
            } else {
                64 - n.leading_zeros() as usize
            };
            hist[bucket] += 1;
        }
        let variance = if count > 1 {
            m2 / (count - 1) as f64
        } else {
            0.0
        };
        let last = hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        RankSummary {
            count,
            mean_self_noise: Nanos(if count == 0 { 0 } else { mean.round() as u64 }),
            stddev_self_noise: Nanos(variance.sqrt().round() as u64),
            max_self_noise: max,
            mean_wait: Nanos(if count == 0 {
                0
            } else {
                (wait_sum / count as u128) as u64
            }),
            critical_phases: critical,
            self_noise_log2: hist[..last].to_vec(),
        }
    }
}

/// One point of the mechanistic amplification curve, with the analytic
/// expectation on the same granularity for comparison.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterScalePoint {
    pub nodes: usize,
    pub phases: usize,
    /// Mean per-phase critical-path noise (mechanistic `E[max_N W]`).
    pub mean_max_noise: Nanos,
    pub slowdown: f64,
    pub efficiency: f64,
    /// `ScaleModel::expected_max_noise` on node 0's windows at this N.
    pub analytic_expected_max: Nanos,
    pub analytic_slowdown: f64,
    /// Which noise class paid the most barrier time at this scale.
    pub dominant: Option<NoiseCategory>,
    /// Barrier-paid noise by category at this scale.
    pub barrier_paid: Vec<(NoiseCategory, Nanos)>,
}

/// The serializable cluster campaign report. Byte-identical for a
/// fixed config regardless of worker threads.
#[derive(Clone, Debug, Serialize)]
pub struct ClusterReport {
    pub app: App,
    pub nodes: usize,
    pub seed: u64,
    /// Seeds of the mechanistically simulated nodes (all nodes when
    /// untiered; the sample — see `tier.mechanistic_indices` — when
    /// tiered).
    pub node_seeds: Vec<u64>,
    /// Staggered start offsets of the same nodes (all zero when
    /// `stagger` was off).
    pub node_starts: Vec<Nanos>,
    pub duration: Nanos,
    pub granularity: Nanos,
    /// Phases completed at full scale.
    pub phases: usize,
    pub ideal: Nanos,
    pub elapsed: Nanos,
    pub slowdown: f64,
    pub efficiency: f64,
    /// Mechanistic mean per-phase max noise at full scale.
    pub mean_max_noise: Nanos,
    /// Mean single-node window noise (the N=1 baseline).
    pub single_node_mean_noise: Nanos,
    /// Analytic expectation at full scale, same granularity.
    pub analytic_expected_max: Nanos,
    /// mechanistic / analytic (1.0 = perfect agreement). Expect
    /// slightly < 1: the full dynamics absorb noise in barrier slack,
    /// which the analytic model cannot. (With `stagger` off the gap
    /// widens dramatically — phase-aligned periodic noise does not
    /// amplify.)
    pub mechanistic_over_analytic: f64,
    /// Mean per-phase max noise of the *fixed-grid* coupling — the
    /// run with the analytic model's sampling assumptions (no skew,
    /// no elongation, no absorption). Differentially comparable to
    /// `analytic_expected_max` within Monte-Carlo tolerance.
    pub grid_mean_max_noise: Nanos,
    /// grid / analytic on pooled windows (the tight differential).
    pub grid_over_analytic: f64,
    /// Analytic expectation from the *pooled* windows of all nodes
    /// (removes node-to-node sampling variation from the grid
    /// comparison).
    pub pooled_expected_max: Nanos,
    /// Which class paid for the barrier, full scale.
    pub barrier_paid: Vec<(NoiseCategory, Nanos)>,
    /// Which *injected* fault class paid for the barrier, full scale
    /// (all zero when nothing was injected).
    pub barrier_injected: Vec<(InjectedClass, Nanos)>,
    /// Per-rank compute/self-noise/wait/critical accounting
    /// (mechanistic ranks only when tiered; `RankStats::rank` is the
    /// global rank index either way).
    pub ranks: Vec<RankStats>,
    /// Folded accounting of the synthetic rank population (tiered
    /// campaigns only).
    pub synthetic_ranks: Option<RankSummary>,
    /// Tier metadata (absent when fully mechanistic — including
    /// `sampled:1.0`, which is byte-identical to mechanistic).
    pub tier: Option<TierMeta>,
    /// Amplification at power-of-two sub-scales of the same campaign.
    pub curve: Vec<ClusterScalePoint>,
}

/// A completed cluster campaign: the config, the sampling plan and the
/// serializable report. The mechanistic node runs are not kept: each
/// worker reduces its node's trace to a rank series and drops it
/// (re-run `run_app(config.node_experiment(i))` to inspect a node).
pub struct ClusterOutcome {
    pub config: ClusterConfig,
    pub plan: SamplePlan,
    pub report: ClusterReport,
}

/// [`parallel_map`] over jobs of the given `sizes`, handed out
/// largest first so the longest job never starts last. Results are
/// still gathered by job index.
fn largest_first<T: Send>(
    sizes: &[usize],
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(sizes[j]));
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(sizes.len(), || None);
    let done = parallel_map(order.len(), workers, |k| job(order[k]));
    for (j, value) in order.into_iter().zip(done) {
        out[j] = Some(value);
    }
    out.into_iter().map(|v| v.expect("every job ran")).collect()
}

fn worker_count(config: &ClusterConfig) -> usize {
    config
        .workers
        .unwrap_or_else(|| default_workers(usize::MAX))
}

/// Extract one node's BSP rank input on the bare trace clock: the
/// observed rank's noise chart and the trace horizon. Start offsets
/// and faults are applied at assembly.
fn bare_series(run: &AppRun) -> RankSeries {
    RankSeries::new(
        NoiseChart::build(&run.analysis, run.observed_rank()),
        run.result.end_time,
    )
}

/// Build [`ScaleModel`]'s window distribution from a rank series
/// directly (shared by the in-memory and the stored path, so both
/// produce the same analytic column). Windows are bucketed from the
/// rank's staggered start, so the analytic model resamples exactly the
/// windows the fixed-grid coupling walks. Works for synthetic ranks
/// too (their windows are closed-form surrogate queries).
fn model_from_series(series: &RankSeries, granularity: Nanos) -> ScaleModel {
    ScaleModel::from_windows(granularity, series.windows(granularity))
}

/// Synthetic ranks for global node `indices`, drawn under the seed
/// `label` at each node's start offset and faults. Each rank compiles
/// its noise stream on construction, so they are built on the worker
/// pool.
fn synthetic_series(
    config: &ClusterConfig,
    surrogate: &Arc<NoiseSurrogate>,
    label: &str,
    indices: &[usize],
) -> Vec<RankSeries> {
    let chunks: Vec<&[usize]> = indices.chunks(SYNTH_CHUNK).collect();
    parallel_map(chunks.len(), worker_count(config), |c| {
        chunks[c]
            .iter()
            .map(|&i| {
                RankSeries::synthetic(SyntheticRank::new(
                    surrogate.clone(),
                    derive_indexed_seed(config.seed, label, i as u64),
                ))
                .with_start(config.node_start(i))
                .with_faults(config.rank_faults(i))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Fit the surrogate (when the plan leaves synthetic ranks) and build
/// the full rank population: mechanistic sample members keep their
/// simulated series, every other rank is a synthetic draw against the
/// shared surrogate. Start offsets and cluster-tier faults apply to
/// both kinds identically — staggering and fault injection survive
/// synthesis mechanically.
fn assemble_series(
    config: &ClusterConfig,
    plan: &SamplePlan,
    sample: Vec<RankSeries>,
) -> (Vec<RankSeries>, Option<Arc<NoiseSurrogate>>) {
    let surrogate = (!plan.is_full(config.nodes))
        .then(|| Arc::new(NoiseSurrogate::fit(&sample, config.granularity)));
    let synthetic_indices: Vec<usize> = (0..config.nodes)
        .filter(|i| plan.mechanistic.binary_search(i).is_err())
        .collect();
    let mut synthetic = match &surrogate {
        Some(sur) => synthetic_series(config, sur, SYNTH_LABEL, &synthetic_indices),
        None => Vec::new(),
    }
    .into_iter();
    let mut mech = plan.mechanistic.iter().zip(sample).peekable();
    let series = (0..config.nodes)
        .map(|i| match mech.next_if(|(&m, _)| m == i) {
            Some((_, s)) => s
                .with_start(config.node_start(i))
                .with_faults(config.rank_faults(i)),
            None => synthetic
                .next()
                .expect("synthetic rank outside a tiered plan"),
        })
        .collect();
    (series, surrogate)
}

/// The prefixes of the mechanistic sample at which the surrogate is
/// validated against its own ground truth: powers of two from 4, plus
/// the (capped) sample size.
fn validation_scales(plan: &SamplePlan) -> Vec<usize> {
    let cap = plan.mechanistic.len().min(VALIDATE_CAP);
    let mut scales = Vec::new();
    let mut v = 4;
    while v <= cap {
        scales.push(v);
        v *= 2;
    }
    if scales.last() != Some(&cap) && cap >= 4 {
        scales.push(cap);
    }
    scales
}

/// The power-of-two sub-scales reported by the curve (always includes
/// 1 and `n`).
fn curve_scales(n: usize) -> Vec<usize> {
    let mut scales = Vec::new();
    let mut k = 1;
    while k < n {
        scales.push(k);
        k *= 2;
    }
    if n > 0 {
        scales.push(n);
    }
    scales
}

/// Couple the rank series at every sub-scale and assemble the report.
/// Every coupling — the curve prefixes, the fixed-grid differential
/// and, when tiered, both sides of each surrogate-validation prefix —
/// is an independent streamed [`CollectiveBreakdown::from_ranks`] fold
/// (nothing O(ranks×phases) is materialized). They run on one worker
/// pool, largest first, and gather by index, so the report stays
/// byte-identical at any worker count. The analytic columns use the
/// exact order-statistics estimator, whose cost is independent of the
/// node count (Monte-Carlo resampling at 100k nodes would dwarf the
/// coupling itself).
fn build_report(
    config: &ClusterConfig,
    plan: &SamplePlan,
    series: &[RankSeries],
    surrogate: Option<&Arc<NoiseSurrogate>>,
) -> ClusterReport {
    let params = config.bsp();
    let tiered = !plan.is_full(config.nodes);
    // Analytic model: node 0's fixed-grid windows, the same input
    // `ScaleModel::from_run` would build.
    let model = series
        .first()
        .map(|s| model_from_series(s, config.granularity))
        .unwrap_or_else(|| ScaleModel::from_windows(config.granularity, Vec::new()));
    let g = config.granularity.as_nanos() as f64;

    // Validation couples the sample's first `v` ranks as-is against `v`
    // synthetic twins at the same starts and faults. The twins use a
    // draw-seed label distinct from the campaign's synthetic ranks, so
    // validation never shares draws with the population it vouches for.
    let validation_scales = if tiered {
        validation_scales(plan)
    } else {
        Vec::new()
    };
    let validated = &plan.mechanistic[..validation_scales.last().copied().unwrap_or(0)];
    let twins = surrogate.map_or_else(Vec::new, |sur| {
        synthetic_series(config, sur, VALIDATE_LABEL, validated)
    });
    let all: Vec<&RankSeries> = series.iter().collect();
    let sample: Vec<&RankSeries> = validated.iter().map(|&i| &series[i]).collect();
    let twins: Vec<&RankSeries> = twins.iter().collect();

    let scales = curve_scales(config.nodes);
    let grid_params = params.fixed_grid();
    let mut jobs: Vec<(&[&RankSeries], &BspParams)> =
        scales.iter().map(|&k| (&all[..k], &params)).collect();
    jobs.push((&all, &grid_params));
    for &v in &validation_scales {
        jobs.push((&sample[..v], &params));
        jobs.push((&twins[..v], &params));
    }
    let sizes: Vec<usize> = jobs.iter().map(|(ranks, _)| ranks.len()).collect();
    let mut breakdowns = largest_first(&sizes, worker_count(config), |j| {
        CollectiveBreakdown::from_ranks(jobs[j].0, jobs[j].1)
    });
    let validation: Vec<TierValidation> = breakdowns
        .split_off(scales.len() + 1)
        .chunks(2)
        .zip(&validation_scales)
        .map(|(pair, &v)| {
            let (m, s) = (pair[0].mean_max_noise, pair[1].mean_max_noise);
            TierValidation {
                nodes: v,
                mechanistic_mean_max: m,
                surrogate_mean_max: s,
                ratio: if m.is_zero() {
                    1.0
                } else {
                    s.as_nanos() as f64 / m.as_nanos() as f64
                },
            }
        })
        .collect();
    let grid = breakdowns.pop().expect("fixed-grid job");
    let mut curve = Vec::new();
    for (&k, b) in scales.iter().zip(&breakdowns) {
        let analytic = model.expected_max_noise_exact(k as u64);
        curve.push(ClusterScalePoint {
            nodes: k,
            phases: b.nphases,
            mean_max_noise: b.mean_max_noise,
            slowdown: b.slowdown,
            efficiency: b.efficiency,
            analytic_expected_max: analytic,
            analytic_slowdown: (g + analytic.as_nanos() as f64) / g,
            dominant: b.dominant(),
            barrier_paid: b.barrier_paid.clone(),
        });
    }
    // `curve_scales` ends at the campaign's full scale, so the last
    // breakdown doubles as the headline numbers.
    let full = breakdowns
        .pop()
        .unwrap_or_else(|| CollectiveBreakdown::from_ranks::<RankSeries>(&[], &params));
    let analytic_expected_max = model.expected_max_noise_exact(config.nodes.max(1) as u64);
    let mech = full.mean_max_noise.as_nanos() as f64;
    let ana = analytic_expected_max.as_nanos() as f64;

    // The tight differential: fixed-grid coupling (solved above) vs
    // the analytic expectation over pooled windows. Both estimate
    // E[max_N W] over the same empirical distribution; they differ
    // only by with/without-replacement sampling. Pooling is capped —
    // beyond a few hundred ranks more windows no longer move the
    // estimate.
    let pooled_windows: Vec<Nanos> = series
        .iter()
        .take(POOL_CAP)
        .flat_map(|s| s.windows(config.granularity))
        .collect();
    let pooled = ScaleModel::from_windows(config.granularity, pooled_windows);
    let pooled_expected_max = pooled.expected_max_noise_exact(config.nodes.max(1) as u64);
    let grid_mean = grid.mean_max_noise.as_nanos() as f64;
    let pooled_ana = pooled_expected_max.as_nanos() as f64;

    let (node_seeds, node_starts) = if tiered {
        (
            plan.mechanistic
                .iter()
                .map(|&i| config.node_seed(i))
                .collect(),
            plan.mechanistic
                .iter()
                .map(|&i| config.node_start(i))
                .collect(),
        )
    } else {
        (
            (0..config.nodes).map(|i| config.node_seed(i)).collect(),
            (0..config.nodes).map(|i| config.node_start(i)).collect(),
        )
    };
    let (ranks, synthetic_ranks, tier) = if tiered {
        let mut mech_rows = Vec::with_capacity(plan.mechanistic.len());
        let mut synth_rows = Vec::with_capacity(series.len() - plan.mechanistic.len());
        let mut next_mech = plan.mechanistic.iter().copied().peekable();
        for row in full.ranks {
            if next_mech.peek() == Some(&row.rank) {
                next_mech.next();
                mech_rows.push(row);
            } else {
                synth_rows.push(row);
            }
        }
        let meta = TierMeta {
            mode: match config.tier {
                Tier::Auto => "auto".to_string(),
                _ => "sampled".to_string(),
            },
            sample_fraction: plan.mechanistic.len() as f64 / config.nodes.max(1) as f64,
            strata: plan.strata,
            mechanistic_nodes: plan.mechanistic.len(),
            synthetic_nodes: config.nodes - plan.mechanistic.len(),
            mechanistic_indices: plan.mechanistic.clone(),
            validation,
        };
        (
            mech_rows,
            Some(RankSummary::fold(synth_rows.iter())),
            Some(meta),
        )
    } else {
        (full.ranks, None, None)
    };

    ClusterReport {
        app: config.app,
        nodes: config.nodes,
        seed: config.seed,
        node_seeds,
        node_starts,
        duration: config.duration,
        granularity: config.granularity,
        phases: full.nphases,
        ideal: full.ideal,
        elapsed: full.elapsed,
        slowdown: full.slowdown,
        efficiency: full.efficiency,
        mean_max_noise: full.mean_max_noise,
        single_node_mean_noise: model.mean_window_noise(),
        analytic_expected_max,
        mechanistic_over_analytic: if ana > 0.0 { mech / ana } else { 1.0 },
        grid_mean_max_noise: grid.mean_max_noise,
        grid_over_analytic: if pooled_ana > 0.0 {
            grid_mean / pooled_ana
        } else {
            1.0
        },
        pooled_expected_max,
        barrier_paid: full.barrier_paid,
        barrier_injected: full.barrier_injected,
        ranks,
        synthetic_ranks,
        tier,
        curve,
    }
}

/// Runtime options that do not affect results (progress reporting).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Print a progress line to stderr after every `n` completed node
    /// simulations; `Some(0)` picks a stride of ~10% of the campaign.
    pub progress_every: Option<usize>,
}

fn progress_stride(opts: RunOpts, total: usize) -> Option<usize> {
    opts.progress_every
        .map(|every| {
            if every == 0 {
                (total / 10).max(1)
            } else {
                every
            }
        })
        .filter(|_| total > 1)
}

/// Run the cluster campaign in memory: the plan's mechanistic nodes
/// simulate in parallel, the rest of the population (if any) is
/// synthesized from the fitted surrogate, then the BSP coupling and
/// report.
pub fn run_cluster(config: &ClusterConfig) -> ClusterOutcome {
    run_cluster_opts(config, RunOpts::default())
}

/// [`run_cluster`] with runtime options.
pub fn run_cluster_opts(config: &ClusterConfig, opts: RunOpts) -> ClusterOutcome {
    let plan = config.sample_plan();
    // Each worker reduces its node's run to the rank series and drops
    // the trace there, so the sample's traces are never all resident.
    let Ok(report) = run_sample(config, &plan, opts, |i| {
        Ok::<_, std::convert::Infallible>(bare_series(&run_app(config.node_experiment(i))))
    });
    ClusterOutcome {
        config: config.clone(),
        plan,
        report,
    }
}

/// Run the cluster with every node *spilling* its trace to
/// `dir/node-<i>.osn` while it runs (the [`record_app`] path: the
/// traces are never memory-resident), then rebuild its rank series by
/// streamed out-of-core analysis of that store on the same worker. The
/// report is byte-identical to [`run_cluster`]'s on the same config.
/// Only the plan's mechanistic nodes are recorded (synthetic ranks
/// have no trace), so a tiered 100k-rank campaign spills a
/// sample-sized store.
pub fn run_cluster_stored(
    config: &ClusterConfig,
    dir: &Path,
    opts: StoreOptions,
    run_opts: RunOpts,
) -> io::Result<(ClusterReport, Vec<PathBuf>)> {
    std::fs::create_dir_all(dir)?;
    let plan = config.sample_plan();
    let path = |i: usize| dir.join(format!("node-{i}.osn"));
    let report = run_sample(config, &plan, run_opts, |i| {
        record_app(config.node_experiment(i), &path(i), opts)?;
        stored_rank_series(&path(i))
    })?;
    Ok((report, plan.mechanistic.iter().map(|&i| path(i)).collect()))
}

/// The one node loop: map each of the plan's mechanistic node indices
/// to its rank series on the worker pool (printing progress every
/// stride), fill in the synthetic ranks and couple them into the
/// report. The first node error, in node order, fails the campaign.
fn run_sample<E: Send>(
    config: &ClusterConfig,
    plan: &SamplePlan,
    opts: RunOpts,
    node: impl Fn(usize) -> Result<RankSeries, E> + Sync,
) -> Result<ClusterReport, E> {
    let total = plan.mechanistic.len();
    let stride = progress_stride(opts, total);
    let done = AtomicUsize::new(0);
    let sample = parallel_map(total, worker_count(config), |k| {
        let series = node(plan.mechanistic[k]);
        if let Some(stride) = stride {
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if d.is_multiple_of(stride) || d == total {
                eprintln!("cluster: {d}/{total} mechanistic nodes done");
            }
        }
        series
    });
    let sample = sample.into_iter().collect::<Result<Vec<_>, E>>()?;
    let (series, surrogate) = assemble_series(config, plan, sample);
    Ok(build_report(config, plan, &series, surrogate.as_ref()))
}

/// Rebuild one node's bare rank series from its store file,
/// out-of-core.
fn stored_rank_series(path: &Path) -> io::Result<RankSeries> {
    let (meta, analysis) = analyze_store(&crate::store::Reader::open(path)?)?;
    let observed = observed_rank_of(&analysis, &meta.ranks, meta.config.node.net_irq_cpu);
    Ok(RankSeries::new(
        NoiseChart::build(&analysis, observed),
        meta.result.end_time,
    ))
}

impl ClusterReport {
    /// Human-readable campaign summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} cluster — {} nodes, {} phases of {}, seed {:#x}",
            self.app.name().to_uppercase(),
            self.nodes,
            self.phases,
            self.granularity,
            self.seed,
        );
        let _ = writeln!(
            out,
            "  ideal {}  elapsed {}  slowdown {:.4}x  efficiency {:.2}%",
            self.ideal,
            self.elapsed,
            self.slowdown,
            self.efficiency * 100.0
        );
        let _ = writeln!(
            out,
            "  mean max noise/phase {} (analytic {}, mech/analytic {:.3})",
            self.mean_max_noise, self.analytic_expected_max, self.mechanistic_over_analytic
        );
        let _ = writeln!(
            out,
            "  fixed-grid differential: {} vs pooled analytic {} (ratio {:.3})",
            self.grid_mean_max_noise, self.pooled_expected_max, self.grid_over_analytic
        );
        if let Some(t) = &self.tier {
            let _ = writeln!(
                out,
                "  tier: {} — {} mechanistic + {} synthetic ranks ({:.1}% sampled, {} strata)",
                t.mode,
                t.mechanistic_nodes,
                t.synthetic_nodes,
                t.sample_fraction * 100.0,
                t.strata,
            );
            for v in &t.validation {
                let _ = writeln!(
                    out,
                    "    surrogate validation @ {:>4} ranks: {} vs mechanistic {} (ratio {:.3})",
                    v.nodes, v.surrogate_mean_max, v.mechanistic_mean_max, v.ratio
                );
            }
        }
        let _ = writeln!(out, "\n  amplification curve (mechanistic vs analytic):");
        for p in &self.curve {
            let _ = writeln!(
                out,
                "    {:>5} nodes: {:>8.4}x slowdown ({:>8.4}x analytic)  E[max W] {:>10} ({:>10})  dominant {}",
                p.nodes,
                p.slowdown,
                p.analytic_slowdown,
                p.mean_max_noise.to_string(),
                p.analytic_expected_max.to_string(),
                p.dominant.map(|c| c.name()).unwrap_or("-"),
            );
        }
        let _ = writeln!(out, "\n  barrier paid by noise class (full scale):");
        let total = self.barrier_paid.iter().map(|(_, d)| *d).sum::<Nanos>();
        for (cat, d) in &self.barrier_paid {
            let share = if total.is_zero() {
                0.0
            } else {
                d.as_nanos() as f64 / total.as_nanos() as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "    {:<12} {:>12}  {:>5.1}%",
                cat.name(),
                d.to_string(),
                share
            );
        }
        let injected_total = self.barrier_injected.iter().map(|(_, d)| *d).sum::<Nanos>();
        if !injected_total.is_zero() {
            let _ = writeln!(out, "\n  barrier paid by injected fault class:");
            for (class, d) in &self.barrier_injected {
                let share = d.as_nanos() as f64 / injected_total.as_nanos() as f64 * 100.0;
                let _ = writeln!(
                    out,
                    "    {:<12} {:>12}  {:>5.1}%",
                    class.name(),
                    d.to_string(),
                    share
                );
            }
        }
        let _ = writeln!(out, "\n  per-rank accounting:");
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "    rank {:>3}: compute {}  self-noise {}  wait {}  critical in {}/{} phases",
                r.rank, r.compute, r.self_noise, r.wait, r.critical_phases, self.phases
            );
        }
        if let Some(s) = &self.synthetic_ranks {
            let _ = writeln!(
                out,
                "    synthetic ({} ranks): self-noise mean {} ± {} (max {})  wait mean {}  critical in {}/{} phases",
                s.count,
                s.mean_self_noise,
                s.stddev_self_noise,
                s.max_self_noise,
                s.mean_wait,
                s.critical_phases,
                self.phases,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(nodes: usize) -> ClusterConfig {
        let mut config = ClusterConfig::new(App::Sphot, nodes, Nanos::from_millis(400));
        config.cpus = Some(2);
        config.seed = 77;
        config
    }

    #[test]
    fn cluster_runs_and_amplifies() {
        let outcome = run_cluster(&tiny(3));
        let r = &outcome.report;
        assert_eq!(r.nodes, 3);
        assert!(r.phases > 100, "{} phases", r.phases);
        assert!(r.slowdown >= 1.0);
        // Amplification: the 3-node barrier pays at least the mean
        // single-node window noise.
        assert!(r.mean_max_noise >= r.single_node_mean_noise);
        // Curve covers 1, 2, 3 and is monotone in expected max noise.
        let scales: Vec<usize> = r.curve.iter().map(|p| p.nodes).collect();
        assert_eq!(scales, vec![1, 2, 3]);
        assert!(r.curve[0].mean_max_noise <= r.curve[2].mean_max_noise);
        // Per-rank accounting closes.
        for rank in &r.ranks {
            assert_eq!(rank.compute + rank.self_noise + rank.wait, r.elapsed);
        }
        // Render mentions the dominant class section.
        assert!(r.render().contains("barrier paid by noise class"));
    }

    #[test]
    fn node_seeds_are_distinct_and_reported() {
        let config = tiny(4);
        let outcome = run_cluster(&config);
        let seeds = &outcome.report.node_seeds;
        assert_eq!(seeds.len(), 4);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 4);
        for (i, s) in seeds.iter().enumerate() {
            assert_eq!(*s, config.node_seed(i));
        }
        // Distinct seeds produce distinct traces.
        let node0 = run_app(config.node_experiment(0)).trace;
        let node1 = run_app(config.node_experiment(1)).trace;
        assert_ne!(node0.len(), 0, "node 0 produced no events");
        assert_ne!(
            node0.events(),
            node1.events(),
            "nodes 0 and 1 are identical — seed derivation broken"
        );
    }

    #[test]
    fn max_phases_is_honored() {
        let mut config = tiny(2);
        config.max_phases = 25;
        let outcome = run_cluster(&config);
        assert_eq!(outcome.report.phases, 25);
    }

    #[test]
    fn parse_inject_spec_covers_every_kind() {
        let spec = "dvfs:period=10ms,duty=0.2,factor=3,node=1; \
                    steal:interval=5ms,duration=200us; \
                    numa:split=4,factor=2.5; \
                    crash:node=1,at=100ms,down=50ms; \
                    straggler:node=2,factor=1.5; \
                    partition:node=0,at=50ms,dur=100ms,delay=2ms; \
                    jitter:mean=50us";
        let specs = parse_inject_spec(spec).unwrap();
        assert_eq!(specs.len(), 7);
        assert_eq!(
            specs[0],
            Injection::Dvfs {
                node: Some(1),
                period: Nanos::from_millis(10),
                duty: 0.2,
                factor: 3.0,
            }
        );
        assert_eq!(
            specs[1],
            Injection::Steal {
                node: None,
                mean_interval: Nanos::from_millis(5),
                mean_duration: Nanos::from_micros(200),
            }
        );
        assert_eq!(
            specs[3],
            Injection::Crash {
                node: 1,
                at: Nanos::from_millis(100),
                down: Nanos::from_millis(50),
            }
        );
        assert_eq!(
            specs[5],
            Injection::Partition {
                node: 0,
                at: Nanos::from_millis(50),
                duration: Nanos::from_millis(100),
                delay: Nanos::from_millis(2),
            }
        );
    }

    #[test]
    fn parse_inject_spec_rejects_malformed_input() {
        assert!(parse_inject_spec("meteor:node=1").is_err(), "unknown kind");
        assert!(
            parse_inject_spec("crash:at=1ms,down=1ms").is_err(),
            "missing node"
        );
        assert!(
            parse_inject_spec("jitter:mean=50").is_err(),
            "missing duration suffix"
        );
        assert!(
            parse_inject_spec("straggler:node=0,factor=1.5,bogus=1").is_err(),
            "unknown key"
        );
        assert!(
            parse_inject_spec("steal:interval").is_err(),
            "key without value"
        );
        // A zero factor used to stall the run; 1e30s used to saturate.
        for spec in [
            "dvfs:period=10ms,duty=0.2,factor=0",
            "numa:split=1,factor=-1",
            "straggler:node=0,factor=0",
            "straggler:node=0,factor=-1",
            "straggler:node=0,factor=nan",
            "jitter:mean=1e30s",
        ] {
            assert!(parse_inject_spec(spec).is_err(), "{spec} accepted");
        }
        assert!(parse_duration("18446744073709551616ns").is_err());
        assert!(parse_duration("18446744073s").is_ok(), "just below 2^64 ns");
    }

    /// `;`-joined `kind:key=value,...` clauses over the grammar's kinds
    /// and keys with in- and out-of-range values, some keys dropped, and
    /// an arbitrary character spliced in now and then.
    fn arbitrary_spec() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        const KINDS: &str = "dvfs period duty factor node|steal interval duration node|\
            numa split factor node|crash node at down|straggler node factor|\
            partition node at dur delay|jitter mean node|sampled|auto|bogus key";
        const VALUES: &str = "0 1 -1 0.5 1e30 nan inf 2ms 1e30s -3ns 18446744073709551616ns";
        prop::collection::vec((any::<u64>(), any::<u32>()), 0..3).prop_map(|clauses| {
            let (kinds, values): (Vec<&str>, Vec<&str>) =
                (KINDS.split('|').collect(), VALUES.split(' ').collect());
            let clause = |(draws, noise): (u64, u32)| {
                let mut words = kinds[draws as usize % kinds.len()].split(' ');
                let kind = words.next().unwrap_or_default();
                let pairs: Vec<String> = (words.enumerate())
                    .map(|(i, key)| (key, (draws >> (8 + 8 * i)) as usize % 16))
                    .filter(|&(_, v)| v < values.len())
                    .map(|(key, v)| format!("{key}={}", values[v]))
                    .collect();
                let mut clause = format!("{kind}:{}", pairs.join(","));
                if noise % 4 == 0 {
                    let c = char::from_u32((noise >> 2) % 0x11_0000).unwrap_or('?');
                    clause.insert((noise >> 8) as usize % (clause.len() + 1), c);
                }
                clause
            };
            let clauses: Vec<String> = clauses.into_iter().map(clause).collect();
            clauses.join(";")
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The `--inject`, duration and tier grammars return `Ok` or
        /// `Err` on any input, never panic, and never accept a factor
        /// that would stall a run.
        #[test]
        fn grammar_parsers_never_panic(s in arbitrary_spec()) {
            for part in s.split([';', ',', '=']).chain([s.as_str()]) {
                let _ = parse_duration(part);
                let _ = parse_tier(part);
            }
            for spec in parse_inject_spec(&s).unwrap_or_default() {
                if let Injection::Dvfs { factor, .. }
                | Injection::Numa { factor, .. }
                | Injection::Straggler { factor, .. } = spec
                {
                    assert!(factor.is_finite() && factor > 0.0, "{s}: factor {factor}");
                }
            }
        }
    }

    #[test]
    fn kernel_injections_lower_into_node_configs() {
        let mut config = tiny(3);
        config.inject =
            parse_inject_spec("steal:interval=5ms,duration=200us,node=1; numa:split=1,factor=2.0")
                .unwrap();
        // Node 0: only the unfiltered NUMA spec.
        let n0 = config.node_experiment(0).node.perturb;
        assert!(n0.steal.is_empty());
        assert_eq!(n0.numa.unwrap().split_cpu, 1);
        // Node 1: steal too.
        let n1 = config.node_experiment(1).node.perturb;
        assert_eq!(n1.steal.len(), 1);
        assert_eq!(n1.steal[0].mean_interval, Nanos::from_millis(5));
        // No injection at all: the node config stays default.
        let healthy = tiny(3).node_experiment(1).node.perturb;
        assert!(healthy.is_empty());
    }

    #[test]
    fn cluster_faults_lower_into_rank_faults() {
        let mut config = tiny(4);
        config.inject = parse_inject_spec(
            "crash:node=1,at=10ms,down=5ms; straggler:node=2,factor=1.5; jitter:mean=20us",
        )
        .unwrap();
        let f1 = config.rank_faults(1);
        assert_eq!(
            f1.outages,
            vec![(Nanos::from_millis(10), Nanos::from_millis(15))]
        );
        assert_eq!(f1.slow_factor, 1.0);
        let f2 = config.rank_faults(2);
        assert_eq!(f2.slow_factor, 1.5);
        assert!(f2.outages.is_empty());
        // Jitter applies to all ranks, decorrelated by per-rank seeds.
        assert_eq!(f1.jitter_mean, Nanos::from_micros(20));
        assert_ne!(f1.jitter_seed, f2.jitter_seed);
        // Healthy config: empty faults on every rank.
        assert!(tiny(4).rank_faults(1).is_empty());
    }

    #[test]
    fn injected_cluster_attributes_each_class() {
        let mut config = tiny(3);
        config.max_phases = 200;
        config.inject = parse_inject_spec(
            "crash:node=1,at=20ms,down=10ms; straggler:node=2,factor=1.2; \
             partition:node=0,at=50ms,dur=150ms,delay=500us; jitter:mean=10us",
        )
        .unwrap();
        let outcome = run_cluster(&config);
        let injected = &outcome.report.barrier_injected;
        for class in osn_analysis::collective::InjectedClass::ALL {
            let row = injected
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, d)| *d)
                .unwrap();
            assert!(
                !row.is_zero(),
                "injected class {} paid nothing at the barrier",
                class.name()
            );
        }
        assert!(outcome.report.render().contains("injected fault class"));
        // The healthy campaign pays nothing on those rows and keeps
        // its render free of the injected section.
        let healthy = run_cluster(&{
            let mut c = tiny(3);
            c.max_phases = 200;
            c
        });
        assert!(healthy
            .report
            .barrier_injected
            .iter()
            .all(|(_, d)| d.is_zero()));
        assert!(!healthy.report.render().contains("injected fault class"));
    }

    #[test]
    fn parse_tier_covers_the_grammar() {
        assert_eq!(parse_tier("mechanistic").unwrap(), Tier::Mechanistic);
        assert_eq!(parse_tier("mech").unwrap(), Tier::Mechanistic);
        assert_eq!(parse_tier("auto").unwrap(), Tier::Auto);
        assert_eq!(parse_tier("sampled").unwrap(), Tier::Auto);
        assert_eq!(
            parse_tier("sampled:0.25").unwrap(),
            Tier::Sampled { fraction: 0.25 }
        );
        assert_eq!(
            parse_tier(" sampled:1.0 ").unwrap(),
            Tier::Sampled { fraction: 1.0 }
        );
        assert!(parse_tier("sampled:0").is_err());
        assert!(parse_tier("sampled:1.5").is_err());
        assert!(parse_tier("sampled:x").is_err());
        assert!(parse_tier("quantum").is_err());
    }

    #[test]
    fn sample_plan_is_stratified_deterministic_and_forced() {
        let mut config = tiny(64);
        config.tier = Tier::Sampled { fraction: 0.25 };
        let plan = config.sample_plan();
        assert_eq!(plan.mechanistic.len(), 16);
        assert_eq!(plan.strata, 8);
        assert!(
            plan.mechanistic.windows(2).all(|w| w[0] < w[1]),
            "sorted unique"
        );
        assert!(plan.mechanistic.iter().all(|&i| i < 64));
        assert_eq!(plan, config.sample_plan(), "plan must be deterministic");
        // Sample floor: tiny fractions clamp to MIN_SAMPLE.
        config.tier = Tier::Sampled { fraction: 0.01 };
        assert_eq!(config.sample_plan().mechanistic.len(), 8);
        // A kernel-tier injection forces its node into the sample.
        config.tier = Tier::Sampled { fraction: 0.25 };
        config.inject = parse_inject_spec("steal:interval=5ms,duration=200us,node=63").unwrap();
        assert!(config.sample_plan().mechanistic.contains(&63));
        // A cluster-tier fault does not (it applies to synthetic ranks
        // too).
        config.inject = parse_inject_spec("crash:node=62,at=1ms,down=1ms").unwrap();
        let plan = config.sample_plan();
        assert_eq!(plan.mechanistic.len(), 16);
        // Full-coverage tiers collapse to the identity plan.
        config.tier = Tier::Sampled { fraction: 1.0 };
        assert_eq!(config.sample_plan(), SamplePlan::full(64));
        config.tier = Tier::Auto;
        assert_eq!(config.sample_plan(), SamplePlan::full(64));
        config.tier = Tier::Mechanistic;
        assert_eq!(config.sample_plan(), SamplePlan::full(64));
    }

    #[test]
    fn tiered_run_reports_tier_metadata() {
        let mut config = tiny(12);
        config.tier = Tier::Sampled { fraction: 0.5 };
        config.max_phases = 60;
        let outcome = run_cluster(&config);
        let r = &outcome.report;
        // 0.5 * 12 = 6 clamps up to the MIN_SAMPLE floor of 8.
        assert_eq!(outcome.plan.mechanistic.len(), 8);
        let t = r.tier.as_ref().expect("tier metadata");
        assert_eq!(t.mechanistic_nodes, 8);
        assert_eq!(t.synthetic_nodes, 4);
        assert_eq!(t.mechanistic_indices, outcome.plan.mechanistic);
        assert!(!t.validation.is_empty(), "validation scales 4 and 8");
        assert_eq!(t.validation.last().unwrap().nodes, 8);
        let s = r.synthetic_ranks.as_ref().expect("synthetic summary");
        assert_eq!(s.count, 4);
        assert_eq!(r.ranks.len(), 8);
        // Mechanistic rank rows carry global indices from the plan.
        let rows: Vec<usize> = r.ranks.iter().map(|x| x.rank).collect();
        assert_eq!(rows, outcome.plan.mechanistic);
        assert_eq!(r.node_seeds.len(), 8);
        assert!(r.render().contains("tier: sampled"));
        assert!(r.render().contains("synthetic (4 ranks)"));
        // An untiered run of the same campaign carries no tier rows.
        let mech = run_cluster(&{
            let mut c = tiny(12);
            c.max_phases = 60;
            c
        });
        assert!(mech.report.tier.is_none());
        assert!(mech.report.synthetic_ranks.is_none());
        assert_eq!(mech.report.ranks.len(), 12);
    }
}
