//! Mechanistic bulk-synchronous collective coupling.
//!
//! The paper's scale argument (and the amplification model of
//! Ferreira, Bridges & Brightwell, SC'08) is that a collective
//! operation runs at the pace of its *slowest* member: per-node noise
//! that is small in isolation is paid by every rank once any rank
//! absorbs it inside a compute window. [`ScaleModel`] in `osn-core`
//! estimates that effect analytically by resampling an empirical
//! window distribution; this module instead *runs* the bulk-synchronous
//! program against the measured noise charts of N independent nodes:
//!
//! * each phase, every rank needs `granularity` of compute;
//! * the rank's elapsed time is the fixed point `e = g + W(t, t+e)`,
//!   where `W` is the noise its own node's chart drops into the
//!   *elongated* window (noise landing in the overrun delays the rank
//!   further — a second-order effect the analytic model ignores);
//! * the barrier releases at the max arrival over ranks, and the next
//!   phase starts there for everyone — so skew is carried across
//!   phases: window positions are history-dependent, not a fixed
//!   `g`-aligned grid;
//! * noise landing while a rank *waits* at the barrier is absorbed for
//!   free (the rank has no work to lose), exactly the slack-absorption
//!   property of real barriers.
//!
//! The per-phase record keeps the critical rank and the noise-category
//! decomposition of what it paid, so a campaign can report *which noise
//! class paid for the barrier* at every scale.
//!
//! [`ScaleModel`]: https://docs.rs/osn-core

use std::borrow::Borrow;
use std::sync::Arc;

use osn_kernel::activity::NoiseCategory;
use osn_kernel::rng::{bounded, derive_indexed_seed, derive_seed, splitmix64};
use osn_kernel::time::Nanos;

use serde::{Deserialize, Serialize};

use crate::chart::NoiseChart;

/// Number of canonical noise classes ([`NoiseCategory::NOISE`]).
const NCLASS: usize = NoiseCategory::NOISE.len();

/// Position of a category in the canonical class order.
fn class_index(cat: NoiseCategory) -> usize {
    NoiseCategory::NOISE
        .iter()
        .position(|c| *c == cat)
        .expect("canonical noise category")
}

/// Cluster-tier injected fault classes — the attribution rows the
/// barrier decomposition reports alongside the kernel noise categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedClass {
    /// Node crash + restart: the rank freezes for an outage window.
    Crash,
    /// Persistent straggler: the rank's compute demand is scaled up.
    Straggler,
    /// Network partition: barrier arrivals inside a window are delayed.
    Partition,
    /// Network jitter: per-phase random delay on barrier arrival.
    Jitter,
}

impl InjectedClass {
    /// Canonical order, the shape of every injected-attribution vector.
    pub const ALL: [InjectedClass; 4] = [
        InjectedClass::Crash,
        InjectedClass::Straggler,
        InjectedClass::Partition,
        InjectedClass::Jitter,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            InjectedClass::Crash => "crash",
            InjectedClass::Straggler => "straggler",
            InjectedClass::Partition => "partition",
            InjectedClass::Jitter => "jitter",
        }
    }
}

/// A network-partition delay window: barrier arrivals landing inside
/// `[start, end)` of the collective wall clock are held back by
/// `delay`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DelayWindow {
    pub start: Nanos,
    pub end: Nanos,
    pub delay: Nanos,
}

/// Deterministic injected faults on one rank. Everything here is a
/// pure function of the value itself plus the phase index — no stream
/// state — so the coupled run stays byte-identical across host worker
/// counts, and an empty value changes nothing at all.
#[derive(Clone, Debug, PartialEq)]
pub struct RankFaults {
    /// Compute-demand multiplier (persistent straggler); 1.0 = none.
    pub slow_factor: f64,
    /// Crash/restart outages `[start, end)` on the collective wall
    /// clock: the rank makes no progress inside them.
    pub outages: Vec<(Nanos, Nanos)>,
    /// Partition windows delaying barrier arrival.
    pub delays: Vec<DelayWindow>,
    /// Mean of the per-phase exponential arrival jitter (zero = off).
    pub jitter_mean: Nanos,
    /// Seed of the jitter hash (derive per rank so ranks decorrelate).
    pub jitter_seed: u64,
}

impl Default for RankFaults {
    fn default() -> Self {
        RankFaults {
            slow_factor: 1.0,
            outages: Vec::new(),
            delays: Vec::new(),
            jitter_mean: Nanos::ZERO,
            jitter_seed: 0,
        }
    }
}

impl RankFaults {
    pub fn is_empty(&self) -> bool {
        self.slow_factor == 1.0
            && self.outages.is_empty()
            && self.delays.is_empty()
            && self.jitter_mean.is_zero()
    }
}

/// One pooled noise observation: total noise plus its category split
/// (canonical [`NoiseCategory::NOISE`] order). Keeping the split with
/// the total preserves the cross-class correlation of real
/// interruption clusters through synthesis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseSample {
    pub total: Nanos,
    pub by_class: [Nanos; NCLASS],
    /// Number of interruption clusters aggregated into this sample.
    /// Synthesis spreads the total over this many sub-events inside
    /// the bin: a mechanistic rank's per-bin noise arrives as several
    /// separated trains, and re-emitting it as one point mass would
    /// both empty out more windows (lighter mid-tail) and pile
    /// whole-bin mass into single windows (heavier extreme tail).
    pub events: u64,
}

impl NoiseSample {
    pub const ZERO: NoiseSample = NoiseSample {
        total: Nanos::ZERO,
        by_class: [Nanos::ZERO; NCLASS],
        events: 0,
    };

    fn add(&mut self, other: &NoiseSample) {
        self.total += other.total;
        for (slot, d) in self.by_class.iter_mut().zip(other.by_class) {
            *slot += d;
        }
        self.events += other.events;
    }

    /// `self` rescaled down to a smaller `total`, class split preserved
    /// proportionally (the total is re-derived from the floored class
    /// parts so the invariant `total == Σ by_class` holds).
    fn scaled_to(&self, total: Nanos) -> NoiseSample {
        if self.total.is_zero() || total >= self.total {
            return *self;
        }
        let mut by_class = [Nanos::ZERO; NCLASS];
        for (slot, c) in by_class.iter_mut().zip(self.by_class) {
            *slot = Nanos(
                (c.as_nanos() as u128 * total.as_nanos() as u128 / self.total.as_nanos() as u128)
                    as u64,
            );
        }
        NoiseSample {
            total: by_class.iter().copied().sum(),
            by_class,
            events: self.events,
        }
    }
}

/// The tick-synchronized component of a fitted noise surrogate: events
/// at `phase + k * period` of the *trace* clock, shared by every rank
/// of the cluster (nodes run the same kernel configuration, so their
/// tick combs are congruent — that congruence is what makes the
/// co-scheduled ablation suppress amplification, and synthesis must
/// preserve it).
#[derive(Clone, Debug)]
pub struct PeriodicComb {
    /// Extracted period (the kernel tick period, in a faithful fit).
    pub period: Nanos,
    /// Extracted phase: comb slots sit at `phase + k * period`.
    pub phase: Nanos,
    /// Probability that a comb slot actually fires on a given rank.
    pub occupancy: f64,
    /// Pooled per-event amplitude samples, sorted by total.
    pub table: Vec<NoiseSample>,
}

/// Per-class empirical noise surrogate fitted from a mechanistic
/// sample of ranks. The model splits a rank's noise process into:
///
/// * a **periodic comb** — interruption clusters carrying `Periodic`
///   noise recur at a fixed phase/period (the kernel tick plus
///   whatever rides on it); positions are common to all ranks,
///   amplitudes are drawn per (rank, slot) from the pooled table; and
/// * a **binned residual** — everything else, modeled per `bin` of
///   trace time as a shared **floor** (the minimum aggregate over the
///   sampled ranks, synthesized at one bin-keyed position common to
///   every rank) plus one per-rank **extras** draw from that bin's
///   table of rank-minus-floor deviations, placed uniformly inside
///   the bin. Zero deviations enter the table too, so the draw
///   reproduces each bin's empirical distribution including its mass
///   at zero.
///
///   The bin-local, floor-split structure is what makes `E[max over
///   N ranks]` honest. Mechanistic ranks run the same application, so
///   their aperiodic noise is trace-time-locked and strongly
///   cross-rank correlated: in the per-phase max, co-located noise
///   *shadows* itself. The shared floor reproduces that shadowing
///   exactly (it is identical across ranks, like the common app-driven
///   component it estimates), while only the genuine cross-rank
///   deviation is drawn iid. A time-pooled stationary residual — or
///   fully iid per-rank totals — spreads the same mass over
///   independent instants and overstates amplification, increasingly
///   so at scale.
///
/// Synthesis is a pure hash of `(rank seed, slot index)` — no stream
/// state — so synthetic ranks are deterministic and order-independent;
/// each [`SyntheticRank`] compiles its draws once into a sorted noise
/// stream that the barrier solve walks with a cursor.
#[derive(Clone, Debug)]
pub struct NoiseSurrogate {
    /// Residual bin width (the fit granularity).
    pub bin: Nanos,
    /// Trace horizon the surrogate is valid to (min over fitted
    /// ranks); no events are synthesized at or past it.
    pub horizon: Nanos,
    /// Tick-synchronized component, when the fit found one.
    pub comb: Option<PeriodicComb>,
    /// Per-bin residual models indexed by `t / bin`.
    pub residual: Vec<ResidualBin>,
}

/// One bin of the residual model: the cross-rank common floor plus the
/// per-rank deviation table.
#[derive(Clone, Debug)]
pub struct ResidualBin {
    /// Minimum aggregate over the sampled ranks — noise every rank of
    /// the machine pays in this bin. Synthesized at one shared
    /// bin-keyed trace position so cross-rank shadowing in the
    /// per-phase max matches the mechanistic population.
    pub floor: NoiseSample,
    /// Per-rank aggregates minus the floor (class split scaled down
    /// proportionally), sorted by total — the empirical inverse CDF of
    /// the iid-across-ranks part of the bin.
    pub extras: Vec<NoiseSample>,
    /// How many leading `extras` have zero total: a draw below this
    /// index adds no noise, and a bin whose whole table is zero needs
    /// no draw at all.
    pub zero_extras: usize,
}

/// Cap on the cluster-merge gap (ns): see [`NoiseSurrogate::fit`].
const CLUSTER_MERGE_CAP: u64 = 10_000;
/// Cap on the pooled comb amplitude table.
const COMB_CAP: usize = 512;
/// Cap on each bin's residual table (entries per bin of trace time).
const RESIDUAL_BIN_CAP: usize = 64;

/// One merged interruption cluster of a chart.
#[derive(Clone, Copy)]
struct Cluster {
    t: Nanos,
    sample: NoiseSample,
}

/// Merge chart points into clusters: a point within `merge` of the
/// previous point joins its cluster (a tick interrupt and the softirq
/// it raises arrive back-to-back and fire as one interruption train).
/// A cluster's span is capped at `span_cap`: synthesis re-emits a
/// cluster's whole amplitude at a single instant, so an unbounded
/// train (a preemption storm chaining for milliseconds) must split
/// into window-scale pieces or its collapsed total would synthesize
/// per-window noise far above anything a mechanistic rank ever pays.
fn clusters_of(chart: &NoiseChart, merge: Nanos, span_cap: Nanos) -> Vec<Cluster> {
    let mut out: Vec<Cluster> = Vec::new();
    let mut last_t = Nanos::ZERO;
    for p in &chart.points {
        let mut by_class = [Nanos::ZERO; NCLASS];
        for (component, d) in &p.components {
            if let Some(cat) = component.category() {
                by_class[class_index(cat)] += *d;
            }
        }
        let total: Nanos = by_class.iter().copied().sum();
        match out.last_mut() {
            Some(last)
                if p.t.saturating_sub(last_t) <= merge
                    && p.t.saturating_sub(last.t) <= span_cap =>
            {
                // Merged points extend the train, not the train count.
                last.sample.add(&NoiseSample {
                    total,
                    by_class,
                    events: 0,
                });
            }
            _ => out.push(Cluster {
                t: p.t,
                sample: NoiseSample {
                    total,
                    by_class,
                    events: 1,
                },
            }),
        }
        last_t = p.t;
    }
    out
}

/// Median inter-arrival of periodic-bearing clusters, accepted as a
/// period only if the gaps are actually regular (at least half within
/// 10% of the median).
fn fit_period(diffs: &mut [u64]) -> Option<u64> {
    if diffs.len() < 8 {
        return None;
    }
    diffs.sort_unstable();
    let p = diffs[diffs.len() / 2];
    if p == 0 {
        return None;
    }
    let near = diffs.iter().filter(|d| d.abs_diff(p) <= p / 10).count();
    (near * 2 >= diffs.len()).then_some(p)
}

/// Deterministic subsample of a pooled table: sort, then take evenly
/// spaced order statistics (keeping min and max) so the empirical CDF
/// survives the cap.
fn subsample(mut pool: Vec<NoiseSample>, cap: usize) -> Vec<NoiseSample> {
    pool.sort_unstable_by_key(|s| (s.total, s.by_class));
    if pool.len() <= cap {
        return pool;
    }
    (0..cap)
        .map(|i| pool[i * (pool.len() - 1) / (cap - 1)])
        .collect()
}

impl NoiseSurrogate {
    /// Fit the surrogate from a mechanistic sample of rank series.
    /// Everything is measured on the *trace* clock (start offsets play
    /// no role in the fit; they are applied when the synthetic rank is
    /// coupled, exactly as for mechanistic ranks).
    pub fn fit(sample: &[RankSeries], bin: Nanos) -> NoiseSurrogate {
        assert!(!bin.is_zero(), "zero surrogate bin");
        let horizon = sample
            .iter()
            .map(|s| s.horizon)
            .min()
            .unwrap_or(Nanos::ZERO);
        // Interruption trains (a tick and the softirqs it raises) are
        // microsecond-scale back-to-back events; the merge gap must
        // stay well below the tick period or dense aperiodic traffic
        // chain-merges into mega-clusters whose start times fall off
        // the comb — tick noise would then be double-counted (once in
        // the residual, once by the comb's occupancy).
        let merge = Nanos((bin.as_nanos() / 2).clamp(1, CLUSTER_MERGE_CAP));
        let span_cap = Nanos((bin.as_nanos() / 2).max(1));
        let per_rank: Vec<Vec<Cluster>> = sample
            .iter()
            .map(|s| clusters_of(&s.chart, merge, span_cap))
            .collect();
        let pidx = class_index(NoiseCategory::Periodic);

        // Frequency extraction: only clusters carrying Periodic noise
        // are tick candidates (aperiodic classes never produce the
        // Periodic category), so their inter-arrival gaps expose the
        // tick period even under heavy aperiodic traffic.
        let mut diffs: Vec<u64> = Vec::new();
        for clusters in &per_rank {
            let mut prev: Option<u64> = None;
            for c in clusters
                .iter()
                .filter(|c| !c.sample.by_class[pidx].is_zero())
            {
                if let Some(p) = prev {
                    let d = c.t.as_nanos() - p;
                    if d > 0 {
                        diffs.push(d);
                    }
                }
                prev = Some(c.t.as_nanos());
            }
        }
        let period = fit_period(&mut diffs);

        // Phase extraction: circular mean of periodic-cluster starts
        // modulo the period, pooled across the sample.
        let mut phase = 0u64;
        if let Some(p) = period {
            let tau = std::f64::consts::TAU;
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for clusters in &per_rank {
                for c in clusters
                    .iter()
                    .filter(|c| !c.sample.by_class[pidx].is_zero())
                {
                    let th = (c.t.as_nanos() % p) as f64 / p as f64 * tau;
                    sx += th.cos();
                    sy += th.sin();
                }
            }
            let mut frac = sy.atan2(sx) / tau;
            if frac < 0.0 {
                frac += 1.0;
            }
            phase = ((frac * p as f64).round() as u64) % p;
        }

        // Classify clusters on/off the comb and aggregate the residual
        // per (rank, bin). Each rank contributes exactly one aggregate
        // to each bin's table — zero when the rank was quiet there — so
        // a bin's table is the empirical cross-rank distribution of
        // noise in that window of trace time, storms and silences in
        // their measured places.
        let tol = period.map(|p| p / 8).unwrap_or(0);
        let bw = bin.as_nanos().max(1);
        let nbins = (horizon.as_nanos().div_ceil(bw)) as usize;
        let mut comb_samples: Vec<NoiseSample> = Vec::new();
        let mut per_bin: Vec<Vec<NoiseSample>> = vec![Vec::new(); nbins];
        let mut slots = 0u64;
        for (r, clusters) in per_rank.iter().enumerate() {
            let h_r = sample[r].horizon.as_nanos();
            let mut bins: Vec<NoiseSample> = vec![NoiseSample::ZERO; nbins];
            for c in clusters {
                let on_comb = period.is_some_and(|p| {
                    if c.sample.by_class[pidx].is_zero() {
                        return false;
                    }
                    let d = (c.t.as_nanos() % p + p - phase) % p;
                    d.min(p - d) <= tol
                });
                if on_comb {
                    comb_samples.push(c.sample);
                } else {
                    let j = (c.t.as_nanos() / bw) as usize;
                    if j < nbins {
                        bins[j].add(&c.sample);
                    }
                }
            }
            for (j, s) in bins.into_iter().enumerate() {
                per_bin[j].push(s);
            }
            if let Some(p) = period {
                if h_r > phase {
                    slots += (h_r - phase - 1) / p + 1;
                }
            }
        }
        let comb = period
            .filter(|_| !comb_samples.is_empty() && slots > 0)
            .map(|p| PeriodicComb {
                period: Nanos(p),
                phase: Nanos(phase),
                occupancy: (comb_samples.len() as f64 / slots as f64).min(1.0),
                table: subsample(comb_samples, COMB_CAP),
            });
        NoiseSurrogate {
            bin,
            horizon,
            comb,
            residual: per_bin
                .into_iter()
                .map(|pool| {
                    let floor = pool
                        .iter()
                        .copied()
                        .min_by_key(|s| (s.total, s.by_class))
                        .unwrap_or(NoiseSample::ZERO);
                    let extras = subsample(
                        pool.into_iter()
                            .map(|x| x.scaled_to(x.total.saturating_sub(floor.total)))
                            .collect(),
                        RESIDUAL_BIN_CAP,
                    );
                    ResidualBin {
                        floor,
                        zero_extras: extras.partition_point(|x| x.total.is_zero()),
                        extras,
                    }
                })
                .collect(),
        }
    }
}

/// One rank's noise as the barrier solve reads it: `(position, noise)`
/// pairs sorted by trace position.
type NoiseStream = [(Nanos, Nanos)];

/// Sum the entries from `cursor` on with position before `end`,
/// returning the sum and the advanced cursor. Entries before the cursor
/// have been consumed (paid or absorbed) and are never counted again.
fn window_noise(stream: &NoiseStream, mut cursor: usize, end: Nanos) -> (Nanos, usize) {
    let mut w = Nanos::ZERO;
    while let Some(&(t, noise)) = stream.get(cursor) {
        if t >= end {
            break;
        }
        w += noise;
        cursor += 1;
    }
    (w, cursor)
}

/// The first entry of `stream` at or past `t`.
fn cursor_at(stream: &NoiseStream, t: Nanos) -> usize {
    stream.partition_point(|&(p, _)| p < t)
}

/// Position of the entry at `cursor`, or `u64::MAX` once the cursor is
/// past the last entry.
fn head_at(stream: &NoiseStream, cursor: usize) -> Nanos {
    stream.get(cursor).map_or(Nanos(u64::MAX), |&(t, _)| t)
}

/// A surrogate-synthesized rank: per (rank, slot) inverse-CDF draws
/// against the shared surrogate via pure hashing, the same machinery
/// as [`RankFaults`]' exponential jitter. The draws are compiled once,
/// at construction, into a sorted `(position, total)` stream over
/// `[0, horizon)` (no chart is materialized); window queries and the
/// barrier solve read that stream, and only the critical rank's
/// category split re-derives events by hashing.
#[derive(Clone, Debug)]
pub struct SyntheticRank {
    surrogate: Arc<NoiseSurrogate>,
    /// Per-rank draw seed (derive per rank so ranks decorrelate).
    pub seed: u64,
    comb_seed: u64,
    residual_seed: u64,
    stream: Box<NoiseStream>,
}

impl SyntheticRank {
    pub fn new(surrogate: Arc<NoiseSurrogate>, seed: u64) -> SyntheticRank {
        let mut rank = SyntheticRank {
            comb_seed: derive_seed(seed, "synth-comb"),
            residual_seed: derive_seed(seed, "synth-residual"),
            surrogate,
            seed,
            stream: Box::default(),
        };
        let mut stream = Vec::new();
        rank.for_each_event(Nanos::ZERO, rank.horizon(), |t, s| {
            stream.push((t, s.total))
        });
        stream.sort_unstable();
        rank.stream = stream.into_boxed_slice();
        rank
    }

    pub fn horizon(&self) -> Nanos {
        self.surrogate.horizon
    }

    /// Visit every synthesized event with position in `[from, to)` of
    /// the trace clock, as `(position, sample)`; residual sub-events
    /// whose share rounds to zero are dropped. Events are pure
    /// functions of `(seed, slot)`:
    /// the same event is produced no matter how the interval is split,
    /// which is what makes the compiled stream exact.
    fn for_each_event(&self, from: Nanos, to: Nanos, mut f: impl FnMut(Nanos, &NoiseSample)) {
        let sur = &*self.surrogate;
        let to = to.min(sur.horizon);
        if from >= to {
            return;
        }
        let (a, b) = (from.as_nanos(), to.as_nanos());
        if let Some(comb) = &sur.comb {
            if !comb.table.is_empty() {
                let p = comb.period.as_nanos().max(1);
                let phase = comb.phase.as_nanos() % p;
                let mut k = if a <= phase {
                    0
                } else {
                    (a - phase).div_ceil(p)
                };
                loop {
                    let t = phase + k * p;
                    if t >= b {
                        break;
                    }
                    let h =
                        splitmix64(&mut (self.comb_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                    let u = (((h >> 11) | 1) as f64) * (1.0 / (1u64 << 53) as f64);
                    if u < comb.occupancy {
                        let idx = bounded(
                            splitmix64(&mut (h ^ 0xD6E8_FEB8_6659_FD93)),
                            comb.table.len() as u64,
                        ) as usize;
                        f(Nanos(t), &comb.table[idx]);
                    }
                    k += 1;
                }
            }
        }
        if !sur.residual.is_empty() {
            let bw = sur.bin.as_nanos().max(1);
            // Spread `sample` over its empirical train count: sub-event
            // `i` sits at `off + i·bw/e` (mod bw) inside bin `j` and
            // carries an even share of the total. Positions and shares
            // are pure functions of `(j, h)`, so any interval split
            // sees each sub-event exactly once.
            let emit =
                |j: u64, h: u64, sample: &NoiseSample, f: &mut dyn FnMut(Nanos, &NoiseSample)| {
                    let e = sample.events.max(1);
                    let t = sample.total.as_nanos();
                    let off = bounded(h, bw);
                    for i in 0..e {
                        let pos = j * bw + (off + i * bw / e) % bw;
                        if pos < a || pos >= b {
                            continue;
                        }
                        let share = sample.scaled_to(Nanos(t * (i + 1) / e - t * i / e));
                        if !share.total.is_zero() {
                            f(Nanos(pos), &share);
                        }
                    }
                };
            for j in (a / bw)..b.div_ceil(bw) {
                let Some(rb) = sur.residual.get(j as usize) else {
                    continue;
                };
                // The shared floor: rank-seed-free positions, so every
                // synthetic rank pays it at the same trace instants.
                if !rb.floor.total.is_zero() {
                    let hf = splitmix64(
                        &mut (0x8CB9_2BA7_2F3D_8DD7 ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    );
                    emit(j, hf, &rb.floor, &mut f);
                }
                // An all-zero table draws nothing: skip the hash.
                if rb.zero_extras == rb.extras.len() {
                    continue;
                }
                let h =
                    splitmix64(&mut (self.residual_seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                let idx = bounded(
                    splitmix64(&mut (h ^ 0xD6E8_FEB8_6659_FD93)),
                    rb.extras.len() as u64,
                ) as usize;
                // Zero-total entries sort first: drawing one adds nothing.
                if idx >= rb.zero_extras {
                    emit(j, h, &rb.extras[idx], &mut f);
                }
            }
        }
    }

    /// Total synthesized noise with position in `[from, to)`.
    pub fn noise_in(&self, from: Nanos, to: Nanos) -> Nanos {
        window_noise(&self.stream, cursor_at(&self.stream, from), to).0
    }

    /// Per-`granularity` window noise from `origin`, the synthetic
    /// counterpart of [`NoiseChart::bucket`].
    pub fn windows(&self, origin: Nanos, quantum: Nanos, nbuckets: usize) -> Vec<Nanos> {
        let mut cursor = cursor_at(&self.stream, origin);
        (1..=nbuckets as u64)
            .map(|j| {
                let (w, next) = window_noise(&self.stream, cursor, origin + quantum * j);
                cursor = next;
                w
            })
            .collect()
    }
}

/// One rank's noise input to the coupled run: its node's synthetic
/// noise chart and the time up to which that chart is valid.
#[derive(Clone, Debug)]
pub struct RankSeries {
    /// The rank's noise chart (private: `points` is compiled from it).
    chart: NoiseChart,
    /// Trace horizon: phases are only simulated while every rank's
    /// window fits inside its own horizon.
    pub horizon: Nanos,
    /// Where in this rank's trace the BSP program starts. Nodes of a
    /// real cluster boot at arbitrary points of their periodic-noise
    /// cycles; staggering start offsets decorrelates tick phases
    /// across ranks (offset 0 on every rank reproduces the perfectly
    /// co-scheduled cluster, where periodic noise does not amplify).
    pub start: Nanos,
    /// Injected cluster-tier faults (default: none).
    pub faults: RankFaults,
    /// Surrogate synthesis backing (None = the chart is the input).
    /// Synthetic ranks keep an empty chart; their noise is the
    /// synthetic rank's compiled stream instead.
    pub synth: Option<SyntheticRank>,
    /// `(t, noise)` of every chart point, index-aligned with
    /// `chart.points` (empty for synthetic ranks).
    points: Box<NoiseStream>,
}

impl RankSeries {
    pub fn new(chart: NoiseChart, horizon: Nanos) -> RankSeries {
        RankSeries {
            points: chart.points.iter().map(|p| (p.t, p.noise)).collect(),
            chart,
            horizon,
            start: Nanos::ZERO,
            faults: RankFaults::default(),
            synth: None,
        }
    }

    /// A surrogate-synthesized rank (horizon = the surrogate's).
    pub fn synthetic(synth: SyntheticRank) -> RankSeries {
        RankSeries {
            chart: NoiseChart {
                task: osn_kernel::ids::Tid(0),
                points: Vec::new(),
            },
            horizon: synth.horizon(),
            start: Nanos::ZERO,
            faults: RankFaults::default(),
            synth: Some(synth),
            points: Box::default(),
        }
    }

    pub fn with_start(mut self, start: Nanos) -> RankSeries {
        self.start = start;
        self
    }

    pub fn with_faults(mut self, mut faults: RankFaults) -> RankSeries {
        // Outage walks assume start order.
        faults.outages.sort_unstable();
        self.faults = faults;
        self
    }

    /// The sorted `(position, noise)` stream the coupling walks: the
    /// chart's points, or the synthetic rank's compiled draws.
    fn stream(&self) -> &NoiseStream {
        match &self.synth {
            Some(s) => &s.stream,
            None => &self.points,
        }
    }

    /// Per-`granularity` window noise over `[start, horizon)`, the
    /// input of the analytic `ScaleModel` (chart-bucketed for
    /// mechanistic ranks, read from the compiled stream for synthetic
    /// ones).
    pub fn windows(&self, granularity: Nanos) -> Vec<Nanos> {
        let n = (self.horizon.saturating_sub(self.start) / granularity) as usize;
        match &self.synth {
            None => self.chart.bucket(self.start, granularity, n),
            Some(s) => s.windows(self.start, granularity, n),
        }
    }
}

/// Parameters of the bulk-synchronous program.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BspParams {
    /// Compute granularity between barriers.
    pub granularity: Nanos,
    /// Cap on simulated phases (0 = as many as the traces allow).
    pub max_phases: usize,
    /// Full barrier dynamics (the default): skew carried across
    /// phases, overrun elongation, and slack absorption of noise that
    /// lands while a rank waits. When `false`, every rank's windows
    /// sit on the fixed `granularity`-aligned grid with none of those
    /// effects — exactly the sampling assumptions of the analytic
    /// `ScaleModel`, which makes the grid mode the differential
    /// counterpart of `expected_max_noise` on the same windows.
    pub mechanistic: bool,
}

impl BspParams {
    pub fn new(granularity: Nanos) -> BspParams {
        BspParams {
            granularity,
            max_phases: 0,
            mechanistic: true,
        }
    }

    /// The analytic-equivalent fixed-grid variant of these params.
    pub fn fixed_grid(mut self) -> BspParams {
        self.mechanistic = false;
        self
    }
}

/// Solve the fixed point `e = g + W(t, t+e)` for one rank: noise
/// landing inside the overrun extends the window until no further
/// points fall in. Converges because `W` is a finite step function.
/// Noise is attributed to the window containing the interruption start
/// — the same attribution [`NoiseChart::bucket`] uses, so the
/// mechanistic and analytic models agree on what a window contains.
fn solve_phase(stream: &NoiseStream, cursor: usize, t: Nanos, g: Nanos) -> (Nanos, usize) {
    let (mut w, mut i) = window_noise(stream, cursor, t + g);
    let mut e = g + w;
    loop {
        let (extra, j) = window_noise(stream, i, t + e);
        if extra.is_zero() {
            return (e, j);
        }
        w += extra;
        i = j;
        e = g + w;
    }
}

/// Earliest wall time at which a rank that starts `busy` nanoseconds
/// of work at `t` finishes, given that it is frozen inside `outages`
/// (sorted by start). Work done before an outage carries over; the
/// rank resumes where it left off after each outage — the
/// crash-and-restart-from-checkpoint semantics.
fn arrival_through_outages(outages: &[(Nanos, Nanos)], t: Nanos, busy: Nanos) -> Nanos {
    let mut cur = t;
    let mut left = busy;
    for (s, e) in outages {
        if *e <= cur {
            continue;
        }
        if *s > cur {
            let slice = *s - cur;
            if slice >= left {
                return cur + left;
            }
            left -= slice;
            cur = *s;
        }
        cur = (*e).max(cur);
    }
    cur + left
}

/// The per-phase injected delays of one rank: `(total extra,
/// per-class decomposition)` for a phase starting at wall time `t`
/// whose fault-free duration is `e`.
fn injected_extras(faults: &RankFaults, t: Nanos, e: Nanos, phase: usize) -> (Nanos, [Nanos; 4]) {
    if faults.is_empty() {
        return (Nanos::ZERO, [Nanos::ZERO; 4]);
    }
    // Straggler: extra compute demand is already folded into `e` by
    // the caller (via the scaled granularity); it reports the class
    // share separately, so here we only handle the wall-clock faults.
    let crash = arrival_through_outages(&faults.outages, t, e).saturating_sub(t + e);
    let mut partition = Nanos::ZERO;
    let arrival = t + e + crash;
    for w in &faults.delays {
        if arrival >= w.start && arrival < w.end {
            partition += w.delay;
        }
    }
    let jitter = if faults.jitter_mean.is_zero() {
        Nanos::ZERO
    } else {
        // Pure hash → inverse-CDF exponential: deterministic for a
        // (seed, phase) pair, no stream state to order across ranks.
        let bits = derive_indexed_seed(faults.jitter_seed, "inject-jitter", phase as u64);
        let u = (((bits >> 11) | 1) as f64) * (1.0 / (1u64 << 53) as f64);
        Nanos::from_nanos_f64(-(faults.jitter_mean.as_nanos() as f64) * u.ln())
    };
    (
        crash + partition + jitter,
        [crash, Nanos::ZERO, partition, jitter],
    )
}

/// Decompose the noise of `[cursor, t+e)` by category (critical-rank
/// attribution). Canonical category order; zero entries kept so the
/// output shape is scale-independent. Chart ranks read the points the
/// stream was compiled from; synthetic ranks re-derive the window's
/// events by hashing, from the position of the first unconsumed one.
fn window_categories(
    series: &RankSeries,
    cursor: usize,
    t: Nanos,
    e: Nanos,
) -> Vec<(NoiseCategory, Nanos)> {
    let mut totals: Vec<(NoiseCategory, Nanos)> = NoiseCategory::NOISE
        .iter()
        .map(|c| (*c, Nanos::ZERO))
        .collect();
    let end = t + e;
    match &series.synth {
        None => {
            for p in &series.chart.points[cursor..] {
                if p.t >= end {
                    break;
                }
                for (component, d) in &p.components {
                    if let Some(cat) = component.category() {
                        if let Some(slot) = totals.iter_mut().find(|(c, _)| *c == cat) {
                            slot.1 += *d;
                        }
                    }
                }
            }
        }
        Some(synth) => {
            if let Some(&(from, _)) = synth.stream.get(cursor) {
                synth.for_each_event(from, end, |_, s| {
                    for (slot, d) in totals.iter_mut().zip(s.by_class) {
                        slot.1 += d;
                    }
                });
            }
        }
    }
    totals
}

/// Borrowed view of one coupled phase, valid only inside the
/// [`couple_stream`] visit callback (the backing buffers are reused
/// across phases — the streamed coupling allocates O(ranks), never
/// O(ranks × phases)).
pub struct PhaseView<'a> {
    pub index: usize,
    /// Barrier-release time the phase started at (common to all ranks).
    pub start: Nanos,
    /// Per-rank elapsed time `g + self noise` (index = rank).
    pub durations: &'a [Nanos],
    /// The slowest rank — the one the barrier waited for (lowest index
    /// on ties).
    pub critical: usize,
    /// Category decomposition of the critical rank's window noise,
    /// canonical category order, zero entries kept.
    pub critical_by_category: &'a [(NoiseCategory, Nanos)],
    /// Injected decomposition of the critical rank's duration,
    /// canonical [`InjectedClass::ALL`] order, zero entries kept (all
    /// zero when no faults are configured).
    pub critical_injected: &'a [(InjectedClass, Nanos)],
}

/// Run the bulk-synchronous collective against the ranks' noise
/// inputs, streaming one [`PhaseView`] per phase to `visit` instead of
/// materializing per-phase vectors. All ranks share one wall clock;
/// each phase ends at the max arrival; noise overtaken while a rank
/// waits at the barrier is skipped (absorbed in slack). Every rank,
/// chart-backed or synthetic, is one index cursor over its sorted
/// noise stream. Returns `(phases, end)`.
pub fn couple_stream<R: Borrow<RankSeries>>(
    ranks: &[R],
    params: &BspParams,
    mut visit: impl FnMut(&PhaseView<'_>),
) -> (usize, Nanos) {
    let g = params.granularity;
    assert!(!g.is_zero(), "zero granularity");
    // The phase loop touches only these per-rank fields, kept in
    // parallel vectors.
    let series: Vec<&RankSeries> = ranks.iter().map(Borrow::borrow).collect();
    let streams: Vec<&NoiseStream> = series.iter().map(|s| s.stream()).collect();
    let starts: Vec<Nanos> = series.iter().map(|s| s.start).collect();
    let horizons: Vec<Nanos> = series.iter().map(|s| s.horizon).collect();
    // Persistent straggler: scaled compute demand.
    let demands: Vec<Nanos> = series
        .iter()
        .map(|s| {
            let f = s.faults.slow_factor;
            if f != 1.0 {
                Nanos((g.as_nanos() as f64 * f).round() as u64)
            } else {
                g
            }
        })
        .collect();
    let faulted: Vec<Option<&RankFaults>> = series
        .iter()
        .map(|s| (!s.faults.is_empty()).then_some(&s.faults))
        .collect();
    // Start each cursor at the first noise past the rank's offset.
    let mut cursors: Vec<usize> = streams
        .iter()
        .zip(&starts)
        .map(|(s, &start)| cursor_at(s, start))
        .collect();
    // Position of each cursor's entry: most windows end before it, and
    // then the phase never touches the rank's stream.
    let mut heads: Vec<Nanos> = streams
        .iter()
        .zip(&cursors)
        .map(|(s, &c)| head_at(s, c))
        .collect();
    let mut nphases = 0usize;
    // Phase-start position in each rank's trace (mechanistic: the
    // shared barrier-release time; grid: `p * g`).
    let mut t = Nanos::ZERO;
    // Accumulated collective runtime (== `t` in mechanistic mode).
    let mut end = Nanos::ZERO;
    // Reused per-phase buffer.
    let mut durations: Vec<Nanos> = Vec::with_capacity(ranks.len());
    let mut critical_injected: Vec<(InjectedClass, Nanos)> = Vec::new();
    while !ranks.is_empty() && (params.max_phases == 0 || nphases < params.max_phases) {
        durations.clear();
        // The slowest rank so far (first index wins ties), with its
        // cursor at the phase start and its trace span: the window
        // extent excluding injected wall-clock delays, which is all
        // the category decomposition covers — injected time has its
        // own attribution rows.
        let (mut critical, mut critical_cursor, mut critical_span) = (0, 0, Nanos::ZERO);
        let mut fits = true;
        for r in 0..series.len() {
            let pos = starts[r] + t;
            let g_r = demands[r];
            // A window ending before the rank's next noise never
            // touches its stream.
            let (e, next) = if heads[r] >= pos + g_r {
                (g_r, None)
            } else if params.mechanistic {
                let (e, next) = solve_phase(streams[r], cursors[r], pos, g_r);
                (e, Some(next))
            } else {
                let (w, next) = window_noise(streams[r], cursors[r], pos + g_r);
                (g_r + w, Some(next))
            };
            // Mechanistic windows must fit below the horizon as
            // elongated; grid windows as sampled.
            let need = if params.mechanistic { e } else { g_r };
            if pos + need > horizons[r] {
                fits = false;
                break;
            }
            let extra = faulted[r].map_or(Nanos::ZERO, |f| injected_extras(f, t, e, nphases).0);
            let d = e + extra;
            if r == 0 || d > durations[critical] {
                (critical, critical_cursor, critical_span) = (r, cursors[r], e);
            }
            durations.push(d);
            if let Some(next) = next {
                cursors[r] = next;
                heads[r] = head_at(streams[r], next);
            }
        }
        if !fits {
            break;
        }
        let crit = series[critical];
        let critical_by_category =
            window_categories(crit, critical_cursor, crit.start + t, critical_span);
        // The injected split is a pure function of the phase, so only
        // the critical rank's is ever computed.
        let (_, mut by_class) = injected_extras(&crit.faults, t, critical_span, nphases);
        by_class[1] = demands[critical] - g; // straggler share
        critical_injected.clear();
        critical_injected.extend(InjectedClass::ALL.iter().copied().zip(by_class));
        end += durations[critical];
        let start = t;
        if params.mechanistic {
            let barrier = t + durations[critical];
            // Advance every cursor past the barrier: noise in a rank's
            // wait window [arrival, barrier) is absorbed.
            for r in 0..series.len() {
                let until = starts[r] + barrier;
                if heads[r] < until {
                    cursors[r] = window_noise(streams[r], cursors[r], until).1;
                    heads[r] = head_at(streams[r], cursors[r]);
                }
            }
            t = barrier;
        } else {
            t += g;
        }
        visit(&PhaseView {
            index: nphases,
            start,
            durations: &durations,
            critical,
            critical_by_category: &critical_by_category,
            critical_injected: &critical_injected,
        });
        nphases += 1;
    }
    (nphases, end)
}

/// Per-rank accounting over the whole coupled run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    pub rank: usize,
    /// Useful compute: `phases * granularity`.
    pub compute: Nanos,
    /// Noise this rank absorbed inside its own compute windows.
    pub self_noise: Nanos,
    /// Time spent waiting at barriers for slower ranks.
    pub wait: Nanos,
    /// Phases where this rank was the one the barrier waited for.
    pub critical_phases: usize,
}

/// Aggregated view of a coupled run: the per-rank/per-phase slowdown
/// breakdown and which noise class paid for the barrier.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollectiveBreakdown {
    pub granularity: Nanos,
    pub nranks: usize,
    pub nphases: usize,
    /// `nphases * granularity`: the noise-free runtime.
    pub ideal: Nanos,
    /// Actual final barrier time.
    pub elapsed: Nanos,
    /// `elapsed / ideal`.
    pub slowdown: f64,
    /// `ideal / elapsed`.
    pub efficiency: f64,
    /// Mean over phases of the critical rank's window noise — the
    /// mechanistic counterpart of the analytic `E[max_N W]`.
    pub mean_max_noise: Nanos,
    pub ranks: Vec<RankStats>,
    /// Total barrier-paid noise by category (critical-path
    /// attribution), canonical order.
    pub barrier_paid: Vec<(NoiseCategory, Nanos)>,
    /// Total barrier-paid time by injected fault class (critical-path
    /// attribution), canonical [`InjectedClass::ALL`] order. All zero
    /// when nothing was injected.
    pub barrier_injected: Vec<(InjectedClass, Nanos)>,
}

/// Streaming accumulator behind [`CollectiveBreakdown::from_ranks`]:
/// folds the coupled phases one at a time.
struct BreakdownAcc {
    g: Nanos,
    nphases: usize,
    total_max_noise: Nanos,
    /// Per-rank sum of phase durations: self-noise is it minus the
    /// ideal time, wait the elapsed barrier time minus it, so each
    /// phase adds one number per rank.
    duration_sums: Vec<Nanos>,
    ranks: Vec<RankStats>,
    barrier_paid: Vec<(NoiseCategory, Nanos)>,
    barrier_injected: Vec<(InjectedClass, Nanos)>,
}

impl BreakdownAcc {
    fn new(g: Nanos, nranks: usize) -> BreakdownAcc {
        BreakdownAcc {
            g,
            nphases: 0,
            total_max_noise: Nanos::ZERO,
            duration_sums: vec![Nanos::ZERO; nranks],
            ranks: (0..nranks)
                .map(|rank| RankStats {
                    rank,
                    compute: Nanos::ZERO,
                    self_noise: Nanos::ZERO,
                    wait: Nanos::ZERO,
                    critical_phases: 0,
                })
                .collect(),
            barrier_paid: NoiseCategory::NOISE
                .iter()
                .map(|c| (*c, Nanos::ZERO))
                .collect(),
            barrier_injected: InjectedClass::ALL
                .iter()
                .map(|c| (*c, Nanos::ZERO))
                .collect(),
        }
    }

    fn phase(
        &mut self,
        durations: &[Nanos],
        critical: usize,
        by_category: &[(NoiseCategory, Nanos)],
        by_injected: &[(InjectedClass, Nanos)],
    ) {
        let g = self.g;
        let barrier = durations[critical];
        self.total_max_noise += barrier - g;
        self.nphases += 1;
        self.ranks[critical].critical_phases += 1;
        for (sum, d) in self.duration_sums.iter_mut().zip(durations) {
            *sum += *d;
        }
        for (cat, d) in by_category {
            if let Some(slot) = self.barrier_paid.iter_mut().find(|(c, _)| c == cat) {
                slot.1 += *d;
            }
        }
        for (class, d) in by_injected {
            if let Some(slot) = self.barrier_injected.iter_mut().find(|(c, _)| c == class) {
                slot.1 += *d;
            }
        }
    }

    fn finish(mut self, elapsed: Nanos) -> CollectiveBreakdown {
        let nphases = self.nphases;
        let ideal = self.g * nphases as u64;
        let barriers = self.total_max_noise + ideal;
        for (r, sum) in self.ranks.iter_mut().zip(self.duration_sums) {
            r.compute = ideal;
            r.self_noise = sum - ideal;
            r.wait = barriers - sum;
        }
        let (slowdown, efficiency) = if ideal.is_zero() {
            (1.0, 1.0)
        } else {
            (
                elapsed.as_nanos() as f64 / ideal.as_nanos() as f64,
                ideal.as_nanos() as f64 / elapsed.as_nanos() as f64,
            )
        };
        CollectiveBreakdown {
            granularity: self.g,
            nranks: self.ranks.len(),
            nphases,
            ideal,
            elapsed,
            slowdown,
            efficiency,
            mean_max_noise: if nphases == 0 {
                Nanos::ZERO
            } else {
                self.total_max_noise / nphases as u64
            },
            ranks: self.ranks,
            barrier_paid: self.barrier_paid,
            barrier_injected: self.barrier_injected,
        }
    }
}

impl CollectiveBreakdown {
    /// Couple and fold in one streamed pass, without materializing the
    /// per-phase vectors — O(ranks) memory, which is what lets the
    /// tiered cluster engine run at 10k+ ranks.
    pub fn from_ranks<R: Borrow<RankSeries>>(
        ranks: &[R],
        params: &BspParams,
    ) -> CollectiveBreakdown {
        let mut acc = BreakdownAcc::new(params.granularity, ranks.len());
        let (_, end) = couple_stream(ranks, params, |p| {
            acc.phase(
                p.durations,
                p.critical,
                p.critical_by_category,
                p.critical_injected,
            )
        });
        acc.finish(end)
    }

    /// The category that paid the most barrier time, if any noise was
    /// paid at all.
    pub fn dominant(&self) -> Option<NoiseCategory> {
        self.barrier_paid
            .iter()
            .max_by_key(|(_, d)| *d)
            .filter(|(_, d)| !d.is_zero())
            .map(|(c, _)| *c)
    }

    /// The injected fault class that paid the most barrier time, if
    /// any injected time was paid at all.
    pub fn dominant_injected(&self) -> Option<InjectedClass> {
        self.barrier_injected
            .iter()
            .max_by_key(|(_, d)| *d)
            .filter(|(_, d)| !d.is_zero())
            .map(|(c, _)| *c)
    }

    /// Total injected time the barrier paid.
    pub fn total_injected(&self) -> Nanos {
        self.barrier_injected.iter().map(|(_, d)| *d).sum()
    }

    /// Total noise the barrier paid (critical-path attribution). This
    /// can differ slightly from `mean_max_noise * nphases` only by
    /// integer division in the mean.
    pub fn total_barrier_noise(&self) -> Nanos {
        self.barrier_paid.iter().map(|(_, d)| *d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::ChartPoint;
    use crate::noise::Component;
    use osn_kernel::activity::{Activity, FaultKind, SoftirqVec};
    use osn_kernel::ids::Tid;

    fn point(t: u64, noise: u64, activity: Activity) -> ChartPoint {
        ChartPoint {
            t: Nanos(t),
            noise: Nanos(noise),
            duration: Nanos(noise),
            components: vec![(Component::Activity(activity), Nanos(noise))],
        }
    }

    fn series(points: Vec<ChartPoint>, horizon: u64) -> RankSeries {
        RankSeries::new(
            NoiseChart {
                task: Tid(1),
                points,
            },
            Nanos(horizon),
        )
    }

    fn params(g: u64) -> BspParams {
        BspParams::new(Nanos(g))
    }

    /// One coupled phase, copied out of the [`PhaseView`] that
    /// [`couple_stream`] lends.
    #[derive(Debug, PartialEq)]
    struct PhaseCopy {
        start: Nanos,
        durations: Vec<Nanos>,
        critical: usize,
        critical_by_category: Vec<(NoiseCategory, Nanos)>,
        critical_injected: Vec<(InjectedClass, Nanos)>,
    }

    /// Every phase of a coupled run, and its final barrier time.
    #[derive(Debug, PartialEq)]
    struct Coupled {
        phases: Vec<PhaseCopy>,
        end: Nanos,
    }

    fn coupled<R: Borrow<RankSeries>>(ranks: &[R], params: &BspParams) -> Coupled {
        let mut phases = Vec::new();
        let (nphases, end) = couple_stream(ranks, params, |p| {
            phases.push(PhaseCopy {
                start: p.start,
                durations: p.durations.to_vec(),
                critical: p.critical,
                critical_by_category: p.critical_by_category.to_vec(),
                critical_injected: p.critical_injected.to_vec(),
            })
        });
        assert_eq!(nphases, phases.len());
        Coupled { phases, end }
    }

    #[test]
    fn noise_free_ranks_run_at_ideal_speed() {
        let ranks = vec![series(vec![], 10_000), series(vec![], 10_000)];
        let run = coupled(&ranks, &params(1_000));
        assert_eq!(run.phases.len(), 10);
        assert_eq!(run.end, Nanos(10_000));
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert_eq!(b.slowdown, 1.0);
        assert_eq!(b.mean_max_noise, Nanos::ZERO);
        assert!(b.dominant().is_none());
    }

    #[test]
    fn barrier_pays_the_slowest_rank() {
        // Rank 1 takes a 300 ns hit in phase 0; rank 0 is clean.
        let ranks = vec![
            series(vec![], 10_000),
            series(vec![point(500, 300, Activity::TimerInterrupt)], 10_000),
        ];
        let run = coupled(&ranks, &params(1_000));
        let p0 = &run.phases[0];
        assert_eq!(p0.durations, vec![Nanos(1_000), Nanos(1_300)]);
        assert_eq!(p0.critical, 1);
        // Phase 1 starts at the barrier, not at rank 0's arrival.
        assert_eq!(run.phases[1].start, Nanos(1_300));
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert_eq!(b.ranks[0].wait, Nanos(300));
        assert_eq!(b.ranks[1].self_noise, Nanos(300));
        assert_eq!(b.dominant(), Some(NoiseCategory::Periodic));
        assert_eq!(b.total_barrier_noise(), Nanos(300));
    }

    #[test]
    fn noise_in_the_overrun_extends_the_window() {
        // A hit at t=900 pushes arrival past 1000; a second hit at
        // t=1100 lands inside the overrun and must also be paid.
        let ranks = vec![series(
            vec![
                point(900, 200, Activity::TimerInterrupt),
                point(1_100, 400, Activity::PageFault(FaultKind::AnonZero)),
            ],
            10_000,
        )];
        let run = coupled(&ranks, &params(1_000));
        assert_eq!(run.phases[0].durations[0], Nanos(1_600));
    }

    #[test]
    fn noise_during_barrier_wait_is_absorbed() {
        // Rank 0 waits 500 ns at the first barrier; a hit landing in
        // its wait window must not charge phase 1.
        let ranks = vec![
            series(vec![point(1_200, 100, Activity::TimerInterrupt)], 10_000),
            series(vec![point(100, 500, Activity::TimerInterrupt)], 10_000),
        ];
        let run = coupled(&ranks, &params(1_000));
        // Rank 0 arrives at 1000, barrier at 1500; its t=1200 hit is in
        // the wait window — absorbed.
        assert_eq!(run.phases[0].durations[0], Nanos(1_000));
        assert_eq!(run.phases[1].durations[0], Nanos(1_000));
    }

    #[test]
    fn accounting_identity_per_rank() {
        // compute + self_noise + wait == elapsed, for every rank.
        let ranks = vec![
            series(
                vec![
                    point(500, 70, Activity::TimerInterrupt),
                    point(2_700, 900, Activity::PageFault(FaultKind::AnonZero)),
                ],
                20_000,
            ),
            series(
                vec![point(1_400, 650, Activity::Softirq(SoftirqVec::NetRx))],
                20_000,
            ),
        ];
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        for r in &b.ranks {
            assert_eq!(
                r.compute + r.self_noise + r.wait,
                b.elapsed,
                "rank {}",
                r.rank
            );
        }
        let criticals: usize = b.ranks.iter().map(|r| r.critical_phases).sum();
        assert_eq!(criticals, b.nphases);
    }

    #[test]
    fn phases_stop_at_the_shortest_horizon() {
        let ranks = vec![series(vec![], 10_000), series(vec![], 3_500)];
        let run = coupled(&ranks, &params(1_000));
        assert_eq!(run.phases.len(), 3);
    }

    #[test]
    fn max_phases_caps_the_run() {
        let ranks = vec![series(vec![], 100_000)];
        let run = coupled(
            &ranks,
            &BspParams {
                max_phases: 7,
                ..BspParams::new(Nanos(1_000))
            },
        );
        assert_eq!(run.phases.len(), 7);
    }

    #[test]
    fn fixed_grid_mode_matches_bucketed_windows() {
        // Grid mode: windows at [0,1000), [1000,2000), ... with no
        // skew, no elongation, no absorption.
        let ranks = vec![
            series(
                vec![
                    point(200, 500, Activity::TimerInterrupt),
                    point(2_100, 80, Activity::TimerInterrupt),
                ],
                10_000,
            ),
            series(
                vec![point(1_400, 650, Activity::Softirq(SoftirqVec::NetRx))],
                10_000,
            ),
        ];
        let run = coupled(&ranks, &params(1_000).fixed_grid());
        assert_eq!(run.phases.len(), 10);
        // Phase 0: rank 0 pays 500, rank 1 clean -> max 500.
        assert_eq!(run.phases[0].durations, vec![Nanos(1_500), Nanos(1_000)]);
        // Phase 1: rank 1 pays 650 (its t=1400 point).
        assert_eq!(run.phases[1].durations, vec![Nanos(1_000), Nanos(1_650)]);
        // Phase 2: rank 0's t=2100 point lands on the fixed grid here
        // (the mechanistic run catches it in phase 1 — that shift IS
        // the skew).
        assert_eq!(run.phases[2].durations[0], Nanos(1_080));
        // end == sum of per-phase maxima.
        let total: Nanos = run.phases.iter().map(|p| p.durations[p.critical]).sum();
        assert_eq!(run.end, total);
    }

    #[test]
    fn start_offset_shifts_the_trace_window() {
        // With start = 2000 the program begins deep in the trace: the
        // early points are skipped entirely and the horizon budget
        // shrinks by the offset.
        let ranks = vec![series(
            vec![
                point(500, 999, Activity::TimerInterrupt),
                point(2_300, 120, Activity::TimerInterrupt),
            ],
            6_000,
        )
        .with_start(Nanos(2_000))];
        let run = coupled(&ranks, &params(1_000));
        // Phase 0 covers trace [2000, 3120): pays the t=2300 point
        // only; the t=500 point predates the start.
        assert_eq!(run.phases[0].durations[0], Nanos(1_120));
        // Horizon 6000 minus the 2000 offset leaves room for windows
        // at trace positions 2000..3120, 3120..4120, 4120..5120; a
        // fourth (5120..6120) would cross the horizon.
        assert_eq!(run.phases.len(), 3);
        // Offset zero on the same series pays the big early point.
        let aligned = vec![series(
            vec![
                point(500, 999, Activity::TimerInterrupt),
                point(2_300, 120, Activity::TimerInterrupt),
            ],
            6_000,
        )];
        let run0 = coupled(&aligned, &params(1_000));
        assert_eq!(run0.phases[0].durations[0], Nanos(1_999));
    }

    #[test]
    fn skew_is_carried_across_phases() {
        // One early hit shifts every later window: a hit at t=2100
        // would be in phase 2 on the ideal grid, but the phase-0 delay
        // of 500 ns shifts phase 1 to [1500, 2500) and catches it.
        let ranks = vec![series(
            vec![
                point(200, 500, Activity::TimerInterrupt),
                point(2_100, 80, Activity::TimerInterrupt),
            ],
            10_000,
        )];
        let run = coupled(&ranks, &params(1_000));
        assert_eq!(run.phases[0].durations[0], Nanos(1_500));
        assert_eq!(run.phases[1].start, Nanos(1_500));
        assert_eq!(run.phases[1].durations[0], Nanos(1_080));
    }

    fn injected_total(b: &CollectiveBreakdown, class: InjectedClass) -> Nanos {
        b.barrier_injected
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, d)| *d)
            .unwrap()
    }

    #[test]
    fn default_faults_change_nothing() {
        let plain = vec![
            series(vec![point(500, 300, Activity::TimerInterrupt)], 10_000),
            series(vec![], 10_000),
        ];
        let faulted: Vec<RankSeries> = plain
            .iter()
            .map(|s| s.clone().with_faults(RankFaults::default()))
            .collect();
        let a = coupled(&plain, &params(1_000));
        let b = coupled(&faulted, &params(1_000));
        assert_eq!(a, b, "empty fault config must be a strict no-op");
        let bd = CollectiveBreakdown::from_ranks(&plain, &params(1_000));
        assert!(bd.dominant_injected().is_none());
        assert!(bd.total_injected().is_zero());
    }

    #[test]
    fn straggler_is_critical_and_attributed() {
        let ranks = vec![
            series(vec![], 10_000),
            series(vec![], 10_000).with_faults(RankFaults {
                slow_factor: 1.5,
                ..RankFaults::default()
            }),
        ];
        let run = coupled(&ranks, &params(1_000));
        assert!(!run.phases.is_empty());
        for p in &run.phases {
            assert_eq!(p.critical, 1, "straggler must pace the barrier");
            assert_eq!(p.durations[1], Nanos(1_500));
        }
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert_eq!(b.dominant_injected(), Some(InjectedClass::Straggler));
        assert_eq!(
            injected_total(&b, InjectedClass::Straggler),
            Nanos(500) * run.phases.len() as u64
        );
        assert!(injected_total(&b, InjectedClass::Crash).is_zero());
    }

    #[test]
    fn crash_outage_freezes_the_rank() {
        // Rank 1 is down over [500, 1500): phase 0 does 500 ns of
        // work, freezes 1000 ns, then finishes the remaining 500 ns —
        // the 1000 ns outage is paid once and attributed to Crash.
        let ranks = vec![
            series(vec![], 10_000),
            series(vec![], 10_000).with_faults(RankFaults {
                outages: vec![(Nanos(500), Nanos(1_500))],
                ..RankFaults::default()
            }),
        ];
        let run = coupled(&ranks, &params(1_000));
        assert_eq!(run.phases[0].durations[1], Nanos(2_000));
        assert_eq!(run.phases[0].critical, 1);
        assert_eq!(
            run.phases[0].critical_injected,
            vec![
                (InjectedClass::Crash, Nanos(1_000)),
                (InjectedClass::Straggler, Nanos::ZERO),
                (InjectedClass::Partition, Nanos::ZERO),
                (InjectedClass::Jitter, Nanos::ZERO),
            ]
        );
        // Later phases run past the outage unharmed.
        assert_eq!(run.phases[1].durations[1], Nanos(1_000));
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert_eq!(injected_total(&b, InjectedClass::Crash), Nanos(1_000));
        assert_eq!(b.dominant_injected(), Some(InjectedClass::Crash));
    }

    #[test]
    fn partition_delays_arrivals_inside_its_window() {
        let ranks = vec![
            series(vec![], 10_000),
            series(vec![], 10_000).with_faults(RankFaults {
                delays: vec![DelayWindow {
                    start: Nanos(0),
                    end: Nanos(1_500),
                    delay: Nanos(300),
                }],
                ..RankFaults::default()
            }),
        ];
        let run = coupled(&ranks, &params(1_000));
        // Phase 0 arrival (t=1000) is inside the partition window.
        assert_eq!(run.phases[0].durations[1], Nanos(1_300));
        assert_eq!(run.phases[0].critical, 1);
        // Phase 1 arrival (t=2300) is past it.
        assert_eq!(run.phases[1].durations[1], Nanos(1_000));
        let b = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert_eq!(injected_total(&b, InjectedClass::Partition), Nanos(300));
    }

    #[test]
    fn jitter_is_deterministic_and_positive() {
        let faults = RankFaults {
            jitter_mean: Nanos(200),
            jitter_seed: 42,
            ..RankFaults::default()
        };
        let ranks = vec![series(vec![], 20_000).with_faults(faults)];
        let a = coupled(&ranks, &params(1_000));
        let b = coupled(&ranks, &params(1_000));
        assert_eq!(a, b, "jitter must be a pure function of (seed, phase)");
        let bd = CollectiveBreakdown::from_ranks(&ranks, &params(1_000));
        assert!(
            !injected_total(&bd, InjectedClass::Jitter).is_zero(),
            "exponential jitter over many phases must pay some delay"
        );
        // Different seeds give different schedules.
        let other = vec![series(vec![], 20_000).with_faults(RankFaults {
            jitter_seed: 43,
            jitter_mean: Nanos(200),
            ..RankFaults::default()
        })];
        assert_ne!(coupled(&other, &params(1_000)), a);
    }

    /// A periodic trace (tick-style) for surrogate fitting: events at
    /// `phase + k*period` plus aperiodic clutter that must not derail
    /// the period fit.
    fn ticked(phase: u64, period: u64, noise: u64, horizon: u64, clutter: u64) -> RankSeries {
        let mut pts = Vec::new();
        let mut t = phase;
        while t < horizon {
            pts.push(point(t, noise, Activity::TimerInterrupt));
            t += period;
        }
        let mut c = clutter;
        while c < horizon {
            pts.push(point(c, 40, Activity::PageFault(FaultKind::AnonZero)));
            c += 3 * period + 137;
        }
        pts.sort_by_key(|p| p.t);
        series(pts, horizon)
    }

    #[test]
    fn surrogate_fit_recovers_the_tick_comb() {
        let sample: Vec<RankSeries> = (0..4)
            .map(|i| ticked(2_500, 10_000, 300 + 10 * i, 200_000, 1_000 + 97 * i))
            .collect();
        let s = NoiseSurrogate::fit(&sample, Nanos(1_000));
        let comb = s.comb.as_ref().expect("tick comb must be detected");
        assert_eq!(comb.period, Nanos(10_000));
        // A clutter point occasionally merges into a tick cluster and
        // drags its start time; the circular mean tolerates that, so
        // allow a small contamination error (comb matching tolerance
        // is period/8 = 1250 ns, far looser than this bound).
        assert!(
            comb.phase.as_nanos().abs_diff(2_500) <= 100,
            "phase {:?} should be ~2500",
            comb.phase
        );
        assert!(comb.occupancy > 0.9, "occupancy {}", comb.occupancy);
        assert!(!comb.table.is_empty());
        // The aperiodic clutter lands in the residual, not the comb.
        assert!(s
            .residual
            .iter()
            .any(|b| !b.floor.total.is_zero() || b.extras.iter().any(|r| !r.total.is_zero())));
    }

    #[test]
    fn synthetic_ranks_are_deterministic_pure_hash_draws() {
        let sample: Vec<RankSeries> = (0..4)
            .map(|i| ticked(2_500, 10_000, 300, 200_000, 1_000 + 97 * i))
            .collect();
        let s = Arc::new(NoiseSurrogate::fit(&sample, Nanos(1_000)));
        let a = RankSeries::synthetic(SyntheticRank::new(s.clone(), 11));
        let b = RankSeries::synthetic(SyntheticRank::new(s.clone(), 11));
        let c = RankSeries::synthetic(SyntheticRank::new(s.clone(), 12));
        assert_eq!(a.windows(Nanos(1_000)), b.windows(Nanos(1_000)));
        assert_ne!(a.windows(Nanos(1_000)), c.windows(Nanos(1_000)));
        let total: Nanos = a.windows(Nanos(1_000)).into_iter().sum();
        assert!(!total.is_zero(), "synthetic rank must carry noise");
        // Re-querying the same interval is stateless and repeatable.
        assert_eq!(
            a.synth.as_ref().unwrap().noise_in(Nanos(0), Nanos(50_000)),
            b.synth.as_ref().unwrap().noise_in(Nanos(0), Nanos(50_000)),
        );
        // Coupling synthetic ranks is itself deterministic.
        let ranks = vec![a, c];
        assert_eq!(
            coupled(&ranks, &params(1_000)),
            coupled(&ranks, &params(1_000))
        );
    }

    #[test]
    fn synthetic_comb_events_share_global_tick_times() {
        // Alignment survives synthesis: every rank's comb events sit at
        // the same machine-global `phase + k*period` instants, so two
        // synthetic ranks pay their periodic noise in the same windows.
        let sample: Vec<RankSeries> = (0..4)
            .map(|_| ticked(2_500, 10_000, 300, 200_000, 0))
            .collect();
        let s = Arc::new(NoiseSurrogate::fit(&sample, Nanos(1_000)));
        let comb = s.comb.as_ref().expect("comb");
        let (p, ph) = (comb.period.as_nanos(), comb.phase.as_nanos());
        for seed in [3u64, 4, 5] {
            let r = SyntheticRank::new(s.clone(), seed);
            let mut hits = 0usize;
            let mut slots = 0usize;
            let mut k = 0;
            while ph + k * p + 1 < s.horizon.as_nanos() {
                let t = ph + k * p;
                slots += 1;
                if !r.noise_in(Nanos(t), Nanos(t + 1)).is_zero() {
                    hits += 1;
                }
                // Off-tick instants never carry comb noise.
                k += 1;
            }
            assert!(
                hits * 10 >= slots * 8,
                "seed {seed}: {hits}/{slots} tick slots occupied"
            );
        }
    }

    /// A random rank for surrogate fitting: an optional tick comb plus
    /// clutter of mixed noise classes, every `stride`-th clutter point
    /// dropped so the sampled ranks disagree and the bins' deviation
    /// tables carry both zero and non-zero draws.
    fn random_rank(
        comb: Option<(u64, u64, u64)>,
        clutter: &[(u64, u64, u8)],
        stride: usize,
        horizon: u64,
    ) -> RankSeries {
        let mut pts = Vec::new();
        if let Some((phase, period, noise)) = comb {
            let mut t = phase;
            while t < horizon {
                pts.push(point(t, noise, Activity::TimerInterrupt));
                t += period;
            }
        }
        for (j, &(t, noise, kind)) in clutter.iter().enumerate() {
            if j % stride == 0 {
                continue;
            }
            let activity = match kind {
                0 => Activity::PageFault(FaultKind::AnonZero),
                1 => Activity::Softirq(SoftirqVec::NetRx),
                _ => Activity::TimerInterrupt,
            };
            pts.push(point(t, noise, activity));
        }
        pts.sort_by_key(|p| p.t);
        series(pts, horizon)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compiled_stream_matches_the_hash_draws(
            ticked in any::<bool>(),
            period in 2_000u64..20_000,
            tick in 50u64..800,
            bin in 300u64..4_000,
            clutter in prop::collection::vec((0u64..120_000, 1u64..3_000, 0u8..3), 0..150),
            seed in any::<u64>(),
            cuts in prop::collection::vec(0u64..=120_000, 0..40),
            on_events in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
        ) {
            let horizon = 120_000;
            let sample: Vec<RankSeries> = (0..4u64)
                .map(|i| {
                    let comb = ticked.then_some((2_500 % period, period, tick + 10 * i));
                    random_rank(comb, &clutter, i as usize + 2, horizon)
                })
                .collect();
            let sur = Arc::new(NoiseSurrogate::fit(&sample, Nanos(bin)));
            let rank = SyntheticRank::new(sur.clone(), seed);

            // The stream holds exactly the events the draws yield.
            let mut drawn = Vec::new();
            rank.for_each_event(Nanos::ZERO, sur.horizon, |t, s| drawn.push((t, s.total)));
            drawn.sort_unstable();
            prop_assert_eq!(&drawn[..], &rank.stream[..]);

            // Any split into windows sums like hashing each window,
            // including cuts landing exactly on an event.
            let mut cuts = cuts;
            cuts.extend([0, horizon]);
            if !drawn.is_empty() {
                cuts.extend(on_events.iter().map(|i| drawn[i.index(drawn.len())].0.as_nanos()));
            }
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let (from, to) = (Nanos(w[0]), Nanos(w[1]));
                let mut hashed = Nanos::ZERO;
                rank.for_each_event(from, to, |_, s| hashed += s.total);
                prop_assert_eq!(rank.noise_in(from, to), hashed, "window {:?}", w);
            }

            // Borrowed ranks couple exactly like owned ones.
            let ranks = vec![
                sample[0].clone().with_start(Nanos(seed % 7_000)),
                RankSeries::synthetic(rank),
                RankSeries::synthetic(SyntheticRank::new(sur, seed ^ 1))
                    .with_start(Nanos(1_000))
                    .with_faults(RankFaults {
                        slow_factor: 1.1,
                        jitter_mean: Nanos(100),
                        jitter_seed: seed,
                        ..RankFaults::default()
                    }),
            ];
            let refs: Vec<&RankSeries> = ranks.iter().collect();
            for p in [params(1_000), params(1_000).fixed_grid()] {
                prop_assert_eq!(
                    CollectiveBreakdown::from_ranks(&refs, &p),
                    CollectiveBreakdown::from_ranks(&ranks, &p)
                );
            }
        }
    }
}
