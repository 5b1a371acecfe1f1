//! Deterministic random number streams and duration distributions.
//!
//! Every stochastic component of the simulator (kernel activity cost
//! models, workload behaviour, network latency) draws from its own named
//! stream derived from the experiment seed, so that adding a new consumer
//! never perturbs existing streams and whole campaigns replay bit-for-bit.
//!
//! The distribution set is intentionally small: the paper's measured
//! duration histograms (Figs 4, 6, 8) are one-sided with long tails,
//! occasionally bimodal — log-normals, shifted exponentials, Pareto tails
//! and finite mixtures cover all observed shapes.
//!
//! The generator is xoshiro256++ seeded through splitmix64. This
//! module holds the workspace's only [`splitmix64`] and widening-
//! multiply [`bounded`]: the perturbation phases, the cluster's start
//! offsets and the surrogate's synthesis hashes call them from here.

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// One splitmix64 step: advance `state` and return its mixed output.
/// Seeds the streams and derives independent stream seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a full-range `u64` into `[0, span)` without modulo bias
/// (widening multiply).
#[inline]
pub fn bounded(x: u64, span: u64) -> u64 {
    ((u128::from(x) * u128::from(span)) >> 64) as u64
}

/// Derive a 64-bit stream seed from a root seed and a stream label.
///
/// The label is hashed with FNV-1a and mixed with the root through
/// splitmix64, giving well-separated streams for distinct labels.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut state = root ^ h;
    // A couple of extra rounds decorrelates nearby roots.
    splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Derive the seed for member `index` of a family of streams (e.g. the
/// per-node roots of a multi-node cluster campaign).
///
/// The root is first separated by `label` exactly as in
/// [`derive_seed`], then the index is folded in through its own
/// splitmix64 rounds, so `(root, label, i)` and `(root, label, j)` are
/// as decorrelated as two unrelated seeds while every member remains a
/// pure function of the one campaign root.
pub fn derive_indexed_seed(root: u64, label: &str, index: u64) -> u64 {
    let mut state = derive_seed(root, label) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state);
    splitmix64(&mut state)
}

/// A named deterministic random stream: a xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Stream {
    s: [u64; 4],
}

impl Stream {
    pub fn new(root_seed: u64, label: &str) -> Self {
        Stream::from_seed(derive_seed(root_seed, label))
    }

    /// Expand one seed word into the generator state with splitmix64,
    /// as the xoshiro authors recommend.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        Stream {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range: empty range {lo}..{hi}");
        lo + bounded(self.next_u64(), hi - lo)
    }

    /// Standard normal via Box–Muller (we avoid the `rand_distr`
    /// dependency; two uniforms per pair of normals, one discarded).
    pub fn standard_normal(&mut self) -> f64 {
        // Guard against ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.uniform();
            if u > f64::EPSILON {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Sample a poisson-process inter-arrival gap with mean `mean`.
    #[inline]
    pub fn interarrival(&mut self, mean: Nanos) -> Nanos {
        Nanos::from_nanos_f64(self.exponential(mean.as_nanos() as f64))
    }

    /// Poisson-distributed count with mean `lambda` (Knuth's method;
    /// fine for the small rates used by the tick bookkeeping model).
    pub fn poisson(&mut self, lambda: f64) -> u32 {
        debug_assert!((0.0..30.0).contains(&lambda), "rate {lambda} out of range");
        let limit = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
}

/// A duration distribution for kernel-activity cost models.
///
/// All variants produce strictly positive durations and support an
/// optional hard floor/cap applied at sampling time (the paper's tables
/// report sharp minima — e.g. page faults never below ~220 ns — which
/// correspond to the fixed entry/exit path cost).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Dist {
    /// Always the same duration.
    Constant { ns: u64 },
    /// Uniform in `[lo, hi]` nanoseconds.
    Uniform { lo: u64, hi: u64 },
    /// Log-normal with the given *linear-space* median and the
    /// log-space standard deviation `sigma`.
    LogNormal { median_ns: f64, sigma: f64 },
    /// `offset + Exp(mean)`: a sharp minimum plus exponential body.
    ShiftedExp { offset_ns: u64, mean_ns: f64 },
    /// Pareto tail: `scale * U^(-1/alpha)`; heavy tail for rare huge
    /// events (e.g. the 69 ms AMG page fault in Table I).
    Pareto { scale_ns: f64, alpha: f64 },
    /// Finite mixture of weighted components (weights need not sum to
    /// 1; they are normalized at sampling time).
    Mix { parts: Vec<(f64, Dist)> },
}

impl Dist {
    /// Sample a duration, clamped to `[floor, cap]`.
    pub fn sample(&self, s: &mut Stream, floor: Nanos, cap: Nanos) -> Nanos {
        let raw = self.sample_raw(s);
        raw.max(floor).min(cap)
    }

    fn sample_raw(&self, s: &mut Stream) -> Nanos {
        match self {
            Dist::Constant { ns } => Nanos(*ns),
            Dist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                Nanos(s.uniform_range(*lo, *hi + 1))
            }
            Dist::LogNormal { median_ns, sigma } => {
                let z = s.standard_normal();
                Nanos::from_nanos_f64(median_ns * (sigma * z).exp())
            }
            Dist::ShiftedExp { offset_ns, mean_ns } => {
                Nanos(*offset_ns) + Nanos::from_nanos_f64(s.exponential(*mean_ns))
            }
            Dist::Pareto { scale_ns, alpha } => {
                let u = loop {
                    let u = s.uniform();
                    if u > f64::EPSILON {
                        break u;
                    }
                };
                Nanos::from_nanos_f64(scale_ns * u.powf(-1.0 / alpha))
            }
            Dist::Mix { parts } => {
                debug_assert!(!parts.is_empty(), "empty mixture");
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                let mut pick = s.uniform() * total;
                for (w, d) in parts {
                    if pick < *w {
                        return d.sample_raw(s);
                    }
                    pick -= w;
                }
                parts.last().unwrap().1.sample_raw(s)
            }
        }
    }

    /// The theoretical mean of the distribution in nanoseconds (used by
    /// calibration sanity checks; mixtures average their parts).
    pub fn mean_ns(&self) -> f64 {
        match self {
            Dist::Constant { ns } => *ns as f64,
            Dist::Uniform { lo, hi } => (*lo as f64 + *hi as f64) / 2.0,
            Dist::LogNormal { median_ns, sigma } => median_ns * (sigma * sigma / 2.0).exp(),
            Dist::ShiftedExp { offset_ns, mean_ns } => *offset_ns as f64 + mean_ns,
            Dist::Pareto { scale_ns, alpha } => {
                if *alpha > 1.0 {
                    scale_ns * alpha / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::Mix { parts } => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                parts.iter().map(|(w, d)| w / total * d.mean_ns()).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers: every simulated duration, arrival and placement
    /// replays from these streams, so their outputs for a given seed
    /// are part of the reproduction and must never drift.
    #[test]
    fn stream_outputs_are_pinned() {
        let cases = [
            (
                Stream::from_seed(0),
                [
                    0x53175d61490b23df,
                    0x61da6f3dc380d507,
                    0x5c0fdf91ec9a7bfc,
                    0x02eebf8c3bbe5e1a,
                ],
                0x3fdfb2813aebd296,
                10,
            ),
            (
                Stream::new(0x0511_2011, "x"),
                [
                    0x212118e37f5d16f5,
                    0xb6c9e008c81e08a2,
                    0x3cd707d90db1d0e2,
                    0x892cd12aeb69dd68,
                ],
                0x3fcb708b1cf84bc8,
                11,
            ),
        ];
        for (mut s, words, uniform_bits, range) in cases {
            assert_eq!(
                [s.next_u64(), s.next_u64(), s.next_u64(), s.next_u64()],
                words
            );
            assert_eq!(s.uniform().to_bits(), uniform_bits);
            assert_eq!(s.uniform_range(10, 20), range);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = Stream::new(42, "x");
        let mut b = Stream::new(42, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_label_separated() {
        let mut a = Stream::new(42, "x");
        let mut b = Stream::new(42, "y");
        // Vanishingly unlikely to agree on the first 4 draws.
        let same = (0..4).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_seed_varies_with_root_and_label() {
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_eq!(derive_seed(7, "z"), derive_seed(7, "z"));
    }

    #[test]
    fn indexed_seeds_are_distinct_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            assert!(seen.insert(derive_indexed_seed(42, "cluster-node", i)));
        }
        assert_eq!(
            derive_indexed_seed(42, "cluster-node", 7),
            derive_indexed_seed(42, "cluster-node", 7)
        );
        assert_ne!(
            derive_indexed_seed(42, "cluster-node", 7),
            derive_indexed_seed(43, "cluster-node", 7)
        );
        assert_ne!(
            derive_indexed_seed(42, "cluster-node", 7),
            derive_indexed_seed(42, "other", 7)
        );
        // Index 0 is still label-mixed, not the bare derive_seed.
        assert_ne!(derive_indexed_seed(42, "x", 0), derive_seed(42, "x"));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut s = Stream::new(1, "u");
        for _ in 0..1000 {
            let u = s.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut s = Stream::new(3, "n");
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = s.standard_normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut s = Stream::new(4, "e");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.exponential(500.0)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    fn dist_respects_floor_and_cap() {
        let d = Dist::LogNormal {
            median_ns: 1000.0,
            sigma: 2.0,
        };
        let mut s = Stream::new(5, "d");
        for _ in 0..5000 {
            let v = d.sample(&mut s, Nanos(200), Nanos(50_000));
            assert!(v >= Nanos(200) && v <= Nanos(50_000));
        }
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let d = Dist::LogNormal {
            median_ns: 2500.0,
            sigma: 0.3,
        };
        let mut s = Stream::new(6, "m");
        let mut v: Vec<u64> = (0..9999)
            .map(|_| d.sample(&mut s, Nanos::ZERO, Nanos(u64::MAX)).0)
            .collect();
        v.sort_unstable();
        let med = v[v.len() / 2] as f64;
        assert!((med - 2500.0).abs() < 150.0, "median {med}");
    }

    #[test]
    fn mixture_picks_all_components() {
        let d = Dist::Mix {
            parts: vec![
                (1.0, Dist::Constant { ns: 10 }),
                (1.0, Dist::Constant { ns: 20 }),
            ],
        };
        let mut s = Stream::new(7, "mix");
        let mut saw10 = false;
        let mut saw20 = false;
        for _ in 0..200 {
            match d.sample(&mut s, Nanos::ZERO, Nanos(u64::MAX)).0 {
                10 => saw10 = true,
                20 => saw20 = true,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!(saw10 && saw20);
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Dist::Pareto {
            scale_ns: 1000.0,
            alpha: 1.2,
        };
        let mut s = Stream::new(8, "p");
        let max = (0..20_000)
            .map(|_| d.sample(&mut s, Nanos::ZERO, Nanos(u64::MAX)).0)
            .max()
            .unwrap();
        // All samples >= scale, and the tail should reach far beyond it.
        assert!(max > 20_000, "max {max}");
    }

    #[test]
    fn mean_ns_estimates() {
        assert_eq!(Dist::Constant { ns: 5 }.mean_ns(), 5.0);
        assert_eq!(Dist::Uniform { lo: 0, hi: 10 }.mean_ns(), 5.0);
        let m = Dist::Mix {
            parts: vec![
                (1.0, Dist::Constant { ns: 10 }),
                (3.0, Dist::Constant { ns: 20 }),
            ],
        };
        assert!((m.mean_ns() - 17.5).abs() < 1e-9);
        let se = Dist::ShiftedExp {
            offset_ns: 100,
            mean_ns: 50.0,
        };
        assert_eq!(se.mean_ns(), 150.0);
    }

    #[test]
    fn poisson_mean_and_zero() {
        let mut s = Stream::new(10, "poisson");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| s.poisson(1.35) as f64).sum::<f64>() / n as f64;
        assert!((mean - 1.35).abs() < 0.05, "mean {mean}");
        assert_eq!(s.poisson(0.0), 0);
    }

    #[test]
    fn interarrival_positive() {
        let mut s = Stream::new(9, "ia");
        for _ in 0..100 {
            // Mean 1 ms gaps; all samples finite and non-negative.
            let g = s.interarrival(Nanos::MILLI);
            assert!(g.as_nanos() < 1_000 * 1_000_000);
        }
    }
}
