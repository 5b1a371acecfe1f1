//! Noise amplification at scale — the paper's stated future work:
//! "We plan to use LTT NG-NOISE ... to quantify how our findings affect
//! the scalability of those applications on large machines with
//! hundreds of thousands of cores."
//!
//! # Model
//!
//! A bulk-synchronous application with one rank per node computes for a
//! granularity `g` between barriers. Each rank's iteration takes
//! `g + W`, where `W` is the OS noise falling into its window; the
//! barrier completes when the *slowest* rank arrives, so the expected
//! iteration time is `g + E[max of N samples of W]` — the classic
//! amplification of Petrini et al. (SC'03) and Tsafrir et al. (ICS'05),
//! here driven by the *measured* per-window noise distribution instead
//! of an assumed one.
//!
//! `W`'s distribution is built empirically by slicing the traced run of
//! the observed process into `g`-sized windows and summing interruption
//! noise per window — exactly what the synthetic OS noise chart
//! provides. Scaling to `N` nodes resamples `N` windows per iteration
//! (nodes are independent and identically disturbed, the paper's
//! "inherently redundant across nodes" premise) and averages the
//! maximum over many Monte-Carlo iterations.

use osn_kernel::rng::Stream;
use osn_kernel::time::Nanos;

use serde::{Deserialize, Serialize};

use crate::analysis::chart::NoiseChart;
use crate::experiment::AppRun;

/// Empirical per-window noise model for one application at one
/// granularity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleModel {
    /// Compute granularity between barriers.
    pub granularity: Nanos,
    /// Noise observed in each `granularity` window of the traced run.
    pub windows: Vec<Nanos>,
}

/// One point of the scalability curve.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScalePoint {
    pub nodes: u64,
    /// Expected per-iteration noise `E[max_N W]`.
    pub expected_max_noise: Nanos,
    /// Iteration slowdown factor `(g + E[max_N W]) / g`.
    pub slowdown: f64,
    /// Parallel efficiency `g / (g + E[max_N W])`.
    pub efficiency: f64,
}

impl ScaleModel {
    /// Build the empirical window distribution from a traced run's
    /// observed process.
    pub fn from_run(run: &AppRun, granularity: Nanos) -> ScaleModel {
        let observed = run.observed_rank();
        let chart = NoiseChart::build(&run.analysis, observed);
        let span = run.result.end_time;
        let nwindows = (span / granularity) as usize;
        let windows = chart.bucket(Nanos::ZERO, granularity, nwindows);
        ScaleModel {
            granularity,
            windows,
        }
    }

    /// Build directly from window samples (tests, synthetic studies).
    pub fn from_windows(granularity: Nanos, windows: Vec<Nanos>) -> ScaleModel {
        ScaleModel {
            granularity,
            windows,
        }
    }

    /// Mean single-node noise per window.
    pub fn mean_window_noise(&self) -> Nanos {
        if self.windows.is_empty() {
            return Nanos::ZERO;
        }
        Nanos(self.windows.iter().map(|n| n.as_nanos()).sum::<u64>() / self.windows.len() as u64)
    }

    /// Monte-Carlo estimate of `E[max over `nodes` samples]` by
    /// resampling the empirical distribution.
    pub fn expected_max_noise(&self, nodes: u64, trials: u32, seed: u64) -> Nanos {
        if self.windows.is_empty() || nodes == 0 {
            return Nanos::ZERO;
        }
        let mut rng = Stream::new(seed, "scale-mc");
        let n = self.windows.len() as u64;
        let mut total = 0u128;
        for _ in 0..trials {
            let mut worst = 0u64;
            for _ in 0..nodes {
                let pick = self.windows[rng.uniform_range(0, n) as usize];
                worst = worst.max(pick.as_nanos());
            }
            total += worst as u128;
        }
        Nanos((total / trials as u128) as u64)
    }

    /// Exact `E[max over `nodes` samples]` under the empirical
    /// distribution, via order statistics: with the `m` window values
    /// sorted ascending, `P[max <= v_k] = (k/m)^N`, so
    /// `E[max] = Σ_k v_k ((k/m)^N − ((k−1)/m)^N)`. Deterministic (no
    /// Monte-Carlo seed) and O(m log m), independent of `nodes` — the
    /// estimator the tiered cluster reports use so 100k-rank analytic
    /// columns cost the same as 64-rank ones.
    pub fn expected_max_noise_exact(&self, nodes: u64) -> Nanos {
        if self.windows.is_empty() || nodes == 0 {
            return Nanos::ZERO;
        }
        let mut sorted: Vec<u64> = self.windows.iter().map(|n| n.as_nanos()).collect();
        sorted.sort_unstable();
        let m = sorted.len() as f64;
        let n = nodes as f64;
        let mut acc = 0.0f64;
        let mut cdf_prev = 0.0f64;
        for (k, v) in sorted.iter().enumerate() {
            let cdf = ((k + 1) as f64 / m).powf(n);
            acc += *v as f64 * (cdf - cdf_prev);
            cdf_prev = cdf;
        }
        Nanos(acc.round() as u64)
    }

    /// One curve point.
    pub fn at(&self, nodes: u64, trials: u32, seed: u64) -> ScalePoint {
        let expected_max_noise = self.expected_max_noise(nodes, trials, seed);
        let g = self.granularity.as_nanos() as f64;
        let w = expected_max_noise.as_nanos() as f64;
        ScalePoint {
            nodes,
            expected_max_noise,
            slowdown: (g + w) / g,
            efficiency: g / (g + w),
        }
    }

    /// The full curve over a list of node counts.
    pub fn curve(&self, nodes: &[u64], trials: u32, seed: u64) -> Vec<ScalePoint> {
        nodes.iter().map(|n| self.at(*n, trials, seed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(windows: Vec<u64>) -> ScaleModel {
        ScaleModel::from_windows(
            Nanos::from_millis(1),
            windows.into_iter().map(Nanos).collect(),
        )
    }

    #[test]
    fn single_node_matches_mean() {
        let m = model(vec![100, 200, 300]);
        assert_eq!(m.mean_window_noise(), Nanos(200));
        let one = m.expected_max_noise(1, 20_000, 7);
        // E[max of 1] == mean, within MC error.
        assert!(one.as_nanos().abs_diff(200) < 10, "{one}");
    }

    #[test]
    fn amplification_grows_with_nodes_and_saturates() {
        // 10% of windows carry a big 100 µs hit, the rest are clean:
        // at scale, *some* node hits it almost every iteration.
        let mut windows = vec![0u64; 90];
        windows.extend(vec![100_000u64; 10]);
        let m = model(windows);
        let n1 = m.expected_max_noise(1, 4_000, 1);
        let n8 = m.expected_max_noise(8, 4_000, 1);
        let n64 = m.expected_max_noise(64, 4_000, 1);
        let n4096 = m.expected_max_noise(4096, 4_000, 1);
        assert!(n1 < n8 && n8 < n64, "{n1} {n8} {n64}");
        // Saturation at the distribution maximum.
        assert!(n4096 <= Nanos(100_000));
        assert!(n4096 > Nanos(99_000), "{n4096}");
        // Single node: ~10% chance → ~10 µs expected.
        assert!(n1.as_nanos().abs_diff(10_000) < 2_000, "{n1}");
    }

    #[test]
    fn slowdown_and_efficiency_are_consistent() {
        let m = model(vec![50_000; 10]); // constant 50 µs per 1 ms window
        let p = m.at(1024, 1_000, 3);
        assert!((p.slowdown - 1.05).abs() < 0.001, "{}", p.slowdown);
        assert!((p.efficiency - 1.0 / 1.05).abs() < 0.001);
        assert!((p.slowdown * p.efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_model_is_noise_free() {
        let m = model(vec![]);
        assert_eq!(m.expected_max_noise(1_000, 100, 1), Nanos::ZERO);
        let p = m.at(1_000, 100, 1);
        assert_eq!(p.slowdown, 1.0);
    }

    #[test]
    fn exact_estimator_agrees_with_monte_carlo() {
        let m = model((0..100).map(|i| i * 997).collect());
        for nodes in [1u64, 8, 64, 1024] {
            let mc = m.expected_max_noise(nodes, 20_000, 11).as_nanos() as f64;
            let exact = m.expected_max_noise_exact(nodes).as_nanos() as f64;
            let tol = (exact * 0.02).max(500.0);
            assert!(
                (mc - exact).abs() <= tol,
                "nodes {nodes}: mc {mc} exact {exact}"
            );
        }
        // Exact special cases: E[max of 1] = mean; huge N saturates at
        // the distribution maximum; empty model is zero.
        let mean = m.mean_window_noise().as_nanos() as f64;
        let e1 = m.expected_max_noise_exact(1).as_nanos() as f64;
        assert!((e1 - mean).abs() <= 1.0, "{e1} vs {mean}");
        assert_eq!(m.expected_max_noise_exact(1 << 40), Nanos(99 * 997));
        assert_eq!(model(vec![]).expected_max_noise_exact(64), Nanos::ZERO);
        assert_eq!(m.expected_max_noise_exact(0), Nanos::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model((0..100).collect());
        assert_eq!(
            m.expected_max_noise(64, 500, 42),
            m.expected_max_noise(64, 500, 42)
        );
    }

    #[test]
    fn fine_granularity_amplifies_more() {
        // The same absolute noise hurts fine-grained apps more: the
        // paper's resonance discussion. Identical windows, smaller g.
        let windows: Vec<Nanos> = (0..100).map(|i| Nanos(i * 500)).collect();
        let fine = ScaleModel::from_windows(Nanos::from_micros(100), windows.clone());
        let coarse = ScaleModel::from_windows(Nanos::from_millis(10), windows);
        let f = fine.at(1024, 2_000, 9);
        let c = coarse.at(1024, 2_000, 9);
        assert!(f.slowdown > c.slowdown);
    }
}
