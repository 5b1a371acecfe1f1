//! Duration histograms for the paper's time-distribution figures
//! (Figs 4, 6, 8).
//!
//! "Time distributions may have a very long tail that could make
//! visualization difficult. To improve the visualization, we cut all
//! the distributions in the histograms at the 99th percentile."

use osn_kernel::time::Nanos;

use serde::Serialize;

/// A linear-bin histogram over durations, optionally cut at a
/// percentile.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Histogram {
    /// Left edge of bin 0.
    pub lo: Nanos,
    /// Bin width.
    pub width: Nanos,
    pub counts: Vec<u64>,
    /// Samples above the cut (not binned).
    pub overflow: u64,
    /// Total samples offered.
    pub total: u64,
}

impl Histogram {
    /// Build a histogram with `bins` linear bins spanning
    /// `[min, cut]`, where `cut` is the `pct` percentile (the paper
    /// uses 99).
    ///
    /// ```
    /// use osn_analysis::Histogram;
    /// use osn_kernel::time::Nanos;
    ///
    /// let samples: Vec<Nanos> = (0..100).map(|i| Nanos(2_000 + i * 10)).collect();
    /// let h = Histogram::build(&samples, 10, 99.0);
    /// assert_eq!(h.counts.iter().sum::<u64>() + h.overflow, 100);
    /// ```
    pub fn build(samples: &[Nanos], bins: usize, pct: f64) -> Histogram {
        let mut sorted: Vec<Nanos> = samples.to_vec();
        sorted.sort_unstable();
        Histogram::from_sorted(&sorted, bins, pct)
    }

    /// [`Histogram::build`] over samples already in ascending order:
    /// no copy and no sort, O(bins · log n).
    ///
    /// ```
    /// use osn_analysis::Histogram;
    /// use osn_kernel::time::Nanos;
    ///
    /// let sorted: Vec<Nanos> = (0..100).map(|i| Nanos(2_000 + i * 10)).collect();
    /// assert_eq!(Histogram::from_sorted(&sorted, 10, 99.0), Histogram::build(&sorted, 10, 99.0));
    /// ```
    pub fn from_sorted(sorted: &[Nanos], bins: usize, pct: f64) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples not sorted"
        );
        if sorted.is_empty() {
            return Histogram {
                lo: Nanos::ZERO,
                width: Nanos(1),
                counts: vec![0; bins],
                overflow: 0,
                total: 0,
            };
        }
        let lo = sorted[0];
        let cut = percentile_sorted(sorted, pct);
        let span = (cut - lo).max(Nanos(1));
        let width = Nanos(span.as_nanos().div_ceil(bins as u64)).max(Nanos(1));
        // The samples are sorted, so each bin is a contiguous run:
        // instead of a division per sample, binary-search each bin's
        // right edge — O(bins · log n) instead of O(n) divisions, same
        // counts bit for bit. Edges are computed in u128 so a huge
        // `lo + k·width` cannot wrap and misplace tail samples.
        let n_in = sorted.partition_point(|&s| s <= cut);
        let overflow = (sorted.len() - n_in) as u64;
        let in_cut = &sorted[..n_in];
        let mut counts = vec![0u64; bins];
        let mut prev = 0usize;
        for (k, count) in counts.iter_mut().enumerate().take(bins - 1) {
            let edge = lo.as_nanos() as u128 + width.as_nanos() as u128 * (k as u128 + 1);
            let next = prev + in_cut[prev..].partition_point(|&s| (s.as_nanos() as u128) < edge);
            *count = (next - prev) as u64;
            prev = next;
        }
        counts[bins - 1] = (n_in - prev) as u64;
        Histogram {
            lo,
            width,
            counts,
            overflow,
            total: sorted.len() as u64,
        }
    }

    /// Bin center positions.
    pub fn centers(&self) -> Vec<Nanos> {
        (0..self.counts.len())
            .map(|i| self.lo + self.width * i as u64 + self.width / 2)
            .collect()
    }

    /// Indices of local maxima (modes) with counts above
    /// `min_fraction` of the peak bin: used to verify bimodality
    /// (Fig 4a vs 4b).
    ///
    /// Counts are smoothed with a 3-bin moving average first, and two
    /// candidate maxima only count as separate modes when a genuine
    /// valley (below 75 % of the smaller peak) lies between them —
    /// statistical bin noise does not split a peak.
    pub fn modes(&self, min_fraction: f64) -> Vec<usize> {
        let n = self.counts.len();
        if n == 0 {
            return vec![];
        }
        // 3-bin moving average (edges use the available neighbours).
        let smooth: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(n - 1);
                let sum: u64 = self.counts[lo..=hi].iter().sum();
                sum as f64 / (hi - lo + 1) as f64
            })
            .collect();
        let peak = smooth.iter().cloned().fold(0.0f64, f64::max);
        if peak <= 0.0 {
            return vec![];
        }
        let threshold = (peak * min_fraction).max(1.0);
        // Candidate local maxima on the smoothed series.
        let mut candidates = Vec::new();
        for i in 0..n {
            let c = smooth[i];
            if c < threshold {
                continue;
            }
            let left = if i > 0 { smooth[i - 1] } else { -1.0 };
            let right = if i + 1 < n { smooth[i + 1] } else { -1.0 };
            if (c >= left && c > right) || (c > left && c >= right) {
                candidates.push(i);
            }
        }
        candidates.dedup_by(|b, a| *b == *a + 1);
        // Valley test: keep a new mode only if the smoothed series dips
        // below 75 % of the smaller of the two peaks in between.
        let mut modes: Vec<usize> = Vec::new();
        for &cand in &candidates {
            match modes.last() {
                None => modes.push(cand),
                Some(&prev) => {
                    let valley = smooth[prev..=cand]
                        .iter()
                        .cloned()
                        .fold(f64::INFINITY, f64::min);
                    let smaller = smooth[prev].min(smooth[cand]);
                    if valley < smaller * 0.75 {
                        modes.push(cand);
                    } else if smooth[cand] > smooth[prev] {
                        // Same peak, better summit: replace.
                        *modes.last_mut().expect("nonempty") = cand;
                    }
                }
            }
        }
        modes
    }

    /// Fraction of samples that landed above the cut.
    pub fn tail_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }

    /// Mean of the binned samples, approximated from centers.
    pub fn binned_mean(&self) -> Nanos {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return Nanos::ZERO;
        }
        let centers = self.centers();
        let sum: u64 = centers
            .iter()
            .zip(&self.counts)
            .map(|(c, k)| c.as_nanos() * k)
            .sum();
        Nanos(sum / n)
    }
}

/// Percentile of an unsorted sample set (nearest-rank).
///
/// ```
/// use osn_analysis::histogram::percentile;
/// use osn_kernel::time::Nanos;
///
/// let samples: Vec<Nanos> = (1..=100).map(Nanos).collect();
/// assert_eq!(percentile(&samples, 99.0), Nanos(99));
/// ```
pub fn percentile(samples: &[Nanos], pct: f64) -> Nanos {
    if samples.is_empty() {
        return Nanos::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, pct)
}

fn percentile_sorted(sorted: &[Nanos], pct: f64) -> Nanos {
    debug_assert!(!sorted.is_empty());
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::build(&[], 10, 99.0);
        assert_eq!(h.total, 0);
        assert_eq!(h.counts.iter().sum::<u64>(), 0);
        assert_eq!(h.tail_fraction(), 0.0);
        assert_eq!(h.binned_mean(), Nanos::ZERO);
        assert!(h.modes(0.5).is_empty());
    }

    #[test]
    fn counts_and_overflow() {
        // 100 samples at 10, 1 outlier at 10_000: 99th pct cut drops
        // the outlier.
        let mut samples = vec![Nanos(10); 100];
        samples.push(Nanos(10_000));
        let h = Histogram::build(&samples, 5, 99.0);
        assert_eq!(h.total, 101);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 100);
        assert!(h.tail_fraction() > 0.009 && h.tail_fraction() < 0.011);
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<Nanos> = (1..=100).map(Nanos).collect();
        assert_eq!(percentile(&samples, 50.0), Nanos(50));
        assert_eq!(percentile(&samples, 99.0), Nanos(99));
        assert_eq!(percentile(&samples, 100.0), Nanos(100));
        assert_eq!(percentile(&samples, 0.0), Nanos(1));
        assert_eq!(percentile(&[], 50.0), Nanos::ZERO);
    }

    #[test]
    fn bimodal_detection() {
        // Two clear peaks at ~100 and ~300.
        let mut samples = Vec::new();
        for _ in 0..500 {
            samples.push(Nanos(100));
            samples.push(Nanos(102));
            samples.push(Nanos(300));
            samples.push(Nanos(298));
        }
        for i in 0..20 {
            samples.push(Nanos(150 + i)); // thin valley
        }
        let h = Histogram::build(&samples, 20, 100.0);
        let modes = h.modes(0.3);
        assert_eq!(modes.len(), 2, "modes {:?} counts {:?}", modes, h.counts);
    }

    #[test]
    fn unimodal_detection() {
        // Triangular distribution peaking at 300: one mode.
        let mut samples = Vec::new();
        for i in 0u64..100 {
            let dist_from_peak = i.abs_diff(50);
            let weight = 50 - dist_from_peak.min(49);
            for _ in 0..weight {
                samples.push(Nanos(200 + i * 2));
            }
        }
        let h = Histogram::build(&samples, 10, 100.0);
        let modes = h.modes(0.5);
        assert_eq!(modes.len(), 1, "counts {:?}", h.counts);
    }

    #[test]
    fn centers_are_mid_bin() {
        let samples: Vec<Nanos> = (0..100).map(|i| Nanos(i * 10)).collect();
        let h = Histogram::build(&samples, 10, 100.0);
        let centers = h.centers();
        assert_eq!(centers.len(), 10);
        assert!(centers[0] >= h.lo);
        assert!(centers.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn all_samples_binned_when_no_cut() {
        let samples: Vec<Nanos> = (1..=1000).map(Nanos).collect();
        let h = Histogram::build(&samples, 10, 100.0);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn binned_mean_roughly_right() {
        let samples = vec![Nanos(100); 1000];
        let h = Histogram::build(&samples, 4, 100.0);
        let mean = h.binned_mean();
        assert!(
            mean.as_nanos().abs_diff(100) <= 2,
            "mean {mean} off from 100"
        );
    }
}
