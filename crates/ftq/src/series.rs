//! FTQ sample series and the noise estimate derived from them.
//!
//! FTQ "measures the amount of work done in a fixed time quantum in
//! terms of basic operations. ... we can indirectly estimate the amount
//! of OS noise, in terms of basic operations, from the difference
//! `Nmax − Ni`" (§III). The estimate is *discretized*: partially
//! completed operations are lost, so "FTQ slightly overestimates the
//! OS noise" (§III-C).

use osn_kernel::time::Nanos;

/// A completed FTQ run: operations counted per quantum.
#[derive(Clone, Debug, PartialEq)]
pub struct FtqSeries {
    /// Start time of quantum 0.
    pub origin: Nanos,
    /// Quantum length `T`.
    pub quantum: Nanos,
    /// Cost of one basic operation.
    pub op_cost: Nanos,
    /// Operations completed in each quantum (`N_i`).
    pub ops: Vec<u64>,
}

impl FtqSeries {
    /// `N_max`: the best quantum observed.
    pub fn n_max(&self) -> u64 {
        self.ops.iter().copied().max().unwrap_or(0)
    }

    /// The indirect noise estimate per quantum:
    /// `(N_max − N_i) × op_cost`.
    pub fn noise_estimate(&self) -> Vec<Nanos> {
        let nmax = self.n_max();
        self.ops
            .iter()
            .map(|&n| self.op_cost * (nmax - n))
            .collect()
    }

    /// Total estimated noise over the run.
    pub fn total_noise(&self) -> Nanos {
        self.noise_estimate().into_iter().sum()
    }

    /// Quantum start times (x-axis of Fig 1a).
    pub fn times(&self) -> Vec<Nanos> {
        (0..self.ops.len())
            .map(|i| self.origin + self.quantum * i as u64)
            .collect()
    }

    /// The quanta (index, estimate) whose estimate exceeds `threshold`
    /// — the "spikes" of Fig 1a.
    pub fn spikes(&self, threshold: Nanos) -> Vec<(usize, Nanos)> {
        self.noise_estimate()
            .into_iter()
            .enumerate()
            .filter(|(_, n)| *n > threshold)
            .collect()
    }

    /// A window of the series (Fig 1c's zoom).
    pub fn window(&self, from_quantum: usize, to_quantum: usize) -> FtqSeries {
        let to = to_quantum.min(self.ops.len());
        let from = from_quantum.min(to);
        FtqSeries {
            origin: self.origin + self.quantum * from as u64,
            quantum: self.quantum,
            op_cost: self.op_cost,
            ops: self.ops[from..to].to_vec(),
        }
    }
}

/// §III-C comparison between the FTQ estimate and the tracer's direct
/// measurement, per quantum.
#[derive(Clone, Debug)]
pub struct FtqComparison {
    /// Per-quantum `(ftq_estimate, traced_noise)`.
    pub per_quantum: Vec<(Nanos, Nanos)>,
}

impl FtqComparison {
    pub fn new(ftq: &FtqSeries, traced: &[Nanos]) -> FtqComparison {
        let n = ftq.ops.len().min(traced.len());
        let est = ftq.noise_estimate();
        FtqComparison {
            per_quantum: (0..n).map(|i| (est[i], traced[i])).collect(),
        }
    }

    /// Totals: `(ftq_total, traced_total)`.
    pub fn totals(&self) -> (Nanos, Nanos) {
        let f = self.per_quantum.iter().map(|(a, _)| *a).sum();
        let t = self.per_quantum.iter().map(|(_, b)| *b).sum();
        (f, t)
    }

    /// Pearson correlation between the two series (quantifies "the
    /// data output from these two methods are very similar").
    pub fn correlation(&self) -> f64 {
        let n = self.per_quantum.len();
        if n < 2 {
            return 1.0;
        }
        let xs: Vec<f64> = self
            .per_quantum
            .iter()
            .map(|(a, _)| a.as_nanos() as f64)
            .collect();
        let ys: Vec<f64> = self
            .per_quantum
            .iter()
            .map(|(_, b)| b.as_nanos() as f64)
            .collect();
        let mx = xs.iter().sum::<f64>() / n as f64;
        let my = ys.iter().sum::<f64>() / n as f64;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for i in 0..n {
            let dx = xs[i] - mx;
            let dy = ys[i] - my;
            cov += dx * dy;
            vx += dx * dx;
            vy += dy * dy;
        }
        if vx == 0.0 || vy == 0.0 {
            // Both flat → identical shape; one flat → no correlation.
            return if vx == vy { 1.0 } else { 0.0 };
        }
        cov / (vx.sqrt() * vy.sqrt())
    }

    /// Fraction of quanta where FTQ's estimate ≥ the traced noise
    /// (FTQ discretization overestimates; see §III-C).
    pub fn overestimate_fraction(&self) -> f64 {
        if self.per_quantum.is_empty() {
            return 0.0;
        }
        let over = self.per_quantum.iter().filter(|(f, t)| f >= t).count();
        over as f64 / self.per_quantum.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(ops: Vec<u64>) -> FtqSeries {
        FtqSeries {
            origin: Nanos(0),
            quantum: Nanos::from_millis(1),
            op_cost: Nanos(100),
            ops,
        }
    }

    #[test]
    fn noise_estimate_from_missing_ops() {
        let s = series(vec![1000, 990, 1000, 950]);
        assert_eq!(s.n_max(), 1000);
        assert_eq!(
            s.noise_estimate(),
            vec![Nanos(0), Nanos(1000), Nanos(0), Nanos(5000)]
        );
        assert_eq!(s.total_noise(), Nanos(6000));
    }

    #[test]
    fn spikes_above_threshold() {
        let s = series(vec![1000, 990, 1000, 950]);
        let spikes = s.spikes(Nanos(2000));
        assert_eq!(spikes, vec![(3, Nanos(5000))]);
    }

    #[test]
    fn window_slices() {
        let s = series(vec![10, 20, 30, 40, 50]);
        let w = s.window(1, 3);
        assert_eq!(w.ops, vec![20, 30]);
        assert_eq!(w.origin, Nanos::from_millis(1));
        let oob = s.window(4, 99);
        assert_eq!(oob.ops, vec![50]);
    }

    #[test]
    fn times_are_quantum_spaced() {
        let s = series(vec![1, 2, 3]);
        let t = s.times();
        assert_eq!(
            t,
            vec![Nanos(0), Nanos::from_millis(1), Nanos::from_millis(2)]
        );
    }

    #[test]
    fn perfect_correlation() {
        let s = series(vec![100, 90, 100, 80]);
        let traced: Vec<Nanos> = s.noise_estimate();
        let cmp = FtqComparison::new(&s, &traced);
        assert!((cmp.correlation() - 1.0).abs() < 1e-12);
        assert_eq!(cmp.overestimate_fraction(), 1.0);
        let (f, t) = cmp.totals();
        assert_eq!(f, t);
    }

    #[test]
    fn overestimate_detected() {
        let s = series(vec![100, 90]);
        // Tracer saw slightly less noise than FTQ's discretized guess.
        let cmp = FtqComparison::new(&s, &[Nanos(0), Nanos(900)]);
        assert_eq!(cmp.overestimate_fraction(), 1.0);
        let (f, t) = cmp.totals();
        assert!(f > t);
    }

    #[test]
    fn empty_and_degenerate() {
        let s = series(vec![]);
        assert_eq!(s.n_max(), 0);
        assert_eq!(s.total_noise(), Nanos::ZERO);
        let cmp = FtqComparison::new(&s, &[]);
        assert_eq!(cmp.correlation(), 1.0);
        assert_eq!(cmp.overestimate_fraction(), 0.0);
    }
}
