//! The Synthetic OS Noise Chart (paper §III, Figs 1b/1d, 9b, 10).
//!
//! "The Synthetic OS Noise Chart ... provides a view of the amount of
//! noise introduced by the OS. ... shows, for each OS interruption, the
//! kernel activities performed and their durations."
//!
//! A chart is a time series with one point per interruption, carrying
//! the full component decomposition; it can also be re-bucketed into
//! fixed quanta for direct visual comparison against FTQ output
//! (Figs 1a vs 1b).

use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;

use crate::noise::{Component, Interruption, NoiseAnalysis};

/// One chart point: an interruption with its decomposition.
#[derive(Clone, Debug, PartialEq)]
pub struct ChartPoint {
    /// Interruption start time.
    pub t: Nanos,
    /// Total noise of the interruption (excludes requested service).
    pub noise: Nanos,
    /// Wall duration of the interruption.
    pub duration: Nanos,
    /// Decomposition, largest component first.
    pub components: Vec<(Component, Nanos)>,
}

/// The synthetic OS noise chart for one task.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NoiseChart {
    pub task: Tid,
    pub points: Vec<ChartPoint>,
}

impl NoiseChart {
    /// Build the chart for a task from a completed analysis.
    pub fn build(analysis: &NoiseAnalysis, task: Tid) -> NoiseChart {
        let points = analysis
            .tasks
            .get(&task)
            .map(|tn| tn.interruptions.iter().map(point_of).collect())
            .unwrap_or_default();
        NoiseChart { task, points }
    }

    /// Total noise across the chart.
    pub fn total_noise(&self) -> Nanos {
        self.points.iter().map(|p| p.noise).sum()
    }

    /// Points inside a window (for the paper's zoomed figures).
    pub fn window(&self, from: Nanos, to: Nanos) -> NoiseChart {
        NoiseChart {
            task: self.task,
            points: self
                .points
                .iter()
                .filter(|p| p.t >= from && p.t < to)
                .cloned()
                .collect(),
        }
    }

    /// Re-bucket into fixed quanta of width `quantum` starting at
    /// `origin`: per-quantum total noise, directly comparable with the
    /// FTQ "missing work" series (Fig 1a vs 1b). Noise is attributed to
    /// the quantum containing the interruption start (as FTQ attributes
    /// missing work to the iteration in which it happened).
    pub fn bucket(&self, origin: Nanos, quantum: Nanos, nbuckets: usize) -> Vec<Nanos> {
        let mut out = vec![Nanos::ZERO; nbuckets];
        for p in &self.points {
            if p.t < origin {
                continue;
            }
            let idx = ((p.t - origin) / quantum) as usize;
            if idx < nbuckets {
                out[idx] += p.noise;
            }
        }
        out
    }

    /// The n largest interruptions (for report highlights).
    pub fn top(&self, n: usize) -> Vec<&ChartPoint> {
        let mut refs: Vec<&ChartPoint> = self.points.iter().collect();
        refs.sort_by_key(|p| std::cmp::Reverse(p.noise));
        refs.truncate(n);
        refs
    }
}

fn point_of(i: &Interruption) -> ChartPoint {
    let mut components = i.components.clone();
    components.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
    ChartPoint {
        t: i.start,
        noise: i.noise(),
        duration: i.duration(),
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity;

    fn point(t: u64, noise: u64) -> ChartPoint {
        ChartPoint {
            t: Nanos(t),
            noise: Nanos(noise),
            duration: Nanos(noise),
            components: vec![(Component::Activity(Activity::TimerInterrupt), Nanos(noise))],
        }
    }

    fn chart() -> NoiseChart {
        NoiseChart {
            task: Tid(1),
            points: vec![
                point(1_000, 50),
                point(2_500, 70),
                point(7_000, 30),
                point(12_000, 90),
            ],
        }
    }

    #[test]
    fn totals_and_top() {
        let c = chart();
        assert_eq!(c.total_noise(), Nanos(240));
        let top = c.top(2);
        assert_eq!(top[0].noise, Nanos(90));
        assert_eq!(top[1].noise, Nanos(70));
    }

    #[test]
    fn window_zoom() {
        let c = chart();
        let z = c.window(Nanos(2_000), Nanos(10_000));
        assert_eq!(z.points.len(), 2);
        assert_eq!(z.points[0].t, Nanos(2_500));
    }

    #[test]
    fn bucketing_matches_ftq_shape() {
        let c = chart();
        // Quanta of 5 µs from 0: [0,5000) -> 120, [5000,10000) -> 30,
        // [10000,15000) -> 90.
        let buckets = c.bucket(Nanos(0), Nanos(5_000), 3);
        assert_eq!(buckets, vec![Nanos(120), Nanos(30), Nanos(90)]);
    }

    #[test]
    fn bucket_ignores_out_of_range() {
        let c = chart();
        let buckets = c.bucket(Nanos(2_000), Nanos(1_000), 2);
        // Only t=2500 falls in [2000,4000).
        assert_eq!(buckets, vec![Nanos(70), Nanos::ZERO]);
    }
}
