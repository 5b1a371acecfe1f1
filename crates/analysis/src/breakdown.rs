//! OS-noise breakdown by category (the paper's Fig 3): for each
//! application, the share of total noise attributable to *periodic*,
//! *page fault*, *scheduling*, *preemption*, and *I/O* activity.
//!
//! Production code reads the breakdown off the task set's
//! [`ClassColumns`](crate::stats::ClassColumns), whose one walk also
//! fills the per-class columns; [`Breakdown::compute`] is the
//! per-task-map reference it is tested against.

use osn_kernel::activity::NoiseCategory;
use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;

use crate::noise::NoiseAnalysis;

/// Noise totals and fractions for one application (job).
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// `(category, total)` in the canonical category order.
    pub totals: Vec<(NoiseCategory, Nanos)>,
    pub total_noise: Nanos,
    /// Total runnable time of the tasks analyzed (for noise ratio).
    pub runnable_time: Nanos,
}

impl Breakdown {
    /// Compute over a set of tasks (the ranks of one job) from each
    /// task's [`TaskNoise::by_category`](crate::noise::TaskNoise::by_category)
    /// map: the reference for
    /// [`ClassColumns::breakdown`](crate::stats::ClassColumns::breakdown).
    pub fn compute(analysis: &NoiseAnalysis, tids: &[Tid]) -> Breakdown {
        let mut totals: Vec<(NoiseCategory, Nanos)> = NoiseCategory::NOISE
            .iter()
            .map(|c| (*c, Nanos::ZERO))
            .collect();
        let mut runnable_time = Nanos::ZERO;
        for tid in tids {
            let Some(tn) = analysis.tasks.get(tid) else {
                continue;
            };
            runnable_time += tn.runnable_time;
            for (cat, d) in tn.by_category() {
                if let Some(slot) = totals.iter_mut().find(|(c, _)| *c == cat) {
                    slot.1 += d;
                }
            }
        }
        let total_noise = totals.iter().map(|(_, d)| *d).sum();
        Breakdown {
            totals,
            total_noise,
            runnable_time,
        }
    }

    /// Fraction of total noise in the given category (0 when no noise).
    pub fn fraction(&self, cat: NoiseCategory) -> f64 {
        if self.total_noise.is_zero() {
            return 0.0;
        }
        let t = self
            .totals
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, d)| *d)
            .unwrap_or(Nanos::ZERO);
        t.as_nanos() as f64 / self.total_noise.as_nanos() as f64
    }

    /// Noise as a fraction of runnable time (overall jitter level).
    pub fn noise_ratio(&self) -> f64 {
        if self.runnable_time.is_zero() {
            return 0.0;
        }
        self.total_noise.as_nanos() as f64 / self.runnable_time.as_nanos() as f64
    }

    /// The dominant category.
    pub fn dominant(&self) -> Option<NoiseCategory> {
        self.totals
            .iter()
            .max_by_key(|(_, d)| *d)
            .filter(|(_, d)| !d.is_zero())
            .map(|(c, _)| *c)
    }

    /// Fractions must sum to 1 (within float error) when any noise
    /// exists; exposed for property tests.
    pub fn fractions(&self) -> Vec<(NoiseCategory, f64)> {
        NoiseCategory::NOISE
            .iter()
            .map(|c| (*c, self.fraction(*c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity;
    use osn_kernel::hooks::SwitchState;
    use osn_kernel::ids::CpuId;
    use osn_kernel::task::TaskMeta;
    use osn_trace::{Event, EventKind, Trace};

    fn meta(tid: u32) -> TaskMeta {
        TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }
    }

    fn ev(t: u64, tid: u32, kind: EventKind) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(0),
            tid: Tid(tid),
            kind,
        }
    }

    fn mini_trace() -> (Trace, Vec<TaskMeta>) {
        let fault = Activity::PageFault(osn_kernel::activity::FaultKind::AnonZero);
        let events = vec![
            ev(
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            // 30 ns of timer, 70 ns of fault.
            ev(100, 1, EventKind::KernelEnter(Activity::TimerInterrupt)),
            ev(130, 1, EventKind::KernelExit(Activity::TimerInterrupt)),
            ev(500, 1, EventKind::KernelEnter(fault)),
            ev(570, 1, EventKind::KernelExit(fault)),
        ];
        (Trace::new(events, vec![]), vec![meta(1)])
    }

    #[test]
    fn breakdown_fractions() {
        let (trace, tasks) = mini_trace();
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos(1000));
        let b = Breakdown::compute(&analysis, &[Tid(1)]);
        assert_eq!(b.total_noise, Nanos(100));
        assert!((b.fraction(NoiseCategory::PageFault) - 0.7).abs() < 1e-9);
        assert!((b.fraction(NoiseCategory::Periodic) - 0.3).abs() < 1e-9);
        assert_eq!(b.fraction(NoiseCategory::Io), 0.0);
        assert_eq!(b.dominant(), Some(NoiseCategory::PageFault));
        let sum: f64 = b.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noise_ratio() {
        let (trace, tasks) = mini_trace();
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos(1000));
        let b = Breakdown::compute(&analysis, &[Tid(1)]);
        // Runnable the whole 1000 ns, 100 ns noise.
        assert!((b.noise_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_task_set() {
        let (trace, tasks) = mini_trace();
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos(1000));
        let b = Breakdown::compute(&analysis, &[]);
        assert_eq!(b.total_noise, Nanos::ZERO);
        assert_eq!(b.dominant(), None);
        assert_eq!(b.noise_ratio(), 0.0);
        assert_eq!(b.fraction(NoiseCategory::PageFault), 0.0);
    }
}
