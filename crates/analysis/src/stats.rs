//! Per-event quantitative statistics: the frequency and duration
//! analysis of the paper's Tables I–VI.
//!
//! [`ClassColumns`] is the one production reduction of a task set: a
//! single walk over its interruption components yields the table rows,
//! the Fig 3 breakdown and the Figs 4/6/8 histograms. The per-class
//! gathers ([`class_samples`], [`class_stats`], [`class_histogram`])
//! and [`Breakdown::compute`] are the offline references it is tested
//! against.

use std::sync::{Mutex, OnceLock, PoisonError};

use osn_kernel::activity::{Activity, NoiseCategory, SoftirqVec};
use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;

use serde::Serialize;

use crate::breakdown::Breakdown;
use crate::histogram::Histogram;
use crate::noise::NoiseAnalysis;

/// The event classes the paper reports statistics for (each table row
/// aggregates over the class, e.g. all page-fault kinds together).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum EventClass {
    PageFault,
    TimerInterrupt,
    RunTimerSoftirq,
    NetworkInterrupt,
    NetRxAction,
    NetTxAction,
    RebalanceDomains,
    RcuCallbacks,
    Schedule,
    HrTimer,
    /// Hypervisor steal-time windows (injected perturbation).
    Steal,
}

impl EventClass {
    pub const ALL: [EventClass; 11] = [
        EventClass::PageFault,
        EventClass::TimerInterrupt,
        EventClass::RunTimerSoftirq,
        EventClass::NetworkInterrupt,
        EventClass::NetRxAction,
        EventClass::NetTxAction,
        EventClass::RebalanceDomains,
        EventClass::RcuCallbacks,
        EventClass::Schedule,
        EventClass::HrTimer,
        EventClass::Steal,
    ];

    /// The class of an activity, if any — the inverse of
    /// [`EventClass::matches`] as one direct match instead of ten
    /// probes (the fused statistics pass classifies every component
    /// exactly once). Consistency with `matches` is test-enforced.
    pub fn of(a: Activity) -> Option<EventClass> {
        match a {
            Activity::PageFault(_) => Some(EventClass::PageFault),
            Activity::TimerInterrupt => Some(EventClass::TimerInterrupt),
            Activity::HrTimerInterrupt => Some(EventClass::HrTimer),
            Activity::NetworkInterrupt => Some(EventClass::NetworkInterrupt),
            Activity::Softirq(SoftirqVec::Timer) => Some(EventClass::RunTimerSoftirq),
            Activity::Softirq(SoftirqVec::NetRx) => Some(EventClass::NetRxAction),
            Activity::Softirq(SoftirqVec::NetTx) => Some(EventClass::NetTxAction),
            Activity::Softirq(SoftirqVec::Rebalance) => Some(EventClass::RebalanceDomains),
            Activity::Softirq(SoftirqVec::Rcu) => Some(EventClass::RcuCallbacks),
            Activity::Schedule(_) => Some(EventClass::Schedule),
            Activity::Steal => Some(EventClass::Steal),
            _ => None,
        }
    }

    pub fn matches(self, a: Activity) -> bool {
        match self {
            EventClass::PageFault => matches!(a, Activity::PageFault(_)),
            EventClass::TimerInterrupt => a == Activity::TimerInterrupt,
            EventClass::RunTimerSoftirq => a == Activity::Softirq(SoftirqVec::Timer),
            EventClass::NetworkInterrupt => a == Activity::NetworkInterrupt,
            EventClass::NetRxAction => a == Activity::Softirq(SoftirqVec::NetRx),
            EventClass::NetTxAction => a == Activity::Softirq(SoftirqVec::NetTx),
            EventClass::RebalanceDomains => a == Activity::Softirq(SoftirqVec::Rebalance),
            EventClass::RcuCallbacks => a == Activity::Softirq(SoftirqVec::Rcu),
            EventClass::Schedule => matches!(a, Activity::Schedule(_)),
            EventClass::HrTimer => a == Activity::HrTimerInterrupt,
            EventClass::Steal => a == Activity::Steal,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            EventClass::PageFault => "page_fault",
            EventClass::TimerInterrupt => "timer_interrupt",
            EventClass::RunTimerSoftirq => "run_timer_softirq",
            EventClass::NetworkInterrupt => "network_interrupt",
            EventClass::NetRxAction => "net_rx_action",
            EventClass::NetTxAction => "net_tx_action",
            EventClass::RebalanceDomains => "run_rebalance_domains",
            EventClass::RcuCallbacks => "rcu_process_callbacks",
            EventClass::Schedule => "schedule",
            EventClass::HrTimer => "hrtimer",
            EventClass::Steal => "steal",
        }
    }
}

/// One row of a paper statistics table: frequency and duration of one
/// event class over a set of tasks.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct EventStats {
    pub count: u64,
    /// Events per second of application wall time.
    pub freq_per_sec: f64,
    pub avg: Nanos,
    pub max: Nanos,
    pub min: Nanos,
    pub total: Nanos,
}

impl EventStats {
    pub fn empty() -> Self {
        EventStats {
            count: 0,
            freq_per_sec: 0.0,
            avg: Nanos::ZERO,
            max: Nanos::ZERO,
            min: Nanos::ZERO,
            total: Nanos::ZERO,
        }
    }

    /// Compute from raw duration samples and a wall-time basis.
    pub fn from_samples(durations: &[Nanos], wall: Nanos) -> Self {
        if durations.is_empty() {
            return EventStats::empty();
        }
        let (total, min, max) = moments(durations);
        EventStats::from_moments(durations.len() as u64, total, min, max, wall)
    }

    /// The row's arithmetic from the moments of a non-empty sample set.
    fn from_moments(count: u64, total: Nanos, min: Nanos, max: Nanos, wall: Nanos) -> Self {
        let freq_per_sec = if wall.is_zero() {
            0.0
        } else {
            count as f64 / wall.as_secs_f64()
        };
        EventStats {
            count,
            freq_per_sec,
            avg: Nanos(total.as_nanos() / count),
            max,
            min,
            total,
        }
    }
}

/// The `(total, min, max)` moments of a non-empty duration sample set.
fn moments(durations: &[Nanos]) -> (Nanos, Nanos, Nanos) {
    let mut total = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for d in durations {
        let d = d.as_nanos();
        total += d;
        min = min.min(d);
        max = max.max(d);
    }
    (Nanos(total), Nanos(min), Nanos(max))
}

/// Collect the duration samples of an event class across a set of
/// tasks' noise records.
pub fn class_samples(analysis: &NoiseAnalysis, tids: &[Tid], class: EventClass) -> Vec<Nanos> {
    let mut out = Vec::new();
    for tid in tids {
        if let Some(tn) = analysis.tasks.get(tid) {
            out.extend(
                tn.activity_samples(|a| class.matches(a))
                    .into_iter()
                    .map(|(_, d)| d),
            );
        }
    }
    out
}

/// Timestamped duration samples of an event class (for placement
/// traces like Fig 5).
pub fn class_samples_timed(
    analysis: &NoiseAnalysis,
    tids: &[Tid],
    class: EventClass,
) -> Vec<(Nanos, Nanos)> {
    let mut out = Vec::new();
    for tid in tids {
        if let Some(tn) = analysis.tasks.get(tid) {
            out.extend(tn.activity_samples(|a| class.matches(a)));
        }
    }
    out.sort_by_key(|(t, _)| *t);
    out
}

/// The paper-table statistic for one event class over one job: the
/// wall basis is the longest rank extent (the application's runtime).
pub fn class_stats(analysis: &NoiseAnalysis, tids: &[Tid], class: EventClass) -> EventStats {
    let samples = class_samples(analysis, tids, class);
    EventStats::from_samples(&samples, wall_of(analysis, tids))
}

/// The wall basis of a job's statistics: the longest extent among its
/// tasks (the application's runtime).
pub fn wall_of(analysis: &NoiseAnalysis, tids: &[Tid]) -> Nanos {
    tids.iter()
        .filter_map(|t| analysis.tasks.get(t))
        .map(|tn| tn.wall)
        .max()
        .unwrap_or(Nanos::ZERO)
}

/// One class's table row *and* its percentile-cut duration histogram
/// from a single sample collection pass. Bit-identical to
/// [`class_stats`] + [`Histogram::build`] over [`class_samples`] run
/// separately; the offline reference that [`ClassColumns`] answers are
/// tested against.
pub fn class_histogram(
    analysis: &NoiseAnalysis,
    tids: &[Tid],
    class: EventClass,
    bins: usize,
    pct: f64,
) -> (EventStats, Histogram) {
    let samples = class_samples(analysis, tids, class);
    let stats = EventStats::from_samples(&samples, wall_of(analysis, tids));
    let histogram = Histogram::build(&samples, bins, pct);
    (stats, histogram)
}

/// The one production reduction of a task set: every class's duration
/// samples with their count, sum and extremes, the Fig 3 category
/// totals, the runnable time and the set's wall basis. Built in one
/// pass over the tasks' interruption components (8 bytes per
/// classified component), it answers [`class_stats`],
/// [`class_histogram`] and [`Breakdown::compute`] for any class, bin
/// count and cut with no further pass or sample copy — the paper
/// report's rows and histograms, the catalog index and products, the
/// signature and the task report all read it.
///
/// Table rows need no order, so the walk sorts nothing. A column is
/// sorted the first time [`ClassColumns::histogram`] bins it, once, in
/// place, and the sorted column is kept for every later histogram of
/// that class (the catalog's cached products answer `/histogram` from
/// it). Callers that never bin never sort.
pub struct ClassColumns {
    columns: [ClassColumn; EventClass::ALL.len()],
    /// Noise per category, indexed by `NoiseCategory as usize`
    /// ([`NoiseCategory::NOISE`] is in declaration order).
    categories: [Nanos; NoiseCategory::NOISE.len()],
    runnable_time: Nanos,
    wall: Nanos,
}

/// One class's durations, in gather order until the first histogram
/// takes them out and sorts them.
#[derive(Default)]
struct ClassColumn {
    count: u64,
    total: Nanos,
    min: Nanos,
    max: Nanos,
    gathered: Mutex<Vec<Nanos>>,
    sorted: OnceLock<Vec<Nanos>>,
}

impl ClassColumn {
    #[inline]
    fn push(&mut self, d: Nanos) {
        if self.count == 0 {
            (self.min, self.max) = (d, d);
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.total += d;
        self.gathered
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .push(d);
    }

    /// The column in ascending order, sorted on the first call.
    fn sorted(&self) -> &[Nanos] {
        self.sorted.get_or_init(|| {
            let mut gathered = self.gathered.lock().unwrap_or_else(PoisonError::into_inner);
            let mut column = std::mem::take(&mut *gathered);
            column.sort_unstable();
            column.shrink_to_fit();
            column
        })
    }
}

impl ClassColumns {
    /// Gather the columns of `tids` (visited in order, like
    /// [`class_samples`]; a repeated tid counts again, as it does there
    /// and in [`Breakdown::compute`]).
    pub fn build(analysis: &NoiseAnalysis, tids: &[Tid]) -> ClassColumns {
        use crate::noise::Component;

        let mut columns: [ClassColumn; EventClass::ALL.len()] = Default::default();
        let mut categories = [Nanos::ZERO; NoiseCategory::NOISE.len()];
        let mut runnable_time = Nanos::ZERO;
        let mut wall = Nanos::ZERO;
        for tn in tids.iter().filter_map(|t| analysis.tasks.get(t)) {
            runnable_time += tn.runnable_time;
            wall = wall.max(tn.wall);
            for i in &tn.interruptions {
                for (c, d) in tn.components(i) {
                    if let Some(cat) = c.category() {
                        categories[cat as usize] += *d;
                    }
                    if let Component::Activity(a) = c {
                        if let Some(class) = EventClass::of(*a) {
                            columns[class as usize].push(*d);
                        }
                    }
                }
            }
        }
        ClassColumns {
            columns,
            categories,
            runnable_time,
            wall,
        }
    }

    /// The wall basis: the longest extent among the tasks ([`wall_of`]).
    pub fn wall(&self) -> Nanos {
        self.wall
    }

    /// [`class_stats`] of `class`: count, sum and extremes kept by the
    /// walk, then the same arithmetic.
    pub fn stats(&self, class: EventClass) -> EventStats {
        let column = &self.columns[class as usize];
        if column.count == 0 {
            return EventStats::empty();
        }
        EventStats::from_moments(
            column.count,
            column.total,
            column.min,
            column.max,
            self.wall,
        )
    }

    /// Every class's [`ClassColumns::stats`], in [`EventClass::ALL`]
    /// order.
    pub fn all_stats(&self) -> Vec<(EventClass, EventStats)> {
        EventClass::ALL
            .iter()
            .map(|c| (*c, self.stats(*c)))
            .collect()
    }

    /// The histogram half of [`class_histogram`], binned from the
    /// class's sorted column (sorted here on the class's first
    /// histogram).
    pub fn histogram(&self, class: EventClass, bins: usize, pct: f64) -> Histogram {
        Histogram::from_sorted(self.columns[class as usize].sorted(), bins, pct)
    }

    /// The Fig 3 breakdown of the task set: equal to
    /// [`Breakdown::compute`].
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            totals: NoiseCategory::NOISE
                .iter()
                .map(|c| (*c, self.categories[*c as usize]))
                .collect(),
            total_noise: self.categories.iter().copied().sum(),
            runnable_time: self.runnable_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::{FaultKind, SchedPart};

    #[test]
    fn class_matching() {
        assert!(EventClass::PageFault.matches(Activity::PageFault(FaultKind::Cow)));
        assert!(EventClass::PageFault.matches(Activity::PageFault(FaultKind::AnonZero)));
        assert!(!EventClass::PageFault.matches(Activity::TimerInterrupt));
        assert!(EventClass::Schedule.matches(Activity::Schedule(SchedPart::Before)));
        assert!(EventClass::Schedule.matches(Activity::Schedule(SchedPart::After)));
        assert!(EventClass::NetRxAction.matches(Activity::Softirq(SoftirqVec::NetRx)));
        assert!(!EventClass::NetRxAction.matches(Activity::Softirq(SoftirqVec::NetTx)));
    }

    #[test]
    fn every_noise_activity_has_at_most_one_class() {
        for a in Activity::all() {
            let classes = EventClass::ALL.iter().filter(|c| c.matches(a)).count();
            assert!(classes <= 1, "{a} matched {classes} classes");
            if a.is_noise() {
                assert_eq!(classes, 1, "noise activity {a} unclassified");
            }
        }
    }

    #[test]
    fn of_agrees_with_matches() {
        for a in Activity::all() {
            let by_of = EventClass::of(a);
            let by_match = EventClass::ALL.iter().copied().find(|c| c.matches(a));
            assert_eq!(by_of, by_match, "class mismatch for {a}");
        }
    }

    #[test]
    fn noise_categories_index_their_own_slot() {
        for (i, cat) in NoiseCategory::NOISE.iter().enumerate() {
            assert_eq!(*cat as usize, i, "{cat:?}");
        }
    }

    #[test]
    fn moments_match_naive_fold_at_every_length() {
        // Lengths straddling the 8-lane boundary, pseudorandom values.
        let mut x = 0x0511_2011_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_000
        };
        for n in [1usize, 7, 8, 9, 15, 16, 17, 64, 100] {
            let samples: Vec<Nanos> = (0..n).map(|_| Nanos(next())).collect();
            let (total, min, max) = moments(&samples);
            assert_eq!(total, samples.iter().copied().sum::<Nanos>(), "n={n}");
            assert_eq!(min, samples.iter().copied().min().unwrap(), "n={n}");
            assert_eq!(max, samples.iter().copied().max().unwrap(), "n={n}");
        }
    }

    #[test]
    fn stats_from_samples() {
        let samples = vec![Nanos(100), Nanos(300), Nanos(200)];
        let s = EventStats::from_samples(&samples, Nanos::from_secs(2));
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Nanos(100));
        assert_eq!(s.max, Nanos(300));
        assert_eq!(s.avg, Nanos(200));
        assert_eq!(s.total, Nanos(600));
        assert!((s.freq_per_sec - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats() {
        let s = EventStats::from_samples(&[], Nanos::from_secs(1));
        assert_eq!(s.count, 0);
        assert_eq!(s.freq_per_sec, 0.0);
        assert_eq!(s, EventStats::empty());
    }

    #[test]
    fn zero_wall_basis() {
        let s = EventStats::from_samples(&[Nanos(5)], Nanos::ZERO);
        assert_eq!(s.freq_per_sec, 0.0);
        assert_eq!(s.count, 1);
    }
}
