//! Per-event quantitative statistics: the frequency and duration
//! analysis of the paper's Tables I–VI.

use osn_kernel::activity::{Activity, NoiseCategory, SoftirqVec};
use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;

use serde::Serialize;

use crate::breakdown::Breakdown;
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
        let count = durations.len() as u64;
        let (total, min, max) = moments(durations);
        let avg = Nanos(total.as_nanos() / count);
        let freq_per_sec = if wall.is_zero() {
            0.0
        } else {
            count as f64 / wall.as_secs_f64()
        };
        EventStats {
            count,
            freq_per_sec,
            avg,
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

/// Every class's [`class_stats`] row, in [`EventClass::ALL`] order,
/// from one pass over the tasks' interruption components instead of
/// one pass per class. Bit-identical to the per-class calls: every
/// `ClassAccum` moment is order-independent.
pub fn all_class_stats(analysis: &NoiseAnalysis, tids: &[Tid]) -> Vec<(EventClass, EventStats)> {
    use crate::noise::Component;

    let mut accs = [ClassAccum::EMPTY; EventClass::ALL.len()];
    for tn in tids.iter().filter_map(|t| analysis.tasks.get(t)) {
        for i in &tn.interruptions {
            for (c, d) in &i.components {
                if let Component::Activity(a) = c {
                    if let Some(class) = EventClass::of(*a) {
                        accs[class as usize].push(*d);
                    }
                }
            }
        }
    }
    let wall = wall_of(analysis, tids);
    EventClass::ALL
        .iter()
        .map(|c| (*c, accs[*c as usize].finish(wall)))
        .collect()
}

/// The wall basis of a job's statistics: the longest extent among its
/// tasks (the application's runtime).
fn wall_of(analysis: &NoiseAnalysis, tids: &[Tid]) -> Nanos {
    tids.iter()
        .filter_map(|t| analysis.tasks.get(t))
        .map(|tn| tn.wall)
        .max()
        .unwrap_or(Nanos::ZERO)
}

/// Query-shaped entry point: one class's table row *and* its
/// percentile-cut duration histogram from a single sample collection
/// pass — what a catalog service answering `histogram?class=` needs
/// from a cached analysis without re-running the full report assembly.
/// Bit-identical to [`class_stats`] +
/// [`Histogram::build`](crate::histogram::Histogram::build) over
/// [`class_samples`] run separately.
pub fn class_histogram(
    analysis: &NoiseAnalysis,
    tids: &[Tid],
    class: EventClass,
    bins: usize,
    pct: f64,
) -> (EventStats, crate::histogram::Histogram) {
    let samples = class_samples(analysis, tids, class);
    let stats = EventStats::from_samples(&samples, wall_of(analysis, tids));
    let histogram = crate::histogram::Histogram::build(&samples, bins, pct);
    (stats, histogram)
}

/// Streaming equivalent of [`EventStats::from_samples`]: count, total,
/// min and max are order-independent and avg/freq derive from them, so
/// accumulating per component is bit-identical to collecting the sample
/// vector first.
#[derive(Clone, Copy)]
struct ClassAccum {
    count: u64,
    total: Nanos,
    min: Nanos,
    max: Nanos,
}

impl ClassAccum {
    const EMPTY: ClassAccum = ClassAccum {
        count: 0,
        total: Nanos::ZERO,
        min: Nanos(u64::MAX),
        max: Nanos::ZERO,
    };

    #[inline]
    fn push(&mut self, d: Nanos) {
        self.count += 1;
        self.total += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    fn finish(self, wall: Nanos) -> EventStats {
        if self.count == 0 {
            return EventStats::empty();
        }
        let avg = Nanos(self.total.as_nanos() / self.count);
        let freq_per_sec = if wall.is_zero() {
            0.0
        } else {
            self.count as f64 / wall.as_secs_f64()
        };
        EventStats {
            count: self.count,
            freq_per_sec,
            avg,
            max: self.max,
            min: self.min,
            total: self.total,
        }
    }
}

/// Everything the paper report derives from one job's interruption
/// records, computed in a single fused pass.
pub struct JobStats {
    /// Fig 3 noise breakdown over all ranks.
    pub breakdown: Breakdown,
    /// Tables I–VI rows for the observed tasks, in [`EventClass::ALL`]
    /// order.
    pub classes: Vec<(EventClass, EventStats)>,
    /// Duration samples over all ranks for the three histogram classes
    /// (Figs 4, 6, 8).
    pub fault_samples: Vec<Nanos>,
    pub rebalance_samples: Vec<Nanos>,
    pub timer_softirq_samples: Vec<Nanos>,
}

/// One fused pass over the job's interruption components, replacing the
/// `Breakdown::compute` + 10 × [`class_stats`] + 3 × [`class_samples`]
/// passes the report assembly used to make. `ranks` drives the
/// breakdown and histograms; `observed` (normally one rank) drives the
/// per-class statistics. Bit-identical to the separate passes: every
/// accumulator is order-independent, and the histogram sample vectors
/// are filled in the same rank-major component order.
pub fn job_stats(analysis: &NoiseAnalysis, ranks: &[Tid], observed: &[Tid]) -> JobStats {
    use crate::noise::Component;

    let mut accs = [ClassAccum::EMPTY; EventClass::ALL.len()];
    let mut totals: Vec<(NoiseCategory, Nanos)> = NoiseCategory::NOISE
        .iter()
        .map(|c| (*c, Nanos::ZERO))
        .collect();
    let mut runnable_time = Nanos::ZERO;
    let mut fault_samples = Vec::new();
    let mut rebalance_samples = Vec::new();
    let mut timer_softirq_samples = Vec::new();

    let mut scan = |tid: &Tid, in_ranks: bool, in_observed: bool| {
        let Some(tn) = analysis.tasks.get(tid) else {
            return;
        };
        if in_ranks {
            runnable_time += tn.runnable_time;
        }
        for i in &tn.interruptions {
            for (c, d) in &i.components {
                if in_ranks {
                    if let Some(cat) = c.category() {
                        if let Some(slot) = totals.iter_mut().find(|(tc, _)| *tc == cat) {
                            slot.1 += *d;
                        }
                    }
                }
                if let Component::Activity(a) = c {
                    if let Some(class) = EventClass::of(*a) {
                        if in_observed {
                            accs[class as usize].push(*d);
                        }
                        if in_ranks {
                            match class {
                                EventClass::PageFault => fault_samples.push(*d),
                                EventClass::RebalanceDomains => rebalance_samples.push(*d),
                                EventClass::RunTimerSoftirq => timer_softirq_samples.push(*d),
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    };

    for tid in ranks {
        scan(tid, true, observed.contains(tid));
    }
    for tid in observed.iter().filter(|t| !ranks.contains(t)) {
        scan(tid, false, true);
    }

    let wall = wall_of(analysis, observed);
    let classes = EventClass::ALL
        .iter()
        .map(|c| (*c, accs[*c as usize].finish(wall)))
        .collect();
    let total_noise = totals.iter().map(|(_, d)| *d).sum();

    JobStats {
        breakdown: Breakdown {
            totals,
            total_noise,
            runnable_time,
        },
        classes,
        fault_samples,
        rebalance_samples,
        timer_softirq_samples,
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
