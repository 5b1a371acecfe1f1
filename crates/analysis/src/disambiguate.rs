//! Noise disambiguation (paper §V).
//!
//! Two demonstrations:
//!
//! * **§V-A** — two interruptions of nearly identical duration can have
//!   entirely different causes (a page fault vs. a timer interrupt +
//!   softirq). Indirect tools cannot tell them apart; the per-event
//!   decomposition can. [`confusable_pairs`] finds such pairs.
//! * **§V-B** — a microbenchmark folds all events inside one iteration
//!   into a single spike; two unrelated events (a page fault right
//!   before a timer tick) appear as one. [`composite_interruptions`]
//!   finds interruptions whose decomposition spans multiple noise
//!   categories or event classes.

use osn_kernel::time::Nanos;

use crate::noise::{Component, Components, Interruption};
use crate::stats::EventClass;

/// The dominant event class of an interruption (by self time), if any
/// kernel component exists.
pub fn dominant_class(components: Components<'_>) -> Option<EventClass> {
    class_sums(components)
        .into_iter()
        .max_by_key(|(_, d)| *d)
        .map(|(c, _)| c)
}

/// Self time per event class within one interruption, classes in
/// first-seen order.
fn class_sums(components: Components<'_>) -> Vec<(EventClass, Nanos)> {
    let mut sums: Vec<(EventClass, Nanos)> = Vec::new();
    for (c, d) in components {
        if let Component::Activity(a) = c {
            if let Some(class) = EventClass::of(*a) {
                match sums.iter_mut().find(|(k, _)| *k == class) {
                    Some(slot) => slot.1 += *d,
                    None => sums.push((class, *d)),
                }
            }
        }
    }
    sums
}

/// A §V-A pair: two interruptions whose totals differ by at most
/// `tolerance` but whose dominant causes differ.
#[derive(Clone, Debug)]
pub struct ConfusablePair {
    pub a_start: Nanos,
    pub a_noise: Nanos,
    pub a_class: EventClass,
    pub b_start: Nanos,
    pub b_noise: Nanos,
    pub b_class: EventClass,
}

/// Find pairs of interruptions with near-identical durations but
/// different dominant event classes. `tolerance` is the maximum
/// absolute difference. Returns at most `limit` pairs (closest first).
/// Each interruption comes with its components
/// ([`crate::NoiseAnalysis::components`]).
pub fn confusable_pairs(
    interruptions: &[(&Interruption, Components<'_>)],
    tolerance: Nanos,
    limit: usize,
) -> Vec<ConfusablePair> {
    // Sort by noise; scan a sliding window of near-equal durations.
    let mut by_noise: Vec<(Nanos, Nanos, EventClass)> = interruptions
        .iter()
        .filter_map(|(i, c)| dominant_class(*c).map(|class| (c.noise(), i.start, class)))
        .collect();
    by_noise.sort_by_key(|(noise, _, _)| *noise);
    let mut pairs = Vec::new();
    for w in 0..by_noise.len() {
        for v in (w + 1)..by_noise.len() {
            let a = by_noise[w];
            let b = by_noise[v];
            let diff = b.0 - a.0;
            if diff > tolerance {
                break;
            }
            if a.2 != b.2 {
                pairs.push((diff, a, b));
            }
        }
    }
    pairs.sort_by_key(|(diff, a, _)| (*diff, a.1));
    pairs
        .into_iter()
        .take(limit)
        .map(|(_, a, b)| ConfusablePair {
            a_start: a.1,
            a_noise: a.0,
            a_class: a.2,
            b_start: b.1,
            b_noise: b.0,
            b_class: b.2,
        })
        .collect()
}

/// A §V-B composite: one interruption (or one microbenchmark
/// iteration) containing events of multiple distinct classes, which an
/// indirect tool would report as a single cause.
#[derive(Clone, Debug)]
pub struct Composite {
    pub start: Nanos,
    pub noise: Nanos,
    /// Distinct event classes with their contributions.
    pub classes: Vec<(EventClass, Nanos)>,
}

/// Find interruptions whose kernel components span at least
/// `min_classes` distinct event classes. Each interruption comes with
/// its components ([`crate::NoiseAnalysis::components`]).
pub fn composite_interruptions(
    interruptions: &[(&Interruption, Components<'_>)],
    min_classes: usize,
) -> Vec<Composite> {
    let mut out = Vec::new();
    for (i, components) in interruptions {
        let mut classes = class_sums(*components);
        if classes.len() >= min_classes {
            classes.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
            out.push(Composite {
                start: i.start,
                noise: components.noise(),
                classes,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::{Activity, FaultKind, SoftirqVec};
    use osn_kernel::ids::Tid;

    /// An interruption at `start` and its component list.
    fn interruption(
        start: u64,
        comps: Vec<(Component, u64)>,
    ) -> (Interruption, Vec<(Component, Nanos)>) {
        let total: u64 = comps.iter().map(|(_, d)| d).sum();
        let i = Interruption {
            task: Tid(1),
            start: Nanos(start),
            end: Nanos(start + total),
            first: 0,
            len: comps.len() as u32,
        };
        (i, comps.into_iter().map(|(c, d)| (c, Nanos(d))).collect())
    }

    fn entry(i: &(Interruption, Vec<(Component, Nanos)>)) -> (&Interruption, Components<'_>) {
        (&i.0, Components(&i.1))
    }

    const FAULT: Component = Component::Activity(Activity::PageFault(FaultKind::AnonZero));
    const TIMER: Component = Component::Activity(Activity::TimerInterrupt);
    const TSOFT: Component = Component::Activity(Activity::Softirq(SoftirqVec::Timer));

    /// The paper's Fig 10 example: a 2913 ns page fault vs a
    /// 2648+254 ns timer+softirq — same total, different causes.
    #[test]
    fn fig10_pair_found() {
        let a = interruption(1_000, vec![(FAULT, 2913)]);
        let b = interruption(9_000, vec![(TIMER, 2648), (TSOFT, 254)]);
        let list = [entry(&a), entry(&b)];
        let pairs = confusable_pairs(&list, Nanos(50), 10);
        assert_eq!(pairs.len(), 1);
        let p = &pairs[0];
        // Pairs are reported in ascending-noise order within the pair.
        let noises = [p.a_noise, p.b_noise];
        assert!(noises.contains(&Nanos(2913)));
        assert!(noises.contains(&Nanos(2902)));
        assert_ne!(p.a_class, p.b_class);
        let classes = [p.a_class, p.b_class];
        assert!(classes.contains(&EventClass::PageFault));
        assert!(classes.contains(&EventClass::TimerInterrupt));
    }

    #[test]
    fn same_cause_pairs_excluded() {
        let a = interruption(0, vec![(TIMER, 1000)]);
        let b = interruption(100, vec![(TIMER, 1005)]);
        let list = [entry(&a), entry(&b)];
        assert!(confusable_pairs(&list, Nanos(50), 10).is_empty());
    }

    #[test]
    fn tolerance_respected() {
        let a = interruption(0, vec![(FAULT, 1000)]);
        let b = interruption(100, vec![(TIMER, 2000)]);
        let list = [entry(&a), entry(&b)];
        assert!(confusable_pairs(&list, Nanos(50), 10).is_empty());
        assert_eq!(confusable_pairs(&list, Nanos(1001), 10).len(), 1);
    }

    /// The §V-B example: a page fault immediately before a timer
    /// interrupt shows as one spike in FTQ but two classes here.
    #[test]
    fn composite_detection() {
        let merged = interruption(5_000, vec![(FAULT, 2500), (TIMER, 2100), (TSOFT, 1800)]);
        let plain = interruption(15_000, vec![(TIMER, 2100)]);
        let list = [entry(&merged), entry(&plain)];
        let composites = composite_interruptions(&list, 2);
        assert_eq!(composites.len(), 1);
        let c = &composites[0];
        assert_eq!(c.start, Nanos(5_000));
        assert_eq!(c.classes.len(), 3);
        // Largest first.
        assert_eq!(c.classes[0].0, EventClass::PageFault);
    }

    #[test]
    fn dominant_class_sums_within_class() {
        // Two schedule halves sum; fault bigger than either half but
        // smaller than the sum → schedule dominates... here fault is
        // biggest single, but class sums decide.
        let i = interruption(
            0,
            vec![
                (
                    Component::Activity(Activity::Schedule(
                        osn_kernel::activity::SchedPart::Before,
                    )),
                    300,
                ),
                (
                    Component::Activity(Activity::Schedule(osn_kernel::activity::SchedPart::After)),
                    300,
                ),
                (FAULT, 400),
            ],
        );
        // Current implementation keeps the running max by accumulated
        // time: schedule accumulates 600 > 400.
        assert_eq!(dominant_class(entry(&i).1), Some(EventClass::Schedule));
    }

    #[test]
    fn preemption_only_interruption_has_no_class() {
        let i = interruption(0, vec![(Component::Preemption { by: Tid(2) }, 5000)]);
        assert_eq!(dominant_class(entry(&i).1), None);
        let list = [entry(&i)];
        assert!(composite_interruptions(&list, 1).is_empty());
    }
}
