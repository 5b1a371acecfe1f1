//! Noise signatures: a compact quantitative fingerprint of the noise an
//! application experiences — the formalization of the paper's §V theme
//! that *composition*, not just magnitude, identifies noise.
//!
//! A signature is the vector of per-event-class (frequency, mean
//! duration, total share) triples. Two uses:
//!
//! * **identification** — qualitatively similar totals with different
//!   signatures are different problems (§V-A);
//! * **regression detection** — compare the signature of a new kernel /
//!   configuration against a baseline and flag which *event class*
//!   moved, which is precisely the actionable output the paper argues
//!   OS developers need.

use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;

use serde::Serialize;

use crate::noise::NoiseAnalysis;
use crate::stats::{ClassColumns, EventClass, EventStats};

/// One class's entry in a signature.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct SignatureEntry {
    pub class: EventClass,
    pub freq_per_sec: f64,
    pub mean_ns: f64,
    /// Share of the signature's total noise time.
    pub share: f64,
}

/// The per-class noise fingerprint of one task set.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct NoiseSignature {
    pub entries: Vec<SignatureEntry>,
    pub total_noise: Nanos,
}

impl NoiseSignature {
    /// Build from an analysis over the given tasks: the rows of their
    /// [`ClassColumns`] (one pass over their interruption components).
    pub fn build(analysis: &NoiseAnalysis, tids: &[Tid]) -> NoiseSignature {
        NoiseSignature::from_stats(ClassColumns::build(analysis, tids).all_stats())
    }

    /// Build from per-class statistics rows, e.g.
    /// [`ClassColumns::all_stats`] or one [`class_stats`](crate::stats::class_stats)
    /// row per class.
    pub fn from_stats(stats: Vec<(EventClass, EventStats)>) -> NoiseSignature {
        let total: Nanos = stats.iter().map(|(_, s)| s.total).sum();
        let entries = stats
            .into_iter()
            .map(|(class, s)| SignatureEntry {
                class,
                freq_per_sec: s.freq_per_sec,
                mean_ns: s.avg.as_nanos() as f64,
                share: if total.is_zero() {
                    0.0
                } else {
                    s.total.as_nanos() as f64 / total.as_nanos() as f64
                },
            })
            .collect();
        NoiseSignature {
            entries,
            total_noise: total,
        }
    }

    pub fn entry(&self, class: EventClass) -> Option<&SignatureEntry> {
        self.entries.iter().find(|e| e.class == class)
    }

    /// Symmetric relative distance between two signatures' share
    /// vectors, in `[0, 1]`: 0 = identical composition, 1 = disjoint.
    pub fn distance(&self, other: &NoiseSignature) -> f64 {
        let mut d = 0.0;
        for class in EventClass::ALL {
            let a = self.entry(class).map(|e| e.share).unwrap_or(0.0);
            let b = other.entry(class).map(|e| e.share).unwrap_or(0.0);
            d += (a - b).abs();
        }
        d / 2.0
    }

    /// Per-class drift against a baseline: `(class, freq_ratio,
    /// mean_ratio)` for classes whose frequency or mean moved by more
    /// than `threshold` (e.g. 0.5 = ±50 %). Classes absent from either
    /// side are reported with a ratio of `f64::INFINITY` / 0.
    pub fn drift(&self, baseline: &NoiseSignature, threshold: f64) -> Vec<Drift> {
        let mut out = Vec::new();
        for class in EventClass::ALL {
            let new = self.entry(class);
            let old = baseline.entry(class);
            let (nf, nm) = new
                .map(|e| (e.freq_per_sec, e.mean_ns))
                .unwrap_or((0.0, 0.0));
            let (of, om) = old
                .map(|e| (e.freq_per_sec, e.mean_ns))
                .unwrap_or((0.0, 0.0));
            if nf == 0.0 && of == 0.0 {
                continue;
            }
            let freq_ratio = if of > 0.0 { nf / of } else { f64::INFINITY };
            let mean_ratio = if om > 0.0 { nm / om } else { f64::INFINITY };
            let moved = |r: f64| !r.is_finite() || r > 1.0 + threshold || r < 1.0 - threshold;
            if moved(freq_ratio) || moved(mean_ratio) {
                out.push(Drift {
                    class,
                    freq_ratio,
                    mean_ratio,
                });
            }
        }
        out
    }
}

/// One drifted class in a signature comparison.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Drift {
    pub class: EventClass,
    /// New frequency / baseline frequency.
    pub freq_ratio: f64,
    /// New mean duration / baseline mean duration.
    pub mean_ratio: f64,
}

/// Render two signatures side by side — the modeled-vs-native
/// comparison table: per event class, frequency / mean duration /
/// share under each label, for every class present in either
/// signature, with the total-noise and composition-distance footer.
pub fn comparison_table(
    label_a: &str,
    a: &NoiseSignature,
    label_b: &str,
    b: &NoiseSignature,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10}  {:>10} {:>10}  {:>7} {:>7}",
        "event class", label_a, label_b, "mean", "mean", "share", "share"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10}  {:>10} {:>10}  {:>7} {:>7}",
        "", "(ev/s)", "(ev/s)", "(us)", "(us)", "", ""
    );
    for class in EventClass::ALL {
        let ea = a.entry(class).filter(|e| e.freq_per_sec > 0.0);
        let eb = b.entry(class).filter(|e| e.freq_per_sec > 0.0);
        if ea.is_none() && eb.is_none() {
            continue;
        }
        let cell = |e: Option<&SignatureEntry>| match e {
            Some(e) => (e.freq_per_sec, e.mean_ns / 1_000.0, e.share * 100.0),
            None => (0.0, 0.0, 0.0),
        };
        let (fa, ma, sa) = cell(ea);
        let (fb, mb, sb) = cell(eb);
        let _ = writeln!(
            out,
            "{:<24} {:>10.1} {:>10.1}  {:>10.2} {:>10.2}  {:>6.1}% {:>6.1}%",
            class.name(),
            fa,
            fb,
            ma,
            mb,
            sa,
            sb
        );
    }
    let _ = writeln!(
        out,
        "total noise: {} ({label_a}) vs {} ({label_b}); composition distance {:.3}",
        a.total_noise,
        b.total_noise,
        a.distance(b)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(parts: &[(EventClass, f64, f64, f64)]) -> NoiseSignature {
        NoiseSignature {
            entries: parts
                .iter()
                .map(|(c, f, m, s)| SignatureEntry {
                    class: *c,
                    freq_per_sec: *f,
                    mean_ns: *m,
                    share: *s,
                })
                .collect(),
            total_noise: Nanos(1_000_000),
        }
    }

    #[test]
    fn identical_signatures_have_zero_distance() {
        let a = sig(&[
            (EventClass::PageFault, 1000.0, 4000.0, 0.8),
            (EventClass::TimerInterrupt, 100.0, 3000.0, 0.2),
        ]);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn disjoint_compositions_have_distance_one() {
        let a = sig(&[(EventClass::PageFault, 1000.0, 4000.0, 1.0)]);
        let b = sig(&[(EventClass::TimerInterrupt, 100.0, 3000.0, 1.0)]);
        assert!((a.distance(&b) - 1.0).abs() < 1e-12);
        assert!((b.distance(&a) - 1.0).abs() < 1e-12, "symmetric");
    }

    #[test]
    fn drift_flags_the_moved_class_only() {
        let baseline = sig(&[
            (EventClass::PageFault, 1000.0, 4000.0, 0.8),
            (EventClass::TimerInterrupt, 100.0, 3000.0, 0.2),
        ]);
        let new = sig(&[
            (EventClass::PageFault, 1000.0, 4000.0, 0.5),
            (EventClass::TimerInterrupt, 400.0, 3000.0, 0.5), // 4x ticks!
        ]);
        let drifts = new.drift(&baseline, 0.5);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].class, EventClass::TimerInterrupt);
        assert!((drifts[0].freq_ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn drift_handles_appearing_class() {
        let baseline = sig(&[(EventClass::PageFault, 1000.0, 4000.0, 1.0)]);
        let new = sig(&[
            (EventClass::PageFault, 1000.0, 4000.0, 0.7),
            (EventClass::NetRxAction, 50.0, 5000.0, 0.3),
        ]);
        let drifts = new.drift(&baseline, 0.5);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].class, EventClass::NetRxAction);
        assert!(drifts[0].freq_ratio.is_infinite());
    }

    #[test]
    fn comparison_table_lists_union_of_classes() {
        let modeled = sig(&[
            (EventClass::TimerInterrupt, 1000.0, 3000.0, 0.6),
            (EventClass::PageFault, 200.0, 2000.0, 0.4),
        ]);
        let native = sig(&[
            (EventClass::TimerInterrupt, 900.0, 3500.0, 0.5),
            (EventClass::Steal, 10.0, 50000.0, 0.5),
        ]);
        let table = comparison_table("modeled", &modeled, "native", &native);
        assert!(table.contains("modeled"), "{table}");
        assert!(table.contains("native"), "{table}");
        assert!(table.contains(EventClass::TimerInterrupt.name()), "{table}");
        // Classes present on only one side still get a row.
        assert!(table.contains(EventClass::PageFault.name()), "{table}");
        assert!(table.contains(EventClass::Steal.name()), "{table}");
        assert!(table.contains("composition distance"), "{table}");
        // Classes present in neither signature are omitted.
        assert!(!table.contains(EventClass::NetRxAction.name()), "{table}");
    }

    #[test]
    fn build_from_real_run() {
        use osn_kernel::activity::Activity;
        use osn_kernel::hooks::SwitchState;
        use osn_kernel::ids::CpuId;
        use osn_kernel::task::TaskMeta;
        use osn_trace::{Event, EventKind, Trace};

        let ev = |t: u64, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(0),
            tid: Tid(1),
            kind,
        };
        let events = vec![
            ev(
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            ev(100, EventKind::KernelEnter(Activity::TimerInterrupt)),
            ev(150, EventKind::KernelExit(Activity::TimerInterrupt)),
        ];
        let tasks = vec![TaskMeta {
            tid: Tid(1),
            name: "t".into(),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos(1_000_000_000));
        let signature = NoiseSignature::build(&analysis, &[Tid(1)]);
        let timer = signature.entry(EventClass::TimerInterrupt).unwrap();
        assert!((timer.share - 1.0).abs() < 1e-9);
        assert_eq!(signature.total_noise, Nanos(50));
    }
}
