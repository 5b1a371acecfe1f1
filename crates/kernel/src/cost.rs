//! Per-activity kernel cost models.
//!
//! The simulator is mechanistic about *when* and *why* kernel activities
//! run; the *duration* of each activity instance is drawn from a cost
//! model. Default models are calibrated so the per-activity statistics
//! (frequency, min/avg/max, histogram shape) land in the ranges the paper
//! reports for its dual quad-core Opteron testbed (Tables I–VI, Figs 4,
//! 6, 8). See DESIGN.md "Calibration targets".
//!
//! Two mechanisms make costs application-dependent, as in the paper:
//!
//! 1. A per-task *cache pressure factor* scales interrupt-context costs
//!    (a memory-hungry app evicts kernel working sets, so its ticks are
//!    slower — this is how Table V's per-app averages differ while the
//!    kernel code is identical).
//! 2. Work-proportional components (expired-timer handlers, rebalance
//!    scan length, received bytes) are added on top of the base draw.

use serde::{Deserialize, Serialize};

use crate::activity::FaultKind;
use crate::rng::{Dist, Stream};
use crate::time::Nanos;

/// A single activity's duration model: distribution plus hard bounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    pub dist: Dist,
    /// Sharp minimum: the fixed entry/exit path cost.
    pub floor: Nanos,
    /// Hard cap, to keep pathological draws physical.
    pub cap: Nanos,
}

impl CostModel {
    pub fn new(dist: Dist, floor: Nanos, cap: Nanos) -> Self {
        CostModel { dist, floor, cap }
    }

    /// Draw one duration, scaled by the dimensionless `factor`
    /// (cache-pressure scaling; 1.0 = calm caches). The floor is *not*
    /// scaled — the entry path is not cache sensitive — but the cap is
    /// absolute. A factor of exactly 1.0 skips the scaling, which is
    /// then the identity: every capped draw is below 2^53 ns, so it
    /// round-trips through `f64` unchanged.
    #[inline]
    pub fn sample(&self, s: &mut Stream, factor: f64) -> Nanos {
        let raw = self.dist.sample(s, Nanos::ZERO, self.cap);
        let raw = if factor == 1.0 {
            raw
        } else {
            raw.scale(factor)
        };
        raw.max(self.floor).min(self.cap)
    }
}

/// Scale an already-sampled cost by an injected perturbation factor
/// (DVFS throttling, NUMA-remote faults): identity at exactly 1.0,
/// round-to-nearest otherwise. Deliberately applied *after* the
/// model's floor/cap — a throttled CPU legitimately exceeds the
/// healthy machine's cap.
#[inline]
pub fn scale_cost(cost: Nanos, factor: f64) -> Nanos {
    if factor == 1.0 {
        cost
    } else {
        Nanos((cost.as_nanos() as f64 * factor).round() as u64)
    }
}

/// The complete set of kernel cost models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModels {
    /// Periodic tick top half (Table V: min ≈ 0.8–1.2 µs, avg 1.5–6.5 µs).
    pub timer_irq: CostModel,
    /// High-resolution timer expiry interrupt.
    pub hrtimer_irq: CostModel,
    /// Network device interrupt top half (Table II: min ≈ 0.5 µs,
    /// avg 1.4–2.5 µs, rare ≈ 350 µs slow path on every app).
    pub net_irq: CostModel,
    /// `run_timer_softirq` base cost with no expired timers
    /// (Table VI min ≈ 0.2 µs).
    pub softirq_timer_base: CostModel,
    /// Added cost per expired software-timer handler (long tail:
    /// "each handler may have a different duration").
    pub softirq_timer_per_handler: CostModel,
    /// `rcu_process_callbacks`.
    pub softirq_rcu: CostModel,
    /// `run_rebalance_domains` base cost (Fig 6 IRS peak ≈ 1.8 µs).
    pub softirq_rebalance_base: CostModel,
    /// Added rebalance cost per runnable task scanned (this widens the
    /// UMT distribution mechanistically: more helper tasks → more scan).
    pub rebalance_per_task: CostModel,
    /// Added rebalance cost per unit of observed load imbalance
    /// (group walks + move-candidate computation).
    pub rebalance_imbalance: CostModel,
    /// `net_rx_action` base (Table III: min ≈ 0.17 µs, wide body).
    pub net_rx_base: CostModel,
    /// `net_rx_action` extra nanoseconds per KiB copied (rx is a
    /// synchronous copy, §IV-D).
    pub net_rx_ns_per_kib: f64,
    /// `net_tx_action` (Table IV: tight, avg ≈ 0.5 µs — returns right
    /// after the DMA engine starts).
    pub net_tx: CostModel,
    /// Page fault service by fault kind (Table I, Fig 4).
    pub fault_anon_zero: CostModel,
    pub fault_anon_reclaim: CostModel,
    pub fault_file: CostModel,
    pub fault_cow: CostModel,
    /// `schedule()` halves (Fig 2b: ≈ 0.38 µs and ≈ 0.18 µs, and §IV-C:
    /// "negligible and constant, confirming ... CFS, which has O(1)
    /// complexity").
    pub sched_pre: CostModel,
    pub sched_post: CostModel,
    /// Syscall entry/exit fixed overhead.
    pub syscall_base: CostModel,
    /// mmap/munmap service.
    pub syscall_mm: CostModel,
    /// Extra syscall nanoseconds per KiB for read/write buffer handling.
    pub syscall_ns_per_kib: f64,
}

impl CostModels {
    /// Models calibrated to the paper's testbed (see module docs).
    pub fn paper_defaults() -> Self {
        use Dist::*;
        let us = |x: f64| x * 1_000.0;
        CostModels {
            timer_irq: CostModel::new(
                LogNormal {
                    median_ns: us(1.7),
                    sigma: 0.45,
                },
                Nanos(800),
                Nanos::from_micros(40),
            ),
            hrtimer_irq: CostModel::new(
                LogNormal {
                    median_ns: us(1.3),
                    sigma: 0.4,
                },
                Nanos(700),
                Nanos::from_micros(30),
            ),
            net_irq: CostModel::new(
                Mix {
                    parts: vec![
                        (
                            0.999,
                            LogNormal {
                                median_ns: us(0.72),
                                sigma: 0.5,
                            },
                        ),
                        // Rare slow path: IRQ arriving with cold,
                        // contended device state; the ≈350 µs maxima of
                        // Table II appear for every app.
                        (
                            0.001,
                            Uniform {
                                lo: 250_000,
                                hi: 356_000,
                            },
                        ),
                    ],
                },
                Nanos(480),
                Nanos::from_micros(360),
            ),
            softirq_timer_base: CostModel::new(
                LogNormal {
                    median_ns: 420.0,
                    sigma: 0.55,
                },
                Nanos(190),
                Nanos::from_micros(20),
            ),
            softirq_timer_per_handler: CostModel::new(
                Mix {
                    parts: vec![
                        (
                            0.92,
                            LogNormal {
                                median_ns: us(1.1),
                                sigma: 0.6,
                            },
                        ),
                        // Long tail: occasional expensive handler
                        // (writeback kick, queue requeue) — Fig 8.
                        (
                            0.08,
                            Pareto {
                                scale_ns: us(3.0),
                                alpha: 2.2,
                            },
                        ),
                    ],
                },
                Nanos(150),
                Nanos::from_micros(85),
            ),
            softirq_rcu: CostModel::new(
                LogNormal {
                    median_ns: 600.0,
                    sigma: 0.5,
                },
                Nanos(180),
                Nanos::from_micros(25),
            ),
            softirq_rebalance_base: CostModel::new(
                LogNormal {
                    median_ns: us(1.1),
                    sigma: 0.15,
                },
                Nanos(500),
                Nanos::from_micros(60),
            ),
            rebalance_per_task: CostModel::new(
                LogNormal {
                    median_ns: 90.0,
                    sigma: 0.55,
                },
                Nanos(30),
                Nanos::from_micros(6),
            ),
            rebalance_imbalance: CostModel::new(
                LogNormal {
                    median_ns: 900.0,
                    sigma: 0.6,
                },
                Nanos(200),
                Nanos::from_micros(20),
            ),
            net_rx_base: CostModel::new(
                LogNormal {
                    median_ns: us(1.6),
                    sigma: 0.8,
                },
                Nanos(167),
                Nanos::from_micros(99),
            ),
            net_rx_ns_per_kib: 90.0,
            net_tx: CostModel::new(
                LogNormal {
                    median_ns: 430.0,
                    sigma: 0.35,
                },
                Nanos(173),
                Nanos::from_micros(9),
            ),
            // Fig 4a (AMG): bimodal ≈2.5 µs and ≈4.5 µs with long tail;
            // Fig 4b (LAMMPS): one-sided peak ≈2.5 µs. The first mode is
            // the zero-page path, the second allocator/reclaim work, the
            // tail reclaim storms (Table I max: 69 ms for AMG).
            fault_anon_zero: CostModel::new(
                LogNormal {
                    median_ns: us(2.4),
                    sigma: 0.14,
                },
                Nanos(218),
                Nanos::from_micros(30),
            ),
            fault_anon_reclaim: CostModel::new(
                Mix {
                    parts: vec![
                        (
                            0.996,
                            LogNormal {
                                median_ns: us(4.5),
                                sigma: 0.16,
                            },
                        ),
                        // Reclaim storms: the 69 ms AMG maximum of
                        // Table I lives in this truncated-Pareto tail.
                        (
                            0.004,
                            Pareto {
                                scale_ns: us(30.0),
                                alpha: 0.9,
                            },
                        ),
                    ],
                },
                Nanos(250),
                Nanos::from_millis(70),
            ),
            fault_file: CostModel::new(
                Mix {
                    parts: vec![
                        (
                            0.97,
                            LogNormal {
                                median_ns: us(3.6),
                                sigma: 0.45,
                            },
                        ),
                        (
                            0.03,
                            Pareto {
                                scale_ns: us(20.0),
                                alpha: 1.1,
                            },
                        ),
                    ],
                },
                Nanos(229),
                Nanos::from_millis(5),
            ),
            fault_cow: CostModel::new(
                LogNormal {
                    median_ns: us(4.2),
                    sigma: 0.35,
                },
                Nanos(240),
                Nanos::from_micros(50),
            ),
            sched_pre: CostModel::new(
                LogNormal {
                    median_ns: 375.0,
                    sigma: 0.12,
                },
                Nanos(250),
                Nanos::from_micros(3),
            ),
            sched_post: CostModel::new(
                LogNormal {
                    median_ns: 176.0,
                    sigma: 0.12,
                },
                Nanos(120),
                Nanos::from_micros(2),
            ),
            syscall_base: CostModel::new(
                LogNormal {
                    median_ns: 300.0,
                    sigma: 0.25,
                },
                Nanos(150),
                Nanos::from_micros(10),
            ),
            syscall_mm: CostModel::new(
                LogNormal {
                    median_ns: us(1.8),
                    sigma: 0.4,
                },
                Nanos(600),
                Nanos::from_micros(80),
            ),
            syscall_ns_per_kib: 55.0,
        }
    }

    /// The fault model for a given fault kind.
    pub fn fault(&self, kind: FaultKind) -> &CostModel {
        match kind {
            FaultKind::AnonZero => &self.fault_anon_zero,
            FaultKind::AnonReclaim => &self.fault_anon_reclaim,
            FaultKind::FileBacked => &self.fault_file,
            FaultKind::Cow => &self.fault_cow,
        }
    }
}

impl Default for CostModels {
    fn default() -> Self {
        CostModels::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(model: &CostModel, n: usize, factor: f64) -> (Nanos, Nanos, Nanos) {
        let mut s = Stream::new(0xC0, "cost-test");
        let mut min = Nanos(u64::MAX);
        let mut max = Nanos(0);
        let mut sum = Nanos(0);
        for _ in 0..n {
            let v = model.sample(&mut s, factor);
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        (min, Nanos(sum.0 / n as u64), max)
    }

    #[test]
    fn samples_respect_bounds() {
        let m = CostModels::paper_defaults();
        for model in [
            &m.timer_irq,
            &m.net_irq,
            &m.softirq_timer_base,
            &m.net_rx_base,
            &m.net_tx,
            &m.fault_anon_zero,
            &m.fault_anon_reclaim,
            &m.sched_pre,
        ] {
            let (min, _avg, max) = stats(model, 5_000, 1.0);
            assert!(min >= model.floor, "min {min} < floor {}", model.floor);
            assert!(max <= model.cap, "max {max} > cap {}", model.cap);
        }
    }

    #[test]
    fn timer_irq_in_paper_range() {
        // Table V: per-app averages between 1.5 and 6.5 µs; with factor
        // 1.0 the base model should sit near the low end (SPHOT-like).
        let m = CostModels::paper_defaults();
        let (_min, avg, _max) = stats(&m.timer_irq, 20_000, 1.0);
        assert!(
            avg >= Nanos(1_200) && avg <= Nanos(3_000),
            "timer avg {avg}"
        );
        // A cache-hostile app (factor ~3) lands near UMT/IRS numbers.
        let (_, avg_hot, _) = stats(&m.timer_irq, 20_000, 3.0);
        assert!(
            avg_hot >= Nanos(4_000) && avg_hot <= Nanos(8_000),
            "hot timer avg {avg_hot}"
        );
    }

    #[test]
    fn fault_modes_are_separated() {
        // AMG's bimodality: zero-page faults ≈2.5 µs, reclaim ≈4.5 µs.
        let m = CostModels::paper_defaults();
        let (_, avg_zero, _) = stats(&m.fault_anon_zero, 20_000, 1.0);
        let (_, avg_reclaim, _) = stats(&m.fault_anon_reclaim, 20_000, 1.0);
        assert!(
            avg_zero >= Nanos(2_000) && avg_zero <= Nanos(3_000),
            "zero avg {avg_zero}"
        );
        assert!(
            avg_reclaim > avg_zero + Nanos(1_000),
            "reclaim {avg_reclaim}"
        );
    }

    #[test]
    fn tx_faster_and_tighter_than_rx() {
        // Paper §IV-D: "the transmission tasklet is faster and more
        // constant than the receiver tasklet".
        let m = CostModels::paper_defaults();
        let (tx_min, tx_avg, tx_max) = stats(&m.net_tx, 20_000, 1.0);
        let (_, rx_avg, rx_max) = stats(&m.net_rx_base, 20_000, 1.0);
        assert!(tx_avg < rx_avg);
        assert!(tx_max < rx_max);
        assert!(tx_max - tx_min < Nanos::from_micros(10));
    }

    #[test]
    fn scheduler_cost_nearly_constant() {
        let m = CostModels::paper_defaults();
        let (min, avg, max) = stats(&m.sched_pre, 20_000, 1.0);
        assert!(avg >= Nanos(330) && avg <= Nanos(430), "avg {avg}");
        // "negligible and constant": spread within a few hundred ns.
        assert!(max - min < Nanos(1_500), "spread {}", max - min);
    }

    #[test]
    fn net_irq_has_rare_slow_path() {
        let m = CostModels::paper_defaults();
        let (_, _, max) = stats(&m.net_irq, 50_000, 1.0);
        assert!(max >= Nanos::from_micros(250), "slow path missing: {max}");
    }

    #[test]
    fn factor_scales_body_not_floor() {
        let m = CostModels::paper_defaults();
        let mut s = Stream::new(1, "f");
        // Factor far below 1 collapses everything onto the floor.
        for _ in 0..100 {
            assert_eq!(m.sched_post.sample(&mut s, 1e-6), m.sched_post.floor);
        }
    }

    #[test]
    fn fault_lookup_matches_kind() {
        let m = CostModels::paper_defaults();
        assert_eq!(m.fault(FaultKind::AnonZero).floor, m.fault_anon_zero.floor);
        assert_eq!(m.fault(FaultKind::Cow).floor, m.fault_cow.floor);
        assert_eq!(m.fault(FaultKind::FileBacked).floor, m.fault_file.floor);
        assert_eq!(
            m.fault(FaultKind::AnonReclaim).floor,
            m.fault_anon_reclaim.floor
        );
    }

    #[test]
    fn serde_roundtrip() {
        let m = CostModels::paper_defaults();
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModels = serde_json::from_str(&json).unwrap();
        assert_eq!(back.timer_irq.floor, m.timer_irq.floor);
        assert_eq!(back.net_rx_ns_per_kib, m.net_rx_ns_per_kib);
    }
}
