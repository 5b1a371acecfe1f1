//! Native host-noise capture: the FTQ loop as a *recorder*.
//!
//! The simulator measures noise by tracing kernel activity directly;
//! on a real host we only get the application's view — per-quantum gaps
//! in a spin loop. This module turns those gaps back into trace events
//! the unchanged analysis pipeline consumes:
//!
//! 1. **Calibrate** — time a batch of loop iterations; the gap
//!    threshold is `median + k·MAD` of the per-iteration deltas (the
//!    probe's own `Instant::now` cost is inside the median, so it is
//!    subtracted from every reported gap, not counted as noise).
//! 2. **Detect** — any iteration delta above the threshold is a gap:
//!    the OS ran something else on this CPU.
//! 3. **Attribute** — sample `/proc/interrupts`, `/proc/schedstat`,
//!    and `/proc/self/status` around the gap; the counter deltas pick
//!    the gap's class (decision table in [`classify`]).
//! 4. **Synthesize** — emit the same `Event` stream the simulated
//!    tracer produces (kernel enter/exit pairs, sched-switch pairs for
//!    preemptions) on one virtual CPU, so `analyze`/`info`/`serve`
//!    need no native-specific code path.
//!
//! Counter sampling happens strictly *after* a gap ends and its dead
//! time is excised from the loop clock, accumulated separately as
//! recorder self-overhead (reported, and benchmarked by
//! `capture_overhead`).

use std::time::Instant;

use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind};

use serde::Serialize;

use crate::native::basic_op;
use crate::procfs::{counter_delta, saturating_sum, ProcSnapshot};
use crate::series::FtqSeries;

/// The virtual CPU every synthesized event lands on.
pub const CAPTURE_CPU: CpuId = CpuId(0);
/// The FTQ thread's tid in the synthesized trace (kind `app`).
pub const CAPTURE_APP_TID: Tid = Tid(1);
/// The stand-in for whatever preempted us (kind `host`).
pub const CAPTURE_PREEMPTOR_TID: Tid = Tid(2);

/// What a detected gap was attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapClass {
    /// The periodic tick (local timer interrupt).
    Tick,
    /// A non-tick device interrupt.
    Interrupt,
    /// The scheduler ran someone else (involuntary context switch or
    /// CPU migration).
    Preemption,
    /// No sampled counter moved — SMM, hypervisor steal, or a source
    /// procfs does not count.
    Unattributed,
}

impl GapClass {
    pub fn name(self) -> &'static str {
        match self {
            GapClass::Tick => "tick",
            GapClass::Interrupt => "interrupt",
            GapClass::Preemption => "preemption",
            GapClass::Unattributed => "unattributed",
        }
    }
}

/// Counter movement across one gap's sampling window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterDeltas {
    /// Tick-timer interrupts on the CPU the thread ran on (or
    /// machine-wide when the CPU is unknown).
    pub timer_irqs: u64,
    /// Other device interrupts, same scope.
    pub other_irqs: u64,
    pub voluntary: u64,
    pub nonvoluntary: u64,
    /// The thread moved to a different CPU across the gap.
    pub migrated: bool,
    /// schedstat run-delay growth (ns) — corroboration, not a trigger.
    pub run_delay_ns: u64,
}

/// The classification decision table, in priority order. Pure function
/// of the deltas, so identical deltas always classify identically
/// (property-tested).
///
/// | evidence                         | class        |
/// |----------------------------------|--------------|
/// | involuntary switch or migration  | Preemption   |
/// | tick-timer interrupt fired       | Tick         |
/// | other device interrupt fired     | Interrupt    |
/// | nothing moved                    | Unattributed |
///
/// Preemption outranks the interrupt classes because a preemption is
/// usually *entered* through an interrupt: the switch counter is the
/// more specific signal.
pub fn classify(d: &CounterDeltas) -> GapClass {
    if d.nonvoluntary > 0 || d.migrated {
        GapClass::Preemption
    } else if d.timer_irqs > 0 {
        GapClass::Tick
    } else if d.other_irqs > 0 {
        GapClass::Interrupt
    } else {
        GapClass::Unattributed
    }
}

/// Counter deltas between two snapshots, scoped to the CPU the thread
/// landed on when both snapshots know it.
pub fn deltas_between(before: &ProcSnapshot, after: &ProcSnapshot) -> CounterDeltas {
    let migrated = match (before.cpu, after.cpu) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    let scoped = |cpu: Option<u32>| -> Option<(u64, u64, u64, u64)> {
        let c = cpu?;
        Some((
            before.interrupts.timer_on(c)?,
            after.interrupts.timer_on(c)?,
            before.interrupts.other_on(c)?,
            after.interrupts.other_on(c)?,
        ))
    };
    let (timer_irqs, other_irqs) = match scoped(after.cpu) {
        Some((t0, t1, o0, o1)) if !migrated => (counter_delta(t0, t1), counter_delta(o0, o1)),
        // Unknown or changed CPU: fall back to machine-wide deltas.
        _ => (
            counter_delta(
                before.interrupts.timer_total(),
                after.interrupts.timer_total(),
            ),
            counter_delta(
                before.interrupts.other_total(),
                after.interrupts.other_total(),
            ),
        ),
    };
    let run_delay = |s: &ProcSnapshot| saturating_sum(s.sched.iter().map(|c| c.run_delay));
    CounterDeltas {
        timer_irqs,
        other_irqs,
        voluntary: counter_delta(before.ctxt.voluntary, after.ctxt.voluntary),
        nonvoluntary: counter_delta(before.ctxt.nonvoluntary, after.ctxt.nonvoluntary),
        migrated,
        run_delay_ns: counter_delta(run_delay(before), run_delay(after)),
    }
}

/// Capture parameters.
#[derive(Clone, Copy, Debug)]
pub struct CaptureConfig {
    /// Total wall-clock capture time.
    pub duration: Nanos,
    /// FTQ quantum.
    pub quantum: Nanos,
    /// `k` in the `median + k·MAD` gap threshold.
    pub threshold_k: f64,
    /// Lower bound on the gap threshold. Sub-µs loop jitter (cache and
    /// TLB effects) moves no procfs counter and would flood the
    /// capture with unattributable micro-gaps; the paper's per-event
    /// statistics start at µs scale.
    pub min_threshold: Nanos,
    /// Re-calibrate the iteration cost every this many quanta (DVFS
    /// drift guard); quanta straddling a calibration are discarded.
    pub recalibrate_every: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            duration: Nanos::from_secs(2),
            quantum: Nanos::from_millis(1),
            threshold_k: 8.0,
            min_threshold: Nanos(1_000),
            recalibrate_every: 512,
        }
    }
}

/// Everything a capture run measured (serialized by `capture --json`).
#[derive(Clone, Debug, Serialize)]
pub struct CaptureReport {
    pub quantum: Nanos,
    /// Quanta kept (calibration-straddling quanta are discarded).
    pub quanta: usize,
    /// Actual elapsed wall clock.
    pub duration: Nanos,
    /// Median per-iteration loop cost from the latest calibration.
    pub iter_cost: Nanos,
    /// Gap-detection threshold derived from the latest calibration.
    pub threshold: Nanos,
    pub gaps: u64,
    pub ticks: u64,
    pub interrupts: u64,
    pub preemptions: u64,
    pub unattributed: u64,
    /// Fraction of detected gaps that got a concrete class.
    pub classified_fraction: f64,
    /// Sum of gap durations with the expected iteration cost (the
    /// probe's own overhead) subtracted.
    pub noise_total: Nanos,
    /// Total loop dead time spent reading procfs after gaps — the
    /// recorder's self-overhead.
    pub probe_overhead: Nanos,
    pub probe_overhead_per_quantum: Nanos,
    /// procfs reads that failed mid-run.
    pub sample_errors: u64,
    pub recalibrations: u64,
    /// Whether `/proc/schedstat` was readable on this host.
    pub schedstat_available: bool,
    /// schedstat run-delay growth summed over all gap windows (ns).
    pub run_delay_ns: u64,
}

/// A completed capture: the report, the synthesized single-CPU event
/// stream, and the raw FTQ series.
pub struct Capture {
    pub report: CaptureReport,
    pub events: Vec<Event>,
    pub series: FtqSeries,
}

/// Calibrate the spin iteration: returns `(median, threshold)` over
/// `iters` timed iterations, threshold = `median + k·MAD` with a small
/// floor so ns-resolution clocks (MAD = 0) still get headroom.
fn calibrate_iteration(k: f64) -> (Nanos, Nanos) {
    const ITERS: usize = 4096;
    let mut deltas = Vec::with_capacity(ITERS);
    let mut acc = 0u64;
    let origin = Instant::now();
    let mut prev = origin.elapsed().as_nanos() as u64;
    for i in 0..ITERS {
        acc = basic_op(acc.wrapping_add(i as u64));
        let now = origin.elapsed().as_nanos() as u64;
        deltas.push(now.saturating_sub(prev));
        prev = now;
    }
    std::hint::black_box(acc);
    deltas.sort_unstable();
    let median = deltas[deltas.len() / 2].max(1);
    let mut devs: Vec<u64> = deltas.iter().map(|&d| d.abs_diff(median)).collect();
    devs.sort_unstable();
    let mad = devs[devs.len() / 2].max(25); // floor for coarse clocks
    let threshold = median + (k.max(1.0) * mad as f64) as u64;
    (Nanos(median), Nanos(threshold))
}

fn push_gap_events(events: &mut Vec<Event>, class: GapClass, start: u64, end: u64) {
    let ev = |t: u64, tid: Tid, kind: EventKind| Event {
        t: Nanos(t),
        cpu: CAPTURE_CPU,
        tid,
        kind,
    };
    match class {
        GapClass::Tick => {
            events.push(ev(
                start,
                CAPTURE_APP_TID,
                EventKind::KernelEnter(Activity::TimerInterrupt),
            ));
            events.push(ev(
                end,
                CAPTURE_APP_TID,
                EventKind::KernelExit(Activity::TimerInterrupt),
            ));
        }
        GapClass::Interrupt => {
            events.push(ev(
                start,
                CAPTURE_APP_TID,
                EventKind::KernelEnter(Activity::NetworkInterrupt),
            ));
            events.push(ev(
                end,
                CAPTURE_APP_TID,
                EventKind::KernelExit(Activity::NetworkInterrupt),
            ));
        }
        GapClass::Preemption => {
            events.push(ev(
                start,
                CAPTURE_APP_TID,
                EventKind::SchedSwitch {
                    prev: CAPTURE_APP_TID,
                    prev_state: SwitchState::Preempted,
                    next: CAPTURE_PREEMPTOR_TID,
                },
            ));
            events.push(ev(
                end,
                CAPTURE_PREEMPTOR_TID,
                EventKind::SchedSwitch {
                    prev: CAPTURE_PREEMPTOR_TID,
                    prev_state: SwitchState::BlockedWait,
                    next: CAPTURE_APP_TID,
                },
            ));
        }
        // No local counter moved: to the application this is stolen
        // time (SMM / hypervisor / unattributable), which the taxonomy
        // already categorizes as preemption-class noise.
        GapClass::Unattributed => {
            events.push(ev(
                start,
                CAPTURE_APP_TID,
                EventKind::KernelEnter(Activity::Steal),
            ));
            events.push(ev(
                end,
                CAPTURE_APP_TID,
                EventKind::KernelExit(Activity::Steal),
            ));
        }
    }
}

/// Run a native capture. Works without procfs (non-Linux dev hosts):
/// every gap is then `Unattributed` and `schedstat_available` is
/// false, which the CLI and CI surface as a degraded capture.
pub fn run_capture(cfg: CaptureConfig) -> Capture {
    let quantum = Nanos(cfg.quantum.as_nanos().max(10_000)); // ≥ 10 µs
    let total_quanta = (cfg.duration.as_nanos() / quantum.as_nanos()).max(1) as usize;
    let recal_every = cfg.recalibrate_every.max(2);

    let clamp = |t: Nanos| t.max(cfg.min_threshold);
    let (mut iter_cost, mut threshold) = calibrate_iteration(cfg.threshold_k);
    threshold = clamp(threshold);
    let mut recalibrations = 1u64;

    let mut baseline = ProcSnapshot::read().ok();
    let schedstat_available = ProcSnapshot::schedstat_available();

    let mut events = Vec::new();
    // The synthesized trace opens with the idle→app switch that puts
    // the FTQ thread Running on the virtual CPU.
    events.push(Event {
        t: Nanos::ZERO,
        cpu: CAPTURE_CPU,
        tid: CAPTURE_APP_TID,
        kind: EventKind::SchedSwitch {
            prev: Tid::IDLE,
            prev_state: SwitchState::Preempted,
            next: CAPTURE_APP_TID,
        },
    });

    let mut ops = Vec::with_capacity(total_quanta);
    let (mut gaps, mut ticks, mut interrupts, mut preemptions, mut unattributed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut noise_total = 0u64;
    let mut probe_overhead = 0u64;
    let mut sample_errors = 0u64;
    let mut run_delay_ns = 0u64;
    let mut acc = 0u64;
    // The last event timestamp, to keep synthesized events strictly
    // ordered even if the clock reads equal nanoseconds twice.
    let mut last_event_t = 0u64;

    let origin = Instant::now();
    let mut quantum_index = 0usize;
    while quantum_index < total_quanta {
        if quantum_index > 0 && quantum_index.is_multiple_of(recal_every) {
            // DVFS guard: re-derive the iteration cost; every quantum
            // the calibration window overlaps is discarded, not
            // recorded as ops (frequency drift must not read as
            // noise).
            let (c, t) = calibrate_iteration(cfg.threshold_k);
            iter_cost = c;
            threshold = clamp(t);
            recalibrations += 1;
            let now = origin.elapsed().as_nanos() as u64;
            let next = (now / quantum.as_nanos() + 1) as usize;
            quantum_index = next.max(quantum_index + 1);
            continue;
        }
        let deadline = (quantum_index as u64 + 1) * quantum.as_nanos();
        let mut n = 0u64;
        let mut t_prev = origin.elapsed().as_nanos() as u64;
        while t_prev < deadline {
            acc = basic_op(acc.wrapping_add(n));
            n += 1;
            let t_now = origin.elapsed().as_nanos() as u64;
            let delta = t_now.saturating_sub(t_prev);
            if delta > threshold.as_nanos() {
                // A gap: the loop lost [t_prev, t_now] minus one
                // expected iteration.
                let gap_start = t_prev + iter_cost.as_nanos();
                let gap_end = t_now.max(gap_start + 1);
                gaps += 1;
                noise_total += gap_end - gap_start;

                let class = match ProcSnapshot::read() {
                    Ok(after) => {
                        let class = match &baseline {
                            Some(before) => {
                                let d = deltas_between(before, &after);
                                run_delay_ns += d.run_delay_ns;
                                classify(&d)
                            }
                            None => GapClass::Unattributed,
                        };
                        baseline = Some(after);
                        class
                    }
                    Err(_) => {
                        sample_errors += 1;
                        GapClass::Unattributed
                    }
                };
                match class {
                    GapClass::Tick => ticks += 1,
                    GapClass::Interrupt => interrupts += 1,
                    GapClass::Preemption => preemptions += 1,
                    GapClass::Unattributed => unattributed += 1,
                }
                let s = gap_start.max(last_event_t + 1);
                let e = gap_end.max(s + 1);
                push_gap_events(&mut events, class, s, e);
                last_event_t = e;

                // Excise the sampling dead time from the loop clock so
                // it reads as self-overhead, not as further noise.
                let after_sample = origin.elapsed().as_nanos() as u64;
                probe_overhead += after_sample.saturating_sub(t_now);
                last_event_t = last_event_t.max(after_sample);
                t_prev = after_sample;
            } else {
                t_prev = t_now;
            }
        }
        ops.push(n);
        quantum_index += 1;
    }
    let duration = Nanos(origin.elapsed().as_nanos() as u64);
    std::hint::black_box(acc);

    let quanta = ops.len();
    let classified = ticks + interrupts + preemptions;
    let report = CaptureReport {
        quantum,
        quanta,
        duration,
        iter_cost,
        threshold,
        gaps,
        ticks,
        interrupts,
        preemptions,
        unattributed,
        classified_fraction: if gaps == 0 {
            1.0
        } else {
            classified as f64 / gaps as f64
        },
        noise_total: Nanos(noise_total),
        probe_overhead: Nanos(probe_overhead),
        probe_overhead_per_quantum: Nanos(probe_overhead / quanta.max(1) as u64),
        sample_errors,
        recalibrations,
        schedstat_available,
        run_delay_ns,
    };
    let series = FtqSeries {
        origin: Nanos::ZERO,
        quantum,
        op_cost: iter_cost,
        ops,
    };
    Capture {
        report,
        events,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::{parse_interrupts, parse_schedstat, parse_status_switches};

    fn snapshot(timer: u64, other: u64, nonvol: u64, cpu: Option<u32>) -> ProcSnapshot {
        ProcSnapshot {
            interrupts: parse_interrupts(&format!(
                "            CPU0\nLOC:       {timer}   Local timer interrupts\n 24:       {other}   PCI-MSI eth0\n"
            )),
            sched: parse_schedstat("version 15\nts 1\ncpu0 0 0 0 0 0 0 10 20 30\n"),
            ctxt: parse_status_switches(&format!(
                "voluntary_ctxt_switches: 1\nnonvoluntary_ctxt_switches: {nonvol}\n"
            )),
            cpu,
        }
    }

    #[test]
    fn decision_table_priority_order() {
        // Everything moved: preemption wins.
        let d = CounterDeltas {
            timer_irqs: 2,
            other_irqs: 1,
            nonvoluntary: 1,
            ..Default::default()
        };
        assert_eq!(classify(&d), GapClass::Preemption);
        // Migration alone is preemption.
        let d = CounterDeltas {
            migrated: true,
            ..Default::default()
        };
        assert_eq!(classify(&d), GapClass::Preemption);
        // Tick outranks device interrupts.
        let d = CounterDeltas {
            timer_irqs: 1,
            other_irqs: 3,
            ..Default::default()
        };
        assert_eq!(classify(&d), GapClass::Tick);
        let d = CounterDeltas {
            other_irqs: 1,
            ..Default::default()
        };
        assert_eq!(classify(&d), GapClass::Interrupt);
        assert_eq!(classify(&CounterDeltas::default()), GapClass::Unattributed);
    }

    #[test]
    fn deltas_between_fixture_snapshots() {
        let before = snapshot(100, 50, 3, Some(0));
        let after = snapshot(102, 50, 3, Some(0));
        let d = deltas_between(&before, &after);
        assert_eq!(d.timer_irqs, 2);
        assert_eq!(d.other_irqs, 0);
        assert_eq!(d.nonvoluntary, 0);
        assert!(!d.migrated);
        assert_eq!(classify(&d), GapClass::Tick);
    }

    #[test]
    fn migration_falls_back_to_machine_wide_deltas() {
        let mut before = snapshot(100, 50, 3, Some(0));
        let mut after = snapshot(101, 50, 3, Some(1));
        let d = deltas_between(&before, &after);
        assert!(d.migrated);
        assert_eq!(classify(&d), GapClass::Preemption);
        // Unknown CPU on either side: not a migration.
        before.cpu = None;
        after.cpu = None;
        let d = deltas_between(&before, &after);
        assert!(!d.migrated);
        assert_eq!(d.timer_irqs, 1);
    }

    #[test]
    fn counter_reset_reads_as_fresh_delta() {
        let before = snapshot(u64::MAX - 5, 50, 3, Some(0));
        let after = snapshot(4, 50, 3, Some(0));
        let d = deltas_between(&before, &after);
        assert_eq!(d.timer_irqs, 4, "reset counter: new value is the delta");
    }

    /// The acceptance gate: over a fixture-driven stream of gap
    /// windows shaped like a real host (ticks dominate, some device
    /// IRQs, occasional preemptions, rare silent gaps), ≥95 % of gaps
    /// classify to a concrete class.
    #[test]
    fn fixture_driven_classification_rate_is_at_least_95_percent() {
        let mut timer = 1_000u64;
        let mut other = 500u64;
        let mut nonvol = 7u64;
        let mut prev = snapshot(timer, other, nonvol, Some(0));
        let mut classified = 0u64;
        let total = 100u64;
        for i in 0..total {
            // 2 % of gaps move no counter at all.
            match i % 50 {
                13 => {}
                n if n % 10 == 3 => other += 1,
                n if n % 25 == 7 => nonvol += 1,
                _ => timer += 1,
            }
            let next = snapshot(timer, other, nonvol, Some(0));
            if classify(&deltas_between(&prev, &next)) != GapClass::Unattributed {
                classified += 1;
            }
            prev = next;
        }
        let fraction = classified as f64 / total as f64;
        assert!(
            fraction >= 0.95,
            "only {classified}/{total} gaps classified"
        );
    }

    #[test]
    fn synthesized_events_are_ordered_and_paired() {
        let mut events = Vec::new();
        push_gap_events(&mut events, GapClass::Tick, 100, 200);
        push_gap_events(&mut events, GapClass::Preemption, 300, 450);
        push_gap_events(&mut events, GapClass::Unattributed, 500, 510);
        assert_eq!(events.len(), 6);
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(matches!(
            events[0].kind,
            EventKind::KernelEnter(Activity::TimerInterrupt)
        ));
        assert!(matches!(
            events[2].kind,
            EventKind::SchedSwitch {
                prev: CAPTURE_APP_TID,
                ..
            }
        ));
        assert!(matches!(
            events[4].kind,
            EventKind::KernelEnter(Activity::Steal)
        ));
    }

    #[test]
    fn short_capture_produces_coherent_report() {
        let cap = run_capture(CaptureConfig {
            duration: Nanos::from_millis(30),
            quantum: Nanos::from_millis(1),
            ..CaptureConfig::default()
        });
        assert!(cap.report.quanta > 0);
        assert_eq!(cap.series.ops.len(), cap.report.quanta);
        assert!(cap.report.iter_cost > Nanos::ZERO);
        assert!(cap.report.threshold > cap.report.iter_cost);
        assert_eq!(
            cap.report.gaps,
            cap.report.ticks
                + cap.report.interrupts
                + cap.report.preemptions
                + cap.report.unattributed
        );
        // Opening switch + one enter/exit or switch pair per gap.
        assert_eq!(cap.events.len(), 1 + 2 * cap.report.gaps as usize);
        assert!(cap.events.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn calibration_threshold_has_headroom() {
        let (median, threshold) = calibrate_iteration(8.0);
        assert!(median >= Nanos(1));
        assert!(threshold.as_nanos() >= median.as_nanos() + 8 * 25);
    }
}
