//! Textual per-task noise reports: the human-readable summary the CLI
//! and examples print, built entirely from analysis products.

use std::fmt::Write as _;

use osn_kernel::task::TaskMeta;

use crate::chart::NoiseChart;
use crate::noise::NoiseAnalysis;
use crate::stats::ClassColumns;

/// Render a full report for one task.
pub fn task_report(analysis: &NoiseAnalysis, meta: &TaskMeta) -> String {
    let mut out = String::new();
    let Some(tn) = analysis.tasks.get(&meta.tid) else {
        let _ = writeln!(
            out,
            "{} ({}): not analyzed (not an application task)",
            meta.name, meta.tid
        );
        return out;
    };
    let columns = ClassColumns::build(analysis, &[meta.tid]);
    let breakdown = columns.breakdown();
    let noise = breakdown.total_noise.as_nanos().max(1) as f64;
    let _ = writeln!(
        out,
        "{} ({}): {} interruptions, {} total noise over {} runnable ({:.4}%)",
        meta.name,
        meta.tid,
        tn.interruptions.len(),
        breakdown.total_noise,
        breakdown.runnable_time,
        100.0 * breakdown.total_noise.as_nanos() as f64
            / breakdown.runnable_time.as_nanos().max(1) as f64,
    );

    let _ = writeln!(out, "  by category:");
    for (cat, d) in breakdown.totals.iter().filter(|(_, d)| !d.is_zero()) {
        let _ = writeln!(
            out,
            "    {:<12} {:>12}  ({:>5.1}%)",
            cat.name(),
            d.to_string(),
            100.0 * d.as_nanos() as f64 / noise
        );
    }

    let _ = writeln!(out, "  by event class (freq over own wall time):");
    for (class, s) in columns.all_stats() {
        if s.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "    {:<24} {:>8.0}/s avg {:>10} max {:>12}",
            class.name(),
            s.freq_per_sec,
            s.avg.to_string(),
            s.max.to_string()
        );
    }

    let chart = NoiseChart::build(analysis, meta.tid);
    let _ = writeln!(out, "  largest interruptions:");
    for p in chart.top(3) {
        let _ = writeln!(out, "    t={} noise={} :", p.t, p.noise);
        for (c, d) in p.components.iter().take(4) {
            let _ = writeln!(out, "      {c:?} = {d}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity;
    use osn_kernel::hooks::SwitchState;
    use osn_kernel::ids::{CpuId, Tid};
    use osn_kernel::time::Nanos;
    use osn_trace::{Event, EventKind, Trace};

    fn fixture() -> (NoiseAnalysis, Vec<TaskMeta>) {
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
            ev(2_278, EventKind::KernelExit(Activity::TimerInterrupt)),
        ];
        let tasks = vec![
            TaskMeta {
                tid: Tid(1),
                name: "app.0".into(),
                kind: "app".into(),
                job: None,
                rank: 0,
                user_time: Nanos::ZERO,
                faults: 0,
            },
            TaskMeta {
                tid: Tid(2),
                name: "rpciod".into(),
                kind: "rpciod".into(),
                job: None,
                rank: 0,
                user_time: Nanos::ZERO,
                faults: 0,
            },
        ];
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &tasks, Nanos::SEC);
        (analysis, tasks)
    }

    #[test]
    fn task_report_contains_the_essentials() {
        let (analysis, tasks) = fixture();
        let text = task_report(&analysis, &tasks[0]);
        assert!(text.contains("app.0"));
        assert!(text.contains("periodic"));
        assert!(text.contains("timer_interrupt"));
        assert!(text.contains("largest interruptions"));
        assert!(text.contains("2.178us"), "{text}");
    }

    /// The whole text, worked by hand: one 2178-ns timer interrupt in a
    /// task runnable (and running) for the whole second, so the noise is
    /// 2178 / 1e9 = 0.0002 % of runnable time, all of it periodic, and
    /// the class fires once per second of the task's 1-s wall.
    #[test]
    fn task_report_pins_every_line() {
        let (analysis, tasks) = fixture();
        let expected = "\
app.0 (tid1): 1 interruptions, 2.178us total noise over 1.000s runnable (0.0002%)
  by category:
    periodic          2.178us  (100.0%)
  by event class (freq over own wall time):
    timer_interrupt                 1/s avg    2.178us max      2.178us
  largest interruptions:
    t=100ns noise=2.178us :
      Activity(TimerInterrupt) = 2.178us
";
        assert_eq!(task_report(&analysis, &tasks[0]), expected);
    }

    #[test]
    fn non_app_task_reports_gracefully() {
        let (analysis, tasks) = fixture();
        let text = task_report(&analysis, &tasks[1]);
        assert!(text.contains("not analyzed"));
    }
}
