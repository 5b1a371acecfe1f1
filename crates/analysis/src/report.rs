//! Textual per-task noise reports: the human-readable summary the CLI
//! and examples print, built entirely from analysis products.

use std::fmt::Write as _;

use osn_kernel::activity::NoiseCategory;
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;

use crate::chart::NoiseChart;
use crate::noise::NoiseAnalysis;
use crate::stats::all_class_stats;

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
    let _ = writeln!(
        out,
        "{} ({}): {} interruptions, {} total noise over {} runnable ({:.4}%)",
        meta.name,
        meta.tid,
        tn.interruptions.len(),
        tn.total_noise(),
        tn.runnable_time,
        100.0 * tn.total_noise().as_nanos() as f64 / tn.runnable_time.as_nanos().max(1) as f64,
    );

    let _ = writeln!(out, "  by category:");
    let cats = tn.by_category();
    for cat in NoiseCategory::NOISE {
        let d = cats.get(&cat).copied().unwrap_or(Nanos::ZERO);
        if d.is_zero() {
            continue;
        }
        let _ = writeln!(
            out,
            "    {:<12} {:>12}  ({:>5.1}%)",
            cat.name(),
            d.to_string(),
            100.0 * d.as_nanos() as f64 / tn.total_noise().as_nanos().max(1) as f64
        );
    }

    let _ = writeln!(out, "  by event class (freq over own wall time):");
    for (class, s) in all_class_stats(analysis, &[meta.tid]) {
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

    #[test]
    fn non_app_task_reports_gracefully() {
        let (analysis, tasks) = fixture();
        let text = task_report(&analysis, &tasks[1]);
        assert!(text.contains("not analyzed"));
    }
}
