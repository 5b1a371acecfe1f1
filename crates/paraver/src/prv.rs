//! Paraver `.prv` trace writer and parser.
//!
//! The paper: "We developed an external LTTng module that generates
//! execution traces suitable for Paraver". The `.prv` format is
//! line-oriented ASCII (Paraver Trace Format v2):
//!
//! ```text
//! #Paraver (dd/mm/yy at hh:mm):endTime:nNodes(cpus):nAppl:task(threads:node)
//! 1:cpu:appl:task:thread:begin:end:state        (state record)
//! 2:cpu:appl:task:thread:time:type:value[...]   (event record)
//! ```
//!
//! We emit one Paraver *task* per simulated task, one *state record*
//! per phase/kernel-activity interval (so the timeline colors like the
//! paper's Fig 2/5/7 screenshots), and one *event record* per
//! kernel-entry/exit and user mark.

use std::fmt::Write as _;

use osn_kernel::ids::Tid;
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{EventKind, Trace};

use crate::states::{state_code, STATE_BLOCKED, STATE_READY, STATE_RUNNING};
use osn_analysis::timeline::{build_timelines_events, Phase};

/// Event type ids in the `.pcf` (see [`crate::pcf`]).
pub const EVTYPE_KERNEL: u64 = 64_000_001;
pub const EVTYPE_MARK: u64 = 64_000_002;
pub const EVTYPE_WAKEUP: u64 = 64_000_003;
pub const EVTYPE_MIGRATE: u64 = 64_000_004;

/// A parsed `.prv` record (for round-trip tests and tooling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrvRecord {
    State {
        cpu: u32,
        task: u32,
        begin: u64,
        end: u64,
        state: u32,
    },
    Event {
        cpu: u32,
        task: u32,
        time: u64,
        pairs: Vec<(u64, u64)>,
    },
}

/// Serialize a trace to `.prv` text.
///
/// `tasks` maps tids to Paraver task ids (their order); `end` is the
/// trace end time.
pub fn write_prv(trace: &Trace, tasks: &[TaskMeta], end: Nanos) -> String {
    let events = trace.events();
    let ncpus = events.iter().map(|e| e.cpu.0 as u32 + 1).max().unwrap_or(1);
    let ntasks = tasks.len();
    let mut out = String::with_capacity(events.len() * 32);
    // Header: fixed fake date (determinism), one node, one application
    // with `ntasks` tasks of one thread each, all on node 1.
    let _ = write!(
        out,
        "#Paraver (16/05/11 at 12:00):{}:1({}):1:{}(",
        end.as_nanos(),
        ncpus,
        ntasks
    );
    for i in 0..ntasks {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "1:1");
    }
    out.push_str(")\n");

    let task_index = |tid: Tid| -> Option<u32> {
        tasks
            .iter()
            .position(|m| m.tid == tid)
            .map(|i| i as u32 + 1)
    };

    // State records from the reconstructed task timelines.
    let workers = osn_analysis::default_workers(tasks.len());
    let timelines = build_timelines_events(&events, tasks, end, workers);
    for meta in tasks {
        let Some(tl) = timelines.get(meta.tid) else {
            continue;
        };
        let Some(task) = task_index(meta.tid) else {
            continue;
        };
        for span in &tl.spans {
            let (cpu, state) = match span.phase {
                Phase::Running(c) => (c.0 as u32 + 1, STATE_RUNNING),
                Phase::Ready(_) => (1, STATE_READY),
                Phase::Blocked(_) => (1, STATE_BLOCKED),
                Phase::Gone => continue,
            };
            let _ = writeln!(
                out,
                "1:{}:1:{}:1:{}:{}:{}",
                cpu,
                task,
                span.start.as_nanos(),
                span.end.as_nanos(),
                state
            );
        }
    }

    // Kernel activity state records + punctual events.
    for e in &events {
        let cpu = e.cpu.0 as u32 + 1;
        match e.kind {
            EventKind::KernelEnter(a) => {
                if let Some(task) = task_index(e.tid) {
                    let _ = writeln!(
                        out,
                        "2:{}:1:{}:1:{}:{}:{}",
                        cpu,
                        task,
                        e.t.as_nanos(),
                        EVTYPE_KERNEL,
                        a.code()
                    );
                }
            }
            EventKind::KernelExit(_) => {
                if let Some(task) = task_index(e.tid) {
                    let _ = writeln!(
                        out,
                        "2:{}:1:{}:1:{}:{}:0",
                        cpu,
                        task,
                        e.t.as_nanos(),
                        EVTYPE_KERNEL
                    );
                }
            }
            EventKind::AppMark { mark, value } => {
                if let Some(task) = task_index(e.tid) {
                    let _ = writeln!(
                        out,
                        "2:{}:1:{}:1:{}:{}:{}:{}:{}",
                        cpu,
                        task,
                        e.t.as_nanos(),
                        EVTYPE_MARK,
                        mark,
                        EVTYPE_MARK + 10,
                        value
                    );
                }
            }
            EventKind::Wakeup { tid, .. } => {
                if let Some(task) = task_index(tid) {
                    let _ = writeln!(
                        out,
                        "2:{}:1:{}:1:{}:{}:1",
                        cpu,
                        task,
                        e.t.as_nanos(),
                        EVTYPE_WAKEUP
                    );
                }
            }
            EventKind::Migrate { tid, to, .. } => {
                if let Some(task) = task_index(tid) {
                    let _ = writeln!(
                        out,
                        "2:{}:1:{}:1:{}:{}:{}",
                        cpu,
                        task,
                        e.t.as_nanos(),
                        EVTYPE_MIGRATE,
                        to.0 + 1
                    );
                }
            }
            _ => {}
        }
    }
    out
}

/// Emit per-activity *state* records for kernel activity intervals of
/// one task (the colored segments of the paper's Fig 2): requires the
/// reconstructed instances.
pub fn write_activity_states(
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
) -> String {
    let mut out = String::new();
    for inst in instances {
        let Some(task) = tasks.iter().position(|m| m.tid == inst.ctx) else {
            continue;
        };
        let _ = writeln!(
            out,
            "1:{}:1:{}:1:{}:{}:{}",
            inst.cpu.0 as u32 + 1,
            task + 1,
            inst.start.as_nanos(),
            inst.end.as_nanos(),
            state_code(inst.activity)
        );
    }
    out
}

/// Parse `.prv` text (header skipped) into records.
pub fn parse_prv(text: &str) -> Result<Vec<PrvRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(':').collect();
        let num = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .ok_or_else(|| format!("line {}: missing field {}", lineno + 1, i))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: {}", lineno + 1, e))
        };
        match fields.first() {
            Some(&"1") => {
                if fields.len() != 8 {
                    return Err(format!("line {}: bad state record", lineno + 1));
                }
                out.push(PrvRecord::State {
                    cpu: num(1)? as u32,
                    task: num(3)? as u32,
                    begin: num(5)?,
                    end: num(6)?,
                    state: num(7)? as u32,
                });
            }
            Some(&"2") => {
                if fields.len() < 8 || !fields.len().is_multiple_of(2) {
                    return Err(format!("line {}: bad event record", lineno + 1));
                }
                let mut pairs = Vec::new();
                let mut i = 6;
                while i + 1 < fields.len() {
                    pairs.push((num(i)?, num(i + 1)?));
                    i += 2;
                }
                out.push(PrvRecord::Event {
                    cpu: num(1)? as u32,
                    task: num(3)? as u32,
                    time: num(5)?,
                    pairs,
                });
            }
            Some(other) => {
                return Err(format!(
                    "line {}: unknown record type {}",
                    lineno + 1,
                    other
                ))
            }
            None => {}
        }
    }
    Ok(out)
}

/// Sanity-check a generated `.prv`: states well-formed (begin ≤ end),
/// events reference known tasks. Returns the record count.
pub fn validate_prv(text: &str, ntasks: usize, ncpus: usize) -> Result<usize, String> {
    let records = parse_prv(text)?;
    for r in &records {
        match r {
            PrvRecord::State {
                cpu,
                task,
                begin,
                end,
                ..
            } => {
                if begin > end {
                    return Err(format!("state with begin {begin} > end {end}"));
                }
                if *task as usize > ntasks || *task == 0 {
                    return Err(format!("state references task {task}"));
                }
                if *cpu as usize > ncpus || *cpu == 0 {
                    return Err(format!("state references cpu {cpu}"));
                }
            }
            PrvRecord::Event { task, .. } => {
                if *task as usize > ntasks || *task == 0 {
                    return Err(format!("event references task {task}"));
                }
            }
        }
    }
    Ok(records.len())
}

/// All activity instances rendered for Paraver plus the base trace —
/// the complete "OS Noise Trace" export.
pub fn write_full_prv(
    trace: &Trace,
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
    end: Nanos,
) -> String {
    let mut text = write_prv(trace, tasks, end);
    text.push_str(&write_activity_states(instances, tasks));
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_kernel::activity::Activity as A;
    use osn_kernel::hooks::SwitchState;
    use osn_kernel::ids::CpuId;
    use osn_trace::Event;

    fn meta(tid: u32, kind: &str) -> TaskMeta {
        TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: kind.into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        }
    }

    fn sample() -> (Trace, Vec<TaskMeta>) {
        let mk = |t: u64, cpu: u16, tid: u32, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(tid),
            kind,
        };
        let events = vec![
            mk(
                0,
                0,
                0,
                EventKind::SchedSwitch {
                    prev: Tid(0),
                    prev_state: SwitchState::Preempted,
                    next: Tid(1),
                },
            ),
            mk(100, 0, 1, EventKind::KernelEnter(A::TimerInterrupt)),
            mk(150, 0, 1, EventKind::KernelExit(A::TimerInterrupt)),
            mk(200, 0, 1, EventKind::AppMark { mark: 3, value: 99 }),
        ];
        (Trace::new(events, vec![0]), vec![meta(1, "app")])
    }

    #[test]
    fn prv_writes_header_and_records() {
        let (trace, tasks) = sample();
        let text = write_prv(&trace, &tasks, Nanos(1000));
        assert!(text.starts_with("#Paraver ("));
        assert!(text.contains(":1000:1(1):1:1("));
        let n = validate_prv(&text, 1, 1).expect("valid");
        assert!(n >= 3, "{n} records");
    }

    #[test]
    fn prv_roundtrip_parse() {
        let (trace, tasks) = sample();
        let text = write_prv(&trace, &tasks, Nanos(1000));
        let records = parse_prv(&text).unwrap();
        // Kernel enter event present with the right payload.
        assert!(records.iter().any(|r| matches!(
            r,
            PrvRecord::Event { time: 100, pairs, .. }
                if pairs.contains(&(EVTYPE_KERNEL, A::TimerInterrupt.code() as u64))
        )));
        // Mark with two pairs.
        assert!(records.iter().any(|r| matches!(
            r,
            PrvRecord::Event { time: 200, pairs, .. } if pairs.len() == 2
        )));
        // A running state span.
        assert!(records
            .iter()
            .any(|r| matches!(r, PrvRecord::State { state, .. } if *state == STATE_RUNNING)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_prv("9:1:2:3").is_err());
        assert!(parse_prv("1:1:1:1:1:10:5").is_err(), "short state");
        assert!(parse_prv("1:a:1:1:1:0:5:1").is_err(), "non-numeric");
        // Comments and blanks are fine.
        assert_eq!(parse_prv("#hello\n\n").unwrap().len(), 0);
    }

    #[test]
    fn validate_catches_inverted_state() {
        let bad = "1:1:1:1:1:100:50:1\n";
        assert!(validate_prv(bad, 1, 1).is_err());
    }

    #[test]
    fn activity_states_rendered() {
        let inst = osn_analysis::ActivityInstance {
            activity: A::TimerInterrupt,
            cpu: CpuId(0),
            ctx: Tid(1),
            start: Nanos(100),
            end: Nanos(150),
            self_time: Nanos(50),
            depth: 0,
        };
        let tasks = vec![meta(1, "app")];
        let text = write_activity_states(&[inst], &tasks);
        let records = parse_prv(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0],
            PrvRecord::State {
                begin: 100,
                end: 150,
                ..
            }
        ));
    }
}

/// Export only a time window of the trace (the paper's zoomed figures,
/// e.g. Fig 2a's 75 ms window): events and activity states clipped to
/// `[from, to)`, with the header end time set to `to`.
pub fn write_prv_window(
    trace: &Trace,
    instances: &[osn_analysis::ActivityInstance],
    tasks: &[TaskMeta],
    from: Nanos,
    to: Nanos,
) -> String {
    let windowed = Trace::new(
        trace
            .events()
            .iter()
            .filter(|e| e.t >= from && e.t < to)
            .cloned()
            .collect(),
        trace.lost.clone(),
    );
    let clipped: Vec<osn_analysis::ActivityInstance> = instances
        .iter()
        .filter(|i| i.start < to && i.end > from)
        .map(|i| osn_analysis::ActivityInstance {
            start: i.start.max(from),
            end: i.end.min(to),
            ..*i
        })
        .collect();
    let mut text = write_prv(&windowed, tasks, to);
    text.push_str(&write_activity_states(&clipped, tasks));
    text
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use osn_kernel::activity::Activity as A;
    use osn_kernel::ids::CpuId;
    use osn_trace::Event;

    #[test]
    fn window_clips_events_and_instances() {
        let mk = |t: u64, kind: EventKind| Event {
            t: Nanos(t),
            cpu: CpuId(0),
            tid: Tid(1),
            kind,
        };
        let trace = Trace::new(
            vec![
                mk(10, EventKind::KernelEnter(A::TimerInterrupt)),
                mk(20, EventKind::KernelExit(A::TimerInterrupt)),
                mk(500, EventKind::KernelEnter(A::TimerInterrupt)),
                mk(510, EventKind::KernelExit(A::TimerInterrupt)),
            ],
            vec![0],
        );
        let instances = vec![
            osn_analysis::ActivityInstance {
                activity: A::TimerInterrupt,
                cpu: CpuId(0),
                ctx: Tid(1),
                start: Nanos(10),
                end: Nanos(20),
                self_time: Nanos(10),
                depth: 0,
            },
            osn_analysis::ActivityInstance {
                activity: A::TimerInterrupt,
                cpu: CpuId(0),
                ctx: Tid(1),
                start: Nanos(500),
                end: Nanos(510),
                self_time: Nanos(10),
                depth: 0,
            },
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
        let text = write_prv_window(&trace, &instances, &tasks, Nanos(0), Nanos(100));
        let records = parse_prv(&text).unwrap();
        // Only the first pair's events and the first instance survive.
        let events = records
            .iter()
            .filter(|r| matches!(r, PrvRecord::Event { .. }))
            .count();
        assert_eq!(events, 2);
        assert!(!text.contains(":500:"));
    }
}
