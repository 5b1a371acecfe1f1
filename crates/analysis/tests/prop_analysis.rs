//! Property tests for the analysis pipeline: nesting reconstruction,
//! timelines, histograms and statistics must uphold their invariants on
//! arbitrary (well-formed) inputs.

use proptest::prelude::*;

use osn_analysis::breakdown::Breakdown;
use osn_analysis::histogram::{percentile, Histogram};
use osn_analysis::nesting::{reconstruct_reference, ActivityInstance, NestingReport};
use osn_analysis::noise::{Component, NoiseAnalysis};
use osn_analysis::signature::NoiseSignature;
use osn_analysis::stats::{class_histogram, class_stats, ClassColumns, EventClass, EventStats};
use osn_analysis::timeline::build_timelines_events;
use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind, Trace};

/// The instances and nesting report of an analysis — what the engine's
/// per-CPU pairing reconstructed.
fn paired(analysis: NoiseAnalysis) -> (Vec<ActivityInstance>, NestingReport) {
    (analysis.instances, analysis.nesting_report)
}

// ---------- generators ----------

fn activity() -> impl Strategy<Value = Activity> {
    (1u16..=21).prop_map(|c| Activity::from_code(c).expect("code in range"))
}

/// A random well-formed nesting structure on one CPU: a bracket
/// sequence with strictly increasing timestamps.
fn nested_stream_on(cpu: u16) -> impl Strategy<Value = Vec<Event>> {
    // Sequence of open(true)/close(false) decisions + activities.
    prop::collection::vec((any::<bool>(), activity(), 1u64..100), 1..120).prop_map(move |steps| {
        let mut events = Vec::new();
        let mut stack: Vec<Activity> = Vec::new();
        let mut t = 0u64;
        for (open, act, dt) in steps {
            t += dt;
            if open && stack.len() < 6 {
                stack.push(act);
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(cpu),
                    tid: Tid(1),
                    kind: EventKind::KernelEnter(act),
                });
            } else if let Some(top) = stack.pop() {
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(cpu),
                    tid: Tid(1),
                    kind: EventKind::KernelExit(top),
                });
            }
        }
        // Close what's left.
        while let Some(top) = stack.pop() {
            t += 1;
            events.push(Event {
                t: Nanos(t),
                cpu: CpuId(cpu),
                tid: Tid(1),
                kind: EventKind::KernelExit(top),
            });
        }
        events
    })
}

fn nested_stream() -> impl Strategy<Value = Vec<Event>> {
    nested_stream_on(0)
}

/// Like [`nested_stream_on`] but timestamps may repeat (`dt` can be 0),
/// producing zero-width frames and nesting chains entered/exited at the
/// same instant — the degenerate sort ties the sharded paths must
/// reproduce exactly.
fn tied_stream_on(cpu: u16) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((any::<bool>(), activity(), 0u64..4), 1..80).prop_map(move |steps| {
        let mut events = Vec::new();
        let mut stack: Vec<Activity> = Vec::new();
        let mut t = 0u64;
        for (open, act, dt) in steps {
            t += dt;
            if open && stack.len() < 6 {
                stack.push(act);
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(cpu),
                    tid: Tid(1),
                    kind: EventKind::KernelEnter(act),
                });
            } else if let Some(top) = stack.pop() {
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(cpu),
                    tid: Tid(1),
                    kind: EventKind::KernelExit(top),
                });
            }
        }
        while let Some(top) = stack.pop() {
            events.push(Event {
                t: Nanos(t),
                cpu: CpuId(cpu),
                tid: Tid(1),
                kind: EventKind::KernelExit(top),
            });
        }
        events
    })
}

/// A scheduler stream on one CPU: random switches between a few tasks
/// (tids 1..=ntasks) and the idle loop.
fn sched_stream_on(cpu: u16, ntasks: u32) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((1u64..40, 0u32..=ntasks, 0u16..5), 0..40).prop_map(move |steps| {
        let mut events = Vec::new();
        let mut t = 0u64;
        let mut cur = Tid::IDLE;
        for (dt, next, state_code) in steps {
            t += dt;
            let next = if next == 0 { Tid::IDLE } else { Tid(next) };
            if next == cur {
                continue;
            }
            let state = SwitchState::from_code(state_code % 5).expect("codes 0..5 valid");
            events.push(Event {
                t: Nanos(t),
                cpu: CpuId(cpu),
                tid: cur,
                kind: EventKind::SchedSwitch {
                    prev: cur,
                    prev_state: state,
                    next,
                },
            });
            cur = next;
        }
        events
    })
}

/// Several CPUs of tie-heavy kernel frames interleaved with scheduler
/// activity, merged into one `(t, cpu)`-ordered trace.
fn noisy_trace() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((tied_stream_on(0), sched_stream_on(0, 3)), 1..4).prop_map(|cpus| {
        let mut events: Vec<Event> = Vec::new();
        for (cpu, (frames, scheds)) in cpus.into_iter().enumerate() {
            for mut e in frames {
                e.cpu = CpuId(cpu as u16);
                events.push(e);
            }
            for mut e in scheds {
                e.cpu = CpuId(cpu as u16);
                events.push(e);
            }
        }
        events.sort_by_key(|e| e.key());
        events
    })
}

/// Application tasks `t1`..`t3`, the tids [`sched_stream_on`] switches
/// between.
fn three_tasks() -> Vec<TaskMeta> {
    app_tasks(3)
}

/// Application tasks `t1`..`tn`.
fn app_tasks(n: u32) -> Vec<TaskMeta> {
    (1..=n)
        .map(|i| TaskMeta {
            tid: Tid(i),
            name: format!("t{i}"),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        })
        .collect()
}

/// A physical trace on 1–3 CPUs: CPU `c` switches between the idle
/// loop and its own two tasks `t(2c+1)`, `t(2c+2)`, so no task is ever
/// resident on two CPUs; during each residency the resident's kernel
/// frames nest properly (zero-width frames and equal timestamps
/// included) and close before the next switch.
fn resident_trace() -> impl Strategy<Value = Vec<Event>> {
    let residency = (
        0u32..=2,
        0u16..5,
        0u64..20,
        prop::collection::vec((any::<bool>(), activity(), 0u64..4), 0..12),
    );
    prop::collection::vec(prop::collection::vec(residency, 1..8), 1..=3).prop_map(|cpus| {
        let mut events: Vec<Event> = Vec::new();
        for (c, residencies) in cpus.into_iter().enumerate() {
            let cpu = CpuId(c as u16);
            let mut t = 0u64;
            let mut cur = Tid::IDLE;
            for (pick, state, gap, steps) in residencies {
                let next = match pick {
                    0 => Tid::IDLE,
                    k => Tid(2 * c as u32 + k),
                };
                if next != cur {
                    let state = SwitchState::from_code(state).expect("codes 0..5 valid");
                    events.push(Event {
                        t: Nanos(t),
                        cpu,
                        tid: cur,
                        kind: EventKind::SchedSwitch {
                            prev: cur,
                            prev_state: state,
                            next,
                        },
                    });
                    cur = next;
                }
                let mut stack: Vec<Activity> = Vec::new();
                for (open, act, dt) in steps {
                    t += dt;
                    let kind = if open && stack.len() < 4 {
                        stack.push(act);
                        EventKind::KernelEnter(act)
                    } else if let Some(top) = stack.pop() {
                        EventKind::KernelExit(top)
                    } else {
                        continue;
                    };
                    events.push(Event {
                        t: Nanos(t),
                        cpu,
                        tid: cur,
                        kind,
                    });
                }
                while let Some(top) = stack.pop() {
                    events.push(Event {
                        t: Nanos(t),
                        cpu,
                        tid: cur,
                        kind: EventKind::KernelExit(top),
                    });
                }
                t += gap;
            }
        }
        events.sort_by_key(|e| e.key());
        events
    })
}

/// Well-formed nesting structures on several CPUs, merged into one
/// `(t, cpu)`-ordered trace.
fn multi_cpu_stream() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(nested_stream_on(0), 1..5).prop_map(|streams| {
        let mut events: Vec<Event> = streams
            .into_iter()
            .enumerate()
            .flat_map(|(cpu, stream)| {
                stream.into_iter().map(move |mut e| {
                    e.cpu = CpuId(cpu as u16);
                    e
                })
            })
            .collect();
        events.sort_by_key(|e| e.key());
        events
    })
}

proptest! {
    /// Self-times are additive: for any well-formed stream, the sum of
    /// all self-times equals the union length of the covered intervals
    /// (computed independently by interval merging).
    #[test]
    fn nesting_self_times_are_additive(events in nested_stream()) {
        let trace = Trace::new(events.clone(), vec![]);
        let (instances, report) = paired(NoiseAnalysis::analyze(&trace, &[], Nanos::ZERO));
        prop_assert!(report.is_clean(), "{report:?}");

        let self_total: u64 = instances.iter().map(|i| i.self_time.as_nanos()).sum();

        // Independent union computation over depth-0 spans.
        let mut roots: Vec<(u64, u64)> = instances
            .iter()
            .filter(|i| i.depth == 0)
            .map(|i| (i.start.as_nanos(), i.end.as_nanos()))
            .collect();
        roots.sort_unstable();
        let mut union = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in roots {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        union += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            union += ce - cs;
        }
        prop_assert_eq!(self_total, union);
    }

    /// Children are contained in their parents, and depth increases
    /// inward.
    #[test]
    fn nesting_containment(events in nested_stream()) {
        let trace = Trace::new(events, vec![]);
        let (instances, report) = paired(NoiseAnalysis::analyze(&trace, &[], Nanos::ZERO));
        prop_assert!(report.is_clean());
        for (i, inner) in instances.iter().enumerate() {
            if inner.depth == 0 {
                continue;
            }
            // Exactly one instance at depth-1 contains it.
            let parents = instances
                .iter()
                .enumerate()
                .filter(|(j, outer)| {
                    *j != i
                        && outer.depth == inner.depth - 1
                        && outer.start <= inner.start
                        && inner.end <= outer.end
                })
                .count();
            prop_assert_eq!(parents, 1, "instance {:?} parentless", inner);
        }
    }

    /// The engine's sharded reconstruction is bit-identical to the
    /// retained sequential reference, for any worker budget.
    #[test]
    fn sharded_reconstruct_matches_reference(
        events in multi_cpu_stream(),
        workers in 1usize..5,
    ) {
        let trace = Trace::new(events, vec![]);
        let reference = reconstruct_reference(&trace.events());
        let sharded = NoiseAnalysis::analyze_with_workers(&trace, &[], Nanos::ZERO, workers);
        prop_assert_eq!(paired(sharded), reference.clone());
        prop_assert_eq!(paired(NoiseAnalysis::analyze(&trace, &[], Nanos::ZERO)), reference);
    }

    /// Open-order emission handles the degenerate ties (zero-width
    /// frames, chains entered/exited at the same instant) identically
    /// to the reference's stable sort of close-order emission.
    #[test]
    fn tied_reconstruct_matches_reference(
        streams in prop::collection::vec(tied_stream_on(0), 1..4),
        workers in 1usize..4,
    ) {
        let mut events: Vec<Event> = streams
            .into_iter()
            .enumerate()
            .flat_map(|(cpu, stream)| {
                stream.into_iter().map(move |mut e| {
                    e.cpu = CpuId(cpu as u16);
                    e
                })
            })
            .collect();
        events.sort_by_key(|e| e.key());
        let trace = Trace::new(events, vec![]);
        let sharded = NoiseAnalysis::analyze_with_workers(&trace, &[], Nanos::ZERO, workers);
        prop_assert_eq!(paired(sharded), reconstruct_reference(&trace.events()));
    }

    /// The full parallel engine — sharded reconstruction, partitioned
    /// timelines, per-context index, async-instance gap index — is
    /// bit-identical to the sequential reference on arbitrary traces
    /// mixing tie-heavy kernel frames with scheduler churn.
    #[test]
    fn analysis_matches_reference(events in noisy_trace(), workers in 1usize..4) {
        let end = events.last().map(|e| e.t + Nanos(10)).unwrap_or(Nanos(100));
        let trace = Trace::new(events, vec![]);
        let tasks = three_tasks();
        let engine = NoiseAnalysis::analyze_with_workers(&trace, &tasks, end, workers);
        let reference = NoiseAnalysis::analyze_reference(&trace, &tasks, end);
        prop_assert_eq!(&engine.instances, &reference.instances);
        prop_assert_eq!(&engine.nesting_report, &reference.nesting_report);
        prop_assert_eq!(engine.tasks.len(), reference.tasks.len());
        for (tid, tn) in &engine.tasks {
            let rn = &reference.tasks[tid];
            prop_assert_eq!(&tn.interruptions, &rn.interruptions);
            prop_assert_eq!(tn.runnable_time, rn.runnable_time);
            prop_assert_eq!(tn.running_time, rn.running_time);
            prop_assert_eq!(tn.wall, rn.wall);
            prop_assert!(tn == rn, "components of {:?} differ", tid);
        }
    }

    /// Every interruption's component slice, read through the task's
    /// arena accessor, equals the reference engine's in content and
    /// order, at any worker budget, on tie-heavy traces that need not
    /// be physical (a task may sit in kernel frames on two CPUs at
    /// once).
    #[test]
    fn arena_slices_match_reference(events in noisy_trace(), workers in 1usize..=4) {
        let end = events.last().map(|e| e.t + Nanos(10)).unwrap_or(Nanos(100));
        let trace = Trace::new(events, vec![]);
        let tasks = three_tasks();
        let engine = NoiseAnalysis::analyze_with_workers(&trace, &tasks, end, workers);
        let reference = NoiseAnalysis::analyze_reference(&trace, &tasks, end);
        prop_assert_eq!(engine.tasks.len(), reference.tasks.len());
        for (tid, tn) in &engine.tasks {
            let rn = &reference.tasks[tid];
            prop_assert_eq!(tn.interruptions.len(), rn.interruptions.len());
            for (i, r) in tn.interruptions.iter().zip(&rn.interruptions) {
                let components = tn.components(i);
                prop_assert_eq!(components.as_slice(), rn.components(r).as_slice());
                prop_assert_eq!(components.as_slice(), engine.components(i).as_slice());
            }
        }
    }

    /// On physical traces (each task resident on one CPU at a time, its
    /// kernel frames inside its residencies) the slices also add up:
    /// every interruption's component durations sum to its duration,
    /// an empty slice included, and they still equal the reference's.
    #[test]
    fn arena_slices_are_additive(events in resident_trace(), workers in 1usize..=4) {
        let end = events.last().map(|e| e.t + Nanos(10)).unwrap_or(Nanos(100));
        let trace = Trace::new(events, vec![]);
        let tasks = app_tasks(6);
        let engine = NoiseAnalysis::analyze_with_workers(&trace, &tasks, end, workers);
        let reference = NoiseAnalysis::analyze_reference(&trace, &tasks, end);
        for (tid, tn) in &engine.tasks {
            let rn = &reference.tasks[tid];
            prop_assert_eq!(&tn.interruptions, &rn.interruptions);
            for (i, r) in tn.interruptions.iter().zip(&rn.interruptions) {
                let components = tn.components(i);
                prop_assert_eq!(components.as_slice(), rn.components(r).as_slice());
                let sum: Nanos = components.iter().map(|(_, d)| *d).sum();
                prop_assert_eq!(sum, i.duration(), "{:?} at {:?}", tid, i.start);
            }
        }
    }

    /// Timelines: spans are contiguous, non-overlapping, and cover the
    /// extent, for arbitrary switch/wakeup streams.
    #[test]
    fn timeline_spans_partition_time(
        transitions in prop::collection::vec((1u64..50, any::<bool>(), 0u16..6), 0..100),
    ) {
        let mut events = Vec::new();
        let mut t = 0u64;
        let mut running = false;
        for (dt, wake, state_code) in transitions {
            t += dt;
            if running {
                let state = SwitchState::from_code(state_code % 5).expect("codes 0..5 valid");
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(0),
                    tid: Tid(1),
                    kind: EventKind::SchedSwitch {
                        prev: Tid(1),
                        prev_state: state,
                        next: Tid::IDLE,
                    },
                });
                running = false;
            } else if wake {
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(0),
                    tid: Tid(1),
                    kind: EventKind::Wakeup { tid: Tid(1), waker: Tid(2) },
                });
            } else {
                events.push(Event {
                    t: Nanos(t),
                    cpu: CpuId(0),
                    tid: Tid(1),
                    kind: EventKind::SchedSwitch {
                        prev: Tid::IDLE,
                        prev_state: SwitchState::Preempted,
                        next: Tid(1),
                    },
                });
                running = true;
            }
        }
        let end = Nanos(t + 10);
        let meta = TaskMeta {
            tid: Tid(1),
            name: "t1".into(),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        };
        let trace = Trace::new(events, vec![]);
        let tls = build_timelines_events(&trace.events(), &[meta], end, 1);
        let tl = tls.get(Tid(1)).unwrap();
        // Partition: contiguous, ordered, covering [0, end).
        prop_assert!(!tl.spans.is_empty());
        prop_assert_eq!(tl.spans.first().unwrap().start, Nanos::ZERO);
        prop_assert_eq!(tl.spans.last().unwrap().end, end);
        for w in tl.spans.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
            prop_assert!(w[0].start < w[0].end);
        }
        // Total time conservation.
        let total: Nanos = tl.spans.iter().map(|s| s.end - s.start).sum();
        prop_assert_eq!(total, end);
    }

    /// Histogram conservation: binned + overflow == total; bins span
    /// [lo, cut]; percentile is monotone and bounded by min/max.
    #[test]
    fn histogram_conserves_samples(
        samples in prop::collection::vec(1u64..1_000_000, 1..300),
        bins in 1usize..60,
        pct in 50.0f64..100.0,
    ) {
        let nanos: Vec<Nanos> = samples.iter().copied().map(Nanos).collect();
        let h = Histogram::build(&nanos, bins, pct);
        prop_assert_eq!(h.counts.len(), bins);
        prop_assert_eq!(h.counts.iter().sum::<u64>() + h.overflow, h.total);
        prop_assert_eq!(h.total, nanos.len() as u64);

        let min = nanos.iter().copied().min().unwrap();
        let max = nanos.iter().copied().max().unwrap();
        let p50 = percentile(&nanos, 50.0);
        let p99 = percentile(&nanos, 99.0);
        prop_assert!(min <= p50 && p50 <= p99 && p99 <= max);
    }

    /// EventStats invariants: min <= avg <= max; total = sum; count
    /// conserved.
    #[test]
    fn event_stats_invariants(
        samples in prop::collection::vec(1u64..10_000_000, 1..200),
        wall_secs in 1u64..100,
    ) {
        let nanos: Vec<Nanos> = samples.iter().copied().map(Nanos).collect();
        let s = EventStats::from_samples(&nanos, Nanos::from_secs(wall_secs));
        prop_assert_eq!(s.count, nanos.len() as u64);
        prop_assert!(s.min <= s.avg && s.avg <= s.max);
        prop_assert_eq!(s.total, nanos.iter().copied().sum::<Nanos>());
        let expected_freq = nanos.len() as f64 / wall_secs as f64;
        prop_assert!((s.freq_per_sec - expected_freq).abs() < 1e-6);
    }
}

proptest! {
    // Most generated task lists miss the tasks the frames interrupt, so
    // this property runs more cases than the default to see plenty of
    // non-empty columns.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted class columns answer every class's statistics and
    /// histogram exactly as the per-class oracles do, and their
    /// breakdown equals `Breakdown::compute`, for any task list
    /// (missing and repeated tids included); the signature read off
    /// them equals the one built from the per-class rows.
    #[test]
    fn class_columns_match_class_oracles(
        events in noisy_trace(),
        tids in prop::collection::vec(0u32..5, 0..6),
        bins in 1usize..=4096,
        pct in 0.0f64..=100.0,
    ) {
        let end = events.last().map(|e| e.t + Nanos(10)).unwrap_or(Nanos(100));
        let trace = Trace::new(events, vec![]);
        let analysis = NoiseAnalysis::analyze(&trace, &three_tasks(), end);
        let tids: Vec<Tid> = tids.into_iter().map(Tid).collect();
        let columns = ClassColumns::build(&analysis, &tids);
        let mut per_class = Vec::new();
        for class in EventClass::ALL {
            let (stats, histogram) = class_histogram(&analysis, &tids, class, bins, pct);
            prop_assert_eq!(stats, class_stats(&analysis, &tids, class));
            prop_assert_eq!(columns.stats(class), stats, "{:?}", class);
            prop_assert_eq!(columns.histogram(class, bins, pct), histogram, "{:?}", class);
            per_class.push((class, stats));
        }
        prop_assert_eq!(columns.breakdown(), Breakdown::compute(&analysis, &tids));
        prop_assert_eq!(
            NoiseSignature::from_stats(columns.all_stats()),
            NoiseSignature::from_stats(per_class)
        );
    }
}

/// The app task `t1` and a daemon `t2` on one CPU.
fn app_and_daemon() -> Vec<TaskMeta> {
    let mut tasks = three_tasks();
    tasks.truncate(2);
    tasks[1].kind = "events".into();
    tasks
}

fn event(t: u64, tid: u32, kind: EventKind) -> Event {
    Event {
        t: Nanos(t),
        cpu: CpuId(0),
        tid: Tid(tid),
        kind,
    }
}

fn switch(t: u64, prev: u32, state: SwitchState, next: u32) -> Event {
    event(
        t,
        prev,
        EventKind::SchedSwitch {
            prev: Tid(prev),
            prev_state: state,
            next: Tid(next),
        },
    )
}

/// The arena slices of `t1`'s interruptions, from the engine at every
/// worker budget, checked against the reference engine's.
fn arena_slices(events: Vec<Event>, end: u64) -> Vec<(Nanos, Vec<(Component, Nanos)>)> {
    let trace = Trace::new(events, vec![]);
    let tasks = app_and_daemon();
    let reference = NoiseAnalysis::analyze_reference(&trace, &tasks, Nanos(end));
    let rn = &reference.tasks[&Tid(1)];
    let want: Vec<(Nanos, Vec<(Component, Nanos)>)> = rn
        .interruptions
        .iter()
        .map(|i| (i.duration(), rn.components(i).to_vec()))
        .collect();
    for workers in 1..=4 {
        let engine = NoiseAnalysis::analyze_with_workers(&trace, &tasks, Nanos(end), workers);
        let tn = &engine.tasks[&Tid(1)];
        let got: Vec<(Nanos, Vec<(Component, Nanos)>)> = tn
            .interruptions
            .iter()
            .map(|i| (i.duration(), tn.components(i).to_vec()))
            .collect();
        assert_eq!(got, want, "{workers} workers");
    }
    want
}

/// Frames of zero self time leave their interruption with an empty
/// slice: one zero-width tick alone, and two back to back that merge
/// into one interruption.
#[test]
fn zero_self_time_components_leave_an_empty_slice() {
    let timer = Activity::TimerInterrupt;
    let events = vec![
        switch(0, 0, SwitchState::Preempted, 1),
        event(10, 1, EventKind::KernelEnter(timer)),
        event(10, 1, EventKind::KernelExit(timer)),
        event(50, 1, EventKind::KernelEnter(timer)),
        event(50, 1, EventKind::KernelExit(timer)),
        event(50, 1, EventKind::KernelEnter(timer)),
        event(50, 1, EventKind::KernelExit(timer)),
    ];
    let slices = arena_slices(events, 100);
    assert_eq!(slices.len(), 2);
    for (duration, components) in slices {
        assert_eq!(duration, Nanos::ZERO);
        assert!(components.is_empty(), "{components:?}");
    }
}

/// An interruption that is only a Ready gap: the app is preempted by
/// the daemon on a CPU that records no kernel frame at all, so its one
/// component is the preemption, attributed to the daemon.
#[test]
fn ready_gap_only_interruption_is_one_preemption() {
    let events = vec![
        switch(0, 0, SwitchState::Preempted, 1),
        switch(100, 1, SwitchState::Preempted, 2),
        switch(300, 2, SwitchState::BlockedWait, 1),
    ];
    let slices = arena_slices(events, 400);
    assert_eq!(
        slices,
        vec![(
            Nanos(200),
            vec![(Component::Preemption { by: Tid(2) }, Nanos(200))]
        )]
    );
}
