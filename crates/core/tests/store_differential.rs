//! Differential test for the on-disk store: persisting a real two-app
//! campaign and re-analyzing it *out of core* (per-CPU chunk streams,
//! at most one decoded chunk resident per CPU) must produce a
//! byte-identical `PaperReport` to the in-memory pipeline — and the
//! reader's chunk accounting must prove the memory bound held. A
//! property test extends the identity to arbitrary, malformed per-CPU
//! streams.

use proptest::prelude::*;

use osn_core::analysis::NoiseAnalysis;
use osn_core::campaign::{run_campaign, CampaignConfig};
use osn_core::report::{AppReport, PaperReport};
use osn_core::store::{self, format::writer::write_store, Options};
use osn_core::{ExperimentConfig, StoredRunMeta};
use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::node::{NodeStats, RunResult};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_trace::{Event, EventKind, Trace};
use osn_workloads::App;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-store-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn streamed_analysis_matches_in_memory() {
    let config = CampaignConfig {
        apps: vec![App::Sphot, App::Amg],
        duration: Nanos::from_millis(250),
        seed: 0x0511_2011,
        nranks: Some(4),
        cpus: Some(4),
    };
    let runs = run_campaign(&config);
    let dir = tmpdir("campaign");

    // Small chunks so the trace is *much* larger than the reader's
    // per-CPU residency bound: many chunks per CPU, not one.
    let opts = Options::default().with_chunk_capacity(64);
    let paths = store::persist_campaign(&runs, &dir, opts).unwrap();
    assert_eq!(paths.len(), runs.len());

    let mut streamed_apps = Vec::new();
    for (run, path) in runs.iter().zip(&paths) {
        // Full materialization is byte-identical to the original trace.
        let reader = store::Reader::open(path).unwrap();
        let trace = reader.read_trace().unwrap();
        assert_eq!(
            trace.events(),
            run.trace.events(),
            "{}: events",
            run.app.name()
        );
        assert_eq!(trace.lost, run.trace.lost, "{}: lost", run.app.name());

        // Out-of-core path: fresh reader so the chunk gauge is clean.
        let reader = store::Reader::open(path).unwrap();
        let ncpus = reader.ncpus();
        let total_chunks = reader.chunks().len();
        assert!(
            total_chunks > 2 * ncpus,
            "{}: only {total_chunks} chunks for {ncpus} cpus — trace too small to prove the bound",
            run.app.name()
        );
        let (meta, streamed) = store::analyze_store(&reader).unwrap();

        // Memory bound: every chunk was visited, but never more than
        // one per CPU was decoded at once.
        let stats = reader.stats();
        assert_eq!(stats.resident, 0, "{}: chunks leaked", run.app.name());
        assert!(
            stats.peak_resident <= ncpus,
            "{}: peak {} resident chunks exceeds the {} per-CPU bound",
            run.app.name(),
            stats.peak_resident,
            ncpus
        );
        assert!(
            stats.decoded >= total_chunks,
            "{}: decoded {} < {} chunks",
            run.app.name(),
            stats.decoded,
            total_chunks
        );
        assert_eq!(stats.decode_errors, 0);

        // Every intermediate layer matches the in-memory analysis.
        assert_eq!(
            streamed.instances,
            run.analysis.instances,
            "{}: instance lists differ",
            run.app.name()
        );
        assert_eq!(streamed.nesting_report, run.analysis.nesting_report);
        assert_eq!(streamed.tasks.len(), run.analysis.tasks.len());
        for (tid, tn) in &streamed.tasks {
            let rn = &run.analysis.tasks[tid];
            assert_eq!(
                tn.interruptions,
                rn.interruptions,
                "{}: interruptions of {tid} differ",
                run.app.name()
            );
            assert_eq!(tn.runnable_time, rn.runnable_time);
            assert_eq!(tn.running_time, rn.running_time);
            assert_eq!(tn.wall, rn.wall);
        }

        streamed_apps.push(AppReport::from_analysis(
            meta.config.app,
            &meta.ranks,
            meta.config.node.net_irq_cpu,
            &streamed,
        ));
    }

    // End to end: the streamed report equals the in-memory report,
    // byte for byte, through serialization.
    let in_memory = PaperReport::build(&runs);
    let streamed = PaperReport {
        apps: streamed_apps,
    };
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&in_memory).unwrap(),
        "paper reports differ"
    );

    // The one-call per-file paths agree too, over the directory walk
    // (path order is app order here: amg < sphot alphabetically, so
    // reorder in-memory).
    let mut found = store::osn_files(&dir).unwrap();
    found.sort();
    let report: Vec<AppReport> = found
        .iter()
        .map(|p| store::streamed_report(p).unwrap().0)
        .collect();
    let mut sorted: Vec<AppReport> = in_memory.apps.clone();
    sorted.sort_by_key(|a| a.app.name());
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&sorted).unwrap(),
    );
    assert_eq!(found.len(), runs.len());
    for path in &found {
        assert!(!store::load_run(path).unwrap().trace.is_empty());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-identity must not depend on how the stream is cut into chunks.
/// Capacity 1 puts every event in its own chunk (maximal pairing
/// resumption across chunk boundaries), 2 exercises odd/even splits of
/// enter/exit pairs, 63 lands chunk cuts at arbitrary offsets inside
/// nests, and 4096 (the default) and 65536 cover large chunks. All
/// must serialize to the same report as the in-memory path — and as
/// each other.
#[test]
fn chunk_capacity_does_not_change_the_report() {
    let config = CampaignConfig {
        apps: vec![App::Sphot],
        duration: Nanos::from_millis(120),
        seed: 0x0511_2011,
        nranks: Some(2),
        cpus: Some(2),
    };
    let runs = run_campaign(&config);
    let run = &runs[0];
    let in_memory = serde_json::to_string(&AppReport::build(run)).unwrap();
    let dir = tmpdir("capacity");

    for capacity in [1usize, 2, 63, 4096, 65536] {
        let path = dir.join(format!("sphot-{capacity}.osn"));
        let opts = Options::default().with_chunk_capacity(capacity);
        store::persist_run(run, &path, opts).unwrap();

        let reader = store::Reader::open(&path).unwrap();
        assert!(
            reader.chunks().len() as u64 >= reader.events() / capacity as u64,
            "capacity {capacity}: chunking did not take effect"
        );
        let (meta, streamed) = store::analyze_store(&reader).unwrap();
        assert_eq!(reader.stats().decode_errors, 0);
        let report = AppReport::from_analysis(
            meta.config.app,
            &meta.ranks,
            meta.config.node.net_irq_cpu,
            &streamed,
        );
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            in_memory,
            "capacity {capacity}: streamed report differs from in-memory"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// One record of an arbitrary per-CPU stream: a kernel enter or exit
/// of one of three activities (so exits often mismatch or orphan and
/// enters often stay open), a context switch, or a wakeup.
fn record() -> impl Strategy<Value = (u64, u8, u8, u32, u32)> {
    (0u64..4, 0u8..4, 0u8..3, 0u32..5, 0u32..5)
}

const ACTIVITIES: [Activity; 3] = [
    Activity::TimerInterrupt,
    Activity::Softirq(osn_kernel::activity::SoftirqVec::Timer),
    Activity::PageFault(osn_kernel::activity::FaultKind::AnonZero),
];

/// Turn records into one CPU's stream. Timestamp steps of 0..4 make
/// equal-timestamp runs common.
fn cpu_stream(cpu: u16, records: Vec<(u64, u8, u8, u32, u32)>) -> Vec<Event> {
    let mut t = 0u64;
    records
        .into_iter()
        .map(|(dt, op, sel, x, y)| {
            t += dt;
            let kind = match op {
                0 => EventKind::KernelEnter(ACTIVITIES[sel as usize]),
                1 => EventKind::KernelExit(ACTIVITIES[sel as usize]),
                2 => EventKind::SchedSwitch {
                    prev: Tid(x),
                    prev_state: SwitchState::from_code(u16::from(sel) + y as u16 % 3)
                        .expect("codes 0..5 valid"),
                    next: Tid(y),
                },
                _ => EventKind::Wakeup {
                    tid: Tid(x),
                    waker: Tid(y),
                },
            };
            Event {
                t: Nanos(t),
                cpu: CpuId(cpu),
                tid: Tid(x),
                kind,
            }
        })
        .collect()
}

/// Two application ranks, a kernel daemon, and a task that never
/// appears in the streams.
fn tasks() -> Vec<TaskMeta> {
    [(1, "app"), (2, "app"), (3, "events"), (4, "app")]
        .into_iter()
        .map(|(tid, kind)| TaskMeta {
            tid: Tid(tid),
            name: format!("t{tid}"),
            kind: kind.into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        })
        .collect()
}

fn assert_same(a: &NoiseAnalysis, b: &NoiseAnalysis, what: &str) {
    assert_eq!(a.instances, b.instances, "{what}: instances");
    assert_eq!(a.nesting_report, b.nesting_report, "{what}: nesting");
    assert_eq!(a.timelines.len(), b.timelines.len(), "{what}: timelines");
    for (tid, tl) in a.timelines.iter() {
        let other = b.timelines.get(*tid).expect("same task set");
        assert_eq!(tl.spans, other.spans, "{what}: timeline of {tid:?}");
    }
    assert_eq!(a.tasks.len(), b.tasks.len(), "{what}: tasks");
    for (tid, tn) in &a.tasks {
        let other = &b.tasks[tid];
        assert_eq!(tn.interruptions, other.interruptions, "{what}: {tid:?}");
        assert_eq!(tn.runnable_time, other.runnable_time, "{what}: {tid:?}");
        assert_eq!(tn.running_time, other.running_time, "{what}: {tid:?}");
        assert_eq!(tn.wall, other.wall, "{what}: {tid:?}");
    }
}

proptest! {
    /// The store path is the in-memory path for any stream and any
    /// chunking: orphan and mismatched exits, unclosed enters,
    /// equal-timestamp runs and scheduler records cut into chunks of
    /// 1..=16 records analyze exactly like the materialized trace,
    /// under every worker budget and under the sequential reference.
    #[test]
    fn store_analysis_matches_in_memory_on_arbitrary_streams(
        cpus in prop::collection::vec(prop::collection::vec(record(), 0..60), 1..4),
        capacity in 1usize..=16,
    ) {
        let ncpus = cpus.len();
        let mut events: Vec<Event> = cpus
            .into_iter()
            .enumerate()
            .flat_map(|(cpu, records)| cpu_stream(cpu as u16, records))
            .collect();
        events.sort_by_key(|e| e.key());
        let end = events.last().map_or(Nanos(100), |e| e.t + Nanos(10));
        let trace = Trace::new(events, vec![0; ncpus]);
        let tasks = tasks();
        let meta = StoredRunMeta {
            config: ExperimentConfig::paper(App::Sphot, end),
            result: RunResult {
                end_time: end,
                tasks: tasks.clone(),
                stats: NodeStats::default(),
            },
            ranks: vec![Tid(1), Tid(2)],
            source: None,
        };
        let path = std::env::temp_dir().join(format!("osn-store-prop-{}.osn", std::process::id()));
        let opts = Options::default().with_chunk_capacity(capacity);
        write_store(&path, &trace, &meta.to_bytes(), opts).unwrap();
        let reader = store::Reader::open(&path).unwrap();
        let (_, streamed) = store::analyze_store(&reader).unwrap();
        let _ = std::fs::remove_file(&path);

        for workers in 1..4 {
            let engine = NoiseAnalysis::analyze_with_workers(&trace, &tasks, end, workers);
            assert_same(&streamed, &engine, &format!("capacity {capacity}, workers {workers}"));
        }
        let reference = NoiseAnalysis::analyze_reference(&trace, &tasks, end);
        assert_same(&streamed, &reference, &format!("capacity {capacity}, reference"));
    }
}
