//! Differential test for the on-disk store: persisting a real two-app
//! campaign and re-analyzing it *out of core* (per-CPU chunk streams,
//! at most one decoded chunk resident per CPU) must produce a
//! byte-identical `PaperReport` to the in-memory pipeline — and the
//! reader's chunk accounting must prove the memory bound held.

use osn_core::campaign::{run_campaign, CampaignConfig};
use osn_core::report::{AppReport, PaperReport};
use osn_core::store::{self, Options};
use osn_kernel::time::Nanos;
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
        assert_eq!(trace.events, run.trace.events, "{}: events", run.app.name());
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
        let meta = osn_core::StoredRunMeta::from_bytes(reader.metadata()).unwrap();
        let streamed = store::analyze_store(&reader, &meta.result).unwrap();

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

    // The one-call campaign paths agree too (file-name order is app
    // order here: amg < sphot alphabetically, so reorder in-memory).
    let report = store::streamed_campaign_report(&dir).unwrap();
    let mut sorted: Vec<AppReport> = in_memory.apps.clone();
    sorted.sort_by_key(|a| a.app.name());
    assert_eq!(
        serde_json::to_string(&report.apps).unwrap(),
        serde_json::to_string(&sorted).unwrap(),
    );
    let reloaded = store::load_campaign(&dir).unwrap();
    assert_eq!(reloaded.len(), runs.len());
    for run in &reloaded {
        assert!(!run.trace.is_empty());
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
    let in_memory = serde_json::to_string(&AppReport::build_with(run, &run.analysis)).unwrap();
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
        let meta = osn_core::StoredRunMeta::from_bytes(reader.metadata()).unwrap();
        let streamed = store::analyze_store(&reader, &meta.result).unwrap();
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
