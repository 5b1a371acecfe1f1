//! The analysis keeps its working buffers on the calling thread from
//! one call to the next. These tests analyze a sequence of unlike
//! inputs on one thread — a 2-CPU cluster node, an
//! 8-CPU AMG store, an empty trace, a store recovered from a corrupt
//! chunk, and the node again — and compare every result with a fresh
//! analysis of the same input on a new thread, whose buffers start
//! empty: state that leaks from one call into the next shows up as a
//! difference in the report bytes or the noise chart. The sequence
//! also runs in reverse, at one worker (every stage inline on the
//! calling thread) and at two.

use std::path::{Path, PathBuf};

use osn_core::analysis::{NoiseAnalysis, NoiseChart};
use osn_core::cluster::ClusterConfig;
use osn_core::report::{AppReport, PaperReport};
use osn_core::store::format::StoreError;
use osn_core::store::format::CHUNK_HEADER_BYTES;
use osn_core::store::{record_app, Options, Reader};
use osn_core::{run_app, AppRun, ExperimentConfig, StoredRunMeta};
use osn_kernel::ids::CpuId;
use osn_kernel::time::Nanos;
use osn_trace::Trace;
use osn_workloads::App;

enum Input {
    /// An in-memory run: the trace as the cluster engine analyzes it.
    Run(AppRun),
    /// The run's task table and end time over a trace with no events.
    Empty(AppRun),
    /// A healthy store, opened strictly.
    Store(PathBuf),
    /// A damaged store, opened through recovery.
    Recovered(PathBuf),
}

/// The paper report's bytes and the observed rank's noise chart.
type Outcome = (Vec<u8>, NoiseChart);

fn outcome(
    analysis: &NoiseAnalysis,
    config: &ExperimentConfig,
    ranks: &[osn_kernel::ids::Tid],
) -> Outcome {
    let report = AppReport::from_analysis(config.app, ranks, config.node.net_irq_cpu, analysis);
    let bytes =
        serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).expect("report serializes");
    let chart = NoiseChart::build(
        analysis,
        ranks.first().copied().unwrap_or(osn_kernel::ids::Tid::IDLE),
    );
    (bytes, chart)
}

/// `analyze_store` with an explicit worker count.
fn analyze_reader(reader: &Reader, workers: usize) -> Outcome {
    let meta = StoredRunMeta::from_bytes(reader.metadata()).expect("metadata");
    let (tasks, end) = (&meta.result.tasks, meta.result.end_time);
    let analysis =
        NoiseAnalysis::from_cpu_blocks(reader.ncpus(), tasks, end, workers, |cpu: CpuId, feed| {
            let mut cursor = reader.column_chunks(cpu);
            while let Some(block) = cursor.next_chunk() {
                feed(block?);
            }
            Ok::<(), StoreError>(())
        })
        .expect("intact chunks decode");
    outcome(&analysis, &meta.config, &meta.ranks)
}

fn analyze(input: &Input, workers: usize) -> Outcome {
    match input {
        Input::Run(run) => {
            let analysis = NoiseAnalysis::analyze_with_workers(
                &run.trace,
                &run.result.tasks,
                run.result.end_time,
                workers,
            );
            outcome(&analysis, &run.config, &run.ranks)
        }
        Input::Empty(run) => {
            let trace = Trace::new(Vec::new(), vec![0; run.trace.ncpus()]);
            let analysis = NoiseAnalysis::analyze_with_workers(
                &trace,
                &run.result.tasks,
                run.result.end_time,
                workers,
            );
            outcome(&analysis, &run.config, &run.ranks)
        }
        Input::Store(path) => analyze_reader(&Reader::open(path).expect("open"), workers),
        Input::Recovered(path) => {
            let (reader, recovery) = Reader::recover(path).expect("recover");
            assert!(!recovery.clean(), "the damaged store recovers with losses");
            analyze_reader(&reader, workers)
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-reuse-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy `healthy` to `damaged` with one payload byte of a middle chunk
/// flipped: recovery keeps the footer and drops that chunk and all
/// that follow it on its CPU.
fn corrupt_copy(healthy: &Path, damaged: &Path) {
    let chunks = Reader::open(healthy).unwrap().chunks().to_vec();
    let victim = chunks[chunks.len() / 2];
    let mut bytes = std::fs::read(healthy).unwrap();
    bytes[victim.offset as usize + CHUNK_HEADER_BYTES + 1] ^= 0x01;
    std::fs::write(damaged, &bytes).unwrap();
}

fn inputs(dir: &Path) -> Vec<(&'static str, Input)> {
    let mut cluster = ClusterConfig::new(App::Umt, 64, Nanos::from_millis(300));
    cluster.cpus = Some(2);
    let node = || run_app(cluster.node_experiment(0));

    let amg = dir.join("amg.osn");
    let config = ExperimentConfig::paper(App::Amg, Nanos::from_millis(500)).with_seed(11);
    record_app(config, &amg, Options::default()).unwrap();
    let damaged = dir.join("damaged.osn");
    let small_chunks = Options::default().with_chunk_capacity(256);
    let config = ExperimentConfig::paper(App::Sphot, Nanos::from_millis(500)).with_seed(12);
    record_app(config, &dir.join("sphot.osn"), small_chunks).unwrap();
    corrupt_copy(&dir.join("sphot.osn"), &damaged);

    vec![
        ("2-cpu node", Input::Run(node())),
        ("8-cpu amg store", Input::Store(amg)),
        ("empty trace", Input::Empty(node())),
        ("recovered store", Input::Recovered(damaged)),
        ("2-cpu node again", Input::Run(node())),
    ]
}

/// Analyze `order` on this thread, one after another, and each input
/// again on a fresh thread: the results must agree.
fn check_sequence(inputs: &[(&str, Input)], order: &[usize], workers: usize) {
    for &k in order {
        let (name, input) = &inputs[k];
        let reused = analyze(input, workers);
        let fresh = std::thread::scope(|s| s.spawn(|| analyze(input, workers)).join().unwrap());
        assert!(
            reused.0 == fresh.0,
            "{name} at {workers} worker(s): report bytes differ after reuse"
        );
        assert_eq!(
            reused.1, fresh.1,
            "{name} at {workers} worker(s): noise chart differs after reuse"
        );
    }
}

#[test]
fn reused_buffers_match_a_fresh_thread_in_both_orders() {
    let dir = tmpdir("sequence");
    let inputs = inputs(&dir);
    let forward: Vec<usize> = (0..inputs.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    for workers in [1, 2] {
        check_sequence(&inputs, &forward, workers);
        check_sequence(&inputs, &backward, workers);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
