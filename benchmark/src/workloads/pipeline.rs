//! The record → analyze pipeline, as the offline and serve workloads
//! drive it: the public one-call paths for untraced runs, and the same
//! work rebuilt from the layers' public calls for traced runs, so each
//! layer gets its own span.

use std::io;
use std::path::{Path, PathBuf};

use osn_core::analysis::nesting::merge_shards;
use osn_core::analysis::timeline::build_timelines_events;
use osn_core::analysis::{ColumnPairing, NoiseAnalysis};
use osn_core::kernel::hooks::NullProbe;
use osn_core::kernel::ids::{CpuId, JobId};
use osn_core::kernel::node::Node;
use osn_core::trace::columns::code;
use osn_core::trace::{merge_streams, EventMask, TraceSession};
use osn_core::workloads::App;
use osn_core::{run_app, AppReport, ExperimentConfig, PaperReport, StoredRunMeta};
use osn_store::{write_store, StoreOptions, StoreReader};

use crate::check::Tally;
use crate::spans::Spans;
use crate::workloads::Ctx;

/// One store of a workload's input set.
#[derive(Clone, Debug)]
pub struct StoreInput {
    pub config: ExperimentConfig,
    pub path: PathBuf,
}

/// `per_app` stores of each app in `apps`, seeds derived from the run
/// seed under `label`, named so file order is input order.
pub fn store_inputs(
    ctx: &Ctx,
    label: &str,
    apps: &[App],
    per_app: usize,
    dir: &Path,
) -> Vec<StoreInput> {
    let mut inputs = Vec::new();
    for &app in apps {
        for _ in 0..per_app {
            let k = inputs.len();
            let config = ExperimentConfig::paper(app, ctx.sizes.store_sim)
                .with_seed(ctx.derive(label, k as u64));
            let path = dir.join(format!("{k:02}-{}.osn", app.name()));
            inputs.push(StoreInput { config, path });
        }
    }
    inputs
}

/// The bytes `osnoise analyze --json` writes and the catalog serves
/// for one run.
pub fn report_bytes(report: AppReport) -> Vec<u8> {
    serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).expect("report serializes")
}

/// The report through the in-memory path (`run_app`): the oracle the
/// store paths must match byte for byte.
pub fn in_memory_report(config: &ExperimentConfig) -> Vec<u8> {
    let run = run_app(config.clone());
    report_bytes(AppReport::from_analysis(
        config.app,
        &run.ranks,
        config.node.net_irq_cpu,
        &run.analysis,
    ))
}

/// The report through the one-call out-of-core path.
pub fn streamed_report(path: &Path) -> io::Result<Vec<u8>> {
    osn_core::streamed_report(path).map(|(report, _)| report_bytes(report))
}

fn node_for(config: &ExperimentConfig) -> (Node, JobId) {
    let mut node = Node::new(config.node.clone());
    let job = node.spawn_job(
        config.app.name(),
        osn_core::workloads::ranks(config.app, config.nranks, config.duration),
    );
    for (i, helper) in osn_core::workloads::helpers(config.app, config.duration)
        .into_iter()
        .enumerate()
    {
        node.spawn_process(&format!("python.{i}"), helper);
    }
    (node, job)
}

/// Counts from one traced record.
pub struct Recorded {
    pub loop_events: u64,
    pub events: u64,
    pub bytes: u64,
}

/// `record_app` rebuilt from the layers' calls: the kernel alone (a
/// `NullProbe` run), the kernel under the tracer, the drain, and the
/// store write. Both kernel runs must end at the same simulated time
/// after the same number of loop events, and the rings must lose
/// nothing.
pub fn traced_record(
    input: &StoreInput,
    spans: &mut Spans,
    tally: &mut Tally,
) -> io::Result<Recorded> {
    let config = &input.config;
    spans.begin("kernel.run");
    let (mut node, _) = node_for(config);
    let bare = node.run(&mut NullProbe);
    spans.end();

    spans.begin("trace.traced_run");
    let (mut node, job) = node_for(config);
    let (session, mut tracer) = TraceSession::new(
        config.node.cpus as usize,
        config.ring_capacity,
        EventMask::ALL,
    );
    let result = node.run(&mut tracer);
    spans.end();
    let trace = spans.time("trace.stop", || session.stop());

    let name = input.path.display();
    tally.check(
        bare.end_time == result.end_time && bare.stats.loop_events == result.stats.loop_events,
        || format!("{name}: the NullProbe and traced kernel runs diverge"),
    );
    tally.check(trace.total_lost() == 0, || {
        format!("{name}: {} events lost", trace.total_lost())
    });
    let loop_events = result.stats.loop_events;
    let meta = StoredRunMeta {
        config: config.clone(),
        ranks: result.job_ranks(job),
        result,
        source: None,
    };
    let summary = spans.time("store.write", || {
        write_store(
            &input.path,
            &trace,
            &meta.to_bytes(),
            StoreOptions::default(),
        )
    })?;
    Ok(Recorded {
        loop_events,
        events: trace.len() as u64,
        bytes: summary.bytes,
    })
}

/// Counts from one serial analysis.
pub struct Analyzed {
    pub bytes: Vec<u8>,
    pub chunks_decoded: usize,
    pub instances: usize,
}

/// `streamed_report` rebuilt serially from the layers' calls: open,
/// per-CPU chunk decode, pairing and scheduler-event extraction, shard
/// merge, timelines, task analysis, report build and JSON. The result
/// must be byte-identical to the one-call path, which runs the same
/// steps on worker threads.
pub fn serial_report(path: &Path, spans: &mut Spans) -> io::Result<Analyzed> {
    spans.begin("store.open");
    let opened = StoreReader::open(path)
        .map_err(io::Error::from)
        .and_then(|reader| {
            let meta = StoredRunMeta::from_bytes(reader.metadata())?;
            Ok((reader, meta))
        });
    spans.end();
    let (reader, meta) = opened?;

    let mut shards = Vec::with_capacity(reader.ncpus());
    let mut sched_streams = Vec::with_capacity(reader.ncpus());
    for c in 0..reader.ncpus() {
        let mut pairing = ColumnPairing::new();
        let mut sched = Vec::new();
        let mut cursor = reader.column_chunks(CpuId(c as u16));
        loop {
            spans.begin("store.decode");
            let block = cursor.next_chunk();
            spans.end();
            let Some(block) = block else { break };
            let cols = block?;
            spans.time("analysis.pairing", || pairing.feed_columns(cols));
            spans.time("analysis.timelines", || {
                for i in 0..cols.len() {
                    if cols.code[i] == code::SWITCH || cols.code[i] == code::WAKEUP {
                        sched.push(cols.event(i));
                    }
                }
            });
        }
        shards.push(spans.time("analysis.pairing", || pairing.finish()));
        sched_streams.push(sched);
    }
    let ((instances, nesting), sched) = spans.time("analysis.merge", || {
        (merge_shards(shards), merge_streams(sched_streams))
    });
    let (tasks, end) = (&meta.result.tasks, meta.result.end_time);
    let timelines = spans.time("analysis.timelines", || {
        build_timelines_events(&sched, tasks, end, 1)
    });
    let count = instances.len();
    let analysis = spans.time("analysis.tasks", || {
        NoiseAnalysis::from_parts(instances, nesting, timelines, tasks, end, 1)
    });
    let report = spans.time("core.report_build", || {
        AppReport::from_analysis(
            meta.config.app,
            &meta.ranks,
            meta.config.node.net_irq_cpu,
            &analysis,
        )
    });
    let bytes = spans.time("core.json", || report_bytes(report));

    let stats = reader.stats();
    if stats.decode_errors > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} chunk(s) failed to decode", stats.decode_errors),
        ));
    }
    Ok(Analyzed {
        bytes,
        chunks_decoded: stats.decoded,
        instances: count,
    })
}
