//! `offline`: record, then analyze, each of 10 stores (the five Sequoia
//! apps × 2 seeds, 8 CPUs) from one thread. This is the paper's path
//! from trace to per-event analysis; no HTTP and no procfs take part.
//! One op is one pass over the 10 stores, so every op times the same
//! mix of apps. Per-layer metrics are per store.

use std::time::Instant;

use osn_core::workloads::App;
use osn_store::StoreOptions;

use crate::spans::{Profile, Spans};
use crate::workloads::pipeline::{
    in_memory_report, serial_report, store_inputs, streamed_report, traced_record,
};
use crate::workloads::{timed, Ctx, Measured};

/// Spans whose self time per op is reported under `<name>_ms`.
const LAYERS: [(&str, &str); 13] = [
    ("kernel.run", "kernel.run_ms"),
    ("trace.traced_run", "trace.traced_run_ms"),
    ("trace.stop", "trace.stop_ms"),
    ("store.write", "store.write_ms"),
    ("store.open", "store.open_ms"),
    ("store.decode", "store.decode_ms"),
    ("analysis.pairing", "analysis.pairing_ms"),
    ("analysis.merge", "analysis.merge_ms"),
    ("analysis.timelines", "analysis.timelines_ms"),
    ("analysis.tasks", "analysis.tasks_ms"),
    ("core.report_build", "core.report_build_ms"),
    ("core.json", "core.json_ms"),
    ("offline.store", "offline.unattributed_ms"),
];

pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let inputs = store_inputs(ctx, "offline", &App::ALL, 2, &ctx.dir);

    // Set-up: the in-memory oracle every recorded store must match.
    let mut refs: Option<Vec<Vec<u8>>> = None;
    for _ in 0..ctx.setups() {
        let (s, built) = timed(|| {
            inputs
                .iter()
                .map(|i| in_memory_report(&i.config))
                .collect::<Vec<_>>()
        });
        m.setup_s.push(s);
        match &refs {
            Some(first) => {
                for ((got, want), input) in built.iter().zip(first).zip(&inputs) {
                    let what = format!("{}: in-memory report across set-ups", input.path.display());
                    m.tally.same_bytes(got, want, &what);
                }
            }
            None => refs = Some(built),
        }
    }
    let refs = refs.expect("at least one set-up");
    let (untraced, traced) = ctx.phases();

    let (mut record_s, mut analyze_s, mut events) = (0.0f64, 0.0f64, 0u64);
    let start = Instant::now();
    while m.op_ms.is_empty() || start.elapsed() < untraced {
        let mut pass_s = 0.0;
        for (input, want) in inputs.iter().zip(&refs) {
            let name = input.path.display();
            let (rs, recorded) = timed(|| {
                osn_core::record_app(input.config.clone(), &input.path, StoreOptions::default())
            });
            let (an, report) = timed(|| streamed_report(&input.path));
            pass_s += rs + an;
            match (recorded, report) {
                (Ok((_, summary)), Ok(bytes)) => {
                    m.tally
                        .same_bytes(&bytes, want, &format!("{name}: streamed report"));
                    events += summary.events;
                    record_s += rs;
                    analyze_s += an;
                }
                (Err(e), _) | (_, Err(e)) => {
                    m.tally.check(false, || format!("{name}: {e}"));
                }
            }
        }
        m.op_ms.push(pass_s * 1e3);
    }
    let stores = (m.op_ms.len() * inputs.len()) as f64;
    m.detail = vec![
        (
            "stores_per_s".into(),
            stores / start.elapsed().as_secs_f64(),
        ),
        ("record_events_per_s".into(), events as f64 / record_s),
        ("analyze_events_per_s".into(), events as f64 / analyze_s),
    ];

    if let Some(traced) = traced {
        run_traced(ctx, &inputs, &refs, traced, &mut m);
    }
    m
}

/// Each store rebuilt serially with a span around every layer call; the
/// report must equal the oracle byte for byte.
fn run_traced(
    ctx: &Ctx,
    inputs: &[crate::workloads::pipeline::StoreInput],
    refs: &[Vec<u8>],
    phase: std::time::Duration,
    m: &mut Measured,
) {
    let mut spans = Spans::new(true, ctx.origin, 0);
    let (mut loop_events, mut events, mut bytes) = (0u64, 0u64, 0u64);
    let (mut chunks, mut instances, mut ops) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    while ops == 0 || start.elapsed() < phase {
        let mut pass_ms = 0.0;
        for (input, want) in inputs.iter().zip(refs) {
            let name = input.path.display();
            spans.next_op();
            let t0 = Instant::now();
            spans.begin("offline.store");
            let done = traced_record(input, &mut spans, &mut m.tally)
                .and_then(|r| serial_report(&input.path, &mut spans).map(|a| (r, a)));
            spans.end();
            pass_ms += t0.elapsed().as_secs_f64() * 1e3;
            match done {
                Ok((r, a)) => {
                    m.tally
                        .same_bytes(&a.bytes, want, &format!("{name}: serial rebuild"));
                    loop_events += r.loop_events;
                    events += r.events;
                    bytes += r.bytes;
                    chunks += a.chunks_decoded;
                    instances += a.instances;
                    ops += 1;
                }
                Err(e) => {
                    m.tally.check(false, || format!("{name}: {e}"));
                }
            }
        }
        m.traced_op_ms.push(pass_ms);
    }
    let spans = spans.finish();
    let p = Profile::new(&spans);
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    m.per_layer = LAYERS
        .iter()
        .map(|&(span, metric)| (metric, p.self_ms_per_op(span, ops)))
        .collect();
    m.per_layer.extend([
        ("kernel.loop_events", per_op(loop_events)),
        ("trace.events", per_op(events)),
        (
            "store.write_mb_per_s",
            bytes as f64 / (1 << 20) as f64 / (p.total_ms("store.write") / 1e3),
        ),
        ("store.chunks_decoded", per_op(chunks as u64)),
        ("analysis.instances", per_op(instances as u64)),
    ]);
    m.spans = spans;
}
