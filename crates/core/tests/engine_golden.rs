//! Golden pins for the kernel engine's output.
//!
//! The engine's dispatch order decides every byte downstream: which
//! event runs first at a tie, and so in which order the cost-model
//! streams are drawn. These constants were computed before the event
//! loop lost its timer wheel and its stale `Advance` events, and must
//! hold unchanged across any rework of the loop. Per run they pin:
//!
//! - the in-memory trace's wire records (`pack_record` over
//!   `trace.events()`);
//! - the pretty `PaperReport` bytes;
//! - `end_time`, the task table, and every `NodeStats` field except the
//!   two loop counters (`loop_events`, `stale_advances`), which count
//!   the loop's own work rather than the simulated node's.
//!
//! All hashes are FNV-1a 64.

use osn_core::cluster::ClusterConfig;
use osn_core::experiment::{run_app, AppRun, ExperimentConfig};
use osn_core::report::PaperReport;
use osn_kernel::time::Nanos;
use osn_trace::wire::{fnv1a64, fnv1a64_update, pack_record, FNV1A64_OFFSET};
use osn_workloads::App;

/// `(trace records, pretty report, end time + tasks + stats)`.
type Pins = (u64, u64, u64);

fn pins(run: AppRun) -> Pins {
    let mut records = FNV1A64_OFFSET;
    for e in run.trace.events() {
        let (code, tid, a, b) = pack_record(&e);
        records = fnv1a64_update(records, &e.t.as_nanos().to_le_bytes());
        records = fnv1a64_update(records, &e.cpu.0.to_le_bytes());
        records = fnv1a64_update(records, &code.to_le_bytes());
        records = fnv1a64_update(records, &tid.to_le_bytes());
        records = fnv1a64_update(records, &a.to_le_bytes());
        records = fnv1a64_update(records, &b.to_le_bytes());
    }
    let result = &run.result;
    let s = &result.stats;
    let stats = [
        ("ticks", s.ticks),
        ("faults", s.faults),
        ("softirqs", s.softirqs),
        ("switches", s.switches),
        ("wakeups", s.wakeups),
        ("migrations", s.migrations),
        ("rpcs_completed", s.rpcs_completed),
        ("hrtimer_irqs", s.hrtimer_irqs),
        ("net_irqs", s.net_irqs),
        ("syscalls", s.syscalls),
        ("events_processed", s.events_processed),
    ];
    let mut state = format!("end_time={}\n", result.end_time.as_nanos());
    for (name, v) in stats {
        state.push_str(&format!("{name}={v}\n"));
    }
    state.push_str(&serde_json::to_string(&result.tasks).expect("task table serializes"));
    let report = PaperReport::build(std::slice::from_ref(&run));
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    (
        records,
        fnv1a64(pretty.as_bytes()),
        fnv1a64(state.as_bytes()),
    )
}

fn check(label: &str, config: ExperimentConfig, want: Pins) {
    let got = pins(run_app(config));
    assert_eq!(
        got, want,
        "{label}: engine output moved (got {:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
}

fn paper(app: App, want: Pins) {
    check(
        app.name(),
        ExperimentConfig::paper(app, Nanos::from_secs(2)),
        want,
    );
}

#[test]
fn amg_engine_output_is_pinned() {
    paper(
        App::Amg,
        (0x7a25a5ee126ca82f, 0xfe2df4944ec8d1ae, 0x4d9dbcea6a872cd0),
    );
}

#[test]
fn irs_engine_output_is_pinned() {
    paper(
        App::Irs,
        (0x23cff29ac58df513, 0x306656a57cc021dc, 0x05da189a7eb9f1e2),
    );
}

#[test]
fn lammps_engine_output_is_pinned() {
    paper(
        App::Lammps,
        (0x768288cc3bae761d, 0x380252f4b0f4df28, 0x4f1c3fa128673c8c),
    );
}

#[test]
fn sphot_engine_output_is_pinned() {
    paper(
        App::Sphot,
        (0x2769fd1769d4852f, 0xc58840f052e015a6, 0x0885a0eef2260b39),
    );
}

#[test]
fn umt_engine_output_is_pinned() {
    paper(
        App::Umt,
        (0xe6aaa10d9e1bcaf1, 0xeacd908d096681bd, 0x1b7111d102999147),
    );
}

/// One node of the `cluster` benchmark's mechanistic sample: UMT on 2
/// CPUs for 600 ms, at its derived per-node seed.
#[test]
fn cluster_sample_node_output_is_pinned() {
    let mut cluster = ClusterConfig::new(App::Umt, 10_000, Nanos::from_millis(600));
    cluster.cpus = Some(2);
    check(
        "umt cluster node 7",
        cluster.node_experiment(7),
        (0x8a693db1f40aa0c9, 0x67ace15eacd1af34, 0xbf047ee02be27de6),
    );
}
