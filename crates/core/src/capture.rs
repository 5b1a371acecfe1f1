//! Native capture → `.osn` glue: run the `osn-ftq` host recorder and
//! persist its synthesized event stream as a self-describing store the
//! unchanged `analyze`/`info`/`serve` pipeline consumes.
//!
//! The store is shaped exactly like a simulated single-CPU run:
//! per-CPU chunks through one [`StoreWriter`], a [`StoredRunMeta`] footer
//! whose task table carries the FTQ thread (kind `app`) and the
//! preemptor stand-in (kind `host`), and `source: "native"` so
//! consumers can tell a real-host capture from simulator output.

use std::io;
use std::path::Path;

use osn_ftq::capture::{
    run_capture, Capture, CaptureConfig, CaptureReport, CAPTURE_APP_TID, CAPTURE_CPU,
    CAPTURE_PREEMPTOR_TID,
};
use osn_kernel::config::NodeConfig;
use osn_kernel::node::{NodeStats, RunResult};
use osn_kernel::task::TaskMeta;
use osn_kernel::time::Nanos;
use osn_store::{StoreOptions, StoreSummary, StoreWriter};
use osn_workloads::App;

use crate::experiment::ExperimentConfig;
use crate::store::{StoredRunMeta, SOURCE_NATIVE};

/// The metadata a finished capture persists: a one-CPU "experiment"
/// whose app is [`App::Native`].
pub fn capture_meta(report: &CaptureReport, events: u64) -> StoredRunMeta {
    let node = NodeConfig {
        cpus: 1,
        cpus_per_package: 1,
        ..NodeConfig::default()
    }
    .with_horizon(report.duration);
    let config = ExperimentConfig {
        app: App::Native,
        nranks: 1,
        duration: report.duration,
        node,
        ring_capacity: 1 << 16,
    };
    let busy = report
        .duration
        .as_nanos()
        .saturating_sub(report.noise_total.as_nanos() + report.probe_overhead.as_nanos());
    let tasks = vec![
        TaskMeta {
            tid: CAPTURE_APP_TID,
            name: "ftq.0".into(),
            kind: "app".into(),
            job: None,
            rank: 0,
            user_time: Nanos(busy),
            faults: 0,
        },
        TaskMeta {
            tid: CAPTURE_PREEMPTOR_TID,
            name: "host".into(),
            kind: "host".into(),
            job: None,
            rank: 0,
            user_time: Nanos::ZERO,
            faults: 0,
        },
    ];
    let stats = NodeStats {
        ticks: report.ticks,
        net_irqs: report.interrupts,
        switches: 1 + 2 * report.preemptions,
        events_processed: events,
        ..NodeStats::default()
    };
    StoredRunMeta {
        config,
        result: RunResult {
            end_time: report.duration,
            tasks,
            stats,
        },
        ranks: vec![CAPTURE_APP_TID],
        source: Some(SOURCE_NATIVE.into()),
    }
}

/// Run a native capture and write it to `path` as a `.osn` store.
/// Returns the capture (report + raw series) alongside the persisted
/// metadata and the writer's summary.
pub fn capture_to_store(
    cfg: CaptureConfig,
    path: &Path,
    opts: StoreOptions,
) -> io::Result<(Capture, StoredRunMeta, StoreSummary)> {
    let capture = run_capture(cfg);
    write_capture(&capture, path, opts).map(|(meta, summary)| (capture, meta, summary))
}

/// Persist an already-run capture (separated from [`capture_to_store`]
/// so benches can time the write path without re-spinning the loop).
pub fn write_capture(
    capture: &Capture,
    path: &Path,
    opts: StoreOptions,
) -> io::Result<(StoredRunMeta, StoreSummary)> {
    let mut writer = StoreWriter::create(path, 1, opts)?;
    writer.append(CAPTURE_CPU, &capture.events)?;
    let meta = capture_meta(&capture.report, capture.events.len() as u64);
    writer.set_metadata(meta.to_bytes());
    let summary = writer.finish()?;
    Ok((meta, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{load_run, streamed_report};
    use osn_kernel::time::Nanos;

    fn short_capture() -> Capture {
        run_capture(CaptureConfig {
            duration: Nanos::from_millis(40),
            quantum: Nanos::from_millis(1),
            ..CaptureConfig::default()
        })
    }

    /// A fixed synthetic capture: a tick and a mark on the FTQ thread
    /// per millisecond, long enough to cross a 4 096-event chunk
    /// boundary.
    fn synthetic_capture() -> Capture {
        use osn_kernel::activity::Activity;
        use osn_trace::{Event, EventKind};

        let ev = |t: u64, kind| Event {
            t: Nanos(t),
            cpu: CAPTURE_CPU,
            tid: CAPTURE_APP_TID,
            kind,
        };
        let mut events = Vec::new();
        for i in 0..2_500u64 {
            let t = i * 1_000_000;
            events.push(ev(t, EventKind::KernelEnter(Activity::TimerInterrupt)));
            events.push(ev(
                t + 700 + i % 13,
                EventKind::KernelExit(Activity::TimerInterrupt),
            ));
            events.push(ev(t + 900, EventKind::AppMark { mark: 1, value: i }));
        }
        let report = CaptureReport {
            quantum: Nanos::from_millis(1),
            quanta: 2_500,
            duration: Nanos::from_millis(2_500),
            iter_cost: Nanos(12),
            threshold: Nanos(1_000),
            gaps: 2_500,
            ticks: 2_500,
            interrupts: 0,
            preemptions: 0,
            unattributed: 0,
            classified_fraction: 1.0,
            noise_total: Nanos(1_765_000),
            probe_overhead: Nanos(25_000),
            probe_overhead_per_quantum: Nanos(10),
            sample_errors: 0,
            recalibrations: 4,
            schedstat_available: false,
            run_delay_ns: 0,
        };
        let series = osn_ftq::FtqSeries {
            origin: Nanos::ZERO,
            quantum: Nanos::from_millis(1),
            op_cost: Nanos(12),
            ops: vec![83_000; 2_500],
        };
        Capture {
            report,
            events,
            series,
        }
    }

    #[test]
    fn written_capture_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("osn-capture-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("native.osn");
        let capture = synthetic_capture();
        let (_, summary) = write_capture(&capture, &path, StoreOptions::default()).unwrap();
        assert_eq!(summary.events, 7_500);
        assert_eq!(summary.chunks, 2);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(osn_trace::wire::fnv1a64(&bytes), 0x3203_5075_f8e7_2a96);
    }

    #[test]
    fn captured_store_round_trips_through_both_consumer_paths() {
        let dir = std::env::temp_dir().join(format!("osn-capture-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("native.osn");

        let capture = short_capture();
        let (meta, summary) = write_capture(&capture, &path, StoreOptions::default()).unwrap();
        assert!(meta.is_native());
        assert_eq!(meta.config.app.name(), "native");
        assert_eq!(summary.events, capture.events.len() as u64);

        // The materializing path re-analyzes without native-specific
        // code: the FTQ thread is just an "app" task.
        let run = load_run(&path).unwrap();
        assert_eq!(run.result.tasks.len(), 2);
        assert_eq!(run.trace.len(), capture.events.len());

        // The out-of-core path agrees and reports the same app.
        let (report, smeta) = streamed_report(&path).unwrap();
        assert!(smeta.is_native());
        assert_eq!(report.app.name(), "native");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capture_meta_marks_source_and_counts() {
        let capture = short_capture();
        let meta = capture_meta(&capture.report, capture.events.len() as u64);
        assert_eq!(meta.source.as_deref(), Some("native"));
        assert_eq!(meta.ranks, vec![CAPTURE_APP_TID]);
        assert_eq!(meta.config.node.cpus, 1);
        assert_eq!(meta.result.stats.ticks, capture.report.ticks);
        // Round-trips through the JSON footer encoding.
        let back = StoredRunMeta::from_bytes(&meta.to_bytes()).unwrap();
        assert!(back.is_native());
    }

    #[test]
    fn simulated_metadata_without_source_reads_as_non_native() {
        // Pre-existing stores carry no `source` key at all: strip it
        // from the JSON to emulate one.
        let capture = short_capture();
        let mut meta = capture_meta(&capture.report, 0);
        meta.source = None;
        let json = String::from_utf8(meta.to_bytes()).unwrap();
        let stripped = json.replace(",\"source\":null", "");
        assert_ne!(json, stripped, "source key should have been present");
        let back = StoredRunMeta::from_bytes(stripped.as_bytes()).unwrap();
        assert!(!back.is_native());
        assert_eq!(back.ranks, meta.ranks);
    }
}
