//! `capture`: native captures (`run_capture`, 1 ms quantum) back to back
//! on this host. The only workload that probes procfs. Its op is one
//! gap's probe — the procfs snapshot and classification the recorder
//! runs after every gap — read per capture as `probe_overhead / gaps`.
//! That cost is how much the recorder perturbs what it measures, this
//! repository's analogue of the paper's 0.28 % tracer overhead. Gap
//! counts follow the host's own noise and are context, not results.
//!
//! `BENCHMARK.json` does not declare this workload, so no bound gates
//! it: the probe's cost is the host's procfs, and on a shared host it
//! moved by half between runs a minute apart.

use std::path::Path;
use std::time::Instant;

use osn_core::ftq::capture::{classify, deltas_between, run_capture, Capture, CaptureConfig};
use osn_core::ftq::procfs::{
    parse_interrupts, parse_schedstat, parse_stat_cpu, parse_status_switches,
};
use osn_core::ftq::ProcSnapshot;
use osn_core::kernel::time::Nanos;
use osn_core::write_capture;
use osn_store::StoreOptions;

use crate::check::Tally;
use crate::spans::{Profile, Spans};
use crate::workloads::{timed, Ctx, Measured};

/// Probe calls timed one by one in a traced run.
const PROBE_SAMPLES: usize = 200;
/// Classifications per span: one alone is shorter than the clock read.
const CLASSIFY_BATCH: usize = 1000;

fn capture(len: Nanos) -> Capture {
    run_capture(CaptureConfig {
        duration: len,
        quantum: Nanos::from_millis(1),
        ..CaptureConfig::default()
    })
}

/// Outside any timing: the capture persists as a store that reopens
/// and analyzes as a native run.
fn check_store(capture: &Capture, path: &Path, tally: &mut Tally) {
    let written = write_capture(capture, path, StoreOptions::default());
    let reopened = osn_core::streamed_report(path);
    tally.check(
        matches!(
            (&written, &reopened),
            (Ok((_, summary)), Ok((_, meta)))
                if summary.events == capture.events.len() as u64 && meta.is_native()
        ),
        || {
            format!(
                "capture store {}: write {:?}, reopen {:?}",
                path.display(),
                written.as_ref().err(),
                reopened.as_ref().err()
            )
        },
    );
}

/// Totals over a run's captures.
#[derive(Default)]
struct Totals {
    captures: usize,
    gaps: u64,
    probe_ns: u64,
    duration_ns: u64,
    classified: f64,
    sample_errors: u64,
    /// `probe_overhead / gaps` of each capture, in ms.
    probe_ms: Vec<f64>,
}

impl Totals {
    fn add(&mut self, c: &Capture) {
        let r = &c.report;
        self.captures += 1;
        self.gaps += r.gaps;
        self.probe_ns += r.probe_overhead.as_nanos();
        self.duration_ns += r.duration.as_nanos();
        self.classified += r.classified_fraction;
        self.sample_errors += r.sample_errors;
        if r.gaps > 0 {
            self.probe_ms
                .push(r.probe_overhead.as_nanos() as f64 / r.gaps as f64 / 1e6);
        }
    }

    fn gaps_per_s(&self) -> f64 {
        self.gaps as f64 / (self.duration_ns as f64 / 1e9)
    }

    fn overhead_pct(&self) -> f64 {
        self.probe_ns as f64 / self.duration_ns as f64 * 100.0
    }

    fn classified_frac(&self) -> f64 {
        self.classified / self.captures.max(1) as f64
    }
}

fn captures(ctx: &Ctx, phase: std::time::Duration, spans: &mut Spans, tally: &mut Tally) -> Totals {
    let mut totals = Totals::default();
    let path = ctx.dir.join("capture.osn");
    let start = Instant::now();
    while totals.captures == 0 || start.elapsed() < phase {
        spans.next_op();
        let c = spans.time("ftq.capture", || capture(ctx.sizes.capture_len));
        totals.add(&c);
        check_store(&c, &path, tally);
    }
    totals
}

pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let _ = std::fs::create_dir_all(&ctx.dir);

    // Set-up: a short capture through the write → reopen → analyze path
    // before timing, so procfs and the store path are warm.
    let warmup = ctx.dir.join("warmup.osn");
    for _ in 0..ctx.setups() {
        let (s, _) = timed(|| {
            let c = capture(ctx.sizes.warmup_capture_len);
            check_store(&c, &warmup, &mut m.tally);
        });
        m.setup_s.push(s);
    }

    let (untraced, traced) = ctx.phases();
    let mut off = Spans::new(false, ctx.origin, 0);
    let t = captures(ctx, untraced, &mut off, &mut m.tally);
    m.detail = vec![
        ("gaps_per_s".into(), t.gaps_per_s()),
        ("overhead_pct".into(), t.overhead_pct()),
        ("classified_frac".into(), t.classified_frac()),
        ("sample_errors".into(), t.sample_errors as f64),
        (
            "schedstat".into(),
            f64::from(u8::from(ProcSnapshot::schedstat_available())),
        ),
    ];
    m.op_ms = t.probe_ms;

    if let Some(traced) = traced {
        let mut spans = Spans::new(true, ctx.origin, 0);
        let t = captures(ctx, traced, &mut spans, &mut m.tally);
        m.traced_op_ms = t.probe_ms.clone();
        probe_parts(&mut spans, &mut m.tally);
        let spans = spans.finish();
        let p = Profile::new(&spans);
        // `capture` is not gated (its cost is the host's), so its layer
        // numbers are context, kept with the rest of its detail.
        m.detail.extend([
            ("ftq.snapshot_us_p50".into(), p.p50_ms("ftq.snapshot") * 1e3),
            (
                "ftq.procfs_read_us_p50".into(),
                p.p50_ms("ftq.procfs_read") * 1e3,
            ),
            (
                "ftq.procfs_parse_us_p50".into(),
                p.p50_ms("ftq.procfs_parse") * 1e3,
            ),
            (
                "ftq.classify_ns_p50".into(),
                p.p50_ms("ftq.classify") * 1e6 / CLASSIFY_BATCH as f64,
            ),
            ("ftq.gaps_per_s".into(), t.gaps_per_s()),
            ("ftq.classified_frac".into(), t.classified_frac()),
            ("ftq.overhead_pct".into(), t.overhead_pct()),
        ]);
        m.spans = spans;
    }
    m
}

/// The probe taken apart: a whole snapshot, then its file reads, its
/// parsing, and the classification of two snapshots' deltas.
fn probe_parts(spans: &mut Spans, tally: &mut Tally) {
    const FILES: [&str; 4] = [
        "/proc/interrupts",
        "/proc/self/status",
        "/proc/schedstat",
        "/proc/self/stat",
    ];
    let before = ProcSnapshot::read();
    tally.check(before.is_ok(), || {
        format!("procfs snapshot: {:?}", before.as_ref().err())
    });
    let before = before.unwrap_or_default();
    let mut after = before.clone();
    let mut texts = vec![String::new(); FILES.len()];
    for _ in 0..PROBE_SAMPLES {
        spans.next_op();
        if let Ok(s) = spans.time("ftq.snapshot", ProcSnapshot::read) {
            after = s;
        }
        spans.time("ftq.procfs_read", || {
            for (text, file) in texts.iter_mut().zip(FILES) {
                *text = std::fs::read_to_string(file).unwrap_or_default();
            }
        });
        spans.time("ftq.procfs_parse", || {
            std::hint::black_box((
                parse_interrupts(&texts[0]),
                parse_status_switches(&texts[1]),
                parse_schedstat(&texts[2]),
                parse_stat_cpu(&texts[3]),
            ))
        });
        spans.time("ftq.classify", || {
            for _ in 0..CLASSIFY_BATCH {
                std::hint::black_box(classify(&deltas_between(
                    std::hint::black_box(&before),
                    std::hint::black_box(&after),
                )));
            }
        });
    }
}
