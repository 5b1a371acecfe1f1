//! `osnoise` — command-line front end for the OS-noise reproduction.
//! [`COMMANDS`] declares every subcommand with its positionals and
//! typed flags; run `osnoise` without arguments for the usage text
//! generated from it. Exit codes: 0 success, 1 runtime failure, 2
//! usage error.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

mod args;

use std::process::ExitCode;

use osn_core::analysis::chart::NoiseChart;
use osn_core::analysis::stats::EventClass;
use osn_core::campaign::{campaign_report, CampaignConfig};
use osn_core::figures::{fig1_config, fig2_interruption, run_ftq};
use osn_core::kernel::time::Nanos;
use osn_core::paraver;
use osn_core::trace::overhead::{measure_overhead_avg, LTTNG_CLASS_OVERHEAD};
use osn_core::workloads::App;
use osn_core::{
    fig10_pairs, parse_tier, run_app, run_cluster_opts, run_cluster_stored, AppReport,
    ClusterConfig, ExperimentConfig, PaperReport, RunOpts,
};
use serde::Serialize;

use args::{command, failed, flag, Args, Command, Error, Flag, Kind, POSITIVE, UINT};

// The upper bounds keep `Nanos::from_secs`/`from_micros` from overflowing.
const SECS: Flag = flag("secs", "N", Kind::Int(0, u64::MAX / 1_000_000_000));
const GRANULARITY: Flag = flag("granularity-us", "G", Kind::Int(1, u64::MAX / 1_000));
const SEED: Flag = flag("seed", "S", UINT);
const JSON: Flag = flag("json", "FILE", Kind::Text);
const STORE: Flag = flag("store", "DIR", Kind::Text);
const CHUNK: Flag = flag("chunk", "EVENTS", Kind::Int(1, u32::MAX as u64));
const CODEC: Flag = flag("codec", "", Kind::Choice(&["raw", "delta"]));
const SAMPLES: Flag = flag("samples", "N", Kind::Int(1, u32::MAX as u64));
/// Ceiling on `--threads` and `--workers`: each is one OS thread, and
/// a value past what the host can start is a usage error, not a crash.
const MAX_THREADS: u64 = 1024;
const TOLERANCE: Flag = flag("tolerance", "NS", UINT);
const AGAINST: Flag = flag("against", "SEED", UINT);
const EXPORT_OUT: Flag = Flag {
    required: true,
    ..flag("out", "DIR", Kind::Text)
};

const COMMANDS: &[Command] = &[
    command("campaign", "", &[SECS, SEED, JSON, STORE], cmd_campaign),
    command("app", "<app>", &[SECS, SEED], cmd_app),
    command(
        "record",
        "<app> <out.osn>",
        &[SECS, SEED, CHUNK, CODEC],
        cmd_record,
    ),
    command("capture", "", CAPTURE_FLAGS, cmd_capture),
    command("analyze", "<in.osn>", &[JSON], cmd_analyze),
    command("compare", "<a.osn> <b.osn>", &[], cmd_compare),
    command("info", "<path>...", &[JSON], cmd_info),
    command("serve", "<dir>", SERVE_FLAGS, cmd_serve),
    command("ftq", "", &[SAMPLES, SEED], cmd_ftq),
    command("export", "<app>", &[EXPORT_OUT, SECS, SEED], cmd_export),
    command(
        "disambiguate",
        "<app>",
        &[TOLERANCE, SECS, SEED],
        cmd_disambiguate,
    ),
    command("overhead", "", &[SECS, SEED], cmd_overhead),
    command("scale", "<app>", &[GRANULARITY, SECS, SEED], cmd_scale),
    command("signature", "<app>", &[AGAINST, SECS, SEED], cmd_signature),
    command("cluster", "<app>", CLUSTER_FLAGS, cmd_cluster),
];

const CAPTURE_FLAGS: &[Flag] = &[
    flag("duration", "D", Kind::Duration),
    flag("quantum", "Q", Kind::Duration),
    flag("out", "FILE.osn", Kind::Text),
    JSON,
    CHUNK,
    CODEC,
];

const SERVE_FLAGS: &[Flag] = &[
    flag("addr", "HOST:PORT", Kind::Text),
    flag("threads", "N", Kind::Int(0, MAX_THREADS)),
    flag("rescan-ms", "MS", UINT),
    flag("cache", "N", UINT),
];

const CLUSTER_FLAGS: &[Flag] = &[
    flag("nodes", "N", POSITIVE),
    SECS,
    SEED,
    GRANULARITY,
    flag("cpus", "C", Kind::Int(1, u16::MAX as u64)),
    flag("workers", "W", Kind::Int(1, MAX_THREADS)),
    flag("max-phases", "P", UINT),
    flag("stagger", "", Kind::Choice(&["on", "off"])),
    flag("tier", "mechanistic|auto|sampled:<frac>", Kind::Text),
    flag("progress", "N", UINT),
    JSON,
    STORE,
    flag("inject", "SPEC", Kind::Text),
    CHUNK,
    CODEC,
];

const ABOUT: &str = "osnoise — quantitative per-event OS-noise analysis (IPDPS'11 reproduction)";

const NOTES: &str = "CAPTURE:
  `osnoise capture` runs the native FTQ loop on THIS host (not the
  simulator): per-quantum gaps above the calibrated threshold are
  classified from /proc counter deltas (tick / interrupt / preemption /
  unattributed) and written as a normal .osn store with
  source=\"native\", so analyze/info/serve consume it unchanged.
  Durations take ns/us/ms/s suffixes (--duration 2s --quantum 1ms).
  Without /proc/schedstat the capture still runs, marked degraded.

SERVE:
  `osnoise serve DIR` indexes every .osn store under DIR (recursively,
  re-scanning on change) and answers HTTP GETs with the same JSON the
  offline commands produce:
    /runs[?app=&seed=&ncpus=&config_hash=&recovered=]   indexed runs
    /runs/{id}/report                                   == analyze --json
    /runs/{id}/slice?t0=&t1=&class=&cpu=                event time-slice
    /runs/{id}/histogram?class=[&bins=&pct=]            duration histogram
    /runs/{id}/paraver                                  Paraver .prv export
    /compare?a=&b=[&threshold=]                         signature distance/drift
    /stats                                              per-endpoint counters

TIERS:
  --tier mechanistic      every node simulated in full (default)
  --tier sampled:<frac>   a stratified <frac> of nodes simulated
                          mechanistically; the rest synthesized from a
                          fitted per-class noise surrogate (reaches
                          10k-100k ranks; sampled:1.0 == mechanistic)
  --tier auto             mechanistic up to 64 nodes, sampled beyond
  --progress N            stderr progress line every N finished node
                          sims (0 = ~10% stride; default 0)

INJECTION:
  --inject takes `;`-separated faults, each `kind:key=value,...`
  (durations take ns/us/ms/s suffixes; node= is optional where shown):
    dvfs:period=10ms,duty=0.2,factor=3[,node=N]   DVFS/thermal throttling
    steal:interval=5ms,duration=200us[,node=N]    hypervisor steal time
    numa:split=4,factor=2.5[,node=N]              NUMA-remote fault costs
    crash:node=N,at=100ms,down=50ms               node crash + restart
    straggler:node=N,factor=1.5                   persistent slow node
    partition:node=N,at=50ms,dur=100ms,delay=2ms  network partition
    jitter:mean=50us[,node=N]                     network jitter";

fn main() -> ExitCode {
    let apps: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
    let usage = args::usage(COMMANDS);
    let help = format!(
        "{ABOUT}\n<app> is one of {}.\n\n{usage}\n\n{NOTES}",
        apps.join(", ")
    );
    let result = args::parse(COMMANDS, &help, std::env::args().skip(1))
        .and_then(|args| (args.command.run)(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(message)) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
        Err(Error::Failed(message)) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            ExitCode::FAILURE
        }
    }
}

fn secs(args: &Args) -> Nanos {
    Nanos::from_secs(args.int("secs").unwrap_or(10).max(1))
}

fn seed(args: &Args) -> u64 {
    args.int("seed").unwrap_or(0x0511_2011)
}

/// The `<app>` positional, the first after the subcommand.
fn app(args: &Args) -> Result<App, Error> {
    let name = &args.positionals()[0];
    App::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| args.usage(format!("unknown app `{name}`")))
}

/// The paper configuration of `<app>` for `--secs` and `--seed`.
fn experiment(args: &Args) -> Result<ExperimentConfig, Error> {
    Ok(ExperimentConfig::paper(app(args)?, secs(args)).with_seed(seed(args)))
}

fn store_options(args: &Args) -> osn_core::store::Options {
    let mut opts = osn_core::store::Options::default();
    if let Some(chunk) = args.int("chunk") {
        opts = opts.with_chunk_capacity(chunk as usize);
    }
    if args.text("codec") == Some("raw") {
        opts = opts.with_compress(false);
    }
    opts
}

/// Pretty JSON: the bytes `osnoise serve` answers with.
fn to_json<T: Serialize>(value: &T) -> Result<String, Error> {
    serde_json::to_string_pretty(value).map_err(failed("serialization failed"))
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), Error> {
    std::fs::write(path, to_json(value)?).map_err(failed(format!("cannot write {path}")))
}

/// What recovering a damaged store cost, for `analyze`, `compare` and
/// `info`.
fn recovery_note(r: &osn_core::store::RecoveryReport) -> String {
    format!(
        "{} torn chunk(s), {} event(s) lost, {} byte(s) dropped{}",
        r.torn_chunks,
        r.torn_events,
        r.dropped_bytes,
        if r.footer_ok { "" } else { ", footer missing" },
    )
}

/// The per-event statistics table shared by `app` and `analyze`.
fn print_event_stats(report: &AppReport) {
    println!("== per-event statistics (observed process) ==");
    for class in EventClass::ALL {
        let s = report.stats(class);
        if s.count == 0 {
            continue;
        }
        println!(
            "  {:<24} {:>8.0}/s avg {:>10} max {:>12} min {:>8}",
            class.name(),
            s.freq_per_sec,
            s.avg.to_string(),
            s.max.to_string(),
            s.min.to_string()
        );
    }
}

fn cmd_campaign(args: &Args) -> Result<(), Error> {
    let mut config = CampaignConfig::paper(secs(args));
    config.seed = seed(args);
    let (runs, report) = campaign_report(&config);
    println!(
        "== Fig 3: OS noise breakdown ==\n{}",
        report.render_breakdown()
    );
    for (label, class) in [
        ("Table I: page faults", EventClass::PageFault),
        ("Table II: network interrupts", EventClass::NetworkInterrupt),
        ("Table III: net_rx_action", EventClass::NetRxAction),
        ("Table IV: net_tx_action", EventClass::NetTxAction),
        ("Table V: timer interrupts", EventClass::TimerInterrupt),
        ("Table VI: run_timer_softirq", EventClass::RunTimerSoftirq),
    ] {
        println!("== {} ==\n{}", label, report.render_table(class));
    }
    if let Some(path) = args.text("json") {
        write_json(path, &report)?;
        println!("report written to {path}");
    }
    if let Some(dir) = args.text("store") {
        let paths = osn_core::persist_campaign(&runs, dir.as_ref(), Default::default())
            .map_err(failed(format!("cannot persist campaign to {dir}")))?;
        for p in &paths {
            println!("wrote {}", p.display());
        }
    }
    Ok(())
}

fn cmd_app(args: &Args) -> Result<(), Error> {
    let run = run_app(experiment(args)?);
    let report = PaperReport::build(std::slice::from_ref(&run));
    println!(
        "{} — {} ranks, wall {}, {} trace events ({} lost)",
        run.config.app.name().to_uppercase(),
        run.ranks.len(),
        run.wall(),
        run.trace.len(),
        run.trace.total_lost()
    );
    println!("\n== noise breakdown ==\n{}", report.render_breakdown());
    print_event_stats(&report.apps[0]);
    let observed = run.observed_rank();
    if let Some(meta) = run.result.tasks.iter().find(|m| m.tid == observed) {
        println!("\n== observed process detail ==");
        print!(
            "{}",
            osn_core::analysis::report::task_report(&run.analysis, meta)
        );
    }
    Ok(())
}

fn cmd_ftq(args: &Args) -> Result<(), Error> {
    let (params, node) = fig1_config(args.int("samples").unwrap_or(3000) as u32);
    let exp = run_ftq(params, node.with_seed(seed(args)));
    let (ftq_total, traced_total) = exp.comparison.totals();
    println!(
        "FTQ: {} quanta of {}",
        exp.series.ops.len(),
        exp.series.quantum
    );
    println!("  N_max = {} ops/quantum", exp.series.n_max());
    println!("  FTQ noise estimate:  {ftq_total}");
    println!("  traced noise:        {traced_total}");
    println!("  correlation:         {:.4}", exp.comparison.correlation());
    println!(
        "  FTQ overestimates in {:.1}% of quanta",
        exp.comparison.overestimate_fraction() * 100.0
    );
    if let Some(i) = fig2_interruption(&exp) {
        println!("\nlargest composite interruption (Fig 2b):");
        for (c, d) in &i.components {
            println!("  {c:?} = {d}");
        }
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), Error> {
    let config = experiment(args)?;
    let out = std::path::Path::new(args.text("out").expect("--out is required"));
    std::fs::create_dir_all(out).map_err(failed(format!("cannot create {}", out.display())))?;
    let run = run_app(config);

    let prv = paraver::write_full_prv(
        &run.trace,
        &run.analysis.instances,
        &run.result.tasks,
        run.result.end_time,
    );
    let pcf = paraver::pcf::write_pcf();
    let row = paraver::row::write_row(run.config.node.cpus as usize, &run.result.tasks);
    let observed = run.observed_rank();
    let chart = NoiseChart::build(&run.analysis, observed);
    let chart_csv = paraver::matlab::chart_csv(&chart);
    let fault_csv = paraver::matlab::samples_csv(&osn_core::analysis::stats::class_samples_timed(
        &run.analysis,
        &run.ranks,
        EventClass::PageFault,
    ));
    let name = run.config.app.name();
    for (file, contents) in [
        (format!("{name}.prv"), prv),
        (format!("{name}.pcf"), pcf),
        (format!("{name}.row"), row),
        (format!("{name}_chart.csv"), chart_csv),
        (format!("{name}_faults.csv"), fault_csv),
    ] {
        let path = out.join(&file);
        std::fs::write(&path, contents)
            .map_err(failed(format!("cannot write {}", path.display())))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_disambiguate(args: &Args) -> Result<(), Error> {
    let tolerance = Nanos(args.int("tolerance").unwrap_or(60));
    let run = run_app(experiment(args)?);
    let pairs = fig10_pairs(&run, tolerance, 12);
    println!(
        "confusable pairs in {} (|Δ| <= {tolerance}): {}",
        run.config.app.name().to_uppercase(),
        pairs.len()
    );
    for p in &pairs {
        println!(
            "  {} as {} vs {} as {}",
            p.a_noise,
            p.a_class.name(),
            p.b_noise,
            p.b_class.name()
        );
    }
    Ok(())
}

fn cmd_signature(args: &Args) -> Result<(), Error> {
    use osn_core::analysis::NoiseSignature;
    let config = experiment(args)?;
    let run = run_app(config.clone());
    let signature = NoiseSignature::build(&run.analysis, &run.ranks);
    println!(
        "{} noise signature (total {}):",
        config.app.name().to_uppercase(),
        signature.total_noise
    );
    for e in &signature.entries {
        if e.freq_per_sec == 0.0 {
            continue;
        }
        println!(
            "  {:<24} {:>9.1}/s  mean {:>9.0} ns  share {:>5.1}%",
            e.class.name(),
            e.freq_per_sec,
            e.mean_ns,
            e.share * 100.0
        );
    }
    if let Some(other_seed) = args.int("against") {
        let other = run_app(config.with_seed(other_seed));
        let other_sig = NoiseSignature::build(&other.analysis, &other.ranks);
        println!(
            "\ncomposition distance to seed {}: {:.4}",
            other_seed,
            signature.distance(&other_sig)
        );
        let drifts = signature.drift(&other_sig, 0.5);
        if drifts.is_empty() {
            println!("no event class drifted by more than 50%");
        }
        for d in drifts {
            println!(
                "  drift: {:<24} freq x{:.2} mean x{:.2}",
                d.class.name(),
                d.freq_ratio,
                d.mean_ratio
            );
        }
    }
    Ok(())
}

fn cmd_scale(args: &Args) -> Result<(), Error> {
    let granularity = Nanos::from_micros(args.int("granularity-us").unwrap_or(1_000));
    let run = run_app(experiment(args)?);
    let model = osn_core::ScaleModel::from_run(&run, granularity);
    println!(
        "{}: mean noise per {} window = {}",
        run.config.app.name().to_uppercase(),
        granularity,
        model.mean_window_noise()
    );
    println!("predicted BSP iteration slowdown (barrier per window):");
    for p in model.curve(&[1, 8, 64, 512, 4096, 32768, 262144], 2_000, seed(args)) {
        println!(
            "  {:>7} nodes: {:>8.4}x slowdown, {:>6.2}% efficiency (E[max noise] {})",
            p.nodes,
            p.slowdown,
            p.efficiency * 100.0,
            p.expected_max_noise
        );
    }
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), Error> {
    let config = experiment(args)?;
    let path = std::path::Path::new(&args.positionals()[1]);
    let (meta, summary) =
        osn_core::record_app(config, path, store_options(args)).map_err(failed("record failed"))?;
    println!(
        "recorded {} — {} ({} ranks): {} events in {} chunks, {} bytes",
        path.display(),
        meta.config.app.name(),
        meta.ranks.len(),
        summary.events,
        summary.chunks,
        summary.bytes,
    );
    Ok(())
}

fn cmd_capture(args: &Args) -> Result<(), Error> {
    let cfg = osn_core::ftq::CaptureConfig {
        duration: args.duration("duration").unwrap_or(Nanos::from_secs(2)),
        quantum: args.duration("quantum").unwrap_or(Nanos::from_millis(1)),
        ..osn_core::ftq::CaptureConfig::default()
    };
    let path = std::path::Path::new(args.text("out").unwrap_or("capture.osn"));
    let (capture, meta, summary) = osn_core::capture_to_store(cfg, path, store_options(args))
        .map_err(failed("capture failed"))?;
    let r = &capture.report;
    println!(
        "captured {} — {} quanta of {} in {} ({} events, {} chunks, {} bytes)",
        path.display(),
        r.quanta,
        r.quantum,
        r.duration,
        summary.events,
        summary.chunks,
        summary.bytes,
    );
    println!(
        "  threshold {} (iteration cost {}, {} recalibrations)",
        r.threshold, r.iter_cost, r.recalibrations
    );
    println!(
        "  gaps {} — tick {}, interrupt {}, preemption {}, unattributed {} ({:.1}% classified)",
        r.gaps,
        r.ticks,
        r.interrupts,
        r.preemptions,
        r.unattributed,
        r.classified_fraction * 100.0
    );
    println!(
        "  noise {} total; recorder self-overhead {} ({}/quantum)",
        r.noise_total, r.probe_overhead, r.probe_overhead_per_quantum
    );
    if !r.schedstat_available {
        println!("  note: /proc/schedstat unavailable — degraded attribution");
    }
    if r.sample_errors > 0 {
        println!(
            "  note: {} procfs sample(s) failed mid-run",
            r.sample_errors
        );
    }
    if !meta.is_native() {
        eprintln!("warning: captured store is missing its native source marker");
    }
    if let Some(path) = args.text("json") {
        write_json(path, r)?;
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), Error> {
    let path = &args.positionals()[0];
    let (report, meta, recovery) = osn_core::recovered_report(path.as_ref())
        .map_err(failed(format!("cannot analyze {path}")))?;
    if !recovery.clean() {
        let note = recovery_note(&recovery);
        println!("note: recovered a damaged store — {note}");
    }
    let full = PaperReport {
        apps: vec![report.clone()],
    };
    if let Some(out) = args.text("json") {
        // The same bytes `osnoise serve` answers on /runs/{id}/report.
        write_json(out, &full)?;
    }
    println!(
        "{} — {} ranks, wall {} (streamed out-of-core analysis)",
        meta.config.app.name().to_uppercase(),
        report.nranks,
        report.wall
    );
    println!("\n== noise breakdown ==\n{}", full.render_breakdown());
    print_event_stats(&report);
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Error> {
    use osn_core::analysis::{comparison_table, NoiseSignature};
    let (path_a, path_b) = (&args.positionals()[0], &args.positionals()[1]);
    // Each side is opened like `analyze` opens a store: a damaged file
    // is recovered, noted, and analyzed out-of-core.
    let load = |p: &str| -> Result<(String, NoiseSignature), Error> {
        let (reader, recovery) = osn_core::store::Reader::recover(p.as_ref())
            .map_err(failed(format!("cannot load {p}")))?;
        let (meta, analysis) =
            osn_core::analyze_store(&reader).map_err(failed(format!("cannot load {p}")))?;
        if !recovery.clean() {
            let note = recovery_note(&recovery);
            println!("note: recovered a damaged store {p} — {note}");
        }
        let app = meta.config.app;
        let label = if app == App::Native {
            "native".to_string()
        } else {
            format!("model:{}", app.name())
        };
        Ok((label, NoiseSignature::build(&analysis, &meta.ranks)))
    };
    let ((label_a, sig_a), (label_b, sig_b)) = (load(path_a)?, load(path_b)?);
    // Same-app comparisons (e.g. two native captures) still need
    // distinguishable column headers.
    let (label_a, label_b) = if label_a == label_b {
        (format!("{label_a}/a"), format!("{label_b}/b"))
    } else {
        (label_a, label_b)
    };
    println!("{} = {}   {} = {}\n", label_a, path_a, label_b, path_b);
    print!("{}", comparison_table(&label_a, &sig_a, &label_b, &sig_b));
    Ok(())
}

/// Expand one `info` argument: a `.osn` file stands alone, a directory
/// contributes every `.osn` file beneath it (sorted for stable output).
fn collect_store_paths(input: &str, out: &mut Vec<std::path::PathBuf>) {
    let path = std::path::PathBuf::from(input);
    if !path.is_dir() {
        out.push(path);
        return;
    }
    let mut found = osn_core::store::osn_files(&path).unwrap_or_default();
    found.sort();
    out.extend(found);
}

/// One opened store, or why it would not open.
type StoreInfo = (
    std::path::PathBuf,
    Result<(osn_core::store::Reader, osn_core::store::RecoveryReport), String>,
);

fn info_json(stores: &[StoreInfo]) -> serde::Value {
    use serde::Value;
    let items = stores
        .iter()
        .map(|(path, opened)| {
            let mut fields: Vec<(String, Value)> =
                vec![("path".into(), Value::Str(path.display().to_string()))];
            match opened {
                Err(e) => fields.push(("error".into(), Value::Str(e.clone()))),
                Ok((reader, recovery)) => {
                    let span = match reader.span() {
                        None => Value::Null,
                        Some((start, end)) => Value::Map(vec![
                            ("start_ns".into(), Value::U64(start.as_nanos())),
                            ("end_ns".into(), Value::U64(end.as_nanos())),
                        ]),
                    };
                    let payload: u64 = reader.chunks().iter().map(|c| c.payload_len as u64).sum();
                    fields.extend([
                        ("cpus".into(), Value::U64(reader.ncpus() as u64)),
                        (
                            "chunk_capacity".into(),
                            Value::U64(reader.chunk_capacity() as u64),
                        ),
                        ("chunks".into(), Value::U64(reader.chunks().len() as u64)),
                        ("events".into(), Value::U64(reader.events())),
                        ("lost".into(), Value::U64(reader.lost().iter().sum())),
                        ("payload_bytes".into(), Value::U64(payload)),
                        ("span".into(), span),
                        (
                            "recovery".into(),
                            Value::Map(vec![
                                ("clean".into(), Value::Bool(recovery.clean())),
                                (
                                    "torn_chunks".into(),
                                    Value::U64(recovery.torn_chunks as u64),
                                ),
                                ("torn_events".into(), Value::U64(recovery.torn_events)),
                                ("dropped_bytes".into(), Value::U64(recovery.dropped_bytes)),
                                ("footer_ok".into(), Value::Bool(recovery.footer_ok)),
                            ]),
                        ),
                        (
                            "run_meta".into(),
                            match osn_core::StoredRunMeta::from_bytes(reader.metadata()) {
                                Ok(meta) => serde_json::to_value(&meta)
                                    .expect("run metadata renders as JSON"),
                                Err(_) => Value::Null,
                            },
                        ),
                    ]);
                }
            }
            Value::Map(fields)
        })
        .collect();
    Value::Seq(items)
}

fn info_detail(
    path: &std::path::Path,
    reader: &osn_core::store::Reader,
    recovery: &osn_core::store::RecoveryReport,
) {
    println!("{}:", path.display());
    println!("  cpus:            {}", reader.ncpus());
    println!("  chunk capacity:  {} events", reader.chunk_capacity());
    println!("  chunks:          {}", reader.chunks().len());
    println!("  events:          {}", reader.events());
    if let Some((start, end)) = reader.span() {
        println!("  span:            {start} .. {end}");
    }
    let lost: u64 = reader.lost().iter().sum();
    println!("  lost:            {lost}");
    let payload: u64 = reader.chunks().iter().map(|c| c.payload_len as u64).sum();
    let raw = reader.events() * 32;
    if payload > 0 {
        println!(
            "  payload:         {} bytes ({:.2}x vs in-memory events)",
            payload,
            raw as f64 / payload as f64
        );
    }
    match osn_core::StoredRunMeta::from_bytes(reader.metadata()) {
        Ok(meta) => println!(
            "  run:             {} x{} ranks, seed {:#x}, {}{}",
            meta.config.app.name(),
            meta.ranks.len(),
            meta.config.node.seed,
            meta.config.duration,
            if meta.is_native() { " [native]" } else { "" }
        ),
        Err(_) if reader.metadata().is_empty() => println!("  run:             (no metadata)"),
        Err(e) => println!("  run:             (unreadable metadata: {e})"),
    }
    if !recovery.clean() {
        println!("  recovery:        {}", recovery_note(recovery));
    }
}

fn info_row(
    path: &std::path::Path,
    opened: &Result<(osn_core::store::Reader, osn_core::store::RecoveryReport), String>,
) {
    match opened {
        Err(e) => println!("{:<44} unreadable: {e}", path.display()),
        Ok((reader, recovery)) => {
            let run = match osn_core::StoredRunMeta::from_bytes(reader.metadata()) {
                Ok(meta) => format!(
                    "{} x{} seed {:#x}",
                    meta.config.app.name(),
                    meta.ranks.len(),
                    meta.config.node.seed
                ),
                Err(_) => "(no metadata)".to_string(),
            };
            println!(
                "{:<44} {:>2} cpus {:>9} events {:>5} chunks {:>5} lost  {}{}",
                path.display(),
                reader.ncpus(),
                reader.events(),
                reader.chunks().len(),
                reader.lost().iter().sum::<u64>(),
                run,
                if recovery.clean() {
                    ""
                } else {
                    "  [recovered]"
                },
            );
        }
    }
}

fn cmd_info(args: &Args) -> Result<(), Error> {
    let mut paths = Vec::new();
    for input in args.positionals() {
        collect_store_paths(input, &mut paths);
    }
    if paths.is_empty() {
        return Err(Error::Failed("no .osn stores found".into()));
    }
    let stores: Vec<StoreInfo> = paths
        .into_iter()
        .map(|path| {
            let opened = osn_core::store::Reader::recover(&path).map_err(|e| e.to_string());
            (path, opened)
        })
        .collect();

    match args.text("json") {
        Some("" | "-") => println!("{}", to_json(&info_json(&stores))?),
        Some(out) => write_json(out, &info_json(&stores))?,
        None if stores.len() == 1 => {
            let (path, opened) = &stores[0];
            let (reader, recovery) = opened
                .as_ref()
                .map_err(failed(format!("cannot open {}", path.display())))?;
            info_detail(path, reader, recovery);
        }
        None => {
            for (path, opened) in &stores {
                info_row(path, opened);
            }
        }
    }
    // Unreadable stores were reported in their rows.
    match stores.iter().any(|(_, opened)| opened.is_err()) {
        true => Err(Error::Failed(String::new())),
        false => Ok(()),
    }
}

fn cmd_serve(args: &Args) -> Result<(), Error> {
    let dir = &args.positionals()[0];
    let mut config = osn_catalog::ServiceConfig::new(dir.into());
    if let Some(addr) = args.text("addr") {
        config.addr = addr.to_string();
    }
    if let Some(threads) = args.int("threads") {
        config.threads = threads.max(1) as usize;
    }
    if let Some(ms) = args.int("rescan-ms") {
        config.rescan = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(cache) = args.int("cache") {
        config.cache_runs = cache.max(1) as usize;
    }
    let service =
        osn_catalog::Service::start(config).map_err(failed(format!("cannot serve {dir}")))?;
    println!(
        "catalog: {} run(s) indexed, {} skipped",
        service.runs(),
        service.skipped()
    );
    println!("serving on http://{}", service.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    service.join();
    Ok(())
}

fn cmd_cluster(args: &Args) -> Result<(), Error> {
    let mut config = ClusterConfig::new(
        app(args)?,
        args.int("nodes").unwrap_or(8) as usize,
        secs(args),
    );
    config.seed = seed(args);
    config.granularity = Nanos::from_micros(args.int("granularity-us").unwrap_or(1_000));
    config.cpus = args.int("cpus").map(|c| c as u16);
    config.workers = args.int("workers").map(|w| w as usize);
    if let Some(phases) = args.int("max-phases") {
        config.max_phases = phases as usize;
    }
    config.stagger = args.text("stagger") != Some("off");
    if let Some(spec) = args.text("inject") {
        config.inject = osn_core::parse_inject_spec(spec)
            .map_err(|e| args.usage(format!("bad --inject `{spec}`: {e}")))?;
    }
    if let Some(tier) = args.text("tier") {
        config.tier =
            parse_tier(tier).map_err(|e| args.usage(format!("bad --tier `{tier}`: {e}")))?;
    }
    let opts = RunOpts {
        progress_every: Some(args.int("progress").unwrap_or(0) as usize),
    };
    let report = match args.text("store") {
        Some(dir) => {
            let (report, paths) =
                run_cluster_stored(&config, dir.as_ref(), store_options(args), opts)
                    .map_err(failed(format!("cannot run stored cluster in {dir}")))?;
            for p in &paths {
                println!("wrote {}", p.display());
            }
            report
        }
        None => run_cluster_opts(&config, opts).report,
    };
    print!("{}", report.render());
    if let Some(path) = args.text("json") {
        write_json(path, &report)?;
        println!("report written to {path}");
    }
    Ok(())
}

fn cmd_overhead(args: &Args) -> Result<(), Error> {
    let dur = secs(args).min(Nanos::from_secs(5));
    let mut total = 0.0;
    for app in App::ALL {
        let config = ExperimentConfig::paper(app, dur).with_seed(seed(args));
        let seeds: Vec<u64> = (0..6).map(|i| seed(args).wrapping_add(i * 7919)).collect();
        let report = measure_overhead_avg(&config.node, LTTNG_CLASS_OVERHEAD, &seeds, |node_cfg| {
            config.spawn(node_cfg).0
        });
        println!(
            "{:<8} base {} traced {} overhead {:+.4}%",
            app.name().to_uppercase(),
            report.base,
            report.traced,
            report.percent()
        );
        total += report.percent();
    }
    println!(
        "average: {:.4}% (paper: ~0.28%)",
        total / App::ALL.len() as f64
    );
    Ok(())
}
