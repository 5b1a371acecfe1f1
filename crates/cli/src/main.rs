//! `osnoise` — command-line front end for the OS-noise reproduction.
//!
//! ```text
//! osnoise campaign [--secs N] [--seed S] [--json FILE]   full Sequoia campaign: Fig 3 + Tables I-VI
//! osnoise app <amg|irs|lammps|sphot|umt> [--secs N]      one application, detailed report
//! osnoise ftq [--samples N] [--seed S]                   FTQ vs LTTng-noise (Fig 1, §III-C)
//! osnoise export <app> --out DIR [--secs N]              Paraver .prv/.pcf/.row + CSV exports
//! osnoise disambiguate <app> [--tolerance NS]            §V-A confusable pairs (Fig 10)
//! osnoise overhead [--secs N]                            §III-A instrumentation overhead
//! osnoise record <app> <out.osn> [--secs N]              trace to a chunked store file (streaming)
//! osnoise analyze <in.osn> [--json FILE]                 out-of-core report from a store file
//! osnoise compare <a.osn> <b.osn>                        side-by-side signature table (modeled vs native)
//! osnoise info <path>... [--json FILE]                   store layout/contents (files or dirs)
//! osnoise serve <dir> [--addr A] [--threads N]           catalog + HTTP query service
//! osnoise cluster <app> [--nodes N] [--secs N]           tiered multi-node BSP campaign
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::collections::HashMap;
use std::process::ExitCode;

use osn_core::analysis::chart::NoiseChart;
use osn_core::analysis::stats::EventClass;
use osn_core::campaign::{campaign_report, CampaignConfig};
use osn_core::figures::{fig1_config, fig2_interruption, run_ftq};
use osn_core::kernel::node::Node;
use osn_core::kernel::time::Nanos;
use osn_core::paraver;
use osn_core::trace::overhead::{measure_overhead_avg, LTTNG_CLASS_OVERHEAD};
use osn_core::workloads::App;
use osn_core::{
    fig10_pairs, parse_tier, run_app, run_cluster_opts, run_cluster_stored_opts, ClusterConfig,
    ExperimentConfig, PaperReport, RunOpts,
};

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter.next().unwrap_or_default();
                flags.insert(name.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn secs(&self) -> Nanos {
        Nanos::from_secs(
            self.flags
                .get("secs")
                .and_then(|s| s.parse().ok())
                .unwrap_or(10u64)
                .max(1),
        )
    }

    fn seed(&self) -> u64 {
        self.flags
            .get("seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x0511_2011)
    }
}

fn parse_app(name: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| a.name() == name)
}

fn main() -> ExitCode {
    let args = Args::parse();
    let command = args.positional.first().map(String::as_str);
    match command {
        Some("campaign") => cmd_campaign(&args),
        Some("app") => cmd_app(&args),
        Some("ftq") => cmd_ftq(&args),
        Some("export") => cmd_export(&args),
        Some("disambiguate") => cmd_disambiguate(&args),
        Some("overhead") => cmd_overhead(&args),
        Some("scale") => cmd_scale(&args),
        Some("signature") => cmd_signature(&args),
        Some("record") => cmd_record(&args),
        Some("capture") => cmd_capture(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("compare") => cmd_compare(&args),
        Some("info") => cmd_info(&args),
        Some("serve") => cmd_serve(&args),
        Some("cluster") => cmd_cluster(&args),
        _ => {
            eprintln!("{}", HELP);
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "osnoise — quantitative per-event OS-noise analysis (IPDPS'11 reproduction)

USAGE:
  osnoise campaign [--secs N] [--seed S] [--json FILE] [--store DIR]
  osnoise app <amg|irs|lammps|sphot|umt> [--secs N] [--seed S]
  osnoise record <app> <out.osn> [--secs N] [--seed S] [--chunk EVENTS] [--codec raw|delta]
  osnoise capture [--duration D] [--quantum Q] [--out FILE.osn] [--json FILE]
  osnoise analyze <in.osn> [--json FILE]
  osnoise compare <a.osn> <b.osn>
  osnoise info <path>... [--json FILE]
  osnoise serve <dir> [--addr HOST:PORT] [--threads N] [--rescan-ms MS] [--cache N]
  osnoise ftq [--samples N] [--seed S]
  osnoise export <app> --out DIR [--secs N]
  osnoise disambiguate <app> [--tolerance NS] [--secs N]
  osnoise overhead [--secs N]
  osnoise scale <app> [--granularity-us G] [--secs N]
  osnoise signature <app> [--against SEED] [--secs N]
  osnoise cluster <app> [--nodes N] [--secs N] [--seed S] [--granularity-us G]
                  [--cpus C] [--workers W] [--max-phases P] [--stagger on|off]
                  [--tier mechanistic|auto|sampled:<frac>] [--progress N]
                  [--json FILE] [--store DIR] [--inject SPEC]

CAPTURE:
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

fn cmd_campaign(args: &Args) -> ExitCode {
    let mut config = CampaignConfig::paper(args.secs());
    config.seed = args.seed();
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
    if let Some(path) = args.flags.get("json") {
        match serde_json::to_vec_pretty(&report) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(path, bytes) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("report written to {path}");
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = args.flags.get("store") {
        let dir = std::path::Path::new(dir);
        match osn_core::persist_campaign(&runs, dir, osn_core::store::Options::default()) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("cannot persist campaign to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_app(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
    let run = run_app(config);
    let report = PaperReport::build(std::slice::from_ref(&run));
    println!(
        "{} — {} ranks, wall {}, {} trace events ({} lost)",
        app.name().to_uppercase(),
        run.ranks.len(),
        run.wall(),
        run.trace.len(),
        run.trace.total_lost()
    );
    println!("\n== noise breakdown ==\n{}", report.render_breakdown());
    println!("== per-event statistics (observed process) ==");
    for class in EventClass::ALL {
        let s = report.apps[0].stats(class);
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
    let observed = run.observed_rank();
    if let Some(meta) = run.result.tasks.iter().find(|m| m.tid == observed) {
        println!("\n== observed process detail ==");
        print!(
            "{}",
            osn_core::analysis::report::task_report(&run.analysis, meta)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_ftq(args: &Args) -> ExitCode {
    let samples: u32 = args
        .flags
        .get("samples")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let (params, node) = fig1_config(samples);
    let exp = run_ftq(params, node.with_seed(args.seed()));
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
    ExitCode::SUCCESS
}

fn cmd_export(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let Some(out) = args.flags.get("out") else {
        eprintln!("--out DIR is required");
        return ExitCode::FAILURE;
    };
    let out = std::path::Path::new(out);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
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
    let name = app.name();
    for (file, contents) in [
        (format!("{name}.prv"), prv),
        (format!("{name}.pcf"), pcf),
        (format!("{name}.row"), row),
        (format!("{name}_chart.csv"), chart_csv),
        (format!("{name}_faults.csv"), fault_csv),
    ] {
        let path = out.join(&file);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_disambiguate(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let tolerance = Nanos(
        args.flags
            .get("tolerance")
            .and_then(|s| s.parse().ok())
            .unwrap_or(60),
    );
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
    let run = run_app(config);
    let pairs = fig10_pairs(&run, tolerance, 12);
    println!(
        "confusable pairs in {} (|Δ| <= {tolerance}): {}",
        app.name().to_uppercase(),
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
    ExitCode::SUCCESS
}

fn cmd_signature(args: &Args) -> ExitCode {
    use osn_core::analysis::NoiseSignature;
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
    let run = run_app(config);
    let signature = NoiseSignature::build(&run.analysis, &run.ranks);
    println!(
        "{} noise signature (total {}):",
        app.name().to_uppercase(),
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
    if let Some(other_seed) = args
        .flags
        .get("against")
        .and_then(|s| s.parse::<u64>().ok())
    {
        let other = run_app(ExperimentConfig::paper(app, args.secs()).with_seed(other_seed));
        let other_sig = NoiseSignature::build(&other.analysis, &other.ranks);
        println!(
            "
composition distance to seed {}: {:.4}",
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
    ExitCode::SUCCESS
}

fn cmd_scale(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let granularity = Nanos::from_micros(
        args.flags
            .get("granularity-us")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1_000),
    );
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
    let run = run_app(config);
    let model = osn_core::ScaleModel::from_run(&run, granularity);
    println!(
        "{}: mean noise per {} window = {}",
        app.name().to_uppercase(),
        granularity,
        model.mean_window_noise()
    );
    println!("predicted BSP iteration slowdown (barrier per window):");
    for p in model.curve(&[1, 8, 64, 512, 4096, 32768, 262144], 2_000, args.seed()) {
        println!(
            "  {:>7} nodes: {:>8.4}x slowdown, {:>6.2}% efficiency (E[max noise] {})",
            p.nodes,
            p.slowdown,
            p.efficiency * 100.0,
            p.expected_max_noise
        );
    }
    ExitCode::SUCCESS
}

fn store_options(args: &Args) -> osn_core::store::Options {
    let mut opts = osn_core::store::Options::default();
    if let Some(chunk) = args.flags.get("chunk").and_then(|s| s.parse().ok()) {
        opts = opts.with_chunk_capacity(chunk);
    }
    if args.flags.get("codec").is_some_and(|c| c == "raw") {
        opts = opts.with_compress(false);
    }
    opts
}

fn cmd_record(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let Some(out) = args.positional.get(2) else {
        eprintln!(
            "record needs an output path: osnoise record {} <out.osn>",
            app.name()
        );
        return ExitCode::FAILURE;
    };
    let config = ExperimentConfig::paper(app, args.secs()).with_seed(args.seed());
    let path = std::path::Path::new(out);
    match osn_core::record_app(config, path, store_options(args)) {
        Ok((meta, summary)) => {
            println!(
                "recorded {} — {} ({} ranks): {} events in {} chunks, {} bytes",
                path.display(),
                meta.config.app.name(),
                meta.ranks.len(),
                summary.events,
                summary.chunks,
                summary.bytes,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("record failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_capture(args: &Args) -> ExitCode {
    let duration = match args.flags.get("duration") {
        Some(d) => match osn_core::parse_duration(d) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("capture: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Nanos::from_secs(2),
    };
    let quantum = match args.flags.get("quantum") {
        Some(q) => match osn_core::parse_duration(q) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("capture: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Nanos::from_millis(1),
    };
    let out = args
        .flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("capture.osn");
    let cfg = osn_core::ftq::CaptureConfig {
        duration,
        quantum,
        ..osn_core::ftq::CaptureConfig::default()
    };
    let path = std::path::Path::new(out);
    let (capture, meta, summary) = match osn_core::capture_to_store(cfg, path, store_options(args))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("capture failed: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    if let Some(json) = args.flags.get("json") {
        match serde_json::to_vec_pretty(r) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(json, bytes) {
                    eprintln!("cannot write {json}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(args: &Args) -> ExitCode {
    let Some(path) = args.positional.get(1) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let path = std::path::Path::new(path);
    let (report, meta, recovery) = match osn_core::recovered_report(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot analyze {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if !recovery.clean() {
        println!(
            "note: recovered a damaged store — {} torn chunk(s), {} event(s) lost, {} byte(s) dropped{}",
            recovery.torn_chunks,
            recovery.torn_events,
            recovery.dropped_bytes,
            if recovery.footer_ok { "" } else { ", footer missing" },
        );
    }
    let full = PaperReport {
        apps: vec![report.clone()],
    };
    if let Some(out) = args.flags.get("json") {
        // The same bytes `osnoise serve` answers on /runs/{id}/report.
        match serde_json::to_vec_pretty(&full) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(out, bytes) {
                    eprintln!("cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{} — {} ranks, wall {} (streamed out-of-core analysis)",
        meta.config.app.name().to_uppercase(),
        report.nranks,
        report.wall
    );
    println!("\n== noise breakdown ==\n{}", full.render_breakdown());
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
    ExitCode::SUCCESS
}

fn cmd_compare(args: &Args) -> ExitCode {
    use osn_core::analysis::{comparison_table, NoiseSignature};
    let (Some(path_a), Some(path_b)) = (args.positional.get(1), args.positional.get(2)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let load = |p: &str| -> Option<(String, NoiseSignature)> {
        let run = match osn_core::load_run(std::path::Path::new(p)) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("cannot load {p}: {e}");
                return None;
            }
        };
        let label = if run.app == App::Native {
            "native".to_string()
        } else {
            format!("model:{}", run.app.name())
        };
        Some((label, NoiseSignature::build(&run.analysis, &run.ranks)))
    };
    let (Some((label_a, sig_a)), Some((label_b, sig_b))) = (load(path_a), load(path_b)) else {
        return ExitCode::FAILURE;
    };
    // Same-app comparisons (e.g. two native captures) still need
    // distinguishable column headers.
    let (label_a, label_b) = if label_a == label_b {
        (format!("{label_a}/a"), format!("{label_b}/b"))
    } else {
        (label_a, label_b)
    };
    println!("{} = {}   {} = {}\n", label_a, path_a, label_b, path_b);
    print!("{}", comparison_table(&label_a, &sig_a, &label_b, &sig_b));
    ExitCode::SUCCESS
}

/// Expand one `info` argument: a `.osn` file stands alone, a directory
/// contributes every `.osn` file beneath it (sorted for stable output).
fn collect_store_paths(input: &str, out: &mut Vec<std::path::PathBuf>) {
    let path = std::path::PathBuf::from(input);
    if !path.is_dir() {
        out.push(path);
        return;
    }
    let mut found = Vec::new();
    let mut dirs = vec![path];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "osn") {
                found.push(p);
            }
        }
    }
    found.sort();
    out.extend(found);
}

/// One opened store, or why it would not open.
type StoreInfo = (
    std::path::PathBuf,
    Result<(osn_core::store::Reader, osn_core::store::RecoveryReport), String>,
);

fn info_json(stores: &[StoreInfo]) -> serde::Value {
    use serde::{Serialize, Value};
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
                                Ok(meta) => meta.to_value(),
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
        println!(
            "  recovery:        {} torn chunk(s), {} event(s) lost, {} byte(s) dropped{}",
            recovery.torn_chunks,
            recovery.torn_events,
            recovery.dropped_bytes,
            if recovery.footer_ok {
                ""
            } else {
                ", footer missing"
            },
        );
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

fn cmd_info(args: &Args) -> ExitCode {
    if args.positional.len() < 2 {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    }
    let mut paths = Vec::new();
    for input in &args.positional[1..] {
        collect_store_paths(input, &mut paths);
    }
    if paths.is_empty() {
        eprintln!("no .osn stores found");
        return ExitCode::FAILURE;
    }
    let stores: Vec<StoreInfo> = paths
        .into_iter()
        .map(|path| {
            let opened = osn_core::store::Reader::recover(&path).map_err(|e| e.to_string());
            (path, opened)
        })
        .collect();

    if let Some(out) = args.flags.get("json") {
        let json = match serde_json::to_string_pretty(&info_json(&stores)) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let written = if out.is_empty() || out == "-" {
            println!("{json}");
            Ok(())
        } else {
            std::fs::write(out, json.as_bytes())
        };
        if let Err(e) = written {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
    } else if stores.len() == 1 {
        match &stores[0].1 {
            Ok((reader, recovery)) => info_detail(&stores[0].0, reader, recovery),
            Err(e) => {
                eprintln!("cannot open {}: {e}", stores[0].0.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        for (path, opened) in &stores {
            info_row(path, opened);
        }
    }
    if stores.iter().any(|(_, opened)| opened.is_err()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &Args) -> ExitCode {
    let Some(dir) = args.positional.get(1) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let mut config = osn_catalog::ServiceConfig::new(std::path::PathBuf::from(dir));
    if let Some(addr) = args.flags.get("addr") {
        config.addr = addr.clone();
    }
    if let Some(threads) = args.flags.get("threads").and_then(|s| s.parse().ok()) {
        config.threads = std::cmp::max(threads, 1);
    }
    if let Some(ms) = args
        .flags
        .get("rescan-ms")
        .and_then(|s| s.parse::<u64>().ok())
    {
        config.rescan = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(cache) = args.flags.get("cache").and_then(|s| s.parse().ok()) {
        config.cache_runs = std::cmp::max(cache, 1);
    }
    match osn_catalog::Service::start(config) {
        Ok(service) => {
            println!(
                "catalog: {} run(s) indexed, {} skipped",
                service.runs(),
                service.skipped()
            );
            println!("serving on http://{}", service.addr());
            use std::io::Write;
            std::io::stdout().flush().ok();
            service.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot serve {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_cluster(args: &Args) -> ExitCode {
    let Some(app) = args.positional.get(1).and_then(|n| parse_app(n)) else {
        eprintln!("{HELP}");
        return ExitCode::FAILURE;
    };
    let nodes = args
        .flags
        .get("nodes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8usize)
        .max(1);
    let mut config = ClusterConfig::new(app, nodes, args.secs());
    config.seed = args.seed();
    config.granularity = Nanos::from_micros(
        args.flags
            .get("granularity-us")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1_000),
    );
    if let Some(cpus) = args.flags.get("cpus").and_then(|s| s.parse().ok()) {
        config.cpus = Some(cpus);
    }
    if let Some(workers) = args.flags.get("workers").and_then(|s| s.parse().ok()) {
        config.workers = Some(workers);
    }
    if let Some(phases) = args.flags.get("max-phases").and_then(|s| s.parse().ok()) {
        config.max_phases = phases;
    }
    if args.flags.get("stagger").is_some_and(|s| s == "off") {
        config.stagger = false;
    }
    if let Some(spec) = args.flags.get("inject") {
        match osn_core::parse_inject_spec(spec) {
            Ok(specs) => config.inject.specs = specs,
            Err(e) => {
                eprintln!("bad --inject spec: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(tier) = args.flags.get("tier") {
        match parse_tier(tier) {
            Ok(tier) => config.tier = tier,
            Err(e) => {
                eprintln!("bad --tier: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = RunOpts {
        progress_every: Some(
            args.flags
                .get("progress")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        ),
    };
    let report = if let Some(dir) = args.flags.get("store") {
        let dir = std::path::Path::new(dir);
        match run_cluster_stored_opts(&config, dir, store_options(args), opts) {
            Ok((report, paths)) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
                report
            }
            Err(e) => {
                eprintln!("cannot run stored cluster in {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_cluster_opts(&config, opts).report
    };
    print!("{}", report.render());
    if let Some(path) = args.flags.get("json") {
        match serde_json::to_vec_pretty(&report) {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(path, bytes) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("report written to {path}");
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_overhead(args: &Args) -> ExitCode {
    let dur = args.secs().min(Nanos::from_secs(5));
    let mut total = 0.0;
    for app in App::ALL {
        let config = ExperimentConfig::paper(app, dur).with_seed(args.seed());
        let nranks = config.nranks;
        let seeds: Vec<u64> = (0..6).map(|i| args.seed() + i * 7919).collect();
        let report = measure_overhead_avg(&config.node, LTTNG_CLASS_OVERHEAD, &seeds, |node_cfg| {
            let mut node = Node::new(node_cfg);
            node.spawn_job(app.name(), osn_core::workloads::ranks(app, nranks, dur));
            for (i, h) in osn_core::workloads::helpers(app, dur)
                .into_iter()
                .enumerate()
            {
                node.spawn_process(&format!("python.{i}"), h);
            }
            node
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
    ExitCode::SUCCESS
}
