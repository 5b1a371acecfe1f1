//! `benchmark`: the osnoise benchmark.
//!
//! ```text
//! benchmark run [--workload W]... [--seed S] [--seconds N] [--trace [0|1]]
//!               [--out DIR] [--smoke]
//! benchmark compare A B
//! ```
//!
//! `run` runs each workload (all five, in a fixed order, by default) in
//! a child process of its own, prints every metric by name with its
//! unit, writes `DIR/results.json` (and `DIR/trace-<workload>.json`
//! when traced), and ends its output with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics. It exits nonzero when any
//! output fails its check. `compare` judges two directories of repeated
//! runs against the bounds in `BENCHMARK.json`. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

mod check;
mod compare;
mod host;
mod results;
mod spans;
mod spec;
mod stats;
mod workloads;

use results::{RunResults, WorkloadResult};
use workloads::{Ctx, Sizes, Workload};

/// The campaign seed (0x0511_2011).
const DEFAULT_SEED: u64 = 85_008_401;

const USAGE: &str = "usage:
  benchmark run [--workload W]... [--seed S] [--seconds N] [--trace [0|1]] [--out DIR] [--smoke]
  benchmark compare A B
workloads: offline, cluster, serve, serve-cold, capture";

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

impl RunArgs {
    fn parse(args: &[String], spec: &spec::Spec) -> Result<RunArgs, String> {
        let mut workloads = Vec::new();
        let mut seed = DEFAULT_SEED;
        let mut seconds = None;
        let mut trace = false;
        let mut out = PathBuf::from(".bench_out");
        let mut smoke = false;
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    workloads.push(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    let s = value("--seed")?;
                    seed = s
                        .parse()
                        .map_err(|_| format!("--seed {s:?} is not an unsigned integer"))?;
                }
                "--seconds" => {
                    let s = value("--seconds")?;
                    let n: f64 = s
                        .parse()
                        .map_err(|_| format!("--seconds {s:?} is not a number"))?;
                    if !(n > 0.0 && n <= 3600.0) {
                        return Err(format!("--seconds {n} is not in (0, 3600]"));
                    }
                    seconds = Some(n);
                }
                "--trace" => {
                    trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => false,
                        Some("1") => true,
                        _ => {
                            trace = true;
                            continue;
                        }
                    };
                    it.next();
                }
                "--out" => out = PathBuf::from(value("--out")?),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if workloads.is_empty() {
            workloads = Workload::ALL.to_vec();
        }
        let seconds = seconds.unwrap_or(if smoke { 1.0 } else { spec.run_seconds });
        Ok(RunArgs {
            workloads,
            seed,
            seconds,
            trace,
            out,
            smoke,
        })
    }

    /// The same arguments for one workload's child process.
    fn child_args(&self, w: Workload) -> Vec<String> {
        let mut args = vec![
            "child".to_string(),
            "--workload".into(),
            w.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
            "--out".into(),
            self.out.display().to_string(),
        ];
        if self.smoke {
            args.push("--smoke".into());
        }
        args
    }
}

fn main() -> ExitCode {
    let spec = spec::spec();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => RunArgs::parse(&args[1..], &spec).map(|a| cmd_run(&a, &spec)),
        Some("child") => RunArgs::parse(&args[1..], &spec).and_then(|a| cmd_child(&a, &spec)),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]), &spec).map(|worse| {
                if worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        _ => Err("expected a command".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Run every selected workload in its own process, report, and exit
/// nonzero if any output failed its check or any workload crashed.
fn cmd_run(a: &RunArgs, spec: &spec::Spec) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("benchmark: cannot create {}: {e}", a.out.display());
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    for &w in &a.workloads {
        let output = Command::new(&exe)
            .args(a.child_args(w))
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let parsed = output.ok().and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let line = text.lines().last()?.to_string();
            serde_json::from_str::<WorkloadResult>(&line).ok()
        });
        match parsed {
            Some(r) => results.push(r),
            None => {
                eprintln!("benchmark: workload {} ended without a result", w.name());
                return ExitCode::FAILURE;
            }
        }
    }

    for r in &results {
        // Per-layer metrics of layers this workload never calls are 0;
        // they stay in results.json but would only clutter the listing.
        let shown = r
            .metrics
            .iter()
            .chain(r.per_layer.iter().filter(|(_, m)| m.value != 0.0));
        for (name, m) in shown {
            println!("{:<10} {:<30} {:>14.4} {}", r.name, name, m.value, m.unit);
        }
        println!(
            "{:<10} {} ops attempted, {} failed, samples {:?}",
            r.name, r.attempted, r.failed, r.samples
        );
    }
    let run = RunResults {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        fingerprint: host::Fingerprint::of_this_host(),
        workloads: results,
    };
    let path = a.out.join("results.json");
    let written = serde_json::to_vec_pretty(&run)
        .map_err(|e| e.to_string())
        .and_then(|bytes| std::fs::write(&path, bytes).map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    println!("{}", results::summary_line(&run.workloads, a.trace, spec));
    if run.workloads.iter().all(|r| r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload, in this process: measure, write its spans when
/// traced, and print its result as the last line.
fn cmd_child(a: &RunArgs, spec: &spec::Spec) -> Result<ExitCode, String> {
    let &[workload] = a.workloads.as_slice() else {
        return Err("child runs exactly one workload".to_string());
    };
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        sizes: Sizes::new(a.smoke),
        dir: a.out.join(format!("work-{}", workload.name())),
        origin: Instant::now(),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("{}: {e}", ctx.dir.display()))?;
    let measured = workloads::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.dir);

    if a.trace {
        let path = a.out.join(format!("trace-{}.json", workload.name()));
        let doc = serde::Value::Map(vec![
            ("workload".into(), serde::Value::Str(workload.name().into())),
            ("spans".into(), serde::Serialize::to_value(&measured.spans)),
        ]);
        let bytes = serde_json::to_vec(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = results::summarize(workload, a.trace, measured, spec);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}
