//! Fig 2 — FTQ execution trace: the zoomed interruption showing timer
//! interrupt, run_timer_softirq, the two schedule halves, and a daemon
//! preemption, with per-event durations (paper: 2.178 µs / 1.842 µs /
//! 0.382 µs / 2.215 µs / 0.179 µs).

use osn_core::figures::{fig1_config, fig2_interruption, run_ftq};
use osn_core::paraver;

fn main() {
    let (params, node) = fig1_config(4000);
    let exp = run_ftq(params, node.with_seed(osn_bench::seed()));

    match fig2_interruption(&exp) {
        Some(i) => {
            let components = exp.analysis.components(i);
            println!("== Fig 2b: one interruption, decomposed ==");
            println!(
                "interval [{}, {}] total {} (noise {})",
                i.start,
                i.end,
                i.duration(),
                components.noise()
            );
            for (c, d) in components {
                println!("  {c:?} = {d}");
            }
        }
        None => println!("no multi-component interruption found (rerun with more samples)"),
    }

    // Fig 2a: a 75 ms window of the execution trace, exported to
    // Paraver format (counts reported here; files via the CLI).
    let full = paraver::write_full_prv(
        &exp.trace,
        &exp.analysis.instances,
        &exp.result.tasks,
        exp.result.end_time,
    );
    let records = paraver::parse_prv(&full).expect("valid prv").len();
    println!("\n== Fig 2a: execution trace ==");
    println!(
        "  Paraver export: {} records over {}",
        records, exp.result.end_time
    );
}
