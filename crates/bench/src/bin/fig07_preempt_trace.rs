//! Fig 7 — Process preemption experienced by LAMMPS: frequent
//! preemptions throughout the execution.

use osn_bench::{load_or_run, render_deciles};
use osn_core::analysis::noise::Component;
use osn_core::kernel::time::Nanos;
use osn_core::workloads::App;

fn main() {
    let run = load_or_run(App::Lammps);
    let mut preemptions: Vec<(Nanos, Nanos)> = Vec::new();
    for tid in &run.ranks {
        if let Some(tn) = run.analysis.tasks.get(tid) {
            for i in &tn.interruptions {
                for (c, d) in tn.components(i) {
                    if matches!(c, Component::Preemption { .. }) {
                        preemptions.push((i.start, *d));
                    }
                }
            }
        }
    }
    println!(
        "== Fig 7: LAMMPS preemptions over the run ({} events, {}) ==",
        preemptions.len(),
        preemptions.iter().map(|(_, d)| *d).sum::<Nanos>()
    );
    println!(
        "{}",
        render_deciles(&preemptions, (Nanos::ZERO, run.result.end_time))
    );
    println!("paper: \"LAMMPS suffers many frequent preemptions\" throughout");
}
