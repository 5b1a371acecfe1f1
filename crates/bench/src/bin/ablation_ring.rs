//! Ablation: tracer ring-buffer capacity vs record loss. LTTng-class
//! tracers size per-CPU buffers so the consumer keeps up; undersized
//! rings silently drop the events that matter most (bursts).

use osn_core::kernel::node::Node;
use osn_core::kernel::prelude::*;
use osn_core::trace::session::{EventMask, TraceSession};
use osn_core::workloads::App;

fn main() {
    let dur = Nanos::from_secs(3);
    println!("== ring-capacity ablation: AMG, rings drained once at stop ==");
    for capacity in [1usize << 8, 1 << 12, 1 << 16, 1 << 20] {
        let cfg = NodeConfig::default()
            .with_seed(osn_bench::seed())
            .with_horizon(dur * 3);
        let cpus = cfg.cpus as usize;
        let mut node = Node::new(cfg);
        node.spawn_job("amg", osn_core::workloads::ranks(App::Amg, cpus, dur));
        let (session, mut tracer) = TraceSession::new(cpus, capacity, EventMask::ALL);
        node.run(&mut tracer);
        let trace = session.stop();
        let total = trace.len() as u64 + trace.total_lost();
        println!(
            "  {:>8} slots/cpu: kept {:>8} lost {:>8} ({:.2}% loss)",
            capacity,
            trace.len(),
            trace.total_lost(),
            100.0 * trace.total_lost() as f64 / total.max(1) as f64
        );
    }
    println!(
        "\n(a spilling session, as `osnoise record` runs, drains the rings while the run \
         produces, so far smaller rings survive, though rings too small for the drain \
         to keep up still lose records; see osn-trace's TraceSession::spill)"
    );
}
