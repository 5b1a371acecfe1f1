//! Extending the library: write your own workload model and measure
//! the noise it experiences.
//!
//! The model below is a latency-sensitive request loop (e.g. an
//! in-memory KV server thread): it spins on short requests and cares
//! about tail latency, so every kernel interruption matters.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use osnoise::analysis::histogram::percentile;
use osnoise::analysis::NoiseAnalysis;
use osnoise::kernel::prelude::*;
use osnoise::kernel::workload::{Action, Workload, WorkloadCtx};
use osnoise::trace::TraceSession;

/// Serves fixed-cost requests until the deadline, recording one mark
/// per 1000 requests.
struct RequestLoop {
    deadline: Nanos,
    request_cost: Nanos,
    served: u64,
}

impl Workload for RequestLoop {
    fn name(&self) -> &'static str {
        "kv_server"
    }

    fn cache_factor(&self) -> f64 {
        1.2
    }

    fn next(&mut self, ctx: &mut WorkloadCtx<'_>) -> Action {
        if ctx.now >= self.deadline {
            return Action::Exit;
        }
        self.served += 1000;
        if self.served.is_multiple_of(100_000) {
            return Action::Mark {
                mark: 1,
                value: self.served,
            };
        }
        Action::Compute {
            work: self.request_cost * 1000,
        }
    }
}

fn main() {
    let cfg = NodeConfig::default()
        .with_cpus(2)
        .with_horizon(Nanos::from_secs(3));
    let mut node = Node::new(cfg);
    let tid = node.spawn_process(
        "kv_server",
        Box::new(RequestLoop {
            deadline: Nanos::from_secs(2),
            request_cost: Nanos(850),
            served: 0,
        }),
    );

    let (session, mut tracer) = TraceSession::with_defaults(2);
    let result = node.run(&mut tracer);
    let trace = session.stop();
    let analysis = NoiseAnalysis::analyze(&trace, &result.tasks, result.end_time);

    let tn = &analysis.tasks[&tid];
    let durations: Vec<Nanos> = tn
        .interruptions
        .iter()
        .map(|i| tn.components(i).noise())
        .collect();
    println!(
        "kv_server: {} interruptions, {} total noise",
        durations.len(),
        tn.total_noise()
    );
    println!("  p50 interruption: {}", percentile(&durations, 50.0));
    println!("  p99 interruption: {}", percentile(&durations, 99.0));
    println!(
        "  worst interruption: {}",
        durations.iter().max().copied().unwrap_or(Nanos::ZERO)
    );
    println!("every one of these is a tail-latency outlier for the server");
}
