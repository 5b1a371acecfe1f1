#!/usr/bin/env bash
# Benchmark regression gate: rerun the bench suite and compare the
# fresh BENCH_PR*.json numbers (written under target/bench/) against
# the committed baselines at the repo root with the `bench_gate`
# comparator. Fails (nonzero exit) on >15% aggregate regression
# (geometric mean over every aggregate_* metric, honoring each
# metric's direction) or on any single metric collapsing below 70% of
# its baseline.
#
# Knobs: OSN_SECS / OSN_REPS forward to the bench binaries (defaults —
# the binaries' own, matching how the baselines were produced);
# OSN_GATE_THRESHOLD (default 0.85) and OSN_GATE_FLOOR (default 0.70)
# tune the comparator.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release --offline -p osn-bench

echo "== bench-gate: engine_throughput"
target/release/engine_throughput
echo "== bench-gate: analysis_throughput"
target/release/analysis_throughput
echo "== bench-gate: store_throughput"
target/release/store_throughput
echo "== bench-gate: cluster_throughput"
target/release/cluster_throughput
echo "== bench-gate: cluster_scale"
target/release/cluster_scale
echo "== bench-gate: catalog_throughput"
target/release/catalog_throughput
echo "== bench-gate: capture_overhead"
target/release/capture_overhead

target/release/bench_gate . target/bench \
    --threshold "${OSN_GATE_THRESHOLD:-0.85}" \
    --metric-floor "${OSN_GATE_FLOOR:-0.70}"
