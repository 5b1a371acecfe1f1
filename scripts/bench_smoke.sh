#!/usr/bin/env bash
# Smoke check for the simulator's performance trajectory: build, run
# the test suite, then short benchmark runs of every bench — the ones
# behind BENCH_PR1.json (per-app engine events/sec), BENCH_PR3.json
# (sharded/fused analysis engine vs the sequential reference,
# campaign + rank sweep — every timed rep
# also differentially checks the reports are bit-identical),
# BENCH_PR4.json (chunked on-disk store: write MB/s, codec ratio, and
# out-of-core streamed analysis vs in-memory, differentially checked
# per rep), and BENCH_PR5.json (mechanistic cluster engine: nodes/sec
# vs worker-thread count, byte-identical reports per rep). Intended
# for CI and for a quick local sanity run after touching the engine or
# analysis hot paths.
#
# The benches write their BENCH_PR*.json under target/bench/, so the
# smoke-length numbers never touch the committed baselines at the repo
# root.
#
# Each binary's output is scanned for "panicked at": a panic on a
# spawned thread can reach stderr without failing the process, and a
# bench that half-ran must not pass the smoke check.
#
# Knobs are forwarded to all binaries: OSN_SECS (default 5 here —
# short but long enough that per-run timing is meaningful), OSN_REPS.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

run_bench() {
    local bin="$1"
    local log
    log="$(mktemp)"
    OSN_SECS="${OSN_SECS:-5}" OSN_REPS="${OSN_REPS:-2}" \
        cargo run -q --release --offline -p osn-bench --bin "$bin" 2>&1 | tee "$log"
    if grep -q "panicked at" "$log"; then
        rm -f "$log"
        echo "bench_smoke: $bin panicked" >&2
        exit 1
    fi
    rm -f "$log"
}

# Columnar-path smoke (before the full-length runs): a tiny campaign with 256-event
# chunks drives the mmap'd columnar cursors across many chunk
# boundaries; every rep asserts the streamed report is byte-identical
# to the in-memory one, so a release-profile-only divergence in the
# columnar decode or pairing resumption fails here.
echo "== bench_smoke: columnar store path (small chunks)"
OSN_SECS=1 OSN_REPS=1 OSN_CHUNK_CAP=256 run_bench store_throughput

run_bench engine_throughput
run_bench analysis_throughput
run_bench store_throughput
run_bench cluster_throughput
# Catalog service: queries/s at 1/4/16 concurrent clients over a mixed
# endpoint workload (BENCH_PR9.json); every report response is
# byte-checked against the offline analysis under load.
run_bench catalog_throughput
# Native capture recorder: real host FTQ loop + procfs attribution +
# store write (BENCH_PR10.json). Short reps — the smoke loop checks
# the path runs clean on this host, not the published numbers.
OSN_CAPTURE_SECS=1 run_bench capture_overhead
# Tiered scaling: validation scales + the 10k-rank point only — the
# 100k point is for published BENCH_PR8.json runs, not the smoke loop.
OSN_SCALE_MAX=10000 run_bench cluster_scale

# Fault-injection smoke: a small cluster with one perturbation of
# every class (kernel tier: steal/dvfs/numa; cluster tier: crash/
# straggler/partition/jitter) must run clean, attribute each injected
# class in the report, and produce a byte-identical JSON report on a
# second run — the injection schedules are seed-derived, never clock-
# or scheduler-derived.
echo "== bench_smoke: fault injection determinism"
INJECT='steal:interval=5ms,duration=100us,node=1; dvfs:period=20ms,duty=0.3,factor=2,node=2; numa:split=1,factor=2,node=3; crash:node=1,at=50ms,down=20ms; straggler:node=2,factor=1.2; partition:node=3,at=100ms,dur=100ms,delay=300us; jitter:mean=10us'
inject_dir="$(mktemp -d)"
for rep in 1 2; do
    cargo run -q --release --offline -p osn-cli --bin osnoise -- \
        cluster sphot --nodes 4 --secs 1 --cpus 2 --seed 7 \
        --inject "$INJECT" --json "$inject_dir/report-$rep.json" \
        > "$inject_dir/out-$rep.txt"
done
cmp "$inject_dir/report-1.json" "$inject_dir/report-2.json" || {
    echo "bench_smoke: injected cluster report not deterministic" >&2
    exit 1
}
for class in crash straggler partition jitter; do
    grep -q "$class" "$inject_dir/out-1.txt" || {
        echo "bench_smoke: injected class '$class' not attributed in report" >&2
        exit 1
    }
done
grep -q "barrier paid by injected fault class" "$inject_dir/out-1.txt" || {
    echo "bench_smoke: injected-fault attribution section missing" >&2
    exit 1
}
rm -rf "$inject_dir"
echo "== bench_smoke: fault injection OK"

echo "bench_smoke: OK (smoke numbers printed above and written under target/bench/)"
