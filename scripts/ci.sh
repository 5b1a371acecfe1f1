#!/usr/bin/env bash
# Repo-wide CI gate: formatting, lints, the full test suite, doc
# tests, a doc-warning lint, and end-to-end smokes — each step
# individually timed so CI logs show where the minutes go.
#
#   scripts/ci.sh [lint|test|smoke|all]
#
# The optional mode argument selects one step group so the GitHub
# workflow can fan the groups out as parallel jobs (sharing one cached
# target dir); no argument (or `all`) runs everything, which is what a
# developer runs locally.
#
#   lint   fmt, clippy, doc lint, shellcheck
#   test   unit/integration tests, vendored serde/serde_json tests,
#          doc tests
#   smoke  release-profile end-to-end: tiered cluster, engine and
#          analysis determinism, serve daemon, native capture, the
#          benchmark package's own tests (plus the bench gate when
#          OSN_BENCH_GATE=1)
#
# Clippy and the doc lint run over the first-party crates and the
# vendored stand-ins: vendor/ holds this repo's own offline
# replacements for the upstream crates' API subset, not upstream
# sources, so it is held to the same lint bar.
#
# Set OSN_BENCH_GATE=1 to also run the benchmark regression gate
# (scripts/bench_gate.sh): reruns the bench suite and fails on >15%
# aggregate regression against the committed BENCH_PR*.json baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"

FIRST_PARTY=(
    -p osn-kernel
    -p osn-trace
    -p osn-store
    -p osn-analysis
    -p osn-workloads
    -p osn-core
    -p osn-ftq
    -p osn-paraver
    -p osn-bench
    -p osn-catalog
    -p osn-cli
    -p osnoise
)

VENDORED=(
    -p serde
    -p serde_derive
    -p serde_json
    -p proptest
)

STEP_T0=0
step_begin() {
    STEP_T0=$SECONDS
    echo "== ci: $1"
}
step_end() {
    echo "== ci: $1 OK ($((SECONDS - STEP_T0))s)"
}
run_step() {
    local name="$1"
    shift
    step_begin "$name"
    "$@"
    step_end "$name"
}

# The shell entry points are code too. Skips (loudly) where the tool
# isn't installed — GitHub's runners ship it, a dev box may not.
shellcheck_scripts() {
    if ! command -v shellcheck > /dev/null 2>&1; then
        echo "== ci: shellcheck SKIPPED — shellcheck not installed on this host"
        return 0
    fi
    shellcheck scripts/*.sh
}

# Fast tiered-cluster smoke: a 512-rank sampled campaign through the
# release CLI must finish quickly, embed self-describing tier metadata
# in --json, and print the tier section in the text report. It runs at
# 1 and at 2 node workers (with the nested analysis pools on their
# share of the thread budget), and the two --json reports must be
# byte-identical. The same campaign recorded through --store DIR (each
# sampled node spilled to a .osn store and analyzed back from it) must
# write the same --json bytes at both worker counts.
tier_smoke() {
    cargo build -q --release --offline -p osn-cli
    local out
    out="$(mktemp -d)"
    local w
    for w in 1 2; do
        target/release/osnoise cluster umt --nodes 512 --secs 1 --cpus 2 --seed 7 \
            --tier sampled:0.125 --workers "$w" --json "$out/tier-$w.json" \
            > "$out/report-$w.txt"
        target/release/osnoise cluster umt --nodes 512 --secs 1 --cpus 2 --seed 7 \
            --tier sampled:0.125 --workers "$w" --store "$out/store-$w" \
            --json "$out/stored-$w.json" > /dev/null
    done
    local ok=0
    grep -q '"sample_fraction"' "$out/tier-1.json" \
        && grep -q '"validation"' "$out/tier-1.json" \
        && grep -q 'tier' "$out/report-1.txt" || ok=1
    if [[ $ok -ne 0 ]]; then
        echo "ci: tiered smoke: tier metadata missing from report" >&2
    fi
    if ! cmp "$out/tier-1.json" "$out/tier-2.json"; then
        echo "ci: tiered smoke: report differs between 1 and 2 workers" >&2
        ok=1
    fi
    for w in 1 2; do
        if ! cmp "$out/tier-1.json" "$out/stored-$w.json"; then
            echo "ci: tiered smoke: --store report at $w workers differs from in-memory" >&2
            ok=1
        fi
    done
    rm -rf "$out"
    return $ok
}

# One short engine_throughput pass (about a second): it asserts that
# every timed rep of each app dispatches as many loop events as its
# warm-up, so a clean exit is a determinism check on the event loop.
engine_determinism() {
    cargo build -q --release --offline -p osn-bench --bin engine_throughput
    OSN_SECS=1 OSN_REPS=1 target/release/engine_throughput
}

# The release-profile analysis oracles (a few seconds):
# analysis_throughput asserts on every rep that the engine's report
# bytes equal the reference engine's, and store_throughput, with
# 256-record chunks so that pairing resumes across many chunk
# boundaries, that the streamed report equals the in-memory one. Both
# write their numbers under target/bench/ only, so the committed
# BENCH_PR*.json files stay as they are.
analysis_determinism() {
    cargo build -q --release --offline -p osn-bench --bin analysis_throughput --bin store_throughput
    OSN_SECS=1 OSN_REPS=1 target/release/analysis_throughput
    OSN_SECS=1 OSN_REPS=1 OSN_CHUNK_CAP=256 target/release/store_throughput
}

# Native-capture smoke, release profile: `osnoise capture` on THIS
# runner must produce a .osn that analyze/info/serve consume
# unchanged, with byte-consistent reports across consumers
# (crates/cli/tests/capture.rs does the serve round-trip with the
# catalog client). Skipped — loudly, never silently — on hosts
# without /proc/schedstat, where attribution runs degraded and a
# classification-bearing capture can't be asserted meaningfully.
# Intermediate files live under target/ci-artifacts/capture so a
# failing CI job can upload them for the post-mortem.
capture_smoke() {
    if [[ ! -r /proc/schedstat ]]; then
        echo "== ci: capture-smoke SKIPPED — /proc/schedstat unavailable on this host;"
        echo "       native attribution is degraded here (capture itself stays covered"
        echo "       by cargo test: crates/cli/tests/capture.rs + osn-ftq fixtures)"
        return 0
    fi
    cargo build -q --release --offline -p osn-cli
    local dir="target/ci-artifacts/capture"
    rm -rf "$dir"
    mkdir -p "$dir"
    target/release/osnoise capture --duration 2s --quantum 1ms \
        --out "$dir/native.osn" --json "$dir/capture.json" > "$dir/capture.txt"
    grep -q '"schedstat_available": *true' "$dir/capture.json" || {
        echo "ci: capture-smoke: capture did not use /proc/schedstat despite it being readable" >&2
        return 1
    }
    target/release/osnoise info "$dir/native.osn" | grep -q '\[native\]' || {
        echo "ci: capture-smoke: info does not tag the run as native" >&2
        return 1
    }
    target/release/osnoise analyze "$dir/native.osn" --json "$dir/a.json" > /dev/null
    target/release/osnoise analyze "$dir/native.osn" --json "$dir/b.json" > /dev/null
    cmp -s "$dir/a.json" "$dir/b.json" || {
        echo "ci: capture-smoke: analyze --json not byte-deterministic on captured store" >&2
        return 1
    }
    cargo test -q --offline --release -p osn-cli --test capture
    # Kept on failure (we never get here) for the artifact upload.
    rm -rf "$dir"
}

# The benchmark package (benchmark/, its own workspace) builds against
# the public API of the repo's crates and checks every workload's
# bytes; nothing else in CI builds it. Cargo prunes stale entries from
# its committed Cargo.lock on build, so the committed lock is restored
# afterwards and the step leaves the tree as it found it.
bench_smoke() {
    local lock
    lock="$(mktemp)"
    cp benchmark/Cargo.lock "$lock"
    local ok=0
    cargo test --release --offline --manifest-path benchmark/Cargo.toml || ok=$?
    cp "$lock" benchmark/Cargo.lock
    rm -f "$lock"
    return $ok
}

lint_steps() {
    run_step fmt cargo fmt --check
    # The vendored crates are not workspace members, so `cargo fmt`
    # does not reach them.
    run_step vendor-fmt rustfmt --check --edition 2021 vendor/*/src/lib.rs
    run_step clippy cargo clippy --offline --no-deps --all-targets "${FIRST_PARTY[@]}" "${VENDORED[@]}" -- -D warnings
    run_step doc-lint env RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps "${FIRST_PARTY[@]}" "${VENDORED[@]}"
    run_step shellcheck shellcheck_scripts
}

test_steps() {
    run_step test cargo test -q --offline
    # The vendored crates are not workspace members, so the step above
    # does not run their unit tests.
    run_step vendor-test cargo test -q --offline -p serde -p serde_json
    run_step doc-test cargo test -q --offline --doc
}

smoke_steps() {
    run_step tier-smoke tier_smoke
    run_step engine-determinism engine_determinism
    run_step analysis-determinism analysis_determinism
    # End-to-end daemon smoke, release profile: spawn `osnoise serve`
    # on an ephemeral port, drive every endpoint once from the Rust
    # catalog client, and assert the /runs/{id}/report bytes equal
    # what `osnoise analyze --json` writes (crates/cli/tests/serve.rs).
    run_step serve-smoke cargo test -q --offline --release -p osn-cli --test serve
    run_step capture-smoke capture_smoke
    run_step bench-smoke bench_smoke
    if [[ "${OSN_BENCH_GATE:-0}" == "1" ]]; then
        run_step bench-gate scripts/bench_gate.sh
    fi
}

case "$MODE" in
    lint) lint_steps ;;
    test) test_steps ;;
    smoke) smoke_steps ;;
    all)
        lint_steps
        test_steps
        smoke_steps
        ;;
    *)
        echo "usage: scripts/ci.sh [lint|test|smoke|all]" >&2
        exit 2
        ;;
esac

echo "ci: $MODE OK (${SECONDS}s total)"
