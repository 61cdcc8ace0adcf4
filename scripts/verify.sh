#!/usr/bin/env sh
# Tier-1 verification, hermetic: build + test the whole workspace with no
# registry access. Any dependency leak outside the tree fails here first.
#
# Usage: scripts/verify.sh [--with-benches]
#
# Knobs:
#   SOI_TESTKIT_SEED=0x...   re-seed every property suite (default fixed)
#   SOI_TESTKIT_CASES=N      override per-property case counts
#   SOI_TESTKIT_REPLAY=0x... replay exactly one reported failing case

set -eu

cd "$(dirname "$0")/.."

echo "==> guard: [workspace.dependencies] must contain only path dependencies"
leaks="$(sed -n '/^\[workspace\.dependencies\]/,/^\[/p' Cargo.toml | grep -E '"[0-9]' || true)"
if [ -n "$leaks" ]; then
    echo "ERROR: registry dependency found in [workspace.dependencies]:" >&2
    echo "$leaks" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline (root package: tier-1)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace (every crate)"
cargo test -q --offline --workspace

echo "==> determinism: two property-suite runs must exercise identical streams"
run_props() {
    cargo test -q --offline --test properties 2>&1 \
        | grep -E "^test result" | sed 's/; finished in.*//' || true
}
a="$(run_props)"
b="$(run_props)"
if [ "$a" != "$b" ]; then
    echo "ERROR: property suite results differ between consecutive runs" >&2
    echo "run 1: $a" >&2
    echo "run 2: $b" >&2
    exit 1
fi

echo "==> traced pipeline smoke: simulate --trace, then the conservation validator"
trace_file="${TMPDIR:-/tmp}/soi-verify-trace.$$.jsonl"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    simulate --nodes 2 --points 2048 --fabric ethernet --trace "$trace_file"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$trace_file"
rm -f "$trace_file"

echo "==> out-of-process smoke: 4-rank soi launch over localhost + trace-check"
wire_trace="${TMPDIR:-/tmp}/soi-verify-wire.$$.jsonl"
# Hard timeout: a transport regression must fail loudly, never hang the
# verification run. (Workers carry their own per-op deadlines too.)
if command -v timeout >/dev/null 2>&1; then launch_to="timeout 120"; else launch_to=""; fi
$launch_to cargo run --release --offline -q -p soi-cli --bin soi -- \
    launch --ranks 4 --n 65536 --p 8 --trace "$wire_trace"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$wire_trace"
rm -f "$wire_trace"

echo "==> fault smoke: kill rank 1 at boundary 3, recover, trace-check the capture"
fault_trace="${TMPDIR:-/tmp}/soi-verify-fault.$$.jsonl"
# The worker aborts itself mid-run; the launcher must detect the death,
# respawn the rank into epoch 1, replay from checkpoints, and still
# produce a conservation-valid merged trace (with rejoin markers) and a
# bitwise-correct spectrum — all inside the hard timeout.
SOI_FAULT_PHASE=3 $launch_to cargo run --release --offline -q -p soi-cli --bin soi -- \
    launch --ranks 4 --n 65536 --p 8 --trace "$fault_trace"
cargo run --release --offline -q -p soi-cli --bin soi -- \
    trace-check --file "$fault_trace"
rm -f "$fault_trace"

echo "==> serve smoke: daemon on an ephemeral port, mixed verified requests, clean shutdown"
serve_log="${TMPDIR:-/tmp}/soi-verify-serve.$$.log"
./target/release/soi serve --addr 127.0.0.1:0 --threads 2 > "$serve_log" 2>&1 &
serve_pid=$!
# The daemon prints `serve    : listening on <addr>` once bound; poll for it.
serve_addr=""
i=0
while [ $i -lt 100 ]; do
    serve_addr="$(sed -n 's/^serve    : listening on //p' "$serve_log")"
    [ -n "$serve_addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "ERROR: soi serve exited before binding:" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$serve_addr" ]; then
    echo "ERROR: soi serve never reported its listen address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# Every kind the protocol carries, each response checked bitwise against a
# locally computed reference; then a stats snapshot and a clean shutdown.
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --count 2 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --segment 2 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --band 1234 --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --input real --check 1
$launch_to ./target/release/soi request --addr "$serve_addr" \
    --n 16384 --p 4 --digits 10 --input real --band 777 --check 1
$launch_to ./target/release/soi serve --stats "$serve_addr"
$launch_to ./target/release/soi request --addr "$serve_addr" --shutdown 1
wait "$serve_pid"
rm -f "$serve_log"

echo "==> cargo build --release --offline -p soi-bench --benches"
cargo build --release --offline -p soi-bench --benches

echo "==> perfbench: build the benchmark and run its unit tests"
# perfbench is its own package (not a workspace member) that drives the
# public transform API; building it here catches API drift it depends on.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> per-phase perf gate vs committed BENCH_pipeline.json"
if [ "${SOI_PERF_SKIP:-0}" = "1" ]; then
    echo "    skipped (SOI_PERF_SKIP=1)"
else
    # Non-blocking by default; SOI_PERF_STRICT=1 turns regressions into
    # failures. SOI_PERF_SKIP=1 skips the measurement entirely (used by
    # CI, which runs the gate as its own visible step).
    sh scripts/perf_gate.sh
fi

if [ "${1:-}" = "--with-benches" ]; then
    echo "==> smoke-run the harness-free benches (quick settings, small N)"
    # SOI_BENCH_PIPELINE_N keeps the threaded-scaling bench tiny; the
    # *_OUT overrides park smoke-quality outputs in target/ so the
    # committed BENCH_*.json baselines are never overwritten by a smoke
    # run (refresh them with scripts/bench_refresh.sh).
    mkdir -p target/bench_smoke
    SOI_BENCH_SAMPLES=3 SOI_BENCH_WARMUP_MS=2 SOI_BENCH_TARGET_MS=2 \
    SOI_BENCH_PIPELINE_N=16384 \
    SOI_BENCH_DIST_ITERS=2 SOI_BENCH_DIST_N=16384 \
    SOI_BENCH_FAULT_N=16384 SOI_BENCH_FAULT_SAMPLES=1 \
    SOI_BENCH_SERVE_N=4096 SOI_BENCH_SERVE_REQS=5 SOI_BENCH_SERVE_CLIENTS=4 \
    SOI_BENCH_PIPELINE_OUT="$PWD/target/bench_smoke/BENCH_pipeline.json" \
    SOI_BENCH_KERNELS_OUT="$PWD/target/bench_smoke/BENCH_kernels.json" \
    SOI_BENCH_DIST_OUT="$PWD/target/bench_smoke/BENCH_dist.json" \
    SOI_BENCH_FAULTS_OUT="$PWD/target/bench_smoke/BENCH_faults.json" \
    SOI_BENCH_SERVE_OUT="$PWD/target/bench_smoke/BENCH_serve.json" \
        cargo bench --offline -p soi-bench
fi

echo "==> verify OK"
