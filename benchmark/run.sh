#!/usr/bin/env bash
# Builds the benchmark harness and runs it. See README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--trace 0|1] [--out DIR]
#   benchmark/run.sh --selfcheck [--seed N] [--seconds S]
#
# Without --workload every workload runs, each in a process of its own, and
# benchmark/out/results.json gathers them. --selfcheck runs everything twice
# on the same build and fails if any end-to-end metric of any workload
# differs between the two by more than its bound in BENCHMARK.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/hida-benchmark"

# The machine description of every result; the harness starts no processes.
HIDA_BENCH_RUSTC="$(rustc -V)"
HIDA_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export HIDA_BENCH_RUSTC HIDA_BENCH_COMMIT

if [[ "${1:-}" == "--selfcheck" ]]; then
    shift
    "$bin" --out "$here/out/selfcheck-a" "$@"
    "$bin" --out "$here/out/selfcheck-b" "$@"
    exec bash "$here/compare.sh" --bounds "$here/../BENCHMARK.json" \
        "$here/out/selfcheck-a/results.json" "$here/out/selfcheck-b/results.json"
fi
exec "$bin" "$@"
