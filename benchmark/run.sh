#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh                       every workload, end-to-end then traced
#   benchmark/run.sh --quick               the same in seconds, on a miniature
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the form BENCHMARK.json's
#                                          command is called in
#
# One process per run, so peak_rss_mb belongs to one workload. Every run
# prints its metrics by name with their units, a run record, and the result
# object as its last line; the exit code is non-zero if any answer disagreed
# with the in-memory flat reference.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the caller's directory,
# and so does this script: it never changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
bin="$target/release/fp-benchmark"

FP_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
FP_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export FP_BENCH_COMMIT FP_BENCH_RUSTC

for arg in "$@"; do
    if [ "$arg" = "--workload" ] || [ "$arg" = "--compare" ]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done

status=0
for workload in rush_mem rush_disk ch_rush live_service; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        "$bin" --out "$here/out" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
