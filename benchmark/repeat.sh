#!/usr/bin/env bash
# Run the whole set twice, back to back, on the same commit and seed, and
# compare: per workload and end-to-end metric both values, by how much the
# second is worse, and PASS or UNRESOLVED against that metric's bound in
# BENCHMARK.json; per-layer metrics that are counts must be identical.
# Extra arguments (--seed N, --quick, --seconds S) go to every run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
for set in 1 2; do
    rm -f "$here/out/set$set.jsonl"
    "$here/run.sh" --record "$here/out/set$set.jsonl" "$@" > "$here/out/set$set.log"
done
"$here/run.sh" --compare "$here/out/set1.jsonl" "$here/out/set2.jsonl" \
    --bounds "$here/../BENCHMARK.json"
