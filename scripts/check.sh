#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 suite (ROADMAP.md), every
# test in the workspace, the benchmark's own suite and its quick pass.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Written once: the virtual-time service loop, its workload sampler and
# answer signature each have one definition, and only that loop (`drive`
# in the chaos suites' shared harness, `crates/core/tests/sim/mod.rs`)
# advances a clock by a step's cost. The line count is the number
# CHANGES.md entries quote.
echo "==> written-once guard"
for name in "fn sample_specs" "fn answer_sig"; do
    if [ "$(grep -rn "$name" crates | wc -l)" -gt 1 ]; then
        echo "more than one definition of '$name':" >&2
        grep -rn "$name" crates >&2
        exit 1
    fi
done
if grep -rln "clock.advance(rep.cost)" crates |
    grep -v -e '^crates/core/tests/sim/mod.rs$'; then
    echo "a virtual-time loop outside the harness's drive" >&2
    exit 1
fi
# One overload harness, in the tests: the virtual-time driver, its
# arrival schedule, scenario trait and manual clock are test support,
# not product API, and the bench twins that replayed them (with the
# `experiments` subcommands and flag only they read) stay deleted.
if grep -rnE "pub fn drive|ArrivalSchedule|DriveScenario|ManualClock" crates/core/src ||
    grep -nE "mod overload|mod live_update" crates/bench/src/lib.rs ||
    grep -nE -- "update-storm|--deltas" crates/bench/src/bin/experiments.rs; then
    echo "the virtual-time harness is product API again (or a bench twin is back)" >&2
    exit 1
fi
# One compound kernel: the throwaway-scratch wrapper stays deleted, and
# the engine and the hierarchy build a restriction only in their two
# declared fallbacks — everything else composes against a window.
if grep -rn "fn compose_travel_simplified" crates; then
    echo "compose_travel_simplified is back" >&2
    exit 1
fi
if awk '
    FNR == 1 { fn_name = "" }
    /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
    /restrict_with\(/ && fn_name != "restrict_periodic_with" && fn_name != "ext_window" {
        print FILENAME ":" FNR ":" $0
        found = 1
    }
    END { exit !found }
' crates/core/src/*.rs crates/hierarchy/src/*.rs; then
    echo "a restriction built outside restrict_periodic_with and ext_window" >&2
    exit 1
fi
# One home for the hierarchy's bound scalars: the band minima live in
# the bound graph's entries (`Bound`) and are read by `bounds` alone
# (tests aside) — no per-arc table, no per-hop fold beside them. And a
# hop is composed only past the gap gate: every `relax(` call in the
# overlay's search sits below it, and the one loop asks the gate before
# it composes.
if awk '
    FNR == 1 { fn_name = ""; in_type = 0; in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /^(pub\(crate\) )?struct Bound |^impl Bound / { in_type = 1 }
    in_type && /^}/ { in_type = 0 }
    match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
    /band_min|banded_min/ && !in_type && fn_name != "bounds" {
        print FILENAME ":" FNR ":" $0
        found = 1
    }
    END { exit !found }
' crates/hierarchy/src/*.rs; then
    echo "band minima read outside the bound graph and the bounds prelude" >&2
    exit 1
fi
if ! awk '
    /^[[:space:]]*\/\// { next }
    /definitely_lt\(gap, / { gate = FNR }
    /[^a-z_]relax\(/ && !/fn relax\(/ { calls++; if (!gate) ungated = FNR }
    END { exit !(gate && calls && !ungated) }
' crates/hierarchy/src/search.rs; then
    echo "search.rs reaches relax( without passing the gap gate" >&2
    exit 1
fi
if ! awk '
    /^[[:space:]]*\/\// { next }
    /exp\.gate\(/ { gates++; if (!gate) gate = FNR }
    /exp\.compose\(/ { composes++; compose = FNR }
    END { exit !(gates == 1 && composes == 1 && gate < compose) }
' crates/core/src/search.rs; then
    echo "the one loop composes a hop without asking the gate first" >&2
    exit 1
fi
# One witness search: contraction proves shortcuts unnecessary with one
# Dijkstra (one heap pop, one call site) that walks the round's
# remainder snapshot, never the arc lists behind it.
if ! awk '
    /^[[:space:]]*\/\// { next }
    /^impl Witness / { in_witness = 1 }
    in_witness && /^}/ { in_witness = 0 }
    in_witness && /remainder: &Csr<Reach>/ { snapshot = 1 }
    in_witness && /out\[|arcs\[/ { print FILENAME ":" FNR ":" $0; walk = 1 }
    /heap\.pop\(\)/ { pops++ }
    /witness\.run\(/ { calls++ }
    END { exit !(snapshot && !walk && pops == 1 && calls == 1) }
' crates/hierarchy/src/overlay.rs; then
    echo "overlay.rs: not exactly one witness search, over the round's snapshot" >&2
    exit 1
fi
# One way out: every query surface fails with `AllFpError`, one function
# turns a tagged border into an allFP answer, and a route-selecting
# backend ends in the flat engine's `answer_routes` — the hierarchy
# builds no border but its search's own and re-composes no route itself.
if grep -rn "EngineError" crates src tests examples; then
    echo "a second error type on the query surfaces" >&2
    exit 1
fi
for name in "fn answer_routes(" "fn assemble_answer("; do
    if [ "$(grep -rn "$name" crates | wc -l)" -ne 1 ]; then
        echo "not exactly one definition of '$name':" >&2
        grep -rn "$name" crates >&2
        exit 1
    fi
done
if grep -rn --exclude=search.rs "Envelope::new(" crates/hierarchy/src ||
    grep -rn "route_travel_fn(" crates/hierarchy/src; then
    echo "the hierarchy assembles or re-composes an answer of its own" >&2
    exit 1
fi
if grep -n "RouteComposeMemo" crates/core/src/lib.rs; then
    echo "the flat engine's route memo is public again" >&2
    exit 1
fi
# One page path: every disk page comes through `FileStore` and the
# buffer pool, the only place a page is cached. The mmap store, its
# zero-copy borrow and its fault counter stay deleted.
if grep -rnE "MmapStore|page_ref|mmap_faults|open_preferred|mod mmap" crates; then
    echo "a second page path (the mmap store) is back" >&2
    exit 1
fi
# One hierarchy, and it is static: built by contraction for one
# network. The incremental refresh, its report and the
# metric-independent build it needed stay deleted.
if grep -rnE "fn refreshed|\.refreshed\(|RefreshReport|live_topology" crates; then
    echo "the hierarchy's live-update path is back" >&2
    exit 1
fi
# One harness: every gate is a test that `cargo test` runs. The second
# perf harness, the report file it wrote and its JSON writer stay
# deleted.
if [ -e BENCH_engine.json ] || [ -e crates/bench/benches/engine_hotpath.rs ] ||
    grep -rn "fn to_json" crates; then
    echo "the engine_hotpath harness (or its report file or JSON writer) is back" >&2
    exit 1
fi
# Serial contraction: the hierarchy's preprocessing runs on the caller's
# thread. The round worker pool, its fan-out and the `--threads` option
# that set its width stay deleted.
if grep -rnE "WorkerPool|map_indexed|mod pool|thread::" crates/hierarchy/src ||
    grep -n -- "--threads" crates/bench/src/bin/experiments.rs; then
    echo "the hierarchy's worker pool (or experiments --threads) is back" >&2
    exit 1
fi
# One serving tier: `QueryService`. The simulated cluster, its crate
# entries, and the breaker jitter and partition assignment only it used
# stay deleted.
if [ -e crates/cluster ] ||
    grep -rn --include=Cargo.toml --include=Cargo.lock --exclude-dir=target \
        --exclude-dir=.bench_build "fp-cluster" . ||
    grep -rnE "probe_jitter|partition_assignment" crates; then
    echo "the simulated cluster (or its probe jitter or partition assignment) is back" >&2
    exit 1
fi
# No batch scheduler: a query runs on its caller's thread. The
# work-stealing deques, the batch roll-up only they filled and the
# engine's cache on/off knob stay deleted.
if grep -rnE "steal_into|BatchStats|use_travel_cache" crates ||
    grep -n "VecDeque" crates/core/src/backend.rs; then
    echo "the work-stealing batch scheduler (or BatchStats or use_travel_cache) is back" >&2
    exit 1
fi
# No batch entry point: `run_batch` had no caller but its own tests,
# and the travel-function cache's shared store is one map, not the
# shards only its worker threads needed. The buffer pool's retry-seed
# setter, called by nothing, stays deleted too (and the pool's own
# shards and retry jitter with it: the one-pool-lock guard below).
if grep -rnE "fn run_batch|SHARD_COUNT|set_retry_seed" crates ||
    grep -n "fn shard(" crates/core/src/cache.rs; then
    echo "run_batch, the cache shards or the retry-seed setter is back" >&2
    exit 1
fi
# One pool lock: the CCAM buffer pool is one exact global LRU behind
# one mutex. Its hash-addressed shards, the settable shard count and
# the seeded retry jitter that decorrelated their concurrent retry
# loops served only the batch driver's threads, and stay deleted.
if grep -rnE "MAX_SHARDS|MIN_FRAMES_PER_SHARD|with_shards|fn n_shards|shard_shift|retry_noise" crates/ccam; then
    echo "the buffer pool's shards (or its retry jitter) are back" >&2
    exit 1
fi
# One CCAM builder, on the caller's thread: `CcamStore::build_from`
# writes a store from any `NetworkSource`. The parallel bulk builder,
# its config, its stats and its chunked fan-out, and the metro-huge
# thread sweep that timed it, stay deleted.
if grep -rnE "build_bulk|BulkBuildConfig|BulkBuildStats|run_chunked|BUILD_SWEEP|sweep_annotation" crates; then
    echo "the parallel bulk builder (or its thread sweep) is back" >&2
    exit 1
fi
if grep -n "thread::scope" crates/ccam/src/ccam.rs crates/ccam/src/partition.rs; then
    echo "the CCAM build spawns threads again" >&2
    exit 1
fi
# No importer without a caller: the network text format (`roadnet::io`)
# and the parse error only it raised had nothing but their own tests,
# and stay deleted until a real-data run needs them.
if grep -n "pub mod io" crates/network/src/lib.rs ||
    grep -n "Parse {" crates/network/src/lib.rs; then
    echo "the network text format (roadnet::io or NetworkError::Parse) is back" >&2
    exit 1
fi
# Every mechanism has a caller: the hierarchy's snapshot codec (and
# the restore that read it), the service's threaded `serve`, its drain
# modes and its latency histograms had only their own tests, and stay
# deleted.
if grep -rnE "HierarchySnapshot|fn from_snapshot|fn serve\b|DrainMode|fn begin_drain|LatencyHistogram" crates ||
    grep -n "mod overlay;" crates/network/src/lib.rs; then
    echo "the snapshot codec, the threaded serve, a drain mode or the latency histogram is back" >&2
    exit 1
fi
# One tolerant knot walk: both comparison kernels (the dominance and
# border tests, and the live-instant key) stream the merged knots
# through the same walker. And one label-setting loop serves both
# searches: the flat engine and the overlay are `Expand`s of
# `allfp::search::run`, which queues a candidate by its live-instant
# key at its one push site — no second loop, no scalar key beside it.
# Its budget watcher is the loop's own, not API.
if [ "$(grep -c "let seek =" crates/pwl/src/pwl.rs)" -ne 1 ]; then
    echo "pwl.rs: not exactly one EPS-tolerant merged-knot walk" >&2
    exit 1
fi
live_min_calls="$(grep -rn "live_min(" crates/core/src crates/hierarchy/src |
    grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ "$(echo "$live_min_calls" | grep -c .)" -ne 1 ] ||
    ! echo "$live_min_calls" | grep -q '^crates/core/src/search.rs:'; then
    echo "not exactly one live_min( call, in the shared loop (core/src/search.rs):" >&2
    echo "$live_min_calls" >&2
    exit 1
fi
if grep -rnE "pub struct Watch|pub use .*\bWatch\b|allfp::.*\bWatch\b" crates src tests examples; then
    echo "the search's budget watcher is public again" >&2
    exit 1
fi
# One shed counter: a query shed from the queue head is `Shed`, counted
# once; the cancel reason that duplicated it stays deleted.
if grep -rn "CancelReason" crates; then
    echo "CancelReason is back" >&2
    exit 1
fi
# Every public item has a caller that is not its own test: in fp-pwl
# and fp-traffic, the envelope's tag lookup, the constant-speed-limit
# schema and the named category set stay deleted, and the helpers only
# their own files call stay private.
if grep -rnE "fn tag_at|fn constant_speed_limits|CategorySet|fn by_name|workday_nonworkday" \
    crates/pwl crates/traffic ||
    grep -rnE "pub fn (add_linear|max_over|breakpoints_within)\b" crates/pwl crates/traffic; then
    echo "a caller-less fp-pwl/fp-traffic item is back (or public again)" >&2
    exit 1
fi
# One record index: CCAM finds a record through its dense record
# directory, one entry per node id. The B+-tree it replaced, the tree's
# streaming bulk load and the k-way run merge that fed it stay deleted.
if grep -rnE "mod btree|BTree\b|bulk_load_from|MergeRuns" crates/ccam; then
    echo "the B+-tree (or its bulk load or run merge) is back in crates/ccam" >&2
    exit 1
fi
# fp-allfp serves with the bounds it builds from a configuration (naive,
# min-time). The paper's boundary-node estimator is `fpbench::boundary`,
# beside Figure 9 and A-1; its `max` wrapper, its error variants, its
# estimator kind and the estimator-name accessor stay out of core.
# (`BoundaryPartitioned {`, the min-time alias, does not match.)
if grep -rnE "BoundaryLb|MaxEstimator|Panicked|EstimatorNeedsNetwork|Boundary \{|fn estimator_name" \
    crates/core/src; then
    echo "the boundary-node estimator (or a piece of it) is back in crates/core/src" >&2
    exit 1
fi
echo "crates/ lines of Rust: $(find crates -name '*.rs' | xargs cat | wc -l)"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The hierarchy's debug-only checks: the gap gate composes every hop it
# skips, and contraction scores every dirty node in full beside its lazy
# selection, asserting both. Tier-1 builds only the root package in
# debug, and the workspace run below is release, where
# `debug_assertions` is off; these suites reach both checks in debug.
echo "==> hierarchy suites in debug (debug-only cross-checks)"
cargo test -q -p fp-hierarchy
cargo test -q -p fp-allfp --test hierarchy_equivalence --test golden_allfp

# Every test in the workspace, not a hand-kept list of suites: the
# unit tests of every crate, the golden suites (store and hierarchy
# equivalence), the chaos suites (faults, overload, update storm), the
# proptests, and fp-bench's gates — the pinned
# search counts, the allocation budgets, the checksum counts, the
# metro-huge smoke tier and the wall floors (`tests/wall_floors.rs`, a
# binary of its own, so no other test shares its cores). Release,
# because the heavy suites take minutes in debug; --no-fail-fast so one
# run names every failure.
echo "==> cargo test --workspace --release"
cargo test --workspace --release --no-fail-fast -q

# The sampling profiler (`experiments profile`, `scripts/profile.sh`)
# sees a busy loop; its own binary, so no sibling test takes SIGPROF.
echo "==> sampler smoke test"
cargo test --release -q -p fp-bench --test profiler_smoke

# The metro-full overlay digest is `#[ignore]`d in the workspace run
# (about 20 s of contraction); it is gated here, by name.
echo "==> metro-full overlay digest"
cargo test --release -q -p fp-hierarchy --lib -- --ignored --exact \
    overlay_digest::metro_full_overlay_is_pinned

# The A-3 tables are exact counts — page faults of a fixed query stream
# through a cold pool, under each placement — so both recorded ones
# rerun to the byte. A change that moves them re-records the files.
echo "==> A-3 recorded tables (experiments ablation-ccam, medium and full)"
rerun="$(mktemp -d)"
trap 'rm -rf "$rerun"' EXIT
for scale in medium:results full:results-full; do
    name="${scale%%:*}" recorded="${scale#*:}/ablation_ccam.csv"
    cargo run -q --release -p fp-bench --bin experiments -- \
        ablation-ccam --scale "$name" --csv "$rerun/$name" >/dev/null
    if ! diff -u "$recorded" "$rerun/$name/ablation_ccam.csv"; then
        echo "A-3 at --scale $name differs from $recorded" >&2
        exit 1
    fi
done

# Figure 9 and A-1 are means of expanded-node counts over a seeded
# query set, so at --scale medium both rerun to the recorded files:
# fig9.csv whole, ablation_grid.csv on its grid and expanded-node
# columns (1 and 3; columns 2 and 4 are wall times). The two are the
# only runs of the paper's boundary-node estimator (bdLB).
echo "==> Figure 9 and A-1 recorded tables (experiments fig9, ablation-grid, medium)"
for cmd in fig9 ablation-grid; do
    cargo run -q --release -p fp-bench --bin experiments -- \
        "$cmd" --scale medium --csv "$rerun/counts" >/dev/null
done
if ! diff -u results/fig9.csv "$rerun/counts/fig9.csv" ||
    ! diff -u <(cut -d, -f1,3 results/ablation_grid.csv) \
        <(cut -d, -f1,3 "$rerun/counts/ablation_grid.csv"); then
    echo "Figure 9 or A-1 at --scale medium differs from results/" >&2
    exit 1
fi

# The stress suites interleave differently depending on how many tests
# run at once; rerun them with the test-thread pinning removed so a
# developer's RUST_TEST_THREADS=1 cannot mask a race: the engine and
# buffer-pool/file-store concurrency tests, the seeded fault schedules
# under the live query stack, the overload suite's concurrent-step test
# (`concurrent_steps_resolve_every_admission_once`), and the update
# storm's concurrent delta stream. Debug builds,
# as tier 1: overflow checks and debug assertions stay on here.
echo "==> stress reruns (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test concurrency
env -u RUST_TEST_THREADS cargo test -q -p fp-ccam concurrent
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test faults
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test overload
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test update_storm

# The benchmark is a package of its own, so the workspace run above
# does not build it: its suite is what notices a deleted item of its
# pinned call surface (benchmark/README.md), tests-only ones included.
echo "==> benchmark suite"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The repo benchmark on a miniature: seconds, and its exit code is the
# bit-exactness gate of all four workloads (in-memory, CCAM, hierarchy,
# live service) against the in-memory flat reference.
echo "==> benchmark quick pass (bit-exactness of all four workloads)"
bash benchmark/run.sh --quick

echo "All checks passed."
