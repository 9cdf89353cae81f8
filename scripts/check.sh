#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 suite (ROADMAP.md), every
# test in the workspace, the bench smoke, the benchmark's own suite and
# its quick pass.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# Every test in the workspace, not a hand-kept list of suites: the
# unit tests of every crate, the golden suites (store, hierarchy and
# cluster equivalence), the chaos suites (faults, overload, update
# storm, cluster) and the proptests. Release, because the heavy suites
# take minutes in debug; --no-fail-fast so one run names every failure.
echo "==> cargo test --workspace --release"
cargo test --workspace --release --no-fail-fast -q

# The stress suites interleave differently depending on how many tests
# run at once; rerun them with the test-thread pinning removed so a
# developer's RUST_TEST_THREADS=1 cannot mask a race: the engine and
# buffer-pool/file-store concurrency tests, the seeded fault schedules
# under the live query stack, the threaded serve test of the overload
# suite, and the update storm's concurrent delta stream. Debug builds,
# as tier 1: overflow checks and debug assertions stay on here.
echo "==> stress reruns (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test concurrency
env -u RUST_TEST_THREADS cargo test -q -p fp-ccam concurrent
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test faults
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test overload
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test update_storm

# Allocation gates ride along with the batch smoke: the pooled PWL
# kernel loop must allocate exactly zero in steady state, the whole
# engine must stay under the allocs-per-expansion budget (~0.1 against
# a budget of 6), a warm batch must allocate at most half the bytes
# per query recorded from before the search workspace was pooled, and
# a warm query on the 16 384-node metro-huge smoke tier less than one
# byte per network node — the gate that scales: no per-query state may
# be proportional to n_nodes (all measured by a counting global
# allocator inside fp-bench). The smoke
# prints allFP and singleFP expanded_paths of its serial passes — the
# flat engine under naiveLB and under minTimeLB, and the hierarchy —
# and fails if an allFP count, either minTimeLB count or either
# hierarchy count exceeds the one recorded in BENCH_engine.json's
# smoke_counters block (the counters gate: search-space size is
# deterministic on every host).
# The smoke
# also races the hierarchy against the flat engine, gating the >=10x
# singleFP expansion speedup and its >=3x wall-clock twin (every
# host), and the
# >=1.5x 4-thread contraction speedup (multi-core hosts only).
# Continental-scale gates ride the same smoke: the metro-huge smoke
# tier (16 384 nodes) must bulk-build byte-identically at 1/2/4
# threads, keep the builder's transient scratch bounded under the
# graph bytes, serve its fig9 workload through the mmap-backed
# store (store-equivalence across Mem/File/Mmap is pinned separately
# by the fp-allfp store_equivalence golden suite above), and ask its
# warm min-time estimator about fresh targets without allocating. The
# checksum
# gate is a count (every fault of the checksummed stack verified
# exactly once, no corruption); its wall ratio is a median of 7
# interleaved reps that fails only beyond budget + 2 MAD. Runtime
# stays bounded: the million-node tier runs only under --report.
echo "==> batch-driver smoke (answers + scaling + checksum + allocation + overload + live-update + cluster + hierarchy + metro-huge gates)"
cargo bench -p fp-bench --bench engine_hotpath -- --smoke

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
