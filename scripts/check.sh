#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 suite (ROADMAP.md).
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

# The concurrency stress tests interleave differently depending on how
# many tests run at once; rerun them with the test-thread pinning
# removed so a developer's RUST_TEST_THREADS=1 cannot mask a race.
echo "==> concurrency stress (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test concurrency
env -u RUST_TEST_THREADS cargo test -q -p fp-ccam concurrent

# Fault tolerance end to end: seeded fault schedules under the live
# query stack, corruption detection, budget degradation, panic
# isolation. Unpinned for the same reason as the concurrency stress.
echo "==> fault-injection stress (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test faults

# Overload resilience: the seeded chaos scenario (2x overload + fault
# storm, virtual time) plus the service-behavior tests. The threaded
# serve test interleaves; unpinned like the other stress suites.
echo "==> overload-chaos stress (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test overload

# Live updates: the seeded update-storm chaos scenario (2x overload +
# budget-fault window + concurrent delta stream, every answer checked
# bit-for-bit against a from-scratch build of its pinned epoch), the
# delta/epoch property suite, and the hierarchy refresh suite
# (incremental refresh == from-scratch rebuild, live topologies stay
# exact under deltas). The bench smoke below additionally gates
# goodput-under-storm >= 0.5 and scoped invalidation < 20%.
echo "==> update-storm chaos + live-update proptests (RUST_TEST_THREADS unpinned)"
env -u RUST_TEST_THREADS cargo test -q -p fp-allfp --test update_storm
cargo test -q -p fp-allfp --release --test live_props
cargo test -q -p fp-hierarchy --release --test live_refresh

# Cluster serving: the deterministic sharded-fleet simulator. The
# chaos suite composes 2x overload with a node crash/restart, a
# partition storm, RPC latency spikes and live deltas, and asserts
# exact accounting, bit-exact replay, fired robustness machinery
# (retries, breakers, replica failovers) and goodput >= 0.5 under
# sustained node loss; the equivalence suite pins every cluster-served
# answer bit-identical to the flat single-node pipeline (and answer
# values to the hierarchy backend) on the same pinned epoch.
echo "==> cluster chaos + cross-partition equivalence"
cargo test -q -p fp-cluster --release --test cluster_chaos
cargo test -q -p fp-cluster --release --test cluster_equivalence

# Hierarchy exactness: the golden equivalence suite pins the
# contraction hierarchy's answers bit-for-bit to the flat engine's
# (routes, partitions, travel functions) under compressed, exact and
# parallel-build configurations, and the contraction property tests
# fuzz overlay soundness, parallel-vs-serial determinism across
# thread counts, and compressed-vs-exact answer identity on random
# networks.
echo "==> hierarchy equivalence (golden suite + contraction/determinism/bound proptests)"
cargo test -q -p fp-allfp --release --test hierarchy_equivalence
cargo test -q -p fp-hierarchy --release --test contraction_props
cargo test -q -p fp-hierarchy --release --lib

# Store equivalence: the same queries through Mem, File and Mmap block
# stores answer bit-identically (golden suite; gated here, it is not
# part of tier 1).
echo "==> store equivalence (Mem / File / Mmap golden suite)"
cargo test -q -p fp-allfp --release --test store_equivalence

# Piece-reduction admissibility: the bounded-error overlay storage is
# only sound if reduced functions stay one-sided lower bounds within
# the measured gap, pin both endpoints, keep FIFO, and reduce
# deterministically — fuzzed here.
echo "==> piece-reduction admissibility proptests"
cargo test -q -p fp-pwl --release --test reduce_props

# Allocation gates ride along with the batch smoke: the pooled PWL
# kernel loop must allocate exactly zero in steady state, and the
# whole engine must stay under the allocs-per-expansion budget (both
# measured by a counting global allocator inside fp-bench). The smoke
# also races the hierarchy against the flat engine, gating the >=10x
# singleFP expansion speedup and its >=3x wall-clock twin (every
# host), the <=0.5x overlay byte footprint against the old
# materialized layout, and the
# >=1.5x 4-thread contraction speedup (multi-core hosts only).
# Continental-scale gates ride the same smoke: the metro-huge smoke
# tier (16 384 nodes) must bulk-build byte-identically at 1/2/4
# threads, keep the builder's transient scratch bounded under the
# graph bytes, and serve its fig9 workload through the mmap-backed
# store (store-equivalence across Mem/File/Mmap is pinned separately
# by the fp-allfp store_equivalence golden suite above). Runtime
# stays bounded: the million-node tier runs only under --report.
echo "==> batch-driver smoke (answers + scaling + checksum + allocation + overload + live-update + cluster + hierarchy + metro-huge gates)"
cargo bench -p fp-bench --bench engine_hotpath -- --smoke

# The repo benchmark on a miniature: seconds, and its exit code is the
# bit-exactness gate of all four workloads (in-memory, CCAM, hierarchy,
# live service) against the in-memory flat reference.
echo "==> benchmark quick pass (bit-exactness of all four workloads)"
bash benchmark/run.sh --quick

echo "All checks passed."
