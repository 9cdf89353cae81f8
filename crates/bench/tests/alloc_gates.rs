//! Allocation gates under `fpbench`'s counting allocator.
//!
//! Strict zero for the pooled PWL kernels: the steady-state compose +
//! envelope-merge loop must never touch the heap once the scratch pool
//! is warm. The whole-engine numbers are budgets, not zeros: answer
//! materialization and arena growth legitimately allocate and amortize
//! over the expansions of a query — the per-expansion budget trips when
//! someone reintroduces allocations into the inner loop, and the bytes
//! budget when per-query state proportional to the network comes back.
//!
//! The allocator counts per thread, so sibling tests running at the
//! same time do not disturb a measured region; every measured region
//! runs on the test's own thread.

use allfp::{run_batch, CancelToken, Engine, EngineConfig};
use fpbench::alloc::snapshot;
use fpbench::hotpath::fig9_rush;
use fpbench::{Scale, Scenario};
use pwl::time::hm;
use pwl::{compose_travel_into, Envelope, Interval, Pwl, PwlScratch};

/// Allocation events the engine may make per expansion.
const MAX_ALLOCS_PER_EXPANSION: f64 = 6.0;

/// Bytes a warm query allocated at the commit before the search
/// workspace was pooled, when every query allocated three
/// `n_nodes`-long vectors. A warm query must stay under half of it.
const ALLOC_BYTES_PER_QUERY_PARENT: usize = 160_780;

/// The steady-state kernel step: one §4.4 compound composition plus
/// one lower-border merge, with the composed function recycled back
/// into the pool — the work the engine does per surviving candidate
/// expansion.
fn kernel_step(scratch: &mut PwlScratch, env: &mut Envelope<usize>, t1: &Pwl, t2: &Pwl) {
    let composed = compose_travel_into(scratch, t1, t2).expect("compose succeeds");
    env.merge_min_with(scratch, &composed, 1)
        .expect("merge succeeds");
    scratch.recycle(composed);
}

#[test]
fn the_warm_kernel_loop_does_not_allocate() {
    // A path function with rush-hour shape (slopes > −1, FIFO-safe)...
    let t1 = Pwl::from_points(&[
        (hm(7, 0), 10.0),
        (hm(8, 0), 16.0),
        (hm(9, 0), 9.0),
        (hm(10, 0), 12.0),
    ])
    .unwrap();
    // ...and an edge function covering every arrival `l + t1(l)`.
    let t2 = Pwl::from_points(&[
        (hm(7, 0), 8.0),
        (hm(8, 20), 12.0),
        (hm(9, 20), 6.0),
        (hm(10, 40), 10.0),
    ])
    .unwrap();
    let base = Pwl::constant(Interval::of(hm(7, 0), hm(10, 0)), 14.0).unwrap();

    let mut scratch = PwlScratch::new();
    let mut env = Envelope::new(base, 0usize);
    // Warm-up: the pool fills and the buffers reach capacity.
    for _ in 0..8 {
        kernel_step(&mut scratch, &mut env, &t1, &t2);
    }
    let before = snapshot();
    for _ in 0..100 {
        kernel_step(&mut scratch, &mut env, &t1, &t2);
    }
    let allocs = snapshot().since(&before).allocs;
    assert_eq!(allocs, 0, "pooled PWL kernels allocated in the warm loop");
}

/// A warm width-1 batch (one persistent session, no helper threads) on
/// metro-small. The warm-up batch fills the shared travel-function
/// cache and parks its session, which the measured batch revives: L1,
/// scratch pool and search workspace are warm, so what is counted is
/// what every further query of a long-lived worker costs — answers and
/// arena growth.
#[test]
fn the_engine_stays_inside_its_allocation_budgets() {
    let scenario = Scenario::new(Scale::Small, 0x5EED);
    let queries = fig9_rush(&scenario.net, 12);
    let engine = Engine::new(&scenario.net, EngineConfig::default()).unwrap();
    let cancel = CancelToken::new();
    let _ = run_batch(&engine, &queries, 1, &cancel);
    let before = snapshot();
    let results = run_batch(&engine, &queries, 1, &cancel);
    let delta = snapshot().since(&before);
    let expanded: usize = results
        .iter()
        .flatten()
        .map(|o| o.stats().expanded_paths)
        .sum();

    let per_expansion = delta.allocs as f64 / expanded.max(1) as f64;
    assert!(
        per_expansion <= MAX_ALLOCS_PER_EXPANSION,
        "the engine allocates {per_expansion:.2} times per expansion \
         (budget {MAX_ALLOCS_PER_EXPANSION})"
    );
    let per_query = delta.bytes as f64 / queries.len() as f64;
    assert!(
        2.0 * per_query <= ALLOC_BYTES_PER_QUERY_PARENT as f64,
        "the engine allocates {per_query:.0} bytes per query, more than half of the \
         {ALLOC_BYTES_PER_QUERY_PARENT} it did with per-query node vectors"
    );
}
