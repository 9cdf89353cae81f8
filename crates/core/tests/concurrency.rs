//! Concurrent-correctness stress tests for the sharded query stack.
//!
//! PR 1 proved the travel-function cache *exact* (golden equivalence
//! against the uncached engine); this file proves the *concurrent*
//! implementation keeps that exactness and its accounting under real
//! thread interleavings:
//!
//! * many threads hammering the sharded [`TravelFnCache`] through
//!   per-worker [`CacheSession`] L1s must return bit-identical
//!   functions to direct construction, and once the threads are joined
//!   (and sessions dropped) `hits + misses` must equal the number of
//!   lookups issued — no lookup lost, none double-counted;
//! * [`run_batch`] at several widths must return
//!   exactly the serial answers, with the engine-wide counters
//!   advancing by exactly the lookups its slots reported.
//!
//! Seeds are fixed; scheduling is the only nondeterminism, which is
//! the point — run under an unpinned `RUST_TEST_THREADS` to let the
//! interleavings vary (`scripts/check.sh` does).

use allfp::{
    run_batch, CancelToken, Engine, EngineConfig, EstimatorKind, QueryOutcome, QuerySpec,
    TravelFnCache,
};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::random_geometric;
use roadnet::{NodeId, PatternId};
use traffic::{DayCategory, SpeedProfile};

/// Deterministic 64-bit LCG (same constants as `MMIX`); good enough to
/// scatter threads over a key space without pulling in a PRNG.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

#[test]
fn sharded_cache_sessions_are_exact_under_contention() {
    let n_threads = 8usize;
    let lookups_per_thread = 400usize;
    // small key space => heavy cross-thread sharing on every shard
    let distances = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0];
    let profile = SpeedProfile::with_rush_window(1.0, 0.4, hm(7, 0), hm(9, 30)).unwrap();

    let cache = TravelFnCache::new();
    let reference = TravelFnCache::disabled(); // direct construction
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let cache = &cache;
            let reference = &reference;
            let profile = &profile;
            let distances = &distances;
            scope.spawn(move || {
                let mut session = cache.session();
                let mut direct = reference.session();
                let mut x = 0x9E37_79B9 * (t as u64 + 1);
                for _ in 0..lookups_per_thread {
                    let d = distances[(lcg(&mut x) % distances.len() as u64) as usize];
                    let pattern = PatternId((lcg(&mut x) % 4) as u16);
                    let category = if lcg(&mut x).is_multiple_of(2) {
                        DayCategory::WORKDAY
                    } else {
                        DayCategory::NON_WORKDAY
                    };
                    let lo = hm(5, 0) + (lcg(&mut x) % 600) as f64;
                    let iv = Interval::of(lo, lo + 30.0 + (lcg(&mut x) % 90) as f64);
                    let (got, _) = session
                        .travel_fn(pattern, category, profile, d, &iv)
                        .unwrap();
                    let (want, _) = direct
                        .travel_fn(pattern, category, profile, d, &iv)
                        .unwrap();
                    for k in 0..=8 {
                        let l = iv.lo() + iv.len() * f64::from(k) / 8.0;
                        let (g, w) = (got.eval_clamped(l), want.eval_clamped(l));
                        assert!(
                            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                            "cached {g} vs direct {w} at l={l} (d={d})"
                        );
                    }
                }
                // session drops here, flushing its tallies
            });
        }
    });
    let c = cache.counters();
    let total = (n_threads * lookups_per_thread) as u64;
    assert_eq!(
        c.hits + c.misses,
        total,
        "hits {} + misses {} must equal the {total} lookups issued",
        c.hits,
        c.misses
    );
    // 8 distances × 4 patterns × 2 categories = 64 distinct keys: the
    // shared store holds at most one entry per key no matter how many
    // threads raced to build it
    assert!(cache.len() <= 64, "store holds {} entries", cache.len());
    assert!(c.hits >= total - 64 * n_threads as u64, "{c:?}");
}

#[test]
fn batch_stress_matches_serial_across_widths() {
    // The min-time estimator answers from a per-thread workspace that
    // outlives each query: whichever worker runs a query, after
    // whichever others, it must search exactly as the serial loop did.
    // A case: (nodes, radius, seed), estimator, query seed, queries,
    // earliest departure, departure spread, interval width.
    let kinds = [EstimatorKind::Naive, EstimatorKind::MinTime];
    let cases = [1u64, 7, 42]
        .into_iter()
        .flat_map(|s| kinds.map(|k| ((120, 6.0, s), k, s ^ 0xC0FF_EE00, 24, hm(6, 30), 120, 25.0)))
        .chain([(
            (100, 5.0, 11),
            EstimatorKind::MinTime,
            0x000B_0B5E,
            16,
            hm(7, 0),
            90,
            20.0,
        )]);
    for ((nodes, radius, seed), estimator, query_seed, n_queries, earliest, spread, width) in cases
    {
        let net = random_geometric(nodes, radius, 3, seed).unwrap();
        let config = EngineConfig {
            estimator,
            ..EngineConfig::default()
        };
        let engine = Engine::for_network(&net, config).unwrap();
        let n = net.n_nodes() as u32;

        let mut x = query_seed;
        let queries: Vec<QuerySpec> = (0..n_queries)
            .map(|_| {
                let s = NodeId((lcg(&mut x) % u64::from(n)) as u32);
                let e = NodeId((lcg(&mut x) % u64::from(n)) as u32);
                let lo = earliest + (lcg(&mut x) % spread) as f64;
                QuerySpec::new(s, e, Interval::of(lo, lo + width), DayCategory::WORKDAY)
            })
            .collect();

        let serial: Vec<_> = queries
            .iter()
            .map(|q| engine.all_fastest_paths(q))
            .collect();

        for workers in [1usize, 2, 4, 8] {
            let before = engine.cache_counters();
            let batch = run_batch(&engine, &queries, workers, &CancelToken::new());
            let after = engine.cache_counters();

            assert_eq!(batch.len(), queries.len());
            // the slots' own tallies and the engine-wide counters must
            // agree: sessions flushed exactly once on join
            let (mut lookups, mut hits, mut misses) = (0, 0, 0);
            for stats in batch.iter().flatten().map(QueryOutcome::stats) {
                lookups += stats.cache_lookups;
                hits += stats.cache_hits;
                misses += stats.cache_misses;
            }
            assert_eq!(
                (after.hits - before.hits) + (after.misses - before.misses),
                lookups as u64,
                "engine counters must advance by the batch's lookups (workers={workers})"
            );
            assert_eq!(lookups, hits + misses);

            for (i, (s, b)) in serial.iter().zip(batch.iter()).enumerate() {
                match (s, b) {
                    (Ok(s), Ok(QueryOutcome::Exact(b))) => {
                        assert_eq!(
                            s.partition.len(),
                            b.partition.len(),
                            "seed {seed} query {i} workers {workers}"
                        );
                        for (x, y) in s.partition.iter().zip(b.partition.iter()) {
                            assert!(x.0.approx_eq(&y.0));
                            assert_eq!(s.paths[x.1].nodes, b.paths[y.1].nodes);
                        }
                        assert_eq!(
                            s.stats.expanded_paths, b.stats.expanded_paths,
                            "seed {seed} {estimator:?} query {i} workers {workers}"
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (s, b) => panic!(
                        "seed {seed} query {i} workers {workers}: serial {} but batch {}",
                        if s.is_ok() { "succeeded" } else { "failed" },
                        if b.is_ok() { "succeeded" } else { "failed" },
                    ),
                }
            }
        }
    }
}
