//! Golden equivalence tests for the travel-function cache.
//!
//! The cache serves each edge's travel-time function by restricting a
//! stored full-period function instead of rebuilding it from the speed
//! profile per expansion. These tests pin the contract that makes the
//! optimization safe: over randomized grid and geometric networks, the
//! cached engine and a cache-disabled reference engine (the seed
//! behaviour: the same engine over [`TravelFnCache::disabled`]) must produce
//! **identical** allFP partitionings — same sub-intervals, same node
//! sequences, same lower border — and identical singleFP minima.

use std::sync::Arc;

use allfp::{build_estimator, Engine, EngineConfig, PathfindBackend, QuerySpec, TravelFnCache};
use proptest::prelude::*;
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{grid, random_geometric};
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, RoadClass};

/// Reference engine: seed-equivalent (no cache).
fn reference(net: &RoadNetwork) -> Engine<'_, RoadNetwork> {
    let config = EngineConfig::default();
    let estimator = Arc::from(build_estimator(net, &config).unwrap());
    Engine::with_shared(net, estimator, Arc::new(TravelFnCache::disabled()), config)
}

/// The two answers' paths on a sub-interval must be *equally fastest*:
/// the same node sequence, or — on networks with exact ties, like
/// uniform grids where two L-shaped routes share length and class —
/// distinct sequences whose travel functions agree pointwise on the
/// sub-interval (a one-ulp perturbation may flip which representative
/// wins the border merge; both are correct answers).
fn assert_equally_fastest(p: &allfp::FastestPath, q: &allfp::FastestPath, iv: &Interval) {
    if p.nodes == q.nodes {
        return;
    }
    for k in 0..=16 {
        let l = iv.lo() + iv.len() * f64::from(k) / 16.0;
        let fp = p.travel.eval_clamped(l);
        let fq = q.travel.eval_clamped(l);
        assert!(
            (fp - fq).abs() <= 1e-9 * (1.0 + fq.abs()),
            "paths {:?} and {:?} differ at {l}: {fp} vs {fq}",
            p.nodes,
            q.nodes
        );
    }
}

/// Assert two allFP answers partition the interval identically.
fn assert_same_answer(net: &RoadNetwork, q: &QuerySpec) {
    let cached = Engine::new(net, EngineConfig::default()).unwrap();
    let plain = reference(net);
    let a = cached.all_fastest_paths(q).expect("cached engine");
    let b = plain.all_fastest_paths(q).expect("reference engine");

    assert_eq!(a.partition.len(), b.partition.len(), "partition arity");
    for (x, y) in a.partition.iter().zip(b.partition.iter()) {
        assert!(x.0.approx_eq(&y.0), "sub-interval {} vs {}", x.0, y.0);
        assert_equally_fastest(&a.paths[x.1], &b.paths[y.1], &x.0);
    }
    // Lower borders agree pointwise (not just on breakpoints).
    for k in 0..=24 {
        let l = q.interval.lo() + q.interval.len() * f64::from(k) / 24.0;
        let fa = a.travel_at(l).expect("in domain");
        let fb = b.travel_at(l).expect("in domain");
        assert!(
            (fa - fb).abs() <= 1e-9 * (1.0 + fb.abs()),
            "border at {l}: {fa} vs {fb}"
        );
    }

    // singleFP minima agree.
    let sa = cached.single_fastest_path(q).expect("cached single");
    let sb = plain.single_fastest_path(q).expect("reference single");
    assert!(
        (sa.travel_minutes - sb.travel_minutes).abs() <= 1e-9 * (1.0 + sb.travel_minutes),
        "single minima {} vs {}",
        sa.travel_minutes,
        sb.travel_minutes
    );
    assert!(sa.best_leaving.approx_eq(&sb.best_leaving));
    assert_equally_fastest(&sa.path, &sb.path, &sa.best_leaving);

    // Counter consistency: every lookup is exactly a hit or a miss,
    // and the reference engine never hits.
    assert_eq!(
        a.stats.cache_hits + a.stats.cache_misses,
        a.stats.cache_lookups
    );
    assert_eq!(b.stats.cache_hits, 0);
    assert_eq!(b.stats.cache_misses, b.stats.cache_lookups);
    // The search trees are NOT asserted identical: restriction and
    // direct construction agree only up to float rounding, and a
    // last-ulp difference near an `approx_le` pruning threshold can
    // legitimately flip an individual prune. Answers are what the
    // pruning rules guarantee, and they are checked exactly above.
}

#[test]
fn grid_rush_hour_queries_match_reference() {
    // Deterministic sweep: grid sizes × classes × corner-to-corner and
    // interior queries, over a window straddling the morning rush.
    for (nx, ny) in [(3usize, 3usize), (4, 3), (5, 4)] {
        for class in [RoadClass::LocalOutside, RoadClass::InboundHighway] {
            let net = grid(nx, ny, 0.8, class).unwrap();
            let n = (nx * ny) as u32;
            let corner = QuerySpec::new(
                NodeId(0),
                NodeId(n - 1),
                Interval::of(hm(6, 30), hm(8, 15)),
                DayCategory::WORKDAY,
            );
            assert_same_answer(&net, &corner);
        }
    }
}

#[test]
fn grid_queries_crossing_midnight_match_reference() {
    // The cache splices its stored function across the day boundary;
    // the reference integrates straight through. Both must agree.
    let net = grid(4, 4, 1.0, RoadClass::LocalBoston).unwrap();
    let q = QuerySpec::new(
        NodeId(0),
        NodeId(15),
        Interval::of(hm(23, 30), hm(24, 45)),
        DayCategory::WORKDAY,
    );
    assert_same_answer(&net, &q);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_grid_queries_match_reference(
        seed in 0u64..1_000,
        nx in 3usize..6,
        ny in 3usize..5,
        lo_frac in 0.0f64..0.9,
        len in 15.0f64..120.0,
    ) {
        // Randomize the query (endpoints, window) on a grid whose
        // spacing also varies with the seed.
        let spacing = 0.5 + 0.1 * ((seed % 7) as f64);
        let class = if seed % 2 == 0 { RoadClass::LocalOutside } else { RoadClass::OutboundHighway };
        let net = grid(nx, ny, spacing, class).unwrap();
        let n = (nx * ny) as u64;
        let src = NodeId((seed % n) as u32);
        let dst = NodeId(((seed / n + n / 2) % n) as u32);
        prop_assume!(src != dst);
        let lo = hm(5, 30) + lo_frac * 300.0;
        let q = QuerySpec::new(src, dst, Interval::of(lo, lo + len), DayCategory::WORKDAY);
        assert_same_answer(&net, &q);
    }

    #[test]
    fn random_geometric_queries_match_reference(
        seed in 0u64..1_000,
        src in 0u32..30,
        dst in 0u32..30,
    ) {
        prop_assume!(src != dst);
        let net = random_geometric(30, 2.0, 3, seed).unwrap();
        let q = QuerySpec::new(
            NodeId(src),
            NodeId(dst),
            Interval::of(hm(6, 45), hm(8, 0)),
            DayCategory::WORKDAY,
        );
        assert_same_answer(&net, &q);
    }
}
