//! Property tests for contraction: on random seeded networks, the
//! overlay must preserve **all-pairs** travel functions — for every
//! source/target pair and every probed leaving instant, the hierarchy's
//! answer equals the flat engine's, and the full answer structure
//! (paths, partition, functions) matches bit for bit.

use allfp::{AllFpAnswer, Engine, EngineConfig, PathfindBackend, QuerySpec, SingleFpAnswer};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use proptest::prelude::*;
use pwl::time::{hm, MINUTES_PER_DAY};
use pwl::Interval;
use roadnet::generators::random_geometric;
use roadnet::{NodeId, RoadNetwork};
use traffic::DayCategory;

/// Two allFP answers agree bit for bit: partition, routes, functions.
fn same_allfp(a: &AllFpAnswer, b: &AllFpAnswer) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.partition.len(), b.partition.len());
    for ((ai, ap), (bi, bp)) in a.partition.iter().zip(b.partition.iter()) {
        prop_assert_eq!(ai.lo().to_bits(), bi.lo().to_bits());
        prop_assert_eq!(ai.hi().to_bits(), bi.hi().to_bits());
        prop_assert_eq!(&a.paths[*ap].nodes, &b.paths[*bp].nodes);
    }
    for (f, h) in a.paths.iter().zip(b.paths.iter()) {
        prop_assert_eq!(f.travel.breakpoints(), h.travel.breakpoints());
        prop_assert_eq!(f.travel.linears(), h.travel.linears());
    }
    Ok(())
}

/// Two singleFP answers agree bit for bit.
fn same_single(a: &SingleFpAnswer, b: &SingleFpAnswer) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.path.nodes, &b.path.nodes);
    prop_assert_eq!(a.travel_minutes.to_bits(), b.travel_minutes.to_bits());
    prop_assert_eq!(a.best_leaving, b.best_leaving);
    prop_assert_eq!(a.path.travel.breakpoints(), b.path.travel.breakpoints());
    Ok(())
}

/// The hierarchy answers `q` exactly as the flat engine does — the
/// same bits, or the same typed error — and its scalar bracket
/// `(lower, U)` holds the flat optimum.
fn same_as_flat<S: roadnet::NetworkSource>(
    flat: &Engine<'_, S>,
    ch: &HierarchyEngine<'_, S>,
    q: &QuerySpec,
) -> Result<(), TestCaseError> {
    let (lower, u_cap) = ch.search_bounds(q).expect("the overlay serves this query");
    match (flat.single_fastest_path(q), ch.single_fastest_path(q)) {
        (Ok(f), Ok(h)) => {
            same_single(&f, &h)?;
            let t = f.travel_minutes;
            prop_assert!(lower <= t + 1e-9, "lower bound {lower} above optimum {t}");
            prop_assert!(
                f.path.travel.maximum() <= u_cap + 1e-9,
                "U {u_cap} under {t}"
            );
        }
        (Err(f), Err(h)) => {
            prop_assert_eq!(f.to_string(), h.to_string());
            prop_assert!(lower.is_infinite() && u_cap.is_infinite());
        }
        (f, h) => {
            prop_assert!(false, "flat {:?} vs hierarchy {:?}", f.is_ok(), h.is_ok());
        }
    }
    match (flat.all_fastest_paths(q), ch.all_fastest_paths(q)) {
        (Ok(f), Ok(h)) => same_allfp(&f, &h),
        (Err(f), Err(h)) => {
            prop_assert_eq!(f.to_string(), h.to_string());
            Ok(())
        }
        (f, h) => {
            prop_assert!(false, "flat {:?} vs hierarchy {:?}", f.is_ok(), h.is_ok());
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Contraction of a random seeded graph preserves all-pairs travel
    /// functions: every (s, t) pair answers identically to the flat
    /// engine across the whole leaving interval.
    #[test]
    fn contraction_preserves_all_pairs_travel(
        seed in 0u64..500,
        lo_frac in 0.0f64..0.7,
        len in 30.0f64..120.0,
    ) {
        const N: usize = 14;
        let net = random_geometric(N, 1.5, 3, seed).unwrap();
        let lo = hm(6, 0) + lo_frac * 240.0;
        let interval = Interval::of(lo, lo + len);
        let flat = Engine::new(&net, EngineConfig::default()).unwrap();
        let ch = HierarchyEngine::build(
            &net,
            EngineConfig::default(),
            HierarchyConfig::default(),
        )
        .unwrap();
        for s in 0..N as u32 {
            for t in 0..N as u32 {
                if s == t {
                    continue;
                }
                let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY);
                let fa = flat.all_fastest_paths(&q).unwrap();
                same_allfp(&fa, &ch.all_fastest_paths(&q).unwrap())?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// **Search-space-restricted bounds**: over rush, off-peak and
    /// midnight-touching intervals, `up(source)` under banded minima never exceeds the
    /// flat singleFP optimum, `U` never undercuts the optimal travel
    /// at any leaving instant, and the answers stay bit-equal to flat.
    #[test]
    fn restricted_bounds_bracket_the_flat_optimum(
        seed in 0u64..500,
        kind in 0usize..4,
        at in 0.0f64..1.0,
        len in 20.0f64..150.0,
    ) {
        const N: usize = 14;
        let net = random_geometric(N, 1.5, 3, seed).unwrap();
        let interval = match kind {
            0 => Interval::of(hm(6, 30) + at * 120.0, hm(6, 30) + at * 120.0 + len),
            1 => Interval::of(hm(11, 0) + at * 180.0, hm(11, 0) + at * 180.0 + len),
            // `[lo, hi + U]` wraps the band table past midnight.
            2 => Interval::of(MINUTES_PER_DAY - len, MINUTES_PER_DAY),
            _ => Interval::of(0.0, len),
        };
        let flat = Engine::new(&net, EngineConfig::default()).unwrap();
        let ch = HierarchyEngine::build(&net, EngineConfig::default(), HierarchyConfig::default())
            .unwrap();
        for (s, t) in [(0u32, N as u32 - 1), (1, 8), (5, 2), (9, 4), (3, 12), (13, 6)] {
            let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY);
            same_as_flat(&flat, &ch, &q)?;
        }
    }
}

/// A 12-node random network plus node 12, which no edge touches.
fn net_with_island() -> RoadNetwork {
    let mut net = random_geometric(12, 1.5, 3, 21).unwrap();
    net.add_node(9.0, 9.0).unwrap();
    net
}

/// Edge cases of the search space: each one answers exactly as the
/// flat engine does, value or typed error.
#[test]
fn search_space_edge_cases_match_flat() {
    let net = net_with_island();
    let flat = Engine::new(&net, EngineConfig::default()).unwrap();
    let rush = Interval::of(hm(7, 0), hm(9, 0));
    let late = Interval::of(hm(22, 30), MINUTES_PER_DAY);
    let ch =
        HierarchyEngine::build(&net, EngineConfig::default(), HierarchyConfig::default()).unwrap();
    for (s, t, interval) in [
        (4u32, 4u32, rush), // source == target: F and D meet at once
        (0, 12, rush),      // unreachable target: D is the island alone
        (12, 0, rush),      // unreachable from the source: F is the island alone
        (12, 12, rush),
        (0, 11, late), // ends at 1440: the band window wraps
        (7, 3, late),
    ] {
        let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY);
        same_as_flat(&flat, &ch, &q).unwrap();
    }
}
