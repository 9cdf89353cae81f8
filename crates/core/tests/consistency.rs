//! Cross-validation: the interval engine against the fixed-instant
//! oracle, memory against disk, and pruning/estimator configurations
//! against each other.
//!
//! The strongest check here: for any leaving instant `l`, the allFP
//! lower border evaluated at `l` must equal the travel time found by
//! the classic fixed-instant A\* at `l` — both are exact under FIFO,
//! so they must agree to numerical precision.

use std::sync::Arc;
use std::time::Duration;

use allfp::baseline::astar_at;
use allfp::{
    AllFpError, CancelToken, DegradedReason, Engine, EngineConfig, EstimatorKind, NaiveLb,
    PathfindBackend, QueryBudget, QueryOutcome, QuerySpec, ZeroLb,
};
use ccam::{CcamStore, MemStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{random_geometric, suffolk_like, MetroConfig};
use roadnet::{NodeId, RoadNetwork};
use traffic::{CapeCodPattern, DayCategory, RoadClass, SpeedProfile};

fn probe_instants(i: &Interval, n: usize) -> Vec<f64> {
    (0..=n)
        .map(|k| i.lo() + i.len() * (k as f64) / (n as f64))
        .collect()
}

/// allFP's lower border must match the fixed-instant oracle everywhere.
fn check_against_oracle(net: &RoadNetwork, q: &QuerySpec) {
    let engine = Engine::new(net, EngineConfig::default()).unwrap();
    let ans = match engine.all_fastest_paths(q) {
        Ok(a) => a,
        Err(allfp::AllFpError::Unreachable { .. }) => {
            // then the oracle must agree at every instant
            let lb = NaiveLb::new(net.max_speed());
            assert!(astar_at(net, q.source, q.target, q.interval.lo(), q.category, &lb).is_err());
            return;
        }
        Err(e) => panic!("allFP failed: {e}"),
    };
    let lb = NaiveLb::new(net.max_speed());
    for l in probe_instants(&q.interval, 24) {
        let oracle = astar_at(net, q.source, q.target, l, q.category, &lb)
            .expect("reachable per allFP")
            .travel_minutes;
        let border = ans.travel_at(l).expect("border covers I");
        assert!(
            (border - oracle).abs() <= 1e-6 * (1.0 + oracle),
            "query {:?}->{:?} at l={l}: border {border} vs oracle {oracle}",
            q.source,
            q.target
        );
        // and the tagged path, driven directly, matches the border
        let path = ans.path_at(l).expect("partition covers I");
        let driven = allfp::baseline::evaluate_path(net, &path.nodes, l, q.category).unwrap();
        assert!(
            (driven - border).abs() <= 1e-6 * (1.0 + driven),
            "driven {driven} vs border {border} at l={l}"
        );
    }
    // structural invariants of the partition
    assert!(pwl::approx_eq(ans.partition[0].0.lo(), q.interval.lo()));
    assert!(pwl::approx_eq(
        ans.partition.last().unwrap().0.hi(),
        q.interval.hi()
    ));
    for w in ans.partition.windows(2) {
        assert!(pwl::approx_eq(w[0].0.hi(), w[1].0.lo()), "gap in partition");
        assert_ne!(w[0].1, w[1].1, "adjacent sub-intervals share a path");
    }
}

#[test]
fn engine_matches_oracle_on_random_networks() {
    for seed in [1u64, 7, 23] {
        let net = random_geometric(60, 3.0, 3, seed);
        let net = net.unwrap();
        // rush-hour interval so Table 1 patterns actually vary
        let q = QuerySpec::new(
            NodeId(0),
            NodeId(37),
            Interval::of(hm(6, 30), hm(8, 0)),
            DayCategory::WORKDAY,
        );
        check_against_oracle(&net, &q);
    }
}

#[test]
fn engine_matches_oracle_on_metro() {
    let net = suffolk_like(&MetroConfig::small(42)).unwrap();
    let pairs = roadnet::workload::sample_pairs(&net, 4, 1.0, 2.5, 9).unwrap();
    for p in pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(hm(7, 0), hm(8, 0)),
            DayCategory::WORKDAY,
        );
        check_against_oracle(&net, &q);
    }
}

/// Every bit of a function: its knots, then each piece's coefficients.
fn pwl_bits(f: &pwl::Pwl) -> Vec<u64> {
    let knots = f.breakpoints().iter().map(|x| x.to_bits());
    let coefficients = f
        .linears()
        .iter()
        .flat_map(|l| [l.a.to_bits(), l.b.to_bits()]);
    knots.chain(coefficients).collect()
}

/// Every bit of an allFP answer: each sub-interval's bounds, node path
/// and travel function, then the lower border.
type AllFpBits = (Vec<(u64, u64, Vec<NodeId>, Vec<u64>)>, Vec<u64>);

fn allfp_bits(a: &allfp::AllFpAnswer) -> AllFpBits {
    let partition = a
        .partition
        .iter()
        .map(|(iv, i)| {
            let path = &a.paths[*i];
            (
                iv.lo().to_bits(),
                iv.hi().to_bits(),
                path.nodes.clone(),
                pwl_bits(&path.travel),
            )
        })
        .collect();
    (partition, pwl_bits(a.lower_border.as_pwl()))
}

/// Every bit of a singleFP answer: path, travel function, optimum and
/// its leaving interval.
type SingleFpBits = (Vec<NodeId>, Vec<u64>, u64, u64, u64);

fn single_bits(a: &allfp::SingleFpAnswer) -> SingleFpBits {
    (
        a.path.nodes.clone(),
        pwl_bits(&a.path.travel),
        a.travel_minutes.to_bits(),
        a.best_leaving.lo().to_bits(),
        a.best_leaving.hi().to_bits(),
    )
}

/// Bound independence: the lower bound decides which paths are
/// expanded, never what is answered. Under `ZeroLb`, naiveLB and
/// minTimeLB every allFP and singleFP answer is the same, bit for bit,
/// over the rush window and the whole day; and a tighter bound expands
/// no more paths.
#[test]
fn tighter_estimators_preserve_answers_and_prune() {
    let net = suffolk_like(&MetroConfig::small(5)).unwrap();
    let pairs = roadnet::workload::sample_pairs(&net, 8, 1.0, 3.0, 4).unwrap();
    assert!(!pairs.is_empty());
    let config = |estimator| EngineConfig {
        estimator,
        ..EngineConfig::default()
    };
    let engines = [
        (
            "zero",
            Engine::with_estimator(&net, Box::new(ZeroLb), EngineConfig::default()),
        ),
        (
            "naiveLB",
            Engine::for_network(&net, config(EstimatorKind::Naive)).unwrap(),
        ),
        (
            "minTimeLB",
            Engine::for_network(&net, config(EstimatorKind::MinTime)).unwrap(),
        ),
    ];
    let mut expanded = [0usize; 3];
    for window in [
        Interval::of(hm(7, 0), hm(10, 0)),
        Interval::of(hm(0, 0), hm(23, 59)),
    ] {
        for p in &pairs {
            let q = QuerySpec::new(p.source, p.target, window, DayCategory::WORKDAY);
            let mut reference = None;
            for (k, (name, engine)) in engines.iter().enumerate() {
                let all = engine.all_fastest_paths(&q).unwrap();
                let single = engine.single_fastest_path(&q).unwrap();
                expanded[k] += all.stats.expanded_paths;
                let bits = (allfp_bits(&all), single_bits(&single));
                match &reference {
                    None => reference = Some(bits),
                    Some(want) => assert!(
                        &bits == want,
                        "{name} answers {} → {} over {window:?} differently from zero",
                        p.source.0,
                        p.target.0
                    ),
                }
            }
        }
    }
    let [zero, naive, min_time] = expanded;
    assert!(
        min_time <= naive && naive <= zero,
        "a tighter bound expanded more: zero {zero}, naiveLB {naive}, minTimeLB {min_time}"
    );
}

/// Six `live` nodes on a two-way road to the target at its end, and
/// under each a `dead` one, entered one way: every dead node is a
/// step from the road and none leads back. With `drops` false the
/// one-way edges are left out.
fn road_over_a_dead_end(drops: bool) -> (RoadNetwork, Vec<NodeId>, Vec<NodeId>) {
    let mut net = RoadNetwork::with_schema(&traffic::PatternSchema::table1().unwrap());
    let live: Vec<NodeId> = (0..6)
        .map(|i| net.add_node(f64::from(i), 1.0).unwrap())
        .collect();
    let dead: Vec<NodeId> = (0..6)
        .map(|i| net.add_node(f64::from(i), 0.0).unwrap())
        .collect();
    for i in 0..5 {
        let class = [RoadClass::LocalBoston, RoadClass::LocalOutside][i % 2];
        net.add_bidirectional(live[i], live[i + 1], 1.0, class)
            .unwrap();
        // a slower parallel lane, so the search has paths to weigh
        net.add_class_edge(live[i], live[i + 1], 1.2, RoadClass::LocalOutside)
            .unwrap();
        net.add_bidirectional(dead[i], dead[i + 1], 1.0, RoadClass::LocalBoston)
            .unwrap();
    }
    if drops {
        for i in 0..6 {
            net.add_class_edge(live[i], dead[i], 1.0, RoadClass::LocalBoston)
                .unwrap();
        }
    }
    (net, live, dead)
}

#[test]
fn nodes_that_cannot_reach_the_target_are_never_searched() {
    let with = |estimator, net, max_expansions| {
        let config = EngineConfig {
            estimator,
            max_expansions,
            ..EngineConfig::default()
        };
        Engine::for_network(net, config).unwrap()
    };
    let min_time = |net, max_expansions| with(EstimatorKind::MinTime, net, max_expansions);
    let naive = |net| with(EstimatorKind::Naive, net, usize::MAX);
    let (net, live, dead) = road_over_a_dead_end(true);
    let window = Interval::of(hm(6, 30), hm(9, 0));
    let ask = |source| QuerySpec::new(source, live[5], window, DayCategory::WORKDAY);

    // From a dead node: unreachable on the source's bound alone. An
    // expansion cap of zero trips on the first attempt to expand, so
    // `Unreachable` here means none was made; the naive bound finds the
    // same verdict by exhausting the dead half.
    for &source in &dead {
        let out = min_time(&net, 0).all_fastest_paths(&ask(source));
        assert!(
            matches!(out, Err(allfp::AllFpError::Unreachable { .. })),
            "{out:?}"
        );
        let out = min_time(&net, 0).single_fastest_path(&ask(source));
        assert!(
            matches!(out, Err(allfp::AllFpError::Unreachable { .. })),
            "{out:?}"
        );
        let out = naive(&net).all_fastest_paths(&ask(source));
        assert!(
            matches!(out, Err(allfp::AllFpError::Unreachable { .. })),
            "{out:?}"
        );
    }

    // From the far end of the road: the answer is the naive bound's bit
    // for bit, and the search is the one run on the network without the
    // drops — a dead node is touched when the live node over it is first
    // expanded, but never queued, so never expanded and never read.
    let q = ask(live[0]);
    let a = naive(&net).all_fastest_paths(&q).unwrap();
    let b = min_time(&net, usize::MAX).all_fastest_paths(&q).unwrap();
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.paths, b.paths);
    assert!(
        a.paths.len() >= 2,
        "one lane at every instant: {}",
        a.describe()
    );
    let (roads_only, ..) = road_over_a_dead_end(false);
    let c = min_time(&roads_only, usize::MAX)
        .all_fastest_paths(&q)
        .unwrap();
    assert_eq!(b.paths, c.paths);
    assert_eq!(b.stats.nodes_read, c.stats.nodes_read);
    assert_eq!(b.stats, c.stats);
    assert!(
        a.stats.pushed > b.stats.pushed,
        "{:?} vs {:?}",
        a.stats,
        b.stats
    );
}

#[test]
fn ccam_store_gives_identical_answers() {
    let net = suffolk_like(&MetroConfig::small(11)).unwrap();
    let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let disk = CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, 256).unwrap();

    let pairs = roadnet::workload::sample_pairs(&net, 3, 1.0, 2.0, 77).unwrap();
    let mem_engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let disk_engine = Engine::new(&disk, EngineConfig::default()).unwrap();
    for p in pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(hm(7, 30), hm(8, 30)),
            DayCategory::WORKDAY,
        );
        let a = mem_engine.all_fastest_paths(&q).unwrap();
        let b = disk_engine.all_fastest_paths(&q).unwrap();
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
        assert_eq!(a.stats.expanded_paths, b.stats.expanded_paths);
    }
    // the disk engine actually did I/O
    let s = disk.stats();
    assert!(s.hits + s.misses > 0);
}

#[test]
fn dominance_pruning_preserves_answers_on_metro() {
    let net = suffolk_like(&MetroConfig::small(3)).unwrap();
    let pairs = roadnet::workload::sample_pairs(&net, 3, 1.0, 2.0, 5).unwrap();
    // basic = the paper's unpruned path expansion; default = pruned
    let plain = Engine::new(
        &net,
        EngineConfig {
            prune_dominated: false,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let pruned = Engine::new(&net, EngineConfig::default()).unwrap();
    for p in pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(hm(7, 0), hm(8, 0)),
            DayCategory::WORKDAY,
        );
        let a = plain.all_fastest_paths(&q).unwrap();
        let b = pruned.all_fastest_paths(&q).unwrap();
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
        assert!(b.stats.pushed <= a.stats.pushed);
    }
}

#[test]
fn midnight_crossing_window_agrees_with_oracle() {
    // Leaving late at night and arriving after midnight: the periodic
    // profile extension must behave identically in the interval engine
    // and the fixed-instant oracle.
    let net = random_geometric(50, 2.5, 3, 321).unwrap();
    let q = QuerySpec::new(
        NodeId(2),
        NodeId(47),
        Interval::of(hm(23, 30), hm(24, 0) + 45.0),
        DayCategory::WORKDAY,
    );
    check_against_oracle(&net, &q);
}

#[test]
fn a_later_day_answers_like_day_zero_shifted() {
    // Day 0's candidates compose against a window of the stored day
    // function; three days on, the arrival windows lie outside it and
    // every candidate takes the materialising fallback (restrict, then
    // shift by whole periods). Same routes, same partition, shifted.
    let net = suffolk_like(&MetroConfig::small(42)).unwrap();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let shift = 3.0 * pwl::time::MINUTES_PER_DAY;
    for p in roadnet::workload::sample_pairs(&net, 4, 1.0, 2.5, 9).unwrap() {
        let rush = Interval::of(hm(7, 0), hm(8, 0));
        let ask = |interval: Interval| {
            let q = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
            engine.all_fastest_paths(&q).unwrap()
        };
        let (day0, day3) = (ask(rush), ask(rush.shift(shift)));
        assert_eq!(day0.partition.len(), day3.partition.len());
        for ((iv0, path0), (iv3, path3)) in day0.partition.iter().zip(&day3.partition) {
            assert!(iv0.shift(shift).approx_eq(iv3), "{iv0} + 3 days vs {iv3}");
            assert_eq!(day0.paths[*path0].nodes, day3.paths[*path3].nodes);
        }
        for l in probe_instants(&rush, 24) {
            let (t0, t3) = (
                day0.travel_at(l).unwrap(),
                day3.travel_at(l + shift).unwrap(),
            );
            assert!(pwl::approx_eq(t0, t3), "at {l}: {t0} vs {t3} three days on");
        }
    }
}

#[test]
fn single_fp_agrees_with_all_fp_minimum() {
    let net = suffolk_like(&MetroConfig::small(8)).unwrap();
    let pairs = roadnet::workload::sample_pairs(&net, 4, 1.0, 2.0, 13).unwrap();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    for p in pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(hm(7, 0), hm(8, 30)),
            DayCategory::WORKDAY,
        );
        let single = engine.single_fastest_path(&q).unwrap();
        let all = engine.all_fastest_paths(&q).unwrap();
        let border_min = all.lower_border.min_value();
        assert!(
            (single.travel_minutes - border_min).abs() <= 1e-6 * (1.0 + border_min),
            "singleFP {} vs border min {}",
            single.travel_minutes,
            border_min
        );
        // singleFP must stop no later than allFP
        assert!(single.stats.expanded_paths <= all.stats.expanded_paths);
    }
}

/// A direct road `s → e` that halves its speed from 07:00 to 08:00 (10
/// minutes off-peak, 20 at the peak) and a detour `s → a → e` that
/// shares the slow-down on its first edge and then runs 9.5 miles at
/// full speed: slower than the direct road at every leaving instant,
/// yet its 15-minute minimum lies under the border's 20-minute peak.
fn slow_detour_under_the_peak() -> (RoadNetwork, QuerySpec) {
    let mut net = RoadNetwork::empty();
    let both_days =
        |p: SpeedProfile| CapeCodPattern::new(vec![p.clone(), p]).expect("two profiles");
    let rush = SpeedProfile::from_pairs(&[(0.0, 1.0), (hm(7, 0), 0.5), (hm(8, 0), 1.0)]);
    let rush = net.add_pattern(both_days(rush.expect("valid")));
    let free = net.add_pattern(both_days(SpeedProfile::constant(1.0).expect("valid")));
    let s = net.add_node(0.0, 0.0).expect("finite");
    let a = net.add_node(0.5, 0.0).expect("finite");
    let e = net.add_node(10.0, 0.0).expect("finite");
    net.add_edge(s, e, 10.0, RoadClass::LocalOutside, rush)
        .expect("valid edge");
    net.add_edge(s, a, 5.5, RoadClass::LocalOutside, rush)
        .expect("valid edge");
    // Exactly the naive estimate from `a`, so `T(s → a) + est(a)` is
    // the detour's own travel function.
    net.add_edge(a, e, 9.5, RoadClass::LocalOutside, free)
        .expect("valid edge");
    let window = Interval::of(hm(6, 0), hm(9, 0));
    (net, QuerySpec::new(s, e, window, DayCategory::WORKDAY))
}

#[test]
fn the_border_prunes_where_it_lies_not_only_at_its_peak() {
    let (net, q) = slow_detour_under_the_peak();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let ans = engine.all_fastest_paths(&q).unwrap();
    // `s → a` is queued before any border exists and popped at 15 < 20:
    // the scalar rule expanded it, the pointwise one must not.
    assert_eq!(ans.stats.expanded_paths, 1, "only the seed is expanded");
    assert!(ans.stats.pruned_by_border >= 1, "{:?}", ans.stats);
    assert_eq!(ans.stats.border_merges, 1);
    assert_eq!(ans.paths.len(), 1);
    assert_eq!(ans.paths[0].nodes, [q.source, q.target]);
    assert!(pwl::approx_eq(ans.lower_border.max_value(), 20.0));
    let lb = NaiveLb::new(net.max_speed());
    for l in probe_instants(&q.interval, 63) {
        let oracle = astar_at(&net, q.source, q.target, l, q.category, &lb).unwrap();
        let border = ans.travel_at(l).unwrap();
        assert!(
            (border - oracle.travel_minutes).abs() <= 1e-6 * (1.0 + border),
            "l={l}: border {border} vs oracle {}",
            oracle.travel_minutes
        );
    }
}

#[test]
fn budgets_still_trip_on_pop_zero_of_a_query_the_border_cuts_short() {
    let (net, q) = slow_detour_under_the_peak();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let mut session = engine.cache_session();

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let out = engine.robust_with_session(&q, &mut session, Some(&cancelled));
    assert!(matches!(out, Err(AllFpError::Cancelled)), "{out:?}");

    let expired = q.with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO));
    match engine
        .robust_with_session(&expired, &mut session, None)
        .unwrap()
    {
        QueryOutcome::Degraded(d) => {
            assert_eq!(d.reason, DegradedReason::DeadlineExpired);
            assert_eq!(d.stats.expanded_paths, 0);
            assert!(d.best.is_none());
        }
        QueryOutcome::Exact(_) => panic!("a zero deadline must trip before any expansion"),
    }
}
