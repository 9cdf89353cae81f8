//! The paper's boundary-node estimator (bdLB, `fpbench::boundary`):
//! Theorem 1's bound on network distance, its fold with the naive
//! bound, the engine's answers under it, its tables across traffic
//! deltas, and the min-time estimator never being looser.

use std::sync::Arc;

use allfp::{
    Engine, EngineConfig, EstimatorKind, LowerBoundEstimator, MinTimeLb, NaiveLb, QuerySpec,
};
use fpbench::boundary::{multi_source_dijkstra, BoundaryLb};
use proptest::prelude::*;
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{grid, random_geometric, suffolk_like, MetroConfig};
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, RoadClass};

#[test]
fn same_cell_estimates_the_naive_bound() {
    let net = grid(6, 6, 0.1, RoadClass::LocalOutside).unwrap();
    let lb = BoundaryLb::build(&net, 1).unwrap();
    let naive = NaiveLb::new(net.max_speed());
    let p = *net.point(NodeId(0)).unwrap();
    let q = *net.point(NodeId(35)).unwrap();
    assert_eq!(lb.raw_estimate(NodeId(0), NodeId(35)), 0.0);
    assert_eq!(
        lb.travel_lower_bound(NodeId(0), p, NodeId(35), q),
        naive.travel_lower_bound(NodeId(0), p, NodeId(35), q)
    );
}

#[test]
fn is_lower_bound_on_network_distance() {
    // On a uniform grid the true network distance is the Manhattan
    // distance; the estimate must never exceed it.
    let spacing = 0.25;
    let net = grid(10, 10, spacing, RoadClass::LocalOutside).unwrap();
    let lb = BoundaryLb::build(&net, 4).unwrap();
    for (a, b) in [(0u32, 99u32), (0, 9), (5, 77), (90, 9), (33, 66)] {
        let (a, b) = (NodeId(a), NodeId(b));
        let (ax, ay) = (a.index() % 10, a.index() / 10);
        let (bx, by) = (b.index() % 10, b.index() / 10);
        let manhattan = spacing * ((ax as f64 - bx as f64).abs() + (ay as f64 - by as f64).abs());
        let est = lb.raw_estimate(a, b);
        assert!(
            est <= manhattan + 1e-9,
            "estimate {est} exceeds true distance {manhattan} for {a}->{b}"
        );
    }
}

#[test]
fn tighter_than_naive_on_detour_networks() {
    // Two rows of nodes connected only at the far ends: the network
    // distance between vertically-adjacent nodes is a long detour,
    // which bdLB sees and the Euclidean estimator cannot.
    let schema = traffic::PatternSchema::table1().unwrap();
    let mut net = RoadNetwork::with_schema(&schema);
    let n = 12;
    let mut top = Vec::new();
    let mut bot = Vec::new();
    for i in 0..n {
        top.push(net.add_node(i as f64, 1.0).unwrap());
        bot.push(net.add_node(i as f64, 0.0).unwrap());
    }
    for i in 0..n - 1 {
        net.add_bidirectional(top[i], top[i + 1], 1.0, RoadClass::LocalOutside)
            .unwrap();
        net.add_bidirectional(bot[i], bot[i + 1], 1.0, RoadClass::LocalOutside)
            .unwrap();
    }
    // single vertical link at the right end
    net.add_bidirectional(top[n - 1], bot[n - 1], 1.0, RoadClass::LocalOutside)
        .unwrap();

    let lb = BoundaryLb::build(&net, 6).unwrap();
    let naive = NaiveLb::new(net.max_speed());
    let (s, t) = (top[0], bot[0]);
    let (ps, pt) = (*net.point(s).unwrap(), *net.point(t).unwrap());
    let bd = lb.travel_lower_bound(s, ps, t, pt);
    let nv = naive.travel_lower_bound(s, ps, t, pt);
    // true network distance is 23 miles; naive sees 1 mile
    assert!(bd > nv * 3.0, "bd {bd} should dwarf naive {nv}");
    // and remains a lower bound on the true distance
    assert!(bd * net.max_speed() <= 23.0 + 1e-9);
}

#[test]
fn unknown_nodes_fall_back_to_zero() {
    let net = grid(3, 3, 0.5, RoadClass::LocalOutside).unwrap();
    let lb = BoundaryLb::build(&net, 2).unwrap();
    assert_eq!(lb.raw_estimate(NodeId(100), NodeId(0)), 0.0);
}

#[test]
fn dijkstra_basics() {
    // 0 -> 1 (1.0), 1 -> 2 (2.0), 0 -> 2 (5.0)
    let adj = vec![vec![(1u32, 1.0), (2, 5.0)], vec![(2, 2.0)], vec![]];
    assert_eq!(multi_source_dijkstra(&adj, &[0]), vec![0.0, 1.0, 3.0]);
    assert_eq!(multi_source_dijkstra(&adj, &[0, 1]), vec![0.0, 0.0, 2.0]);
    let none = multi_source_dijkstra(&adj, &[]);
    assert!(none.iter().all(|d| d.is_infinite()));
}

/// The bound is the naive one, then the table's over `v_max`, the
/// larger — bit for bit, in that operand order, so it reads the
/// locations the naive half needs — and the min-time bound is never
/// looser than it.
#[test]
fn folds_the_naive_bound_first_and_min_time_is_never_looser() {
    let net = suffolk_like(&MetroConfig::small(17)).unwrap();
    let lb = BoundaryLb::build(&net, 8).unwrap();
    let naive = NaiveLb::new(net.max_speed());
    let min_time = MinTimeLb::build(&net).unwrap();
    assert_eq!(lb.name(), "bdLB");
    assert!(lb.reads_location());
    let n = net.n_nodes() as u32;
    let mut table_wins = 0;
    for t in (3..n).step_by(173) {
        for s in (0..n).step_by(41) {
            let (ns, nt) = (NodeId(s), NodeId(t));
            let (ps, pt) = (*net.point(ns).unwrap(), *net.point(nt).unwrap());
            let (nv, table) = (
                naive.travel_lower_bound(ns, ps, nt, pt),
                lb.raw_estimate(ns, nt) / net.max_speed(),
            );
            let bd = lb.travel_lower_bound(ns, ps, nt, pt);
            assert_eq!(bd.to_bits(), nv.max(table).to_bits(), "{s} -> {t}");
            assert!(min_time.travel_lower_bound(ns, ps, nt, pt) + 1e-9 >= bd);
            table_wins += usize::from(table > nv);
        }
    }
    assert!(table_wins > 0, "the table never beat the naive bound");
}

#[test]
fn boundary_estimator_preserves_answers_and_prunes() {
    let net = suffolk_like(&MetroConfig::small(5)).unwrap();
    let pairs = roadnet::workload::sample_pairs(&net, 3, 1.5, 2.5, 4).unwrap();
    assert!(!pairs.is_empty());
    let config = EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    };
    let naive = Engine::for_network(&net, config).unwrap();
    let bd = BoundaryLb::build(&net, 8).unwrap();
    let tighter = Engine::with_estimator(&net, Box::new(bd), EngineConfig::default());
    let mut naive_total = 0usize;
    let mut tighter_total = 0usize;
    for p in &pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(hm(7, 0), hm(8, 30)),
            DayCategory::WORKDAY,
        );
        let a = naive.all_fastest_paths(&q).unwrap();
        let b = tighter.all_fastest_paths(&q).unwrap();
        // identical partitioning and paths
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
        naive_total += a.stats.expanded_paths;
        tighter_total += b.stats.expanded_paths;
    }
    assert!(
        tighter_total <= naive_total,
        "bdLB expanded more ({tighter_total}) than naiveLB ({naive_total})"
    );
}

/// Fold seeded deltas over `net`, returning every intermediate network
/// (index 0 is the seed network itself).
fn delta_chain(net: RoadNetwork, seeds: &[u64]) -> Vec<Arc<RoadNetwork>> {
    let mut nets = vec![Arc::new(net)];
    for (i, &s) in seeds.iter().enumerate() {
        let cur = nets.last().unwrap();
        let delta = cur.seeded_delta(s, 5, i as u64 + 1).unwrap();
        let (next, _) = cur.apply_delta(&delta).unwrap();
        nets.push(Arc::new(next));
    }
    nets
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// The distance-mode boundary tables depend only on edge lengths,
    /// so the table built over the seed network answers every pair — in
    /// miles, `f64` bit for bit — like the one built over any
    /// delta-applied successor; only the `v_max` scalar may move, and
    /// where it has not the two are equal field for field
    /// (`BoundaryLb` derives `PartialEq`).
    #[test]
    fn boundary_tables_survive_delta_chains_bit_for_bit(
        seed in 0u64..400,
        d1 in 0u64..1000,
        d2 in 0u64..1000,
    ) {
        const N: usize = 12;
        let nets = delta_chain(random_geometric(N, 1.5, 3, seed).unwrap(), &[d1, d2]);
        let base = BoundaryLb::build(nets[0].as_ref(), 3).unwrap();
        for net in &nets[1..] {
            let rebuilt = BoundaryLb::build(net.as_ref(), 3).unwrap();
            for (a, b) in (0..N as u32).flat_map(|a| (0..N as u32).map(move |b| (a, b))) {
                prop_assert_eq!(
                    base.raw_estimate(NodeId(a), NodeId(b)).to_bits(),
                    rebuilt.raw_estimate(NodeId(a), NodeId(b)).to_bits()
                );
            }
            if net.max_speed() == nets[0].max_speed() {
                prop_assert_eq!(&base, &rebuilt);
            }
        }
    }
}
