//! End-to-end reproduction of every worked number in the paper's
//! running example (§4.3–§4.6), through the public façade API.

use fastest_paths::prelude::*;

fn paper_setup() -> (RoadNetwork, QuerySpec, NodeId, NodeId, NodeId) {
    let (net, ids) = fastest_paths::roadnet::examples::paper_running_example();
    let q = QuerySpec::new(
        ids.s,
        ids.e,
        Interval::of(hm(6, 50), hm(7, 5)),
        DayCategory::WORKDAY,
    );
    (net, q, ids.s, ids.n, ids.e)
}

#[test]
fn figure_3_initial_queue_functions() {
    // T(l, s→e) = 6; T(l, s→n) is 6 / ramp / 2; with T_est(n ⇒ e) = 1
    // the path via n has minimum 3 < 6, so it expands first.
    let (net, q, s, n, e) = paper_setup();
    let cat = q.category;
    let edges = net.neighbors(s).unwrap();
    let se = edges.iter().find(|ed| ed.to == e).unwrap();
    let sn = edges.iter().find(|ed| ed.to == n).unwrap();
    let t_se = fastest_paths::traffic::travel::travel_time_fn(
        net.profile(se, cat).unwrap(),
        se.distance,
        &q.interval,
    )
    .unwrap();
    let t_sn = fastest_paths::traffic::travel::travel_time_fn(
        net.profile(sn, cat).unwrap(),
        sn.distance,
        &q.interval,
    )
    .unwrap();
    assert!((t_se.minimum().value - 6.0).abs() < 1e-9);
    assert!((t_sn.minimum().value - 2.0).abs() < 1e-9);
    // naive estimate from n: d_euc(n, e) / v_max = 1 mile / 1 mpm
    assert!((net.euclidean(n, e).unwrap() / net.max_speed() - 1.0).abs() < 1e-9);
    // so min(T + T_est) via n = 2 + 1 = 3 < 6
}

#[test]
fn section_4_5_single_fp() {
    let (net, q, s, n, e) = paper_setup();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let ans = engine.single_fastest_path(&q).unwrap();
    assert_eq!(ans.path.nodes, vec![s, n, e]);
    assert!((ans.travel_minutes - 5.0).abs() < 1e-9);
    // "Any time instant in [7:00-7:03] is an optimal leaving time"
    assert!(pwl::approx_eq(ans.best_leaving.lo(), hm(7, 0)));
    assert!(pwl::approx_eq(ans.best_leaving.hi(), hm(7, 3)));
}

#[test]
fn section_4_6_all_fp_partitioning() {
    let (net, q, s, n, e) = paper_setup();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let ans = engine.all_fastest_paths(&q).unwrap();

    assert_eq!(ans.partition.len(), 3);
    let (iv0, p0) = &ans.partition[0];
    let (iv1, p1) = &ans.partition[1];
    let (iv2, p2) = &ans.partition[2];
    assert_eq!(ans.paths[*p0].nodes, vec![s, e]);
    assert_eq!(ans.paths[*p1].nodes, vec![s, n, e]);
    assert_eq!(ans.paths[*p2].nodes, vec![s, e]);
    assert!(pwl::approx_eq(iv0.hi(), hms(6, 58, 30)));
    assert!(pwl::approx_eq(iv1.hi(), hm(7, 6) - 18.0 / 7.0)); // 7:03:25.7
    assert!(pwl::approx_eq(iv2.hi(), hm(7, 5)));

    // termination threshold: the lower border's max is the direct
    // road's constant 6 minutes (Figure 7)
    assert!((ans.lower_border.max_value() - 6.0).abs() < 1e-9);
    // minimum travel anywhere in I is the 5-minute window
    assert!((ans.lower_border.min_value() - 5.0).abs() < 1e-9);
}

#[test]
fn both_day_categories_work() {
    let (net, q, s, n, e) = paper_setup();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let mut q2 = q.clone();
    q2.category = DayCategory::NON_WORKDAY;
    let ans = engine.all_fastest_paths(&q2).unwrap();
    // no congestion: the 5-mile via-n route wins everywhere
    assert_eq!(ans.partition.len(), 1);
    assert_eq!(ans.paths[ans.partition[0].1].nodes, vec![s, n, e]);
}

#[test]
fn disk_backed_paper_example() {
    use fastest_paths::ccam::{CcamStore, MemStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
    use std::sync::Arc;

    let (net, q, s, n, e) = paper_setup();
    let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let disk = CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, 16).unwrap();
    let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
    let ans = engine.all_fastest_paths(&q).unwrap();
    assert_eq!(ans.partition.len(), 3);
    assert_eq!(ans.paths[ans.partition[1].1].nodes, vec![s, n, e]);
}
