//! Golden exact-equivalence suite: the contraction-hierarchy backend
//! must answer singleFP/allFP **bit-identically** to the flat engine —
//! same node sequences, same partition boundaries, and travel
//! functions equal knot for knot and coefficient for coefficient.
//!
//! The hierarchy guarantees this by only *selecting* winning node
//! sequences on its overlay and then re-composing their functions
//! through `Engine::route_travel_fn` — the flat engine's own pipeline.
//! These tests pin that contract on the paper's running example and on
//! seeded metro networks at two scales.

use allfp::{Engine, EngineConfig, PathfindBackend, QuerySpec};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::time::hm;
use pwl::{Interval, Pwl};
use roadnet::examples::paper_running_example;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;
use roadnet::RoadNetwork;
use traffic::DayCategory;

/// Bit-for-bit function equality: same knots, same coefficients.
fn assert_pwl_identical(a: &Pwl, b: &Pwl, what: &str) {
    assert_eq!(a.breakpoints(), b.breakpoints(), "{what}: breakpoints");
    assert_eq!(a.linears(), b.linears(), "{what}: linear coefficients");
}

fn assert_equivalent(net: &RoadNetwork, query: &QuerySpec, what: &str) {
    let flat = Engine::new(net, EngineConfig::default()).unwrap();
    let ch = HierarchyEngine::build(net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy build");

    // singleFP: node sequence, minimum, argmin interval, full function.
    let fs = flat.single_fastest_path(query).expect("flat singleFP");
    let hs = ch.single_fastest_path(query).expect("ch singleFP");
    assert_eq!(fs.path.nodes, hs.path.nodes, "{what}: singleFP nodes");
    assert_eq!(
        fs.travel_minutes.to_bits(),
        hs.travel_minutes.to_bits(),
        "{what}: singleFP minimum"
    );
    assert_eq!(
        (
            fs.best_leaving.lo().to_bits(),
            fs.best_leaving.hi().to_bits()
        ),
        (
            hs.best_leaving.lo().to_bits(),
            hs.best_leaving.hi().to_bits()
        ),
        "{what}: singleFP argmin interval"
    );
    assert_pwl_identical(&fs.path.travel, &hs.path.travel, what);

    // allFP: partition boundaries, per-interval paths, functions.
    let fa = flat.all_fastest_paths(query).expect("flat allFP");
    let ha = ch.all_fastest_paths(query).expect("ch allFP");
    assert_eq!(
        fa.partition.len(),
        ha.partition.len(),
        "{what}: partition size"
    );
    for ((fi, fp), (hi, hp)) in fa.partition.iter().zip(ha.partition.iter()) {
        assert_eq!(
            (fi.lo().to_bits(), fi.hi().to_bits()),
            (hi.lo().to_bits(), hi.hi().to_bits()),
            "{what}: partition boundary"
        );
        assert_eq!(
            fa.paths[*fp].nodes, ha.paths[*hp].nodes,
            "{what}: partition path"
        );
    }
    assert_eq!(fa.paths.len(), ha.paths.len(), "{what}: path count");
    for (f, h) in fa.paths.iter().zip(ha.paths.iter()) {
        assert_eq!(f.nodes, h.nodes, "{what}: path order");
        assert_pwl_identical(&f.travel, &h.travel, what);
    }
}

#[test]
fn paper_running_example_equivalent() {
    let (net, ids) = paper_running_example();
    let query = QuerySpec::new(
        ids.s,
        ids.e,
        Interval::of(hm(6, 50), hm(7, 10)),
        DayCategory::WORKDAY,
    );
    assert_equivalent(&net, &query, "paper example");
}

#[test]
fn metro_small_golden_equivalence() {
    let net = suffolk_like(&MetroConfig::small(0xC0FFEE)).expect("generator");
    let mut pairs = sample_pairs(&net, 12, 0.5, 3.0, 0xF19).expect("pairs");
    pairs.extend(sample_pairs(&net, 4, 0.5, 3.0, 0xA11).expect("pairs"));
    assert!(pairs.len() > 12, "workload sampler returned too few pairs");
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    for (i, p) in pairs.iter().enumerate() {
        let query = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
        assert_equivalent(&net, &query, &format!("metro-small pair {i}"));
    }
}

#[test]
fn metro_medium_golden_equivalence() {
    let net = suffolk_like(&MetroConfig::medium(0xBEEF)).expect("generator");
    let pairs = sample_pairs(&net, 4, 1.0, 4.0, 0xF19).expect("pairs");
    assert!(!pairs.is_empty(), "workload sampler returned no pairs");
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    for (i, p) in pairs.iter().enumerate() {
        let query = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
        assert_equivalent(&net, &query, &format!("metro-medium pair {i}"));
    }
}

#[test]
fn hierarchy_expands_fewer_paths() {
    // Not part of the bit-identity contract, but the whole point of
    // preprocessing: on a metro network the overlay search does far
    // less work per query than flat expansion.
    let net = suffolk_like(&MetroConfig::small(0xC0FFEE)).expect("generator");
    let flat = Engine::new(&net, EngineConfig::default()).unwrap();
    let ch = HierarchyEngine::build(&net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy build");
    let pairs = sample_pairs(&net, 8, 1.0, 3.0, 0xF19).expect("pairs");
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    let (mut flat_total, mut ch_total) = (0usize, 0usize);
    for p in &pairs {
        let query = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
        flat_total += flat
            .single_fastest_path(&query)
            .expect("flat")
            .stats
            .expanded_paths;
        ch_total += ch
            .single_fastest_path(&query)
            .expect("ch")
            .stats
            .expanded_paths;
    }
    assert!(
        ch_total * 2 < flat_total,
        "overlay search should expand far fewer paths: ch={ch_total} flat={flat_total}"
    );
}

#[test]
fn unbuilt_category_falls_back_to_flat() {
    let (net, ids) = paper_running_example();
    let query = QuerySpec::new(
        ids.s,
        ids.e,
        Interval::of(hm(6, 50), hm(7, 10)),
        DayCategory::NON_WORKDAY, // default HierarchyConfig builds WORKDAY only
    );
    assert_equivalent(&net, &query, "non-workday fallback");
}

#[test]
fn degenerate_interval_falls_back_to_flat() {
    let (net, ids) = paper_running_example();
    let flat = Engine::new(&net, EngineConfig::default()).unwrap();
    let ch = HierarchyEngine::build(&net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy build");
    let query = QuerySpec::new(
        ids.s,
        ids.e,
        Interval::of(hm(7, 0), hm(7, 0)),
        DayCategory::WORKDAY,
    );
    let fs = flat.single_fastest_path(&query).expect("flat");
    let hs = ch.single_fastest_path(&query).expect("ch");
    assert_eq!(fs.path.nodes, hs.path.nodes);
    assert_eq!(fs.travel_minutes.to_bits(), hs.travel_minutes.to_bits());
}
