//! Whole-system integration: generate a metro, persist it through
//! CCAM onto a real file, reopen cold, build the min-time estimator
//! from the in-memory copy, and answer interval queries — checking
//! every layer agrees with every other.

use std::sync::Arc;

use fastest_paths::allfp::baseline::{constant_speed_plan, discrete_time, evaluate_path};
use fastest_paths::allfp::{build_estimator, NaiveLb};
use fastest_paths::ccam::{BlockStore, CcamStore, FileStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use fastest_paths::prelude::*;
use fastest_paths::roadnet::generators::{suffolk_like, MetroConfig};
use fastest_paths::roadnet::workload::sample_pairs;

#[test]
fn full_stack_round_trip() {
    let net = suffolk_like(&MetroConfig::small(4242)).unwrap();

    // persist to a real file, reopen cold
    let dir = std::env::temp_dir().join(format!("fp-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metro.ccam");
    {
        let store: Arc<dyn BlockStore> =
            Arc::new(FileStore::create(&path, DEFAULT_PAGE_SIZE).unwrap());
        CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, 128).unwrap();
    }
    let store: Arc<dyn BlockStore> = Arc::new(FileStore::open(&path, DEFAULT_PAGE_SIZE).unwrap());
    let disk = CcamStore::open(store, 128).unwrap();
    assert_eq!(NetworkSource::n_nodes(&disk), net.n_nodes());

    // min-time estimator built from the in-memory copy, used against
    // the disk store
    let config = EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    };
    let estimator = build_estimator(&net, &config).unwrap();
    let disk_engine = Engine::with_estimator(&disk, estimator, config);
    let mem_engine = Engine::new(&net, EngineConfig::default()).unwrap();

    let window = Interval::of(hm(7, 0), hm(9, 0));
    let pairs = sample_pairs(&net, 4, 1.5, 2.5, 99).unwrap();
    assert!(!pairs.is_empty());
    for p in &pairs {
        let q = QuerySpec::new(p.source, p.target, window, DayCategory::WORKDAY);
        let a = mem_engine.all_fastest_paths(&q).unwrap();
        let b = disk_engine.all_fastest_paths(&q).unwrap();
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0), "{} vs {}", x.0, y.0);
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smart_planner_beats_constant_speed_during_rush() {
    // The §6 claim: knowing the patterns ("CapeCod model") beats
    // assuming speed limits, with the gap concentrated in rush hours.
    let net = suffolk_like(&MetroConfig::small(7)).unwrap();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let pairs = sample_pairs(&net, 12, 2.0, 3.5, 3).unwrap();

    let mut smart_total = 0.0;
    let mut naive_total = 0.0;
    let leave = hm(8, 0); // heart of the morning rush
    let mut compared = 0;
    for p in &pairs {
        let q = QuerySpec::new(
            p.source,
            p.target,
            Interval::of(leave, leave),
            DayCategory::WORKDAY,
        );
        let Ok(smart) = engine.single_fastest_path(&q) else {
            continue;
        };
        let Ok((_, constant)) =
            constant_speed_plan(&net, p.source, p.target, leave, DayCategory::WORKDAY)
        else {
            continue;
        };
        smart_total += smart.travel_minutes;
        naive_total += constant;
        assert!(
            smart.travel_minutes <= constant + 1e-6,
            "smart {} worse than constant-speed {}",
            smart.travel_minutes,
            constant
        );
        compared += 1;
    }
    assert!(compared >= 8, "too few comparable pairs: {compared}");
    assert!(
        smart_total <= naive_total,
        "aggregate smart {smart_total} vs constant {naive_total}"
    );
}

#[test]
fn discrete_time_never_beats_exact() {
    let net = suffolk_like(&MetroConfig::small(55)).unwrap();
    let pairs = sample_pairs(&net, 5, 1.5, 3.0, 21).unwrap();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let lb = NaiveLb::new(net.max_speed());
    let window = Interval::of(hm(8, 0), hm(10, 15));
    for p in &pairs {
        let q = QuerySpec::new(p.source, p.target, window, DayCategory::WORKDAY);
        let exact = engine.single_fastest_path(&q).unwrap();
        for step in [60.0, 10.0, 1.0] {
            let d =
                discrete_time(&net, p.source, p.target, &window, step, q.category, &lb).unwrap();
            assert!(
                d.travel_minutes + 1e-6 >= exact.travel_minutes,
                "discrete ({step}m) found {} below exact {}",
                d.travel_minutes,
                exact.travel_minutes
            );
            // and the discrete answer, re-driven, matches its claim
            let driven = evaluate_path(&net, &d.nodes, d.best_leave, q.category).unwrap();
            assert!((driven - d.travel_minutes).abs() < 1e-6);
        }
    }
}

#[test]
fn network_stats_report_all_classes() {
    let net = suffolk_like(&MetroConfig::small(1)).unwrap();
    let stats = fastest_paths::roadnet::NetworkStats::of(&net);
    assert!(stats.nodes > 300);
    assert!(stats.avg_out_degree > 2.0 && stats.avg_out_degree < 4.0);
    for c in stats.class_counts {
        assert!(c > 0);
    }
}
