//! A session's pooled search workspace never shows in an answer.
//!
//! Every query of a shuffled stream is answered twice: by engines that
//! share one [`TravelFnCache`] — so one parked session, and with it one
//! `SearchWorkspace`, is revived for each query in turn — and by a
//! fresh engine with a fresh cache. Answers, degraded answers, errors
//! and the search counters must agree bit for bit, whatever the
//! previous query left in the workspace: a finished allFP or singleFP
//! search, an unreachable pair, a tripped expansion cap, a cancelled
//! search, the other pruning mode, or a network of another size.

use std::sync::Arc;

use allfp::{
    build_estimator, AllFpError, CancelToken, DegradedReason, Engine, EngineConfig, EstimatorKind,
    LowerBoundEstimator, PathfindBackend, QueryBudget, QueryOutcome, QuerySpec, QueryStats,
    TravelFnCache,
};
use pwl::time::hm;
use pwl::Interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, PatternSchema, RoadClass};

/// How a query of the stream is asked.
#[derive(Debug, Clone, Copy)]
enum Ask {
    All,
    Single,
    /// allFP under an expansion cap: degrades to the best-so-far.
    Capped(usize),
    /// allFP with a token cancelled before the search starts.
    Cancelled,
}

#[derive(Debug, Clone)]
struct Case {
    net: usize,
    prune_dominated: bool,
    query: QuerySpec,
    ask: Ask,
}

/// What a query returned, in a form that compares: the answer types
/// that are not `PartialEq` are taken apart, errors are rendered, and
/// the two counters that tell a warm cache from a cold one are zeroed.
#[derive(Debug, PartialEq)]
enum Seen {
    All(Vec<allfp::FastestPath>, Vec<(Interval, usize)>, pwl::Pwl),
    Single(allfp::SingleFpAnswer),
    Degraded(DegradedReason, Option<Box<Seen>>, allfp::FastestPath),
    Failed(String),
}

fn cold(mut stats: QueryStats) -> QueryStats {
    stats.cache_hits = 0;
    stats.cache_misses = 0;
    stats
}

fn seen_all(a: allfp::AllFpAnswer) -> (Seen, QueryStats) {
    let border = a.lower_border.as_pwl().clone();
    (Seen::All(a.paths, a.partition, border), cold(a.stats))
}

fn ask(engine: &Engine<'_, RoadNetwork>, case: &Case) -> (Seen, Option<QueryStats>) {
    let failed = |e: String| (Seen::Failed(e), None);
    match case.ask {
        Ask::All => match engine.all_fastest_paths(&case.query) {
            Ok(a) => {
                let (seen, stats) = seen_all(a);
                (seen, Some(stats))
            }
            Err(e) => failed(e.to_string()),
        },
        Ask::Single => match engine.single_fastest_path(&case.query) {
            Ok(mut s) => {
                let stats = cold(s.stats);
                s.stats = stats;
                (Seen::Single(s), Some(stats))
            }
            Err(e) => failed(e.to_string()),
        },
        Ask::Capped(cap) => {
            let q = case
                .query
                .clone()
                .with_budget(QueryBudget::default().with_max_expansions(cap));
            match engine.run_robust(&q) {
                Ok(QueryOutcome::Degraded(d)) => {
                    let best = d.best.map(|b| {
                        let (seen, stats) = seen_all(b);
                        assert_eq!(stats, cold(d.stats), "best-so-far carries the trip's stats");
                        Box::new(seen)
                    });
                    (
                        Seen::Degraded(d.reason, best, d.fallback),
                        Some(cold(d.stats)),
                    )
                }
                Ok(QueryOutcome::Exact(_)) => panic!("cap {cap} did not trip: {case:?}"),
                Err(e) => failed(e.to_string()),
            }
        }
        Ask::Cancelled => {
            let token = CancelToken::new();
            token.cancel();
            let out =
                engine.robust_with_session(&case.query, &mut engine.cache_session(), Some(&token));
            assert!(matches!(out, Err(AllFpError::Cancelled)), "{out:?}");
            failed("cancelled".to_string())
        }
    }
}

/// Six nodes on a two-way road with a slower parallel lane, and under
/// each a dead-end node entered one way (the half-dead directed net of
/// `consistency.rs`): from a dead node the road is unreachable.
fn road_over_a_dead_end() -> (RoadNetwork, Vec<NodeId>, Vec<NodeId>) {
    let mut net = RoadNetwork::with_schema(&PatternSchema::table1().unwrap());
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
        net.add_class_edge(live[i], live[i + 1], 1.2, RoadClass::LocalOutside)
            .unwrap();
        net.add_bidirectional(dead[i], dead[i + 1], 1.0, RoadClass::LocalBoston)
            .unwrap();
    }
    for i in 0..6 {
        net.add_class_edge(live[i], dead[i], 1.0, RoadClass::LocalBoston)
            .unwrap();
    }
    (net, live, dead)
}

fn config(prune_dominated: bool) -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::MinTime,
        prune_dominated,
        ..EngineConfig::default()
    }
}

#[test]
fn one_workspace_answers_a_shuffled_stream_like_fresh_engines() {
    // Three networks over the Table 1 schema (one pattern-id space, so
    // one cache serves them all), of 12, a few hundred and a few
    // thousand nodes.
    let (road, live, dead) = road_over_a_dead_end();
    let small = suffolk_like(&MetroConfig::small(42)).unwrap();
    let large = suffolk_like(&MetroConfig::medium(0x5EED)).unwrap();
    let nets = [&road, &small, &large];
    assert!(road.n_nodes() < small.n_nodes() && small.n_nodes() < large.n_nodes());

    let rush = Interval::of(hm(7, 0), hm(8, 30));
    let spec = |s, t| QuerySpec::new(s, t, rush, DayCategory::WORKDAY);
    let mut cases = Vec::new();
    for (net, pairs) in [
        (1, sample_pairs(&small, 6, 0.8, 1.8, 9).unwrap()),
        (2, sample_pairs(&large, 6, 2.0, 5.0, 7).unwrap()),
    ] {
        for (k, p) in pairs.iter().enumerate() {
            let query = spec(p.source, p.target);
            for ask in [Ask::All, Ask::Single] {
                cases.push(Case {
                    net,
                    // The basic algorithm enumerates near-equal routes:
                    // affordable on the small network only.
                    prune_dominated: net == 2 || k % 2 == 0,
                    query: query.clone(),
                    ask,
                });
            }
            // Trip the exact search part-way, or on its last expansion,
            // when target paths have been identified.
            let full = Engine::for_network(nets[net], config(true))
                .unwrap()
                .all_fastest_paths(&query)
                .unwrap()
                .stats
                .expanded_paths;
            cases.push(Case {
                net,
                prune_dominated: true,
                query: query.clone(),
                ask: Ask::Capped(if k % 2 == 0 { full * 2 / 3 } else { full - 1 }),
            });
            cases.push(Case {
                net,
                prune_dominated: true,
                query,
                ask: Ask::Cancelled,
            });
        }
    }
    for (source, target) in [(dead[1], live[5]), (live[0], live[5]), (dead[4], live[2])] {
        for ask in [Ask::All, Ask::Single] {
            cases.push(Case {
                net: 0,
                prune_dominated: true,
                query: spec(source, target),
                ask,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.gen_range(0..=i));
    }
    // The sizes must actually alternate: small → large → small.
    let order: Vec<usize> = cases.iter().map(|c| c.net).collect();
    assert!(
        order
            .windows(3)
            .any(|w| w[0] < w[1] && w[2] < w[1] || w[0] > w[1] && w[2] > w[1]),
        "{order:?}"
    );

    // One cache, hence one parked session revived by every one-shot
    // call below; six engines (network × pruning mode) over it.
    let cache = Arc::new(TravelFnCache::new());
    let shared: Vec<[Engine<'_, RoadNetwork>; 2]> = nets
        .iter()
        .map(|net| {
            let estimator: Arc<dyn LowerBoundEstimator> =
                Arc::from(build_estimator(net, &config(true)).unwrap());
            [false, true].map(|prune| {
                Engine::with_shared(
                    *net,
                    Arc::clone(&estimator),
                    Arc::clone(&cache),
                    config(prune),
                )
            })
        })
        .collect();

    let (mut unreachable, mut partial) = (0, 0);
    for (i, case) in cases.iter().enumerate() {
        let got = ask(&shared[case.net][usize::from(case.prune_dominated)], case);
        let fresh = Engine::for_network(nets[case.net], config(case.prune_dominated)).unwrap();
        let want = ask(&fresh, case);
        assert_eq!(got, want, "query {i} of the stream: {case:?}");
        match &got.0 {
            Seen::Failed(e) if e.contains("no path") => unreachable += 1,
            Seen::Degraded(_, Some(_), _) => partial += 1,
            _ => {}
        }
    }
    assert_eq!(unreachable, 4, "two dead sources, asked both ways");
    assert!(partial > 0, "no cap left a best-so-far to compare");
}
