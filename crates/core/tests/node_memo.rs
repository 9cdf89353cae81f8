//! The flat search reads each node record at most once per query.
//!
//! Under a location-blind bound (minTimeLB, the default) a node's
//! record — adjacency and location in one [`NetworkSource::read_node`]
//! — is read when the node is first expanded, and the target's
//! location is never asked for. Under a bound that reads locations
//! (naiveLB) it is read at the node's first touch: the seed, or a
//! candidate edge's head past the cycle check. Either way every later
//! candidate or expansion of that node is served from the query's own
//! memo. These tests count the calls at the [`NetworkSource`] surface
//! and, through a CCAM store, the pool lookups below it, and pin the
//! answers to a plain engine over the bare network.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use allfp::{
    Engine, EngineConfig, EstimatorKind, PathfindBackend, QueryBudget, QueryOutcome, QuerySpec,
    QueryStats,
};
use ccam::{
    CcamError, CcamStore, EdgeRecord, MemStore, NodeRecord, PlacementPolicy, DEFAULT_PAGE_SIZE,
};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;
use roadnet::{Edge, NetworkSource, NodeId, PatternId, Point, RoadNetwork};
use traffic::{CapeCodPattern, DayCategory, RoadClass};

/// Every node id each call was made for, in call order.
#[derive(Default)]
struct Calls {
    read_node: Vec<NodeId>,
    successors_into: Vec<NodeId>,
    find_node: Vec<NodeId>,
    /// The allocating `successors` (the search never calls it; the
    /// degraded fallback planner does).
    successors: Vec<NodeId>,
}

/// A [`NetworkSource`] that forwards to `inner` and logs the node of
/// every record-reading call.
struct CountingSource<'a, S> {
    inner: &'a S,
    calls: Mutex<Calls>,
}

impl<'a, S: NetworkSource> CountingSource<'a, S> {
    fn new(inner: &'a S) -> Self {
        CountingSource {
            inner,
            calls: Mutex::new(Calls::default()),
        }
    }

    fn take(&self) -> Calls {
        std::mem::take(&mut self.calls.lock().expect("no panic under the lock"))
    }
}

impl<S: NetworkSource> NetworkSource for CountingSource<'_, S> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
        self.calls.lock().expect("lock").find_node.push(node);
        self.inner.find_node(node)
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
        self.calls.lock().expect("lock").successors.push(node);
        self.inner.successors(node)
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
        self.calls.lock().expect("lock").successors_into.push(node);
        self.inner.successors_into(node, buf)
    }

    fn read_node(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<Point> {
        self.calls.lock().expect("lock").read_node.push(node);
        self.inner.read_node(node, buf)
    }

    fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
        self.inner.pattern(id)
    }

    fn max_speed(&self) -> f64 {
        self.inner.max_speed()
    }
}

fn metro_small() -> (RoadNetwork, Vec<QuerySpec>) {
    let net = suffolk_like(&MetroConfig::small(0xC0FFEE)).expect("generator");
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    let queries: Vec<QuerySpec> = sample_pairs(&net, 6, 0.5, 3.0, 0xF19)
        .expect("pairs")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect();
    assert!(!queries.is_empty(), "workload sampler returned no pairs");
    (net, queries)
}

/// The two estimators: minTimeLB, which reads no location, and
/// naiveLB, which does.
const ESTIMATORS: [EstimatorKind; 2] = [EstimatorKind::MinTime, EstimatorKind::Naive];

fn config(estimator: EstimatorKind) -> EngineConfig {
    EngineConfig {
        estimator,
        ..EngineConfig::default()
    }
}

/// The search's calls for one query: one `read_node` per record read
/// and no record read twice; no `successors_into`. Under minTimeLB a
/// record is read exactly for each expanded node and `find_node` is
/// never called; under naiveLB a record is read for each touched node,
/// and the target's `find_node` is the one other call.
fn assert_one_read_per_node(
    calls: &Calls,
    stats: &QueryStats,
    estimator: EstimatorKind,
    target: NodeId,
    what: &str,
) {
    assert_eq!(
        calls.read_node.len(),
        stats.nodes_read,
        "{what}: read_node calls"
    );
    if estimator == EstimatorKind::MinTime {
        assert_eq!(
            calls.read_node.len(),
            stats.expanded_nodes,
            "{what}: records read past the expanded nodes"
        );
        assert!(calls.find_node.is_empty(), "{what}: find_node calls");
    } else {
        assert_eq!(calls.find_node, [target], "{what}: find_node calls");
    }
    let distinct: HashSet<NodeId> = calls.read_node.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        calls.read_node.len(),
        "{what}: a node's record was read twice"
    );
    assert!(
        calls.successors_into.is_empty(),
        "{what}: successors_into outside read_node"
    );
}

/// Partition and paths (nodes and travel functions) through `Debug`,
/// which prints shortest-roundtrip floats: equal strings, equal bits.
fn fingerprint(a: &allfp::AllFpAnswer) -> String {
    format!("{:?}|{:?}", a.partition, a.paths)
}

#[test]
fn exact_queries_read_each_node_record_once() {
    let (net, queries) = metro_small();
    let counted = CountingSource::new(&net);
    for estimator in ESTIMATORS {
        let (mut revisits, mut unread) = (0, 0);
        for (i, q) in queries.iter().enumerate() {
            // Fresh engines on both sides: same (empty) travel-function
            // cache, so the statistics must agree to the last counter.
            let engine = Engine::new(&counted, config(estimator)).unwrap();
            let bare = Engine::new(&net, config(estimator)).unwrap();
            counted.take();

            let what = format!("{estimator:?} allFP {i}");
            let all = engine.all_fastest_paths(q).expect("allFP");
            let calls = counted.take();
            assert!(calls.successors.is_empty());
            assert_one_read_per_node(&calls, &all.stats, estimator, q.target, &what);
            let want = bare
                .all_fastest_paths(q)
                .expect("allFP on the bare network");
            assert_eq!(fingerprint(&all), fingerprint(&want), "{what}");
            assert_eq!(all.stats, want.stats, "{what}");
            revisits += all.stats.expanded_paths - all.stats.expanded_nodes;

            let what = format!("{estimator:?} singleFP {i}");
            let single = engine.single_fastest_path(q).expect("singleFP");
            let calls = counted.take();
            assert_one_read_per_node(&calls, &single.stats, estimator, q.target, &what);
            let want = bare
                .single_fastest_path(q)
                .expect("singleFP on the bare network");
            assert_eq!(format!("{single:?}"), format!("{want:?}"), "{what}");
            unread += single.stats.nodes_read - single.stats.expanded_nodes;
        }
        assert!(
            revisits > 0,
            "{estimator:?}: the workload never expanded a node twice, so it cannot show the memo"
        );
        // naiveLB reads every touched node, the unexpanded ones too.
        assert_eq!(
            unread > 0,
            estimator == EstimatorKind::Naive,
            "{estimator:?}"
        );
    }
}

#[test]
fn a_budget_tripped_query_reads_each_node_record_once() {
    let (net, queries) = metro_small();
    let counted = CountingSource::new(&net);
    // Half of what the query needs unbudgeted, so the cap trips
    // mid-search whatever the pruning rules make of the query.
    let probe = Engine::new(&net, EngineConfig::default()).unwrap();
    let unbudgeted = probe.all_fastest_paths(&queries[0]).expect("allFP");
    let cap = unbudgeted.stats.expanded_paths / 2;
    assert!(cap > 0, "the query must need more than one expansion");
    let budget = QueryBudget::unlimited().with_max_expansions(cap);
    let q = queries[0].clone().with_budget(budget);

    // The legacy surface stops at the trip, so its calls are exactly
    // the search's.
    let engine = Engine::new(&counted, EngineConfig::default()).unwrap();
    counted.take();
    assert!(matches!(
        engine.all_fastest_paths(&q),
        Err(allfp::AllFpError::BudgetExhausted { expansions }) if expansions == cap
    ));
    let search_calls = counted.take();
    let estimator = EngineConfig::default().estimator;

    // The robust surface reports the search's statistics and then
    // plans the fallback route through the allocating `successors`.
    let engine = Engine::new(&counted, EngineConfig::default()).unwrap();
    counted.take();
    let QueryOutcome::Degraded(degraded) = engine.run_robust(&q).expect("robust query") else {
        panic!("half its expansions cannot finish the query");
    };
    let robust_calls = counted.take();
    assert_one_read_per_node(
        &search_calls,
        &degraded.stats,
        estimator,
        q.target,
        "degraded",
    );
    assert_eq!(robust_calls.read_node, search_calls.read_node);
    assert!(!robust_calls.successors.is_empty(), "fallback was planned");

    let bare = Engine::new(&net, EngineConfig::default()).unwrap();
    let QueryOutcome::Degraded(want) = bare.run_robust(&q).expect("robust query") else {
        panic!("the bare network trips the same budget");
    };
    assert_eq!(degraded.stats, want.stats);
    assert_eq!(degraded.reason, want.reason);
    assert_eq!(
        degraded.best.as_ref().map(fingerprint),
        want.best.as_ref().map(fingerprint)
    );
    assert_eq!(
        format!("{:?}", degraded.fallback),
        format!("{:?}", want.fallback)
    );
}

#[test]
fn a_paged_source_pays_two_pool_lookups_per_node_read() {
    let (net, queries) = metro_small();
    let disk = CcamStore::build(
        &net,
        Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)),
        PlacementPolicy::ConnectivityClustered,
        16,
    )
    .expect("store builds");
    let logical = |s: &ccam::StoreStats| s.hits + s.misses;

    // One record fetch reads the node's directory page, then the data
    // page.
    let before = disk.stats();
    disk.find_node(queries[0].source).expect("node exists");
    assert_eq!(logical(&disk.stats().since(&before)), 2, "directory, data");

    for estimator in ESTIMATORS {
        let engine = Engine::new(&disk, config(estimator)).unwrap();
        // one directory page and one data page per node read, plus,
        // under naiveLB, the target's `find_node`
        let target_lookups = if estimator == EstimatorKind::Naive {
            2
        } else {
            0
        };
        for (i, q) in queries.iter().enumerate() {
            let before = disk.stats();
            let all = engine.all_fastest_paths(q).expect("allFP");
            let reads = logical(&disk.stats().since(&before));
            let what = format!("{estimator:?} allFP {i}");
            assert_eq!(
                reads,
                2 * all.stats.nodes_read as u64 + target_lookups,
                "{what}"
            );
            assert!(all.stats.nodes_read > 0);

            let before = disk.stats();
            let single = engine.single_fastest_path(q).expect("singleFP");
            let reads = logical(&disk.stats().since(&before));
            let what = format!("{estimator:?} singleFP {i}");
            assert_eq!(
                reads,
                2 * single.stats.nodes_read as u64 + target_lookups,
                "{what}"
            );
        }
    }
}

/// Node ids are dense: a store of `n` nodes inserts only node `n`. An
/// id past it (and an edge to one) is a typed error, so no query over
/// the store meets a head past its nodes; a dense insert wired in by an
/// edge is read like any other node.
#[test]
fn a_sparse_node_id_is_refused_and_the_next_query_runs() {
    let (net, queries) = metro_small();
    let mut disk = CcamStore::build(
        &net,
        Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)),
        PlacementPolicy::ConnectivityClustered,
        16,
    )
    .expect("store builds");
    let n = net.n_nodes() as u32;
    let record = |id: u32| NodeRecord {
        id: NodeId(id),
        loc: *net.point(NodeId(0)).expect("node 0"),
        edges: vec![],
    };
    let edge = |to: u32| EdgeRecord {
        to: NodeId(to),
        distance: 0.1,
        class: RoadClass::LocalOutside,
        pattern: PatternId(0),
    };
    assert!(matches!(
        disk.insert_node_record(&record(n + 5)),
        Err(CcamError::NodeIdNotNext { next, .. }) if next == u64::from(n)
    ));
    assert!(matches!(
        disk.add_edge(NodeId(0), edge(n + 5)),
        Err(CcamError::NotFound(_))
    ));
    disk.insert_node_record(&record(n)).expect("the next id");
    disk.add_edge(NodeId(0), edge(n)).expect("an edge to it");
    let engine = Engine::new(&disk, EngineConfig::default()).expect("engine");
    for q in &queries {
        engine.all_fastest_paths(q).expect("allFP");
    }
}
