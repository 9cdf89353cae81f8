//! End-to-end fault tolerance: the query engine over a CCAM store
//! with deterministic faults injected below it.
//!
//! The storage stack under test is the full production layering
//!
//! ```text
//! CcamStore → BufferPool (bounded retry) → ChecksummedStore
//!           → FaultInjectingStore (seeded schedule) → MemStore
//! ```
//!
//! and the properties asserted are the ISSUE's acceptance criteria:
//!
//! * under seeded transient-read faults, a concurrent batch completes
//!   **every** query with answers identical to a fault-free serial run
//!   (the retry layer absorbs the faults; nothing leaks upward);
//! * the same seed replays the same fault schedule byte-for-byte;
//! * a bit-flipped page is detected as `Corruption` and surfaces as a
//!   typed `AllFpError::Network(NetworkError::Storage { .. })` —
//!   flipped bytes are never served as route data;
//! * a fault on a record page the search reads surfaces through its
//!   node read typed — `Corruption` for a flipped bit, `Transient` for
//!   a read that fails through every retry;
//! * an exhausted per-query budget yields a [`QueryOutcome::Degraded`]
//!   answer whose constant-speed fallback is a real, drivable path;
//! * a query that panics mid-search fails in its own slot while its
//!   batch siblings complete exactly, and the session it unwound
//!   through answers the next query exactly;
//! * a pre-cancelled batch reports `Cancelled` for every slot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use allfp::baseline::evaluate_path;
use allfp::{
    run_batch, AllFpError, CancelToken, DegradedReason, Engine, EngineConfig, EstimatorKind,
    PathfindBackend, QueryBudget, QueryOutcome, QuerySpec,
};
use ccam::{
    BlockStore, CcamStore, ChecksummedStore, FaultInjectingStore, FaultPlan, MemStore,
    PlacementPolicy, DEFAULT_PAGE_SIZE,
};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{grid, random_geometric};
use roadnet::{NetworkError, NetworkSource, NodeId, RoadNetwork, StorageFaultKind};
use traffic::{DayCategory, RoadClass};

/// Deterministic 64-bit LCG (same constants as `MMIX`).
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

/// The production storage layering with a fault schedule at the
/// bottom: returns the raw store, the injector (for its event log),
/// and the checksummed top of the stack.
fn faulty_stack(plan: FaultPlan) -> (Arc<MemStore>, Arc<FaultInjectingStore>, Arc<dyn BlockStore>) {
    let raw = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let injected = Arc::new(FaultInjectingStore::new(
        Arc::clone(&raw) as Arc<dyn BlockStore>,
        plan,
    ));
    let top: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(
        Arc::clone(&injected) as Arc<dyn BlockStore>
    ));
    (raw, injected, top)
}

fn sample_queries(net: &RoadNetwork, n: usize, seed: u64) -> Vec<QuerySpec> {
    let nodes = net.n_nodes() as u64;
    let mut x = seed ^ 0xFA17_FA17;
    (0..n)
        .map(|_| {
            let s = NodeId((lcg(&mut x) % nodes) as u32);
            let e = loop {
                let c = NodeId((lcg(&mut x) % nodes) as u32);
                if c != s {
                    break c;
                }
            };
            let lo = hm(6, 30) + (lcg(&mut x) % 120) as f64;
            QuerySpec::new(s, e, Interval::of(lo, lo + 25.0), DayCategory::WORKDAY)
        })
        .collect()
}

/// Batch answers over a store with scheduled transient read faults
/// must be identical to a fault-free serial run: the buffer pool's
/// bounded retry absorbs every injected fault and no query fails.
#[test]
fn batch_over_faulty_store_matches_fault_free_serial() {
    let net = random_geometric(100, 4.0, 3, 9).unwrap();
    // every-5th read fails transiently (period >= 2, so a single retry
    // always lands — see the FaultInjectingStore schedule model)
    let (_raw, injected, top) = faulty_stack(FaultPlan::quiet(21).with_transient_reads(5));
    let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();

    let queries = sample_queries(&net, 12, 77);
    let oracle = Engine::new(&net, EngineConfig::default()).unwrap();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| oracle.all_fastest_paths(q))
        .collect();

    let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
    // the min-time bound's build read every page; drop them so the
    // batch faults its own pages in
    disk.clear_cache().unwrap();
    let io = disk.pool().store().io_stats();
    let (reads, retries, faults) = (io.reads(), io.retries(), injected.n_faults());
    let batch = run_batch(&engine, &queries, 4, &CancelToken::new());
    assert_eq!(batch.len(), queries.len());

    for (i, (s, b)) in serial.iter().zip(batch.iter()).enumerate() {
        match (s, b) {
            (Ok(s), Ok(QueryOutcome::Exact(b))) => {
                assert_eq!(s.partition.len(), b.partition.len(), "query {i}");
                for (x, y) in s.partition.iter().zip(b.partition.iter()) {
                    assert!(x.0.approx_eq(&y.0), "query {i}");
                    assert_eq!(s.paths[x.1].nodes, b.paths[y.1].nodes, "query {i}");
                }
            }
            // only structural failures (unreachable pair) may agree to
            // fail; a storage fault must never surface
            (Err(AllFpError::Unreachable { .. }), Err(AllFpError::Unreachable { .. })) => {}
            (s, b) => panic!(
                "query {i}: serial {:?} vs faulty batch {:?}",
                s.as_ref().map(|_| "ok"),
                b.as_ref().map(|_| "ok"),
            ),
        }
    }

    // the batch read pages, faults fired on those reads, and the pool
    // retried through them
    assert!(io.reads() > reads, "the batch read no page");
    assert!(
        injected.n_faults() > faults,
        "schedule never fired in the batch"
    );
    assert!(io.retries() > retries, "no retries recorded in the batch");
    assert_eq!(io.corruptions(), 0, "transient faults must not corrupt");
}

/// The same seed over the same workload replays the identical fault
/// schedule — event for event — which is what makes a faulty failure
/// reproducible offline.
#[test]
fn same_seed_replays_identical_fault_schedule() {
    let net = grid(8, 8, 0.25, RoadClass::LocalBoston).unwrap();
    let queries = sample_queries(&net, 6, 3);

    let run = |seed: u64| {
        let (_raw, injected, top) = faulty_stack(FaultPlan::quiet(seed).with_transient_reads(4));
        let disk = CcamStore::build(&net, top, PlacementPolicy::HilbertPacked, 32).unwrap();
        let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
        // the min-time bound's build read every page; drop them so the
        // queries fault their own pages in
        disk.clear_cache().unwrap();
        let io = disk.pool().store().io_stats();
        let (reads, faults) = (io.reads(), injected.n_faults());
        // serial, so the physical-operation order is deterministic
        for q in &queries {
            let _ = engine.all_fastest_paths(q);
        }
        assert!(io.reads() > reads, "the queries read no page");
        assert!(
            injected.n_faults() > faults,
            "schedule never fired in the queries"
        );
        injected.events()
    };

    let a = run(5);
    assert_eq!(a, run(5), "same seed must replay the identical log");
    assert_ne!(a, run(6), "a different seed must phase-shift the schedule");
}

/// A bit flipped beneath the checksum layer is detected on the next
/// fault-in and surfaces as a typed `Corruption` storage error — the
/// engine never sees (let alone routes on) the damaged bytes.
#[test]
fn bit_flipped_page_is_detected_never_served() {
    let net = grid(6, 6, 0.3, RoadClass::LocalOutside).unwrap();
    let raw: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let top: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(Arc::clone(&raw)));
    let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();

    let queries = sample_queries(&net, 4, 13);
    let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
    // sanity: the pristine store answers exactly
    for q in &queries {
        assert!(matches!(engine.run_robust(q), Ok(QueryOutcome::Exact(_))));
    }

    // flip one payload bit in every page, bypassing the checksum layer
    // (modelling at-rest media corruption), then drop the clean cache
    let page_size = raw.page_size();
    for id in 0..raw.n_pages() {
        let mut page = vec![0u8; page_size];
        raw.read_page(id, &mut page).unwrap();
        page[page_size / 2] ^= 0x10;
        raw.write_page(id, &page).unwrap();
    }
    disk.clear_cache().unwrap();

    for q in &queries {
        match engine.run_robust(q) {
            Err(AllFpError::Network(NetworkError::Storage { kind, .. })) => {
                assert_eq!(kind, StorageFaultKind::Corruption)
            }
            other => panic!("corrupt store served an answer: {other:?}"),
        }
    }
    // batch slots report the same typed failure; none succeed
    let results = run_batch(&engine, &queries, 2, &CancelToken::new());
    for r in &results {
        assert!(
            matches!(
                r,
                Err(AllFpError::Network(NetworkError::Storage {
                    kind: StorageFaultKind::Corruption,
                    ..
                }))
            ),
            "slot over corrupt store: {r:?}"
        );
    }
    assert!(
        disk.pool().store().io_stats().corruptions() > 0,
        "checksum layer never counted the corruption"
    );
}

/// A fault on a record page the *search* faults in — not the target's,
/// which the query reads first — surfaces through the search's one-call
/// node read as the page's typed storage error: a bit flip as
/// `Corruption`, a read that fails through every retry as `Transient`.
/// Neither becomes `UnknownNode` or a panic, and the split
/// `successors_into` / `find_node` calls report the same class for the
/// same record.
#[test]
fn a_fault_on_a_searched_record_surfaces_typed() {
    let net = grid(12, 12, 0.25, RoadClass::LocalOutside).unwrap();
    // opposite corners: the two records sit on different data pages
    let q = QuerySpec::new(
        NodeId(0),
        NodeId(143),
        Interval::of(hm(7, 0), hm(7, 30)),
        DayCategory::WORKDAY,
    );
    for (plan, want) in [
        (
            FaultPlan::quiet(41).with_bit_flips(1),
            StorageFaultKind::Corruption,
        ),
        (
            FaultPlan::quiet(41).with_transient_reads(1),
            StorageFaultKind::Transient,
        ),
    ] {
        let (_raw, injected, top) = faulty_stack(FaultPlan::quiet(41));
        let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();
        let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
        // Leave only the target's pages (root, leaf, data page) resident,
        // then fault every read that reaches the store.
        disk.clear_cache().unwrap();
        disk.find_node(q.target).unwrap();
        injected.set_plan(plan);

        match engine.run_robust(&q) {
            Err(AllFpError::Network(NetworkError::Storage { kind, .. })) => {
                assert_eq!(kind, want)
            }
            other => panic!("{want:?} plan: {other:?}"),
        }
        assert!(
            injected.n_faults() > 0,
            "{want:?}: the search faulted no page"
        );
        assert!(
            disk.find_node(q.target).is_ok(),
            "the target's pages stay clean"
        );

        let mut buf = Vec::new();
        for (call, got) in [
            ("read_node", disk.read_node(q.source, &mut buf).map(drop)),
            ("successors_into", disk.successors_into(q.source, &mut buf)),
            ("find_node", disk.find_node(q.source).map(drop)),
        ] {
            assert!(
                matches!(&got, Err(NetworkError::Storage { kind, .. }) if *kind == want),
                "{call} under a {want:?} plan: {got:?}"
            );
        }
    }
}

/// Exhausting a per-query expansion budget over the disk store yields
/// a `Degraded` answer whose constant-speed fallback is a real path
/// that drives from source to target.
#[test]
fn exhausted_budget_over_disk_store_degrades_with_fallback() {
    let net = grid(5, 5, 0.3, RoadClass::LocalOutside).unwrap();
    let (_raw, _injected, top) = faulty_stack(FaultPlan::quiet(17).with_transient_reads(6));
    let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();
    let engine = Engine::new(&disk, EngineConfig::default()).unwrap();

    let q = QuerySpec::new(
        NodeId(0),
        NodeId(24),
        Interval::of(hm(7, 0), hm(7, 30)),
        DayCategory::WORKDAY,
    )
    .with_budget(QueryBudget::unlimited().with_max_expansions(2));

    match engine.run_robust(&q).unwrap() {
        QueryOutcome::Degraded(d) => {
            assert_eq!(d.reason, DegradedReason::ExpansionsExhausted);
            let nodes = &d.fallback.nodes;
            assert_eq!(nodes.first(), Some(&q.source));
            assert_eq!(nodes.last(), Some(&q.target));
            // the fallback's travel function matches actually driving
            // the route on the (time-dependent) network
            for l in [q.interval.lo(), q.interval.mid(), q.interval.hi()] {
                let driven = evaluate_path(&net, nodes, l, q.category).unwrap();
                let claimed = d.fallback.travel.eval_clamped(l);
                assert!(
                    (driven - claimed).abs() <= 1e-6 * (1.0 + driven),
                    "fallback claims {claimed} but drives {driven} at l={l}"
                );
            }
            assert!(d.fallback_travel_minutes > 0.0);
        }
        other => panic!("expected a degraded answer, got {other:?}"),
    }
}

/// A `NetworkSource` whose adjacency read panics for one poisoned
/// node. The node has no incoming edges, so only a search *starting*
/// there ever expands it — sibling queries are deterministic.
struct PanicSource<'a> {
    inner: &'a RoadNetwork,
    poison: NodeId,
}

impl NetworkSource for PanicSource<'_> {
    fn n_nodes(&self) -> usize {
        NetworkSource::n_nodes(self.inner)
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<roadnet::Point> {
        self.inner.find_node(node)
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<roadnet::Edge>> {
        assert!(node != self.poison, "poisoned adjacency read");
        self.inner.successors(node)
    }

    fn pattern(&self, id: roadnet::PatternId) -> roadnet::Result<&traffic::CapeCodPattern> {
        self.inner.pattern(id)
    }

    fn max_speed(&self) -> f64 {
        NetworkSource::max_speed(self.inner)
    }
}

/// A deliberately panicking query errors in its own batch slot while
/// every sibling completes with the exact answer.
#[test]
fn panicking_query_fails_in_its_own_slot() {
    let mut net = grid(4, 4, 0.3, RoadClass::LocalOutside).unwrap();
    // poison node: outgoing edge only, so no sibling search can reach
    // (and therefore never expands) it
    let poison = net.add_node(2.0, 2.0).unwrap();
    net.add_class_edge(poison, NodeId(15), 2.0, RoadClass::LocalOutside)
        .unwrap();

    let iv = Interval::of(hm(7, 0), hm(7, 20));
    let queries = vec![
        QuerySpec::new(NodeId(0), NodeId(15), iv, DayCategory::WORKDAY),
        QuerySpec::new(NodeId(3), NodeId(12), iv, DayCategory::WORKDAY),
        QuerySpec::new(poison, NodeId(0), iv, DayCategory::WORKDAY),
        QuerySpec::new(NodeId(5), NodeId(10), iv, DayCategory::WORKDAY),
        QuerySpec::new(NodeId(12), NodeId(3), iv, DayCategory::WORKDAY),
    ];

    let src = PanicSource {
        inner: &net,
        poison,
    };
    // naiveLB: building the min-time bound would read the poisoned node.
    let naive = EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&src, naive.clone()).unwrap();
    let clean = Engine::new(&net, naive).unwrap();

    // width 1 runs every query on the calling thread's own loop
    for workers in [1, 3] {
        let results = run_batch(&engine, &queries, workers, &CancelToken::new());
        assert_eq!(results.len(), queries.len());
        for (i, (q, r)) in queries.iter().zip(results.iter()).enumerate() {
            if q.source == poison {
                assert!(
                    matches!(r, Err(AllFpError::Panicked(_))),
                    "poisoned slot {i}, width {workers}: {r:?}"
                );
                continue;
            }
            let got = match r {
                Ok(QueryOutcome::Exact(a)) => a,
                other => panic!("sibling slot {i}, width {workers}: {other:?}"),
            };
            let want = clean.all_fastest_paths(q).unwrap();
            assert_eq!(want.partition.len(), got.partition.len(), "slot {i}");
            for (x, y) in want.partition.iter().zip(got.partition.iter()) {
                assert!(x.0.approx_eq(&y.0), "slot {i}");
                assert_eq!(want.paths[x.1].nodes, got.paths[y.1].nodes, "slot {i}");
            }
        }
    }
}

/// The session a poisoned query unwound through answers the next
/// query exactly, counters included: the search workspace the query
/// had checked out went with the unwind, whether the panic came at the
/// seed's read or at a first touch in the middle of an expansion.
#[test]
fn panicked_query_leaves_its_session_exact() {
    let mut net = grid(4, 4, 0.3, RoadClass::LocalOutside).unwrap();
    let poison = net.add_node(2.0, 2.0).unwrap();
    net.add_class_edge(poison, NodeId(15), 2.0, RoadClass::LocalOutside)
        .unwrap();
    // a gate nobody enters either: a search leaving it reads its own
    // record and touches the poison while expanding it
    let gate = net.add_node(-0.3, -0.3).unwrap();
    net.add_class_edge(gate, NodeId(0), 0.45, RoadClass::LocalOutside)
        .unwrap();
    net.add_class_edge(gate, poison, 3.3, RoadClass::LocalOutside)
        .unwrap();

    let iv = Interval::of(hm(7, 0), hm(7, 20));
    let ask = |s, t| QuerySpec::new(NodeId(s), NodeId(t), iv, DayCategory::WORKDAY);
    let src = PanicSource {
        inner: &net,
        poison,
    };
    // naiveLB: building the min-time bound would read the poisoned node.
    let naive = EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&src, naive.clone()).unwrap();
    let clean = Engine::new(&net, naive).unwrap();

    let mut session = engine.cache_session();
    for poisoned in [ask(poison.0, 0), ask(gate.0, 15)] {
        // a finished search first, so the workspace is not pristine
        engine
            .robust_with_session(&ask(0, 15), &mut session, None)
            .unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.robust_with_session(&poisoned, &mut session, None)
        }));
        assert!(unwound.is_err(), "{poisoned:?} did not reach the poison");
        for next in [ask(3, 12), ask(12, 3)] {
            let got = match engine.robust_with_session(&next, &mut session, None) {
                Ok(QueryOutcome::Exact(a)) => a,
                other => panic!("{next:?} after {poisoned:?}: {other:?}"),
            };
            let want = clean.all_fastest_paths(&next).unwrap();
            assert_eq!(got.paths, want.paths);
            assert_eq!(got.partition, want.partition);
            assert_eq!(got.lower_border, want.lower_border);
            let cold = |mut s: allfp::QueryStats| {
                (s.cache_hits, s.cache_misses) = (0, 0);
                s
            };
            assert_eq!(cold(got.stats), cold(want.stats));
        }
    }
}

/// Cancelling before the batch starts cancels every slot — over the
/// real disk stack, not just the in-memory engine.
#[test]
fn pre_cancelled_batch_cancels_every_slot_over_disk() {
    let net = grid(5, 5, 0.3, RoadClass::LocalBoston).unwrap();
    let (_raw, _injected, top) = faulty_stack(FaultPlan::quiet(2).with_transient_reads(7));
    let disk = CcamStore::build(&net, top, PlacementPolicy::HilbertPacked, 32).unwrap();
    let engine = Engine::new(&disk, EngineConfig::default()).unwrap();

    let queries = sample_queries(&net, 6, 99);
    let token = CancelToken::new();
    token.cancel();
    let results = run_batch(&engine, &queries, 3, &token);
    assert_eq!(results.len(), queries.len());
    for r in &results {
        assert!(matches!(r, Err(AllFpError::Cancelled)), "{r:?}");
    }
}

/// The batch driver preserves fault-replay determinism: pushing the
/// same seeded workload through [`run_batch`] (width 1,
/// so the physical-operation order is well defined) produces a
/// bit-identical [`ccam::FaultEvent`] log on every run, and every
/// slot still resolves.
#[test]
fn batch_replays_identical_fault_log() {
    let net = grid(8, 8, 0.25, RoadClass::LocalBoston).unwrap();
    let queries = sample_queries(&net, 8, 5);

    let run = || {
        let (_raw, injected, top) = faulty_stack(FaultPlan::quiet(31).with_transient_reads(4));
        let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 32).unwrap();
        let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
        // the min-time bound's build read every page; drop them so the
        // batch faults its own pages in
        disk.clear_cache().unwrap();
        let io = disk.pool().store().io_stats();
        let (reads, faults) = (io.reads(), injected.n_faults());
        let results = run_batch(&engine, &queries, 1, &CancelToken::new());
        assert!(io.reads() > reads, "the batch read no page");
        assert!(
            injected.n_faults() > faults,
            "schedule never fired in the batch"
        );
        assert_eq!(results.len(), queries.len());
        for (k, r) in results.iter().enumerate() {
            assert!(
                matches!(r, Ok(QueryOutcome::Exact(_))),
                "slot {k} did not resolve exactly: {r:?}"
            );
        }
        injected.events()
    };

    let a = run();
    assert_eq!(a, run(), "batch replay must be bit-identical");
}
