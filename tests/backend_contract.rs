//! The [`PathfindBackend`] contract, stated once and run against every
//! backend: the flat engine, [`LiveBackend`] at epoch 0 and the
//! contraction hierarchy. Each implements one search method; the four
//! query surfaces are provided by the trait, so
//! what is checked here is that they agree with each other on every
//! backend, that every backend agrees with the flat reference, that
//! each failure is the same [`AllFpError`] on every surface, and that
//! the query service serves every backend alike.

use fastest_paths::allfp::service::{
    OverloadReason, QueryService, ServiceConfig, ServiceOutcome, Submission, TicketId, WallClock,
};
use fastest_paths::allfp::{
    AllFpAnswer, AllFpError, CancelToken, EpochId, EpochManager, LiveBackend, QueryBudget,
    QueryMode, QueryOutcome,
};
use fastest_paths::prelude::*;
use fastest_paths::roadnet::generators::{suffolk_like, MetroConfig};
use fastest_paths::roadnet::workload::sample_pairs;

fn config() -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    }
}

/// Every bit of an allFP answer: partition bounds, the path of each
/// sub-interval, and each path's travel function.
type Bits = Vec<(u64, u64, Vec<NodeId>, Vec<u64>)>;

fn bits(a: &AllFpAnswer) -> Bits {
    a.partition
        .iter()
        .map(|(iv, i)| {
            let travel = &a.paths[*i].travel;
            let knots = travel.breakpoints().iter().map(|x| x.to_bits());
            let coefficients = travel
                .linears()
                .iter()
                .flat_map(|l| [l.a.to_bits(), l.b.to_bits()]);
            (
                iv.lo().to_bits(),
                iv.hi().to_bits(),
                a.paths[*i].nodes.clone(),
                knots.chain(coefficients).collect(),
            )
        })
        .collect()
}

/// `q` fails on every surface, each time with an error `want` accepts:
/// allFP, singleFP and the two robust surfaces. Under a token, the
/// surfaces that take none are asked through `answer` (the legacy two)
/// or not at all (`run_robust`).
fn fails_alike(
    backend: &dyn PathfindBackend,
    q: &QuerySpec,
    cancel: Option<&CancelToken>,
    want: fn(&AllFpError) -> bool,
) {
    let mut session = backend.cache_session();
    let mut got = match cancel {
        None => vec![
            ("allFP", backend.all_fastest_paths(q).err()),
            ("singleFP", backend.single_fastest_path(q).err()),
            ("run_robust", backend.run_robust(q).err()),
        ],
        Some(_) => vec![
            (
                "allFP",
                backend
                    .answer(q, QueryMode::AllFp, &mut session, cancel)
                    .err(),
            ),
            (
                "singleFP",
                backend
                    .answer(q, QueryMode::SingleFp, &mut session, cancel)
                    .err(),
            ),
        ],
    };
    let robust = backend.robust_with_session(q, &mut session, cancel);
    got.push(("robust_with_session", robust.err()));
    let name = backend.backend_name();
    for (surface, e) in got {
        assert!(e.as_ref().is_some_and(want), "{name}: {surface} gave {e:?}");
    }
}

/// The contract. `reference[i]` is the flat engine's answer to
/// `queries[i]`; `unreachable` is a pair no path connects.
fn check_contract(
    backend: &dyn PathfindBackend,
    queries: &[QuerySpec],
    reference: &[Bits],
    unreachable: &QuerySpec,
) {
    let name = backend.backend_name();
    let mut session = backend.cache_session();
    for (q, want) in queries.iter().zip(reference) {
        // allFP ≡ robust → Exact, bit for bit, and ≡ the flat engine.
        let all = backend.all_fastest_paths(q).expect("allFP");
        let QueryOutcome::Exact(robust) = backend
            .robust_with_session(q, &mut session, None)
            .expect("robust")
        else {
            panic!("{name}: an unbudgeted query degraded");
        };
        assert_eq!(bits(&all), bits(&robust), "{name}: allFP vs robust");
        assert_eq!(&bits(&all), want, "{name}: allFP vs the flat engine");
        assert_eq!(bits(backend.run_robust(q).unwrap().exact().unwrap()), *want);

        // singleFP is the minimum of the allFP border.
        let single = backend.single_fastest_path(q).expect("singleFP");
        let border_min = all.lower_border.min_value();
        assert!(
            (single.travel_minutes - border_min).abs() < 1e-6,
            "{name}: singleFP {} vs border minimum {border_min}",
            single.travel_minutes
        );

        // A tripped budget: an error on the two legacy surfaces, a
        // degraded answer with a drivable plan on the robust one.
        let starved = q
            .clone()
            .with_budget(QueryBudget::default().with_max_expansions(0));
        assert!(
            matches!(
                backend.all_fastest_paths(&starved),
                Err(AllFpError::BudgetExhausted { expansions: 0 })
            ),
            "{name}: starved allFP"
        );
        assert!(
            matches!(
                backend.single_fastest_path(&starved),
                Err(AllFpError::BudgetExhausted { expansions: 0 })
            ),
            "{name}: starved singleFP"
        );
        let QueryOutcome::Degraded(degraded) = backend
            .robust_with_session(&starved, &mut session, None)
            .expect("starved robust")
        else {
            panic!("{name}: a zero-expansion budget answered exactly");
        };
        assert_eq!(degraded.stats.expanded_paths, 0, "{name}");
        assert_eq!(degraded.fallback.nodes.first(), Some(&q.source), "{name}");
        assert_eq!(degraded.fallback.nodes.last(), Some(&q.target), "{name}");
        assert!(
            degraded.fallback_travel_minutes >= border_min - 1e-6,
            "{name}: fallback faster than the fastest path"
        );

        // A pre-cancelled token stops the search before any expansion.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let is_cancelled = |e: &AllFpError| matches!(e, AllFpError::Cancelled);
        fails_alike(backend, q, Some(&cancelled), is_cancelled);
    }

    let is_unreachable = |e: &AllFpError| matches!(e, AllFpError::Unreachable { .. });
    fails_alike(backend, unreachable, None, is_unreachable);

    let served = serve_all(backend, queries, reference);
    assert_eq!(
        served,
        serve_all(backend, queries, reference),
        "{name}: a second service run resolved differently"
    );
}

/// Serve `queries` through a [`QueryService`] whose queue holds exactly
/// them: one more submission is refused with `QueueFull`, and stepped
/// dry the service answers every query bit-equal to `reference`.
/// Returns the terminal outcomes in completion order.
fn serve_all(
    backend: &dyn PathfindBackend,
    queries: &[QuerySpec],
    reference: &[Bits],
) -> Vec<(TicketId, Bits)> {
    let name = backend.backend_name();
    let clock = WallClock::new();
    let config = ServiceConfig {
        queue_capacity: queries.len(),
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(backend, &clock, config);
    let tickets: Vec<TicketId> = queries
        .iter()
        .map(|q| svc.submit(Submission::new(q.clone())).expect("admitted"))
        .collect();
    let refused = svc
        .submit(Submission::new(queries[0].clone()))
        .expect_err("a full queue admitted one more");
    assert_eq!(refused.reason, OverloadReason::QueueFull, "{name}");
    while svc.step().is_some() {}

    let stats = svc.stats();
    assert!(stats.reconciles(), "{name}: {stats:?}");
    assert_eq!(stats.queue_depth_high_water, queries.len(), "{name}");
    svc.take_outcomes()
        .into_iter()
        .map(|(id, outcome)| {
            let i = tickets.iter().position(|&t| t == id).expect("issued");
            let ServiceOutcome::Answered(a) = outcome else {
                panic!("{name}: the service resolved query {i} to {outcome:?}");
            };
            assert_eq!(bits(&a), reference[i], "{name}: service vs the flat engine");
            (id, bits(&a))
        })
        .collect()
}

/// A query pinned to a retired epoch fails on every surface instead of
/// answering from another network version.
fn check_retired_epoch(backend: &dyn PathfindBackend, manager: &EpochManager, query: &QuerySpec) {
    let delta = manager
        .current()
        .network()
        .seeded_delta(7, 6, 1)
        .expect("delta");
    manager.apply_delta(&delta).expect("apply");
    let pinned = query.clone().with_epoch(EpochId(0));
    let is_retired = |e: &AllFpError| matches!(e, AllFpError::EpochRetired { epoch: 0 });
    fails_alike(backend, &pinned, None, is_retired);
}

#[test]
fn every_backend_honours_the_contract() {
    let mut net = suffolk_like(&MetroConfig::small(0xC0FFEE)).expect("generator");
    // An island that can be left but never entered.
    let island = net.add_node(-1.0, -1.0).expect("island");
    net.add_class_edge(island, NodeId(0), 1.5, RoadClass::LocalOutside)
        .expect("edge off the island");

    let window = Interval::of(hm(7, 0), hm(10, 0));
    let ask = |s, t| QuerySpec::new(s, t, window, DayCategory::WORKDAY);
    let mut queries: Vec<QuerySpec> = sample_pairs(&net, 5, 0.5, 3.0, 0xF19)
        .expect("pairs")
        .iter()
        .map(|p| ask(p.source, p.target))
        .collect();
    assert!(
        queries.len() >= 3,
        "workload sampler returned too few pairs"
    );
    // The whole workday: allFP's widest window, whose arrivals cross
    // midnight.
    let day = Interval::of(hm(0, 0), hm(23, 59));
    let (source, target) = (queries[0].source, queries[0].target);
    queries.push(QuerySpec::new(source, target, day, DayCategory::WORKDAY));
    let unreachable = ask(queries[0].source, island);

    let flat = Engine::for_network(&net, config()).expect("flat engine");
    let reference: Vec<Bits> = queries
        .iter()
        .map(|q| bits(&flat.all_fastest_paths(q).expect("reference allFP")))
        .collect();
    assert!(
        reference.iter().any(|r| r.len() > 1),
        "no query's fastest path changes over the window"
    );
    check_contract(&flat, &queries, &reference, &unreachable);

    let manager = EpochManager::new(net.clone(), config()).expect("manager");
    let live = LiveBackend::new(&manager);
    check_contract(&live, &queries, &reference, &unreachable);
    check_retired_epoch(&live, &manager, &queries[0]);

    let ch = HierarchyEngine::with_flat(
        Engine::for_network(&net, config()).expect("embedded flat engine"),
        HierarchyConfig::default(),
    )
    .expect("hierarchy");
    check_contract(&ch, &queries, &reference, &unreachable);
}
