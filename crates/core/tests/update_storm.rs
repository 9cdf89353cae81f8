//! The update-storm chaos harness: the `QueryService` serving through
//! an epoch-pinned `LiveBackend` while a seeded **delta stream**
//! repoints speed patterns mid-flight, composed with the PR 5 2×
//! overload replay and a PR 3-style fault window (per-query budget
//! storms that trip the robust degradation path), all driven in
//! virtual time so every run replays bit-identically.
//!
//! The scenario (`run_storm_sim`): a grid network published through an
//! `EpochManager`; a seeded open-loop arrival schedule offers ~2× the
//! service capacity; eight seeded `TrafficDelta`s land at fixed
//! virtual times, each atomically swapping in a new epoch while
//! admitted queries stay pinned to the epoch they were stamped with;
//! over the middle fifth of the window every submission carries a
//! tiny expansion budget, so the degradation machinery fires under
//! the storm exactly as storage faults do in the PR 5 harness.
//!
//! Invariants asserted (the ISSUE's acceptance criteria):
//!
//! * every **answered** query is bit-identical to a from-scratch
//!   engine built over its pinned epoch's network — no torn reads,
//!   no answer computed from a mix of epochs;
//! * no epoch is freed while referenced: after every delta, every
//!   in-flight ticket's stamped epoch still resolves through the
//!   manager;
//! * superseded epochs *do* retire once their last pin drains
//!   (`epochs_retired == updates_applied`, `epoch_retire_lag == 0`
//!   after the drain);
//! * `ServiceStats` reconciles exactly, including the live-update
//!   identities (`epochs_published == updates_applied + 1`);
//! * the shared travel-function cache's counters reconcile
//!   (`resident == inserted − retired` never goes negative);
//! * the whole run — outcomes, stats, answers, apply reports —
//!   replays bit-exact from the seed.

mod sim;

use std::collections::HashMap;
use std::sync::Arc;

use allfp::service::{QueryService, ServiceConfig, ServiceOutcome, ServiceStats, Submission};
use allfp::{
    CacheCounters, DegradedReason, Engine, EngineConfig, EpochId, EpochManager, LiveBackend,
    QueryBudget, QuerySpec,
};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::grid;
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, RoadClass};

use sim::{
    answer_sig, assert_each_arrival_resolves_once, drive, label, recorded_setup, sample_specs,
    AnswerSig, ArrivalSchedule, DriveLog, DriveScenario, ManualClock, Workload,
};

/// Everything one storm run produced, in a `PartialEq` shape so two
/// runs can be compared wholesale.
#[derive(Debug, PartialEq)]
struct StormResult {
    /// `(ticket, kind[:reason])` in completion order.
    terminal: Vec<(u64, String)>,
    /// `(ticket, spec index, pinned epoch, bit-exact signature)` for
    /// every `Answered` outcome.
    answered: Vec<(u64, usize, u64, AnswerSig)>,
    /// One debug line per applied delta (epoch ids, delta report,
    /// sweep counters) — pins the apply path into the replay check.
    apply_log: Vec<String>,
    stats: ServiceStats,
    cache: CacheCounters,
    /// Rejections, executed work units and final virtual time.
    log: DriveLog,
}

const STORM_SUBMISSIONS: usize = 120;
const STORM_DELTAS: usize = 8;
const QUEUE_CAPACITY: usize = 12;

/// What the storm run adds to the plain open-loop workload: a delta
/// stream as timed events, a budget-fault window on submissions, and
/// the bookkeeping of which ticket is pinned to which epoch.
struct Storm<'a> {
    seed: u64,
    load: &'a Workload,
    mgr: &'a EpochManager,
    /// Budget-fault window over the middle fifth of the arrivals.
    budget_storm: std::ops::Range<u64>,
    /// When each delta lands; `apply_log.len()` of them have.
    delta_times: Vec<u64>,
    /// One debug line per applied delta.
    apply_log: Vec<String>,
    /// Each epoch's network, retained for the from-scratch oracle. (An
    /// `Arc<RoadNetwork>` clone does *not* pin the epoch itself — the
    /// retire machinery still runs.)
    epoch_nets: HashMap<u64, Arc<RoadNetwork>>,
    /// The epoch current when each arrival was offered.
    stamped: Vec<u64>,
    /// Admitted tickets without a terminal outcome yet → their epoch.
    in_flight: HashMap<u64, u64>,
    outcomes: Vec<(u64, ServiceOutcome)>,
}

impl Storm<'_> {
    /// Move the service's recorded outcomes over, retiring their
    /// tickets from `in_flight`.
    fn collect(&mut self, svc: &QueryService<'_, LiveBackend<'_>>) {
        for (id, out) in svc.take_outcomes() {
            self.in_flight.remove(&id);
            self.outcomes.push((id, out));
        }
    }
}

impl<'b> DriveScenario<LiveBackend<'b>> for Storm<'_> {
    fn submission(&mut self, arrival: usize, now: u64) -> Submission {
        self.stamped.push(self.mgr.current_id().0);
        let mut sub = self.load.submission(arrival, now, 6);
        if self.budget_storm.contains(&now) {
            // Fault window: a near-zero budget forces the robust
            // degradation path, like the PR 5 storage storm does.
            sub.spec = sub
                .spec
                .with_budget(QueryBudget::unlimited().with_max_expansions(3));
        }
        sub
    }

    fn next_event(&self) -> Option<u64> {
        self.delta_times.get(self.apply_log.len()).copied()
    }

    fn fire_event(&mut self, _now: u64, svc: &QueryService<'_, LiveBackend<'b>>) {
        let k = self.apply_log.len() as u64;
        let delta = self
            .mgr
            .current()
            .network()
            .seeded_delta(self.seed ^ k, 6, k + 1)
            .unwrap();
        let rep = self.mgr.apply_delta(&delta).unwrap();
        self.epoch_nets
            .insert(rep.epoch.0, Arc::clone(self.mgr.current().network()));
        self.apply_log.push(format!("{rep:?}"));
        // Pin safety: the swap must not have freed any epoch a
        // queued or running ticket is still pinned to.
        self.collect(svc);
        for (&ticket, &ep) in &self.in_flight {
            assert!(
                self.mgr.pin(Some(EpochId(ep))).is_some(),
                "epoch {ep} freed while ticket {ticket} was still pinned to it"
            );
        }
    }

    fn admitted(&mut self, arrival: usize, ticket: u64) {
        self.in_flight.insert(ticket, self.stamped[arrival]);
    }

    fn after_step(&mut self, svc: &QueryService<'_, LiveBackend<'b>>) {
        self.collect(svc);
    }
}

/// One full update-storm scenario in virtual time. Pure function of
/// `seed`. Also checks the mid-run pin-safety invariant (every
/// in-flight ticket's epoch survives every swap) inline, since it
/// cannot be reconstructed from the final result.
fn run_storm_sim(seed: u64) -> StormResult {
    let net = grid(8, 8, 0.3, RoadClass::LocalBoston).unwrap();

    // Calibrate per-spec costs (work units = expansions) on a plain
    // engine over the seed epoch; identical data ⇒ identical costs
    // through the live backend.
    let load = Workload::calibrate(
        &Engine::new(&net, EngineConfig::default()).unwrap(),
        sample_specs(&net, 12, seed),
    );
    let mean_cost = load.mean_cost;

    let mgr = EpochManager::new(net, EngineConfig::default()).unwrap();
    let live = LiveBackend::new(&mgr);
    let clock = ManualClock::default();
    let config = ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        default_cost: mean_cost,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&live, &clock, config).with_epochs(&mgr);

    // 2× overload, exactly as the PR 5 harness runs it.
    let schedule = ArrivalSchedule::open_loop(
        seed ^ 0xA11F_0AD5,
        STORM_SUBMISSIONS,
        (mean_cost / 2).max(1),
    );
    let horizon = *schedule.times().last().unwrap();
    let mut storm = Storm {
        seed,
        load: &load,
        mgr: &mgr,
        budget_storm: horizon * 2 / 5..horizon * 3 / 5,
        // Delta stream: eight updates spread evenly across the window.
        delta_times: (1..=STORM_DELTAS as u64)
            .map(|k| k * horizon / (STORM_DELTAS as u64 + 1))
            .collect(),
        apply_log: Vec::new(),
        epoch_nets: HashMap::from([(mgr.current_id().0, Arc::clone(mgr.current().network()))]),
        stamped: Vec::new(),
        in_flight: HashMap::new(),
        outcomes: Vec::new(),
    };
    let log = drive(&svc, &clock, &schedule, &mut storm);
    storm.collect(&svc);
    assert!(
        storm.in_flight.is_empty(),
        "tickets without terminal outcomes"
    );

    let stats = svc.stats();
    let specs = &load.specs;
    let terminal = storm.outcomes.iter().map(label).collect();
    let mut answered = Vec::new();
    for (id, out) in &storm.outcomes {
        if let ServiceOutcome::Answered(a) = out {
            let arrival = log.arrival_of[id];
            let (idx, epoch) = (arrival % specs.len(), storm.stamped[arrival]);
            answered.push((*id, idx, epoch, answer_sig(a)));
        }
    }

    // From-scratch oracle: every answered ticket, re-answered by a
    // fresh engine (fresh cache, fresh estimator) built over exactly
    // the network its pinned epoch published. Bit-identical or bust.
    for (id, idx, epoch, sig) in &answered {
        let net = &storm.epoch_nets[epoch];
        let fresh = Engine::new(net.as_ref(), EngineConfig::default()).unwrap();
        let want = answer_sig(&fresh.all_fastest_paths(&specs[*idx]).unwrap());
        assert_eq!(
            sig, &want,
            "ticket {id} diverged from a from-scratch build of its pinned epoch {epoch}"
        );
    }

    StormResult {
        terminal,
        answered,
        apply_log: storm.apply_log,
        stats,
        cache: mgr.cache().counters(),
        log,
    }
}

/// The main acceptance-criteria test: one seeded update-storm
/// scenario, all invariants, plus full-run determinism (the sim runs
/// twice).
#[test]
fn update_storm_invariants_hold_and_replay_exactly() {
    let run = run_storm_sim(42);

    // Every submission got exactly one terminal outcome.
    assert_each_arrival_resolves_once(&run.log, &run.terminal, STORM_SUBMISSIONS);

    // Counters reconcile exactly — including the live-update
    // identities now part of `ServiceStats::reconciles`.
    let s = &run.stats;
    assert!(s.reconciles(), "stats do not reconcile: {s:?}");
    assert_eq!(s.failed, 0, "no outcome may be a hard failure: {s:?}");
    assert_eq!(s.admitted, s.answered + s.degraded + s.cancelled);
    assert_eq!(s.submitted, s.admitted + s.rejected);
    assert_eq!(s.submitted, STORM_SUBMISSIONS as u64);

    // The delta stream actually ran, every update published an epoch,
    // and — after the drain dropped the last pins — every superseded
    // epoch was retired. Nothing lingers.
    assert_eq!(s.updates_applied, STORM_DELTAS as u64);
    assert_eq!(s.epochs_published, STORM_DELTAS as u64 + 1);
    assert_eq!(s.epochs_retired, STORM_DELTAS as u64, "{s:?}");
    assert_eq!(s.epoch_retire_lag, 0, "epochs still pinned after drain");

    // The shared cache's books balance: what was inserted and not yet
    // retired is exactly what is resident (never negative).
    assert_eq!(
        run.cache.inserted - run.cache.retired,
        run.cache.expected_resident(),
        "cache counters do not reconcile: {:?}",
        run.cache
    );
    assert!(run.cache.inserted >= run.cache.retired);

    // Overload bit (typed rejections, deadline sheds) and the fault
    // window bit (budget-tripped degradations) both fired.
    assert!(
        s.queue_depth_high_water <= QUEUE_CAPACITY,
        "queue depth {} exceeded bound {QUEUE_CAPACITY}",
        s.queue_depth_high_water,
    );
    assert!(s.rejected > 0, "2× overload never rejected anything");
    assert!(s.shed > 0, "no queued entry ever exceeded its deadline");
    assert!(
        run.terminal
            .iter()
            .any(|(_, l)| l == &format!("degraded:{:?}", DegradedReason::ExpansionsExhausted)),
        "the budget-fault storm never degraded a query"
    );

    // Queries were answered on both sides of at least one swap: some
    // tickets pinned to the seed epoch, some to later ones.
    assert!(!run.answered.is_empty());
    let pinned: std::collections::BTreeSet<u64> =
        run.answered.iter().map(|(_, _, e, _)| *e).collect();
    assert!(
        pinned.len() > 1,
        "every answer was pinned to a single epoch — the storm never interleaved: {pinned:?}"
    );

    // Goodput under the storm: useful work for at least half of
    // virtual time (the ISSUE's ≥ 0.5 gate).
    let goodput = run.log.goodput();
    assert!(
        (0.5..=1.0).contains(&goodput),
        "goodput ratio {goodput} out of range (executed {} over {})",
        run.log.executed_units,
        run.log.elapsed
    );

    // Full-run determinism: same seed ⇒ same outcomes, same stats,
    // same answers, same apply reports — byte for byte.
    let replay = run_storm_sim(42);
    assert_eq!(run, replay, "update storm did not replay identically");

    // And a different seed actually changes the run.
    let other = run_storm_sim(43);
    assert_ne!(
        run.terminal, other.terminal,
        "seed does not influence the scenario"
    );
}

// ---------------------------------------------------------------------------
// Focused epoch-pinning tests (virtual time, step driver)
// ---------------------------------------------------------------------------

/// The admission race, service-level: a query admitted (and stamped)
/// under epoch N whose execution happens only *after* a delta swaps in
/// epoch N+1 must answer from N — bit-identical to a flat engine over
/// N's network, observing zero bytes of N+1.
#[test]
fn query_admitted_before_swap_answers_from_its_pinned_epoch() {
    let net = grid(6, 6, 0.3, RoadClass::LocalBoston).unwrap();
    let mgr = EpochManager::new(net, EngineConfig::default()).unwrap();
    let live = LiveBackend::new(&mgr);
    let clock = ManualClock::default();
    let svc = QueryService::new(&live, &clock, ServiceConfig::default()).with_epochs(&mgr);

    let spec = QuerySpec::new(
        NodeId(0),
        NodeId(35),
        Interval::of(hm(7, 0), hm(8, 0)),
        DayCategory::WORKDAY,
    );
    let old_net = Arc::clone(mgr.current().network());
    let want = answer_sig(
        &Engine::new(old_net.as_ref(), EngineConfig::default())
            .unwrap()
            .all_fastest_paths(&spec)
            .unwrap(),
    );

    // Admit (stamps epoch 0, pins it), then swap in epoch 1 *before*
    // the service executes anything.
    let ticket = svc.submit(Submission::new(spec.clone())).unwrap();
    let delta = old_net.seeded_delta(7, 20, 1).unwrap();
    mgr.apply_delta(&delta).unwrap();
    assert_eq!(mgr.current_id().0, 1);
    // The swapped-in epoch publishes a *different* network object; the
    // pinned query must not touch it.
    assert!(!Arc::ptr_eq(mgr.current().network(), &old_net));

    while svc.step().is_some() {}
    let outcomes = svc.take_outcomes();
    let (_, out) = outcomes.iter().find(|(id, _)| *id == ticket).unwrap();
    match out {
        ServiceOutcome::Answered(a) => assert_eq!(
            answer_sig(a),
            want,
            "pinned query leaked bytes from the post-swap epoch"
        ),
        other => panic!("expected an answer, got {other:?}"),
    }

    // The new epoch answers for itself — and (with a 20-edge delta on
    // a 6×6 grid) differently, which is what makes the check above
    // meaningful rather than vacuous.
    let new_ans = answer_sig(
        &Engine::new(mgr.current().network().as_ref(), EngineConfig::default())
            .unwrap()
            .all_fastest_paths(&spec)
            .unwrap(),
    );
    assert_ne!(new_ans, want, "delta did not perturb the probe query");
}

/// A submission pre-stamped to an epoch that has since retired must
/// fail with the typed `EpochRetired` error — never silently answer
/// from a different epoch.
#[test]
fn stale_pre_stamped_submission_fails_typed() {
    let net = grid(5, 5, 0.3, RoadClass::LocalOutside).unwrap();
    let mgr = EpochManager::new(net, EngineConfig::default()).unwrap();
    let live = LiveBackend::new(&mgr);
    let clock = ManualClock::default();
    let svc = QueryService::new(&live, &clock, ServiceConfig::default()).with_epochs(&mgr);

    let stale = mgr.current_id();
    let delta = mgr.current().network().seeded_delta(3, 4, 1).unwrap();
    mgr.apply_delta(&delta).unwrap(); // epoch 0 now unpinned → retired

    let spec = QuerySpec::new(
        NodeId(0),
        NodeId(24),
        Interval::of(hm(7, 0), hm(7, 30)),
        DayCategory::WORKDAY,
    )
    .with_epoch(stale);
    let ticket = svc.submit(Submission::new(spec)).unwrap();
    while svc.step().is_some() {}

    let outcomes = svc.take_outcomes();
    let (_, out) = outcomes.iter().find(|(id, _)| *id == ticket).unwrap();
    match out {
        ServiceOutcome::Failed(e) => {
            assert!(
                e.to_string().contains("already retired"),
                "wrong failure: {e}"
            );
        }
        other => panic!("stale pin must fail typed, got {other:?}"),
    }
    let s = svc.stats();
    assert!(s.reconciles(), "{s:?}");
    assert_eq!(s.failed, 1);
}

// ---------------------------------------------------------------------------
// The recorded delta-stream replays
// ---------------------------------------------------------------------------

/// `deltas` seeded deltas as timed events, spread evenly over the
/// arrival window.
struct DeltaStream<'a> {
    seed: u64,
    load: &'a Workload,
    mgr: &'a EpochManager,
    times: Vec<u64>,
    applied: usize,
}

impl<'b> DriveScenario<LiveBackend<'b>> for DeltaStream<'_> {
    fn submission(&mut self, arrival: usize, now: u64) -> Submission {
        self.load.submission(arrival, now, 5)
    }

    fn next_event(&self) -> Option<u64> {
        self.times.get(self.applied).copied()
    }

    fn fire_event(&mut self, now: u64, _svc: &QueryService<'_, LiveBackend<'b>>) {
        assert!(self.times[self.applied] <= now, "event fired early");
        let k = self.applied as u64;
        let net = Arc::clone(self.mgr.current().network());
        let delta = net.seeded_delta(self.seed ^ k, 4, k + 1).unwrap();
        self.mgr.apply_delta(&delta).unwrap();
        self.applied += 1;
    }
}

/// A delta stream reproduces the recorded live-update runs, and the
/// same seed the same run. Per `(seed, arrivals, deltas)`:
/// `(submitted, updates_applied, epochs_published)`, `(epochs_retired,
/// epoch_retire_lag)` and the goodput.
#[test]
fn drive_replays_the_recorded_update_storm() {
    let recorded = [
        (0x5EED, 100, 8, (100, 8, 9), (8, 0), "0.9877"),
        (0x11FE, 80, 6, (80, 6, 7), (6, 0), "0.9895"),
    ];
    for (seed, arrivals, deltas, published, retired, goodput) in recorded {
        let run = || {
            let (net, load, config, schedule) = recorded_setup(seed, arrivals);
            let mgr = EpochManager::new(net, EngineConfig::default()).unwrap();
            let live = LiveBackend::new(&mgr);
            let clock = ManualClock::default();
            let svc = QueryService::new(&live, &clock, config).with_epochs(&mgr);
            let horizon = *schedule.times().last().unwrap();
            let mut stream = DeltaStream {
                seed,
                load: &load,
                mgr: &mgr,
                times: (1..=deltas).map(|k| k * horizon / (deltas + 1)).collect(),
                applied: 0,
            };
            let log = drive(&svc, &clock, &schedule, &mut stream);
            let labels: Vec<_> = svc.take_outcomes().iter().map(label).collect();
            (svc.stats(), labels, log)
        };
        let (s, labels, log) = run();
        assert_each_arrival_resolves_once(&log, &labels, arrivals);
        assert!(s.reconciles(), "{seed:#x}: {s:?}");
        assert_eq!(
            (s.submitted, s.updates_applied, s.epochs_published),
            published,
            "{seed:#x}"
        );
        assert_eq!((s.epochs_retired, s.epoch_retire_lag), retired, "{seed:#x}");
        assert_eq!(format!("{:.4}", log.goodput()), goodput, "{seed:#x}");
        assert_eq!(
            run(),
            (s, labels, log),
            "{seed:#x}: same seed, different run"
        );
    }
}
