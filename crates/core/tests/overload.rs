//! The overload-chaos harness: the `QueryService` under seeded 2×
//! sustained overload composed with storage fault storms, driven
//! entirely in virtual time so every run replays bit-identically.
//!
//! The scenario (`run_chaos_sim`): a grid network served from the full
//! production storage stack (`CcamStore → BufferPool → ChecksummedStore
//! → FaultInjectingStore → MemStore`) behind a `QueryService` with an
//! in-memory constant-speed fallback engine. A seeded open-loop
//! arrival schedule offers ~2× the service capacity; mid-run, the
//! fault injector switches to an every-read-faults storm (tripping the
//! storage circuit breaker), then back to quiet (recovering it through
//! a half-open probe). The `ManualClock` advances by each step's
//! measured work units, so "time" is a pure function of the seed.
//!
//! Invariants asserted (the ISSUE's acceptance criteria):
//!
//! * queue depth never exceeds the configured bound;
//! * every submission resolves to exactly one terminal outcome —
//!   answer / degraded / typed `Overloaded` rejection — no hangs, no
//!   silent drops;
//! * the breaker trips and recovers through its half-open probe;
//! * `ServiceStats` counters reconcile exactly
//!   (`admitted = answered + degraded + cancelled` here, since the
//!   scenario is constructed fault-storm-survivable: `failed == 0`);
//! * answered queries are bit-identical to a fault-free serial run;
//! * the whole run — outcomes, stats, fault log — is deterministic
//!   given the seed;
//! * goodput under the 2× overload stays within a stated fraction of
//!   offered capacity.

mod sim;

use std::sync::Arc;

use allfp::service::{
    BreakerConfig, BreakerState, DrainMode, OverloadReason, Priority, QueryService, ServiceClock,
    ServiceConfig, ServiceOutcome, ServiceStats, Submission, WallClock,
};
use allfp::{
    DegradedReason, Engine, EngineConfig, PathfindBackend, QueryBudget, QueryOutcome, QuerySpec,
};
use ccam::{
    BlockStore, CcamStore, ChecksummedStore, FaultEvent, FaultInjectingStore, FaultPlan, MemStore,
    PlacementPolicy, DEFAULT_PAGE_SIZE,
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

/// The production storage layering with a fault schedule at the
/// bottom.
fn faulty_stack(plan: FaultPlan) -> (Arc<FaultInjectingStore>, Arc<dyn BlockStore>) {
    let raw = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let injected = Arc::new(FaultInjectingStore::new(raw as Arc<dyn BlockStore>, plan));
    let top: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(
        Arc::clone(&injected) as Arc<dyn BlockStore>
    ));
    (injected, top)
}

/// Everything one chaos run produced, in a `PartialEq` shape so two
/// runs can be compared wholesale.
#[derive(Debug, PartialEq)]
struct SimResult {
    /// `(ticket, kind[:reason])` in completion order.
    terminal: Vec<(u64, String)>,
    /// `(ticket, spec index, bit-exact answer signature)` for every
    /// `Answered` outcome.
    answered: Vec<(u64, usize, AnswerSig)>,
    stats: ServiceStats,
    fault_log: Vec<FaultEvent>,
    /// Rejections, executed work units and final virtual time.
    log: DriveLog,
}

const CHAOS_SUBMISSIONS: usize = 140;
const QUEUE_CAPACITY: usize = 12;

/// What the chaos run adds to the plain open-loop workload: a fault
/// storm that switches the injector's plan on and off as two timed
/// events.
struct Storm<'a> {
    load: &'a Workload,
    injected: &'a FaultInjectingStore,
    disk: &'a CcamStore,
    seed: u64,
    /// Storm start and end; `fired` counts how many have happened.
    edges: [u64; 2],
    fired: usize,
}

impl DriveScenario<Engine<'_, CcamStore>> for Storm<'_> {
    fn submission(&mut self, arrival: usize, now: u64) -> Submission {
        self.load.submission(arrival, now, 6)
    }

    fn next_event(&self) -> Option<u64> {
        self.edges.get(self.fired).copied()
    }

    fn fire_event(&mut self, _now: u64, _svc: &QueryService<'_, Engine<'_, CcamStore>>) {
        if self.fired == 0 {
            // Storm begins: every physical read faults (retry
            // exhaustion ⇒ typed storage errors), and the page cache
            // is dropped so reads actually reach the injector.
            self.injected
                .set_plan(FaultPlan::quiet(self.seed).with_transient_reads(1));
            self.disk.clear_cache().unwrap();
        } else {
            self.injected.set_plan(FaultPlan::quiet(self.seed));
        }
        self.fired += 1;
    }
}

/// One full chaos scenario in virtual time. Pure function of `seed`.
fn run_chaos_sim(seed: u64) -> SimResult {
    let net = grid(8, 8, 0.3, RoadClass::LocalBoston).unwrap();

    // Calibrate per-spec costs (work units = expansions) on the
    // in-memory engine; identical data ⇒ identical costs on disk.
    let fallback = Engine::new(&net, EngineConfig::default()).unwrap();
    let load = Workload::calibrate(&fallback, sample_specs(&net, 12, seed));
    let mean_cost = load.mean_cost;

    let (injected, top) = faulty_stack(FaultPlan::quiet(seed));
    let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();
    disk.clear_cache().unwrap();
    let primary = Engine::new(&disk, EngineConfig::default()).unwrap();

    let clock = ManualClock::default();
    let config = ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        default_cost: mean_cost,
        breaker: BreakerConfig {
            window: 8,
            trip_failures: 4,
            cooldown: 8 * mean_cost,
            probe_successes: 2,
        },
    };
    let svc = QueryService::new(&primary, &clock, config).with_fallback(&fallback);

    // 2× overload: mean inter-arrival gap of half the mean cost
    // against a service capacity of one work unit per clock unit.
    let schedule = ArrivalSchedule::open_loop(
        seed ^ 0xA11F_0AD5,
        CHAOS_SUBMISSIONS,
        (mean_cost / 2).max(1),
    );
    let horizon = *schedule.times().last().unwrap();
    let mut storm = Storm {
        load: &load,
        injected: &injected,
        disk: &disk,
        seed,
        // Fault storm over the middle fifth of the arrival window.
        edges: [horizon * 2 / 5, horizon * 3 / 5],
        fired: 0,
    };
    let log = drive(&svc, &clock, &schedule, &mut storm);

    let stats = svc.stats();
    let outcomes = svc.take_outcomes();
    let terminal = outcomes.iter().map(label).collect();
    let mut answered = Vec::new();
    for (id, out) in &outcomes {
        if let ServiceOutcome::Answered(a) = out {
            let spec = log.arrival_of[id] % load.specs.len();
            answered.push((*id, spec, answer_sig(a)));
        }
    }

    SimResult {
        terminal,
        answered,
        stats,
        fault_log: injected.events(),
        log,
    }
}

/// The main acceptance-criteria test: one seeded chaos scenario, all
/// invariants, plus full-run determinism (the sim runs twice).
#[test]
fn chaos_storm_invariants_hold_and_replay_exactly() {
    let run = run_chaos_sim(42);

    // Every submission got exactly one terminal outcome: a typed
    // rejection at submit, or exactly one recorded ServiceOutcome.
    assert_each_arrival_resolves_once(&run.log, &run.terminal, CHAOS_SUBMISSIONS);

    // Counters reconcile exactly; the scenario is constructed so no
    // query outright fails (storage faults degrade via the fallback),
    // giving the ISSUE's identity verbatim.
    let s = &run.stats;
    assert!(s.reconciles(), "stats do not reconcile: {s:?}");
    assert_eq!(s.failed, 0, "no outcome may be a hard failure: {s:?}");
    assert_eq!(
        s.admitted,
        s.answered + s.degraded + s.cancelled,
        "admitted ≠ answered + degraded + cancelled: {s:?}"
    );
    assert_eq!(s.submitted, s.admitted + s.rejected);
    assert_eq!(s.submitted, CHAOS_SUBMISSIONS as u64);
    assert_eq!(s.admitted, run.terminal.len() as u64);

    // The queue stayed within its bound, and overload actually bit:
    // there were typed rejections and deadline sheds.
    assert!(
        s.queue_depth_high_water <= QUEUE_CAPACITY,
        "queue depth {} exceeded bound {QUEUE_CAPACITY}",
        s.queue_depth_high_water,
    );
    assert!(s.rejected > 0, "2× overload never rejected anything");
    assert!(s.shed > 0, "no queued entry ever exceeded its deadline");

    // The breaker tripped during the storm and recovered through its
    // half-open probe.
    let states: Vec<BreakerState> = s.breaker_transitions.iter().map(|&(_, st)| st).collect();
    assert!(
        states.contains(&BreakerState::Open),
        "breaker never tripped: {states:?}"
    );
    assert!(
        states.contains(&BreakerState::HalfOpen),
        "breaker never probed: {states:?}"
    );
    assert_eq!(
        s.breaker_state,
        BreakerState::Closed,
        "breaker did not recover: {:?}",
        s.breaker_transitions
    );
    assert!(
        s.breaker_fallbacks > 0,
        "storm queries never used the fallback"
    );

    // Degraded storm answers carry the typed storage reason.
    assert!(
        run.terminal
            .iter()
            .any(|(_, l)| l == "degraded:StorageUnavailable"),
        "no degraded outcome was attributed to storage health"
    );

    // Goodput under 2× overload: the service kept its worker busy on
    // useful work for at least half of virtual time. (The bound is
    // deliberately loose — the storm window serves cheap fallbacks —
    // and the ratio cannot exceed 1 by construction.)
    let goodput = run.log.goodput();
    assert!(
        (0.5..=1.0).contains(&goodput),
        "goodput ratio {goodput} out of range (executed {} over {})",
        run.log.executed_units,
        run.log.elapsed
    );

    // Answered queries are bit-identical to fault-free serial
    // execution over an identical (quiet) stack.
    let net = grid(8, 8, 0.3, RoadClass::LocalBoston).unwrap();
    let specs = sample_specs(&net, 12, 42);
    let (_quiet_injector, top) = faulty_stack(FaultPlan::quiet(42));
    let disk = CcamStore::build(&net, top, PlacementPolicy::ConnectivityClustered, 64).unwrap();
    let oracle = Engine::new(&disk, EngineConfig::default()).unwrap();
    assert!(!run.answered.is_empty());
    for (id, spec_idx, sig) in &run.answered {
        let want = match oracle.run_robust(&specs[*spec_idx]).unwrap() {
            QueryOutcome::Exact(a) => answer_sig(&a),
            other => panic!("oracle degraded on a clean stack: {other:?}"),
        };
        assert_eq!(
            sig, &want,
            "ticket {id} (spec {spec_idx}) diverged from fault-free serial"
        );
    }

    // Full-run determinism: same seed ⇒ same outcomes, same stats,
    // same shed decisions, same fault log — byte for byte.
    let replay = run_chaos_sim(42);
    assert_eq!(run, replay, "chaos run did not replay identically");
    assert!(!run.fault_log.is_empty(), "the storm never injected");

    // And a different seed actually changes the run.
    let other = run_chaos_sim(43);
    assert_ne!(
        run.terminal, other.terminal,
        "seed does not influence the scenario"
    );
}

// ---------------------------------------------------------------------------
// Focused service-behavior tests (virtual time, step driver)
// ---------------------------------------------------------------------------

fn small_net_and_specs() -> (RoadNetwork, Vec<QuerySpec>) {
    let net = grid(5, 5, 0.3, RoadClass::LocalOutside).unwrap();
    let specs = sample_specs(&net, 8, 7);
    (net, specs)
}

#[test]
fn interactive_is_served_before_batch() {
    let (net, specs) = small_net_and_specs();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let clock = ManualClock::default();
    let svc = QueryService::new(&engine, &clock, ServiceConfig::default());

    // Submit batch, interactive, batch, interactive → pops must be
    // interactive first (in FIFO order), then batch (in FIFO order).
    let b1 = svc
        .submit(Submission::new(specs[0].clone()).with_class(Priority::Batch))
        .unwrap();
    let i1 = svc
        .submit(Submission::new(specs[1].clone()).with_class(Priority::Interactive))
        .unwrap();
    let b2 = svc
        .submit(Submission::new(specs[2].clone()).with_class(Priority::Batch))
        .unwrap();
    let i2 = svc
        .submit(Submission::new(specs[3].clone()).with_class(Priority::Interactive))
        .unwrap();

    let mut order = Vec::new();
    while let Some(rep) = svc.step() {
        order.push(rep.id);
    }
    assert_eq!(order, vec![i1, i2, b1, b2]);
    let stats = svc.stats();
    assert!(stats.reconciles());
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.latency[0].count(), 2, "two interactive completions");
    assert_eq!(stats.latency[1].count(), 2, "two batch completions");
}

#[test]
fn queue_full_and_predicted_late_reject_with_typed_reasons() {
    let (net, specs) = small_net_and_specs();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let clock = ManualClock::default();
    let config = ServiceConfig {
        queue_capacity: 3,
        default_cost: 10,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&engine, &clock, config);

    for spec in specs.iter().take(3) {
        svc.submit(Submission::new(spec.clone())).unwrap();
    }
    // Queue at capacity → typed QueueFull.
    let err = svc.submit(Submission::new(specs[3].clone())).unwrap_err();
    assert_eq!(err.reason, OverloadReason::QueueFull);
    assert_eq!(err.queue_depth, 3);

    // A deadline the estimated wait (3 × 10 units) already exceeds →
    // PredictedLate even though... the queue is full too; drain one to
    // make room and check the deadline path specifically.
    svc.step().unwrap();
    let err = svc
        .submit(Submission::new(specs[3].clone()).with_deadline(clock.now() + 5))
        .unwrap_err();
    assert_eq!(err.reason, OverloadReason::PredictedLate);
    assert!(err.estimated_wait >= 20, "two queued × cost 10");

    // A feasible deadline is admitted.
    svc.submit(Submission::new(specs[3].clone()).with_deadline(clock.now() + 1_000))
        .unwrap();
    while svc.step().is_some() {}
    let stats = svc.stats();
    assert!(stats.reconciles());
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.answered, 4);
}

#[test]
fn expired_queue_entries_are_shed_from_the_head() {
    let (net, specs) = small_net_and_specs();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let clock = ManualClock::default();
    let svc = QueryService::new(&engine, &clock, ServiceConfig::default());

    let doomed = svc
        .submit(Submission::new(specs[0].clone()).with_deadline(clock.now() + 50))
        .unwrap();
    let healthy = svc.submit(Submission::new(specs[1].clone())).unwrap();
    clock.advance(100); // the first entry's deadline passes while queued

    let rep = svc.step().unwrap();
    assert_eq!(rep.id, healthy, "expired head must be shed, not served");
    assert!(svc.step().is_none());

    let outcomes = svc.take_outcomes();
    assert_eq!(outcomes.len(), 2);
    assert!(matches!(
        outcomes
            .iter()
            .find(|(id, _)| *id == doomed)
            .map(|(_, o)| o),
        Some(ServiceOutcome::Cancelled(
            allfp::service::CancelReason::ShedExpired
        ))
    ));
    let stats = svc.stats();
    assert!(stats.reconciles());
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.answered, 1);
}

#[test]
fn drain_cancel_resolves_queued_work_and_rejects_new() {
    let (net, specs) = small_net_and_specs();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let clock = ManualClock::default();
    let svc = QueryService::new(&engine, &clock, ServiceConfig::default());

    for spec in specs.iter().take(4) {
        svc.submit(Submission::new(spec.clone())).unwrap();
    }
    svc.begin_drain(DrainMode::Cancel);
    assert!(svc.is_draining());
    assert_eq!(svc.queue_depth(), 0, "cancel drain empties the queue");
    assert!(svc.step().is_none());

    // Nothing new is admitted while draining.
    let err = svc.submit(Submission::new(specs[0].clone())).unwrap_err();
    assert_eq!(err.reason, OverloadReason::Draining);

    let outcomes = svc.take_outcomes();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|(_, o)| matches!(
        o,
        ServiceOutcome::Cancelled(allfp::service::CancelReason::Drained)
    )));
    let stats = svc.stats();
    assert!(stats.reconciles());
    assert_eq!(stats.cancelled, 4);
    assert_eq!(stats.rejected, 1);
    assert!(svc.cancel_token().is_cancelled());
}

#[test]
fn threaded_serve_resolves_every_admission() {
    let (net, specs) = small_net_and_specs();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let clock = WallClock::new();
    let config = ServiceConfig {
        queue_capacity: 8,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&engine, &clock, config);

    let submitted = 48usize;
    let admitted = svc.serve(3, |svc| {
        let mut ok = 0u64;
        for k in 0..submitted {
            if svc
                .submit(Submission::new(specs[k % specs.len()].clone()))
                .is_ok()
            {
                ok += 1;
            }
        }
        ok
    });

    // serve() drains before returning: every admitted ticket has
    // exactly one recorded outcome, and the books balance.
    let outcomes = svc.take_outcomes();
    assert_eq!(outcomes.len() as u64, admitted);
    let stats = svc.stats();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.submitted, submitted as u64);
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.answered, admitted, "healthy store answers exactly");
    assert_eq!(stats.failed, 0);
}

/// A driver that panics mid-run: `serve` cancels the drain so its
/// parked workers leave, and re-raises the panic instead of hanging.
#[test]
fn serve_reraises_a_driver_panic_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let (net, specs) = small_net_and_specs();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let clock = WallClock::new();
        let svc = QueryService::new(&engine, &clock, ServiceConfig::default());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.serve(2, |svc| {
                for spec in &specs {
                    svc.submit(Submission::new(spec.clone())).unwrap();
                }
                panic!("driver failed");
            })
        }));
        let message = caught
            .err()
            .and_then(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
        tx.send((message, svc.stats(), specs.len() as u64)).unwrap();
    });
    let (message, stats, submitted) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("serve hung after its driver panicked");
    helper.join().expect("the helper thread caught the panic");
    assert_eq!(message.as_deref(), Some("driver failed"));
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!((stats.submitted, stats.admitted), (submitted, submitted));
}

// ---------------------------------------------------------------------------
// Satellite: deadline overshoot is bounded at compound granularity
// ---------------------------------------------------------------------------

/// A deliberately compound-heavy workload: a long leaving-time window
/// over rush-hour patterns makes every composition expensive, and a
/// far target keeps the search expanding. With pop-granularity
/// polling alone (every `WATCH_EVERY = 32` pops) the deadline could
/// overshoot by 32 full expansions; per-compound polling bounds the
/// overshoot to roughly one compound. The wall-clock bound here is
/// generous (CI machines stall), but far below what a pop-granularity
/// overshoot on this workload would produce.
#[test]
fn deadline_overshoot_is_bounded_on_heavy_compounds() {
    let net = grid(10, 10, 0.25, RoadClass::LocalBoston).unwrap();
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();
    // Full waking day: rush-hour patterns make many-piece travel
    // functions, so each compound is heavy.
    let q = QuerySpec::new(
        NodeId(0),
        NodeId(99),
        Interval::of(hm(5, 0), hm(22, 0)),
        DayCategory::WORKDAY,
    );

    // Sanity: unbudgeted, this query is genuinely heavy (otherwise the
    // overshoot bound below proves nothing).
    let t0 = std::time::Instant::now();
    let full = engine.all_fastest_paths(&q).unwrap();
    let full_time = t0.elapsed();
    assert!(full.stats.expanded_paths > 64, "workload too light");

    let deadline = std::time::Duration::from_millis(5);
    if full_time < 4 * deadline {
        // The machine is fast enough to finish near the deadline —
        // the overshoot measurement would be meaningless noise.
        return;
    }

    let budgeted = q
        .clone()
        .with_budget(QueryBudget::unlimited().with_deadline(deadline));
    let t0 = std::time::Instant::now();
    let out = engine.run_robust(&budgeted).unwrap();
    let elapsed = t0.elapsed();
    match out {
        QueryOutcome::Degraded(d) => {
            assert_eq!(d.reason, DegradedReason::DeadlineExpired);
            assert!(
                d.fallback.nodes.first() == Some(&q.source)
                    && d.fallback.nodes.last() == Some(&q.target),
                "fallback must still be a drivable plan"
            );
        }
        QueryOutcome::Exact(_) => panic!("a 5ms deadline finished a {full_time:?} search"),
    }
    // Overshoot bound: deadline + salvage/fallback assembly + one
    // compound. 250ms of slack absorbs CI noise while still being ~50×
    // tighter than the full search.
    assert!(
        elapsed < deadline + std::time::Duration::from_millis(250),
        "deadline overshoot too large: {elapsed:?} vs {deadline:?} (full search {full_time:?})"
    );
}

// ---------------------------------------------------------------------------
// The virtual-time harness, and its recorded event-free replays
// ---------------------------------------------------------------------------

#[test]
fn schedule_is_deterministic_and_has_the_right_mean() {
    let a = ArrivalSchedule::open_loop(7, 4096, 50);
    let b = ArrivalSchedule::open_loop(7, 4096, 50);
    assert_eq!(a, b);
    assert_ne!(a, ArrivalSchedule::open_loop(8, 4096, 50));
    assert!(a.times().windows(2).all(|w| w[0] < w[1]));
    let mean = *a.times().last().unwrap() as f64 / a.times().len() as f64;
    assert!(
        (mean - 50.0).abs() < 2.0,
        "empirical mean gap {mean} far from 50"
    );
}

#[test]
fn manual_clock_is_monotone() {
    let c = ManualClock::default();
    c.advance(5);
    c.set(3); // never backwards
    assert_eq!(c.now(), 5);
    c.set(9);
    assert_eq!(c.now(), 9);
}

/// An event-free scenario reproduces the recorded overload runs, and
/// the same seed the same run. Per `(seed, arrivals)`: `(admitted,
/// rejected, answered, degraded, shed)`, the queue's high water and
/// the goodput.
#[test]
fn drive_replays_the_recorded_overload_run() {
    let recorded = [
        (0x5EED, 100, (45, 55, 36, 0, 9), 8, "0.9884"),
        (0x0BAD_10AD, 80, (36, 44, 28, 0, 8), 7, "0.9894"),
    ];
    for (seed, arrivals, counts, high_water, goodput) in recorded {
        let run = || {
            let (net, load, config, schedule) = recorded_setup(seed, arrivals);
            let engine = Engine::new(&net, EngineConfig::default()).unwrap();
            let clock = ManualClock::default();
            let svc = QueryService::new(&engine, &clock, config);
            let log = drive(&svc, &clock, &schedule, &mut |arrival, now| {
                load.submission(arrival, now, 5)
            });
            let labels: Vec<_> = svc.take_outcomes().iter().map(label).collect();
            (svc.stats(), labels, log)
        };
        let (s, labels, log) = run();
        assert_each_arrival_resolves_once(&log, &labels, arrivals);
        assert!(s.reconciles(), "{seed:#x}: {s:?}");
        assert_eq!(
            (s.admitted, s.rejected, s.answered, s.degraded, s.shed),
            counts,
            "{seed:#x}"
        );
        assert_eq!(s.queue_depth_high_water, high_water, "{seed:#x}");
        assert_eq!(
            (log.arrival_of.len() as u64, log.rejected.len() as u64),
            (counts.0, counts.1),
            "{seed:#x}"
        );
        assert_eq!(format!("{:.4}", log.goodput()), goodput, "{seed:#x}");
        assert_eq!(
            run(),
            (s, labels, log),
            "{seed:#x}: same seed, different run"
        );
    }
}
