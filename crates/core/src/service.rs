//! The overload-resilient query service: a long-running front end for
//! the [`Engine`] built for sustained production traffic rather than
//! one-shot batches.
//!
//! The [`QueryService`] wraps an engine behind a **bounded admission
//! queue** and makes every overload decision explicit and observable:
//!
//! * **Admission control & load shedding** — [`QueryService::submit`]
//!   rejects immediately with a typed [`Overloaded`] error when the
//!   queue is full, when the service is draining, or when the
//!   estimated queueing delay already exceeds the submission's
//!   deadline (open-loop clients learn about overload *now*, not
//!   after their deadline has silently passed). Entries whose deadline
//!   expired while queued are shed from the queue head before they
//!   waste a worker ([`CancelReason::ShedExpired`]).
//! * **Priority classes** — [`Priority::Interactive`] submissions are
//!   always served before [`Priority::Batch`] ones; both share the
//!   same capacity bound so batch traffic cannot starve the queue.
//! * **Storage circuit breaker** — sustained CCAM fault rates
//!   (`AllFpError::Network(NetworkError::Storage { .. })`) trip a
//!   breaker (`Closed → Open`); while open, queries skip the sick
//!   store entirely and are answered from the constant-speed fallback
//!   ([`DegradedReason::StorageUnavailable`]). After a cooldown the
//!   breaker admits a single half-open probe; enough consecutive
//!   probe successes close it again.
//! * **Graceful drain** — [`QueryService::begin_drain`] stops
//!   admission ([`OverloadReason::Draining`]) and either finishes the
//!   queue ([`DrainMode::Finish`]) or cancels it
//!   ([`DrainMode::Cancel`]: queued work resolves to
//!   [`CancelReason::Drained`], in-flight work is cancelled
//!   cooperatively through the service [`CancelToken`]).
//! * **Observability** — every decision lands in [`ServiceStats`],
//!   whose counters reconcile exactly:
//!   `submitted = admitted + rejected` and
//!   `admitted = answered + degraded + failed + cancelled`.
//!
//! # Determinism and the virtual clock
//!
//! All time-dependent decisions (deadlines, estimated waits, breaker
//! cooldowns) read a [`ServiceClock`], not the wall clock. Production
//! deployments use [`WallClock`]; the overload-chaos harness uses a
//! [`ManualClock`] advanced by the measured *work units* of each
//! completed query (`QueryStats::expanded_paths`), so an entire
//! overload scenario — arrivals, sheds, breaker trips, recoveries —
//! replays bit-identically from a seed. [`drive`] is that harness's
//! one loop over [`QueryService::step`]: the chaos suites and the
//! bench twins supply it a [`DriveScenario`]. See `DESIGN.md` §11 and
//! `core/tests/overload.rs` for the invariants this enables.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::backend::PathfindBackend;
use crate::cache::CacheSession;
use crate::engine::Engine;
use crate::epoch::{Epoch, EpochManager};
use crate::query::{
    CancelToken, DegradedAnswer, DegradedReason, QueryBudget, QueryOutcome, QuerySpec, QueryStats,
};
use crate::{AllFpAnswer, AllFpError};

/// A stateless SplitMix64-style hash: the arrival schedule derives
/// every gap from `(seed, index)` so schedules are random-access and
/// replayable without carrying generator state.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lock with poison recovery: the service state is valid after any
/// interrupted mutation (a lost notification at worst), so one
/// panicked worker must not wedge the whole service.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The service's notion of time, in abstract monotone units.
///
/// Everything the service decides on time — queue-wait estimates,
/// deadline sheds, breaker cooldowns, latency histograms — goes
/// through this trait, which is what makes the overload-chaos harness
/// deterministic: swap the wall clock for a [`ManualClock`] driven by
/// measured work units and the whole service replays from a seed.
pub trait ServiceClock: Send + Sync {
    /// Current time. Must be monotone non-decreasing.
    fn now(&self) -> u64;
}

/// Wall-clock time in microseconds since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    base: Instant,
}

impl WallClock {
    /// A clock starting at 0 now.
    pub fn new() -> Self {
        WallClock {
            base: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl ServiceClock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A manually-advanced clock for deterministic simulation: the chaos
/// harness advances it by each completed query's measured work units,
/// so "time" is a pure function of the workload.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock at time 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance by `units`.
    pub fn advance(&self, units: u64) {
        self.0.fetch_add(units, Ordering::Relaxed);
    }

    /// Jump forward to `t` (never backwards: monotone by `fetch_max`).
    pub fn set(&self, t: u64) {
        self.0.fetch_max(t, Ordering::Relaxed);
    }
}

impl ServiceClock for ManualClock {
    fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Submissions and terminal outcomes
// ---------------------------------------------------------------------------

/// Identifies one admitted submission; returned by
/// [`QueryService::submit`] and attached to its terminal outcome.
pub type TicketId = u64;

/// Scheduling class of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive traffic; always dequeued before batch work.
    Interactive,
    /// Throughput traffic; runs when no interactive work is queued.
    Batch,
}

impl Priority {
    /// Queue index of this class.
    fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// One unit of work offered to the service.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The query to answer.
    pub spec: QuerySpec,
    /// Scheduling class (default: [`Priority::Interactive`]).
    pub class: Priority,
    /// Absolute deadline in [`ServiceClock`] units. Used by admission
    /// (reject when the estimated wait already exceeds it) and by
    /// queue-head shedding; independent of the engine-level
    /// [`QueryBudget`] inside `spec`, which bounds the *search* once
    /// it starts.
    pub deadline: Option<u64>,
    /// Caller's estimate of this query's cost in work units
    /// (expansions); feeds the wait estimator. Defaults to
    /// [`ServiceConfig::default_cost`].
    pub cost_hint: Option<u64>,
}

impl Submission {
    /// An interactive submission with no deadline and no cost hint.
    pub fn new(spec: QuerySpec) -> Self {
        Submission {
            spec,
            class: Priority::Interactive,
            deadline: None,
            cost_hint: None,
        }
    }

    /// Set the scheduling class.
    pub fn with_class(mut self, class: Priority) -> Self {
        self.class = class;
        self
    }

    /// Set the absolute service-clock deadline.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the cost hint in work units.
    pub fn with_cost_hint(mut self, cost: u64) -> Self {
        self.cost_hint = Some(cost);
        self
    }
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The bounded queue was at capacity.
    QueueFull,
    /// The estimated queueing delay already exceeded the submission's
    /// deadline — executing it would only produce a late answer.
    PredictedLate,
    /// The service is draining and admits nothing new.
    Draining,
}

/// Typed admission rejection: the *immediate* terminal outcome of a
/// submission the service refused to queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Why admission refused.
    pub reason: OverloadReason,
    /// Queue depth observed at the decision.
    pub queue_depth: usize,
    /// Estimated wait (clock units) a new submission would have faced.
    pub estimated_wait: u64,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "overloaded ({:?}): queue depth {}, estimated wait {} units",
            self.reason, self.queue_depth, self.estimated_wait
        )
    }
}

impl std::error::Error for Overloaded {}

/// Why an *admitted* submission was cancelled instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Its deadline expired while it sat in the queue and it was shed
    /// from the head instead of wasting a worker on a late answer.
    ShedExpired,
    /// It was still queued when [`DrainMode::Cancel`] drained the
    /// queue.
    Drained,
    /// It was in flight when the service [`CancelToken`] fired and the
    /// engine stopped it cooperatively.
    TokenCancelled,
}

/// The terminal outcome of one admitted submission. Every admitted
/// ticket resolves to exactly one of these, recorded in submission
/// order of completion and retrievable via
/// [`QueryService::take_outcomes`].
#[derive(Debug)]
pub enum ServiceOutcome {
    /// Exact answer from the primary engine.
    Answered(Box<AllFpAnswer>),
    /// Degraded answer: either the engine's own budget tripped, or
    /// the storage breaker routed the query to the constant-speed
    /// fallback ([`DegradedReason::StorageUnavailable`]).
    Degraded(Box<DegradedAnswer>),
    /// The query failed with a non-degradable error.
    Failed(AllFpError),
    /// The submission was cancelled before or during execution.
    Cancelled(CancelReason),
}

impl ServiceOutcome {
    /// Short label for logs and deterministic-replay comparisons.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceOutcome::Answered(_) => "answered",
            ServiceOutcome::Degraded(_) => "degraded",
            ServiceOutcome::Failed(_) => "failed",
            ServiceOutcome::Cancelled(_) => "cancelled",
        }
    }

    /// [`Self::kind`] with the reason of a degradation or cancellation
    /// appended (`degraded:StorageUnavailable`, `cancelled:ShedExpired`)
    /// — the form the chaos suites compare replays in.
    pub fn label(&self) -> String {
        match self {
            ServiceOutcome::Degraded(d) => format!("degraded:{:?}", d.reason),
            ServiceOutcome::Cancelled(r) => format!("cancelled:{r:?}"),
            other => other.kind().to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: queries go to the primary engine; storage faults are
    /// counted over a sliding window.
    #[default]
    Closed,
    /// Tripped: the storage layer is presumed sick, every query is
    /// served from the fallback until the cooldown elapses.
    Open,
    /// Probing: one query at a time is allowed through to the
    /// primary; enough consecutive successes re-close the breaker, a
    /// single failure re-opens it.
    HalfOpen,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding window: the last `window` primary executions counted.
    pub window: usize,
    /// Storage faults within the window that trip the breaker.
    pub trip_failures: u32,
    /// Clock units the breaker stays open before half-open probing.
    pub cooldown: u64,
    /// Consecutive successful probes required to close again.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            trip_failures: 8,
            cooldown: 10_000,
            probe_successes: 2,
        }
    }
}

/// Where the dispatcher sends a popped query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Breaker closed: the primary engine.
    Primary,
    /// Breaker half-open: the primary engine, as the designated probe.
    Probe,
    /// Breaker open (or probe slot taken): the constant-speed
    /// fallback.
    Fallback,
}

/// The classic three-state circuit breaker over a sliding fault
/// window.
///
/// [`QueryService`] keeps one behind its lock to guard the primary
/// engine. The machine is driven entirely by the caller's clock — no
/// wall time — so a given input schedule replays to the identical
/// transition log.
#[derive(Debug, Default)]
struct CircuitBreaker {
    state: BreakerState,
    /// Outcomes (true = storage fault) of the last `window` primary
    /// executions while closed.
    window: VecDeque<bool>,
    faults: u32,
    opened_at: u64,
    probe_in_flight: bool,
    probe_ok: u32,
    /// `(clock, new_state)` log of every transition, in order.
    transitions: Vec<(u64, BreakerState)>,
}

impl CircuitBreaker {
    fn transition(&mut self, now: u64, next: BreakerState) {
        self.state = next;
        self.transitions.push((now, next));
    }

    /// Decide the route for the next popped query.
    fn route(&mut self, now: u64, cfg: &BreakerConfig) -> Route {
        match self.state {
            BreakerState::Closed => Route::Primary,
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= cfg.cooldown {
                    self.probe_ok = 0;
                    self.probe_in_flight = true;
                    self.transition(now, BreakerState::HalfOpen);
                    Route::Probe
                } else {
                    Route::Fallback
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    Route::Fallback
                } else {
                    self.probe_in_flight = true;
                    Route::Probe
                }
            }
        }
    }

    /// Feed a completed closed-state primary execution into the
    /// sliding window.
    fn on_primary(&mut self, now: u64, storage_fault: bool, cfg: &BreakerConfig) {
        if self.state != BreakerState::Closed {
            // A stale completion from before a trip (possible with
            // concurrent workers): the window restarted, ignore it.
            return;
        }
        self.window.push_back(storage_fault);
        if storage_fault {
            self.faults += 1;
        }
        while self.window.len() > cfg.window {
            if self.window.pop_front() == Some(true) {
                self.faults -= 1;
            }
        }
        if self.faults >= cfg.trip_failures {
            self.opened_at = now;
            self.window.clear();
            self.faults = 0;
            self.transition(now, BreakerState::Open);
        }
    }

    /// Feed a completed half-open probe.
    fn on_probe(&mut self, now: u64, storage_fault: bool, cfg: &BreakerConfig) {
        self.probe_in_flight = false;
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if storage_fault {
            self.opened_at = now;
            self.probe_ok = 0;
            self.transition(now, BreakerState::Open);
        } else {
            self.probe_ok += 1;
            if self.probe_ok >= cfg.probe_successes {
                self.transition(now, BreakerState::Closed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Power-of-two latency histogram: bucket 0 counts latency 0, bucket
/// `i ≥ 1` counts latencies in `[2^(i-1), 2^i)` clock units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 48],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 48],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record(&mut self, latency: u64) {
        let idx = (64 - latency.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw buckets (see the type-level doc for boundaries).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Roll-up of every decision the service made. Counters reconcile
/// exactly (see [`ServiceStats::reconciles`]); the chaos harness
/// asserts this after every scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Submissions offered ([`QueryService::submit`] calls).
    pub submitted: u64,
    /// Submissions accepted into the queue.
    pub admitted: u64,
    /// Submissions rejected at admission with [`Overloaded`].
    pub rejected: u64,
    /// Admitted queries answered exactly by the primary engine.
    pub answered: u64,
    /// Admitted queries that resolved to a degraded answer (engine
    /// budget or storage fallback).
    pub degraded: u64,
    /// Subset of `degraded` served from the fallback because of
    /// storage health (breaker open, or an in-query storage fault).
    pub breaker_fallbacks: u64,
    /// Admitted queries that failed with a non-degradable error.
    pub failed: u64,
    /// Admitted queries cancelled before or during execution (sheds,
    /// drains, token cancellations).
    pub cancelled: u64,
    /// Subset of `cancelled` shed from the queue head past deadline.
    pub shed: u64,
    /// Highest queue depth ever observed (≤ the configured capacity).
    pub queue_depth_high_water: usize,
    /// Breaker state at the time of the snapshot.
    pub breaker_state: BreakerState,
    /// `(clock, new_state)` for every breaker transition, in order.
    pub breaker_transitions: Vec<(u64, BreakerState)>,
    /// Completion latency (submission → terminal outcome, clock
    /// units) per class, indexed by [`Priority::Interactive`] = 0,
    /// [`Priority::Batch`] = 1. Records answered and degraded
    /// completions only.
    pub latency: [LatencyHistogram; 2],
    /// Network epochs ever published by the attached
    /// [`EpochManager`] (0 when the service runs without live
    /// updates; includes the seed epoch).
    pub epochs_published: u64,
    /// Traffic deltas applied by the attached manager.
    pub updates_applied: u64,
    /// Superseded epochs retired (last pin dropped and swept).
    pub epochs_retired: u64,
    /// Superseded epochs still pinned at the snapshot — how far
    /// retirement lags behind publication.
    pub epoch_retire_lag: u64,
}

impl ServiceStats {
    /// The exact accounting identities every snapshot satisfies:
    /// `submitted = admitted + rejected`,
    /// `admitted = answered + degraded + failed + cancelled`,
    /// `shed ⊆ cancelled`, and — when an [`EpochManager`] is attached —
    /// `epochs_published = updates_applied + 1` with
    /// `epochs_retired + epoch_retire_lag = updates_applied` (every
    /// superseded epoch is either retired or still pinned).
    pub fn reconciles(&self) -> bool {
        let epochs_ok = if self.epochs_published == 0 {
            self.updates_applied == 0 && self.epochs_retired == 0 && self.epoch_retire_lag == 0
        } else {
            self.epochs_published == self.updates_applied + 1
                && self.epochs_retired + self.epoch_retire_lag == self.updates_applied
        };
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.answered + self.degraded + self.failed + self.cancelled
            && self.shed <= self.cancelled
            && epochs_ok
    }
}

// ---------------------------------------------------------------------------
// Service configuration
// ---------------------------------------------------------------------------

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on queued submissions (both classes combined, not
    /// counting in-flight work). Admission rejects with
    /// [`OverloadReason::QueueFull`] at this depth.
    pub queue_capacity: usize,
    /// Assumed cost (work units) of a submission with no
    /// [`Submission::cost_hint`].
    pub default_cost: u64,
    /// Storage circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            default_cost: 32,
            breaker: BreakerConfig::default(),
        }
    }
}

/// How [`QueryService::begin_drain`] treats outstanding work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Stop admitting; queued and in-flight work runs to completion.
    Finish,
    /// Stop admitting; queued work resolves to
    /// [`CancelReason::Drained`] immediately and in-flight work is
    /// cancelled through the service [`CancelToken`].
    Cancel,
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// One queued submission.
#[derive(Debug)]
struct Ticket {
    id: TicketId,
    spec: QuerySpec,
    class: Priority,
    deadline: Option<u64>,
    cost: u64,
    submitted_at: u64,
    /// Strong pin on the admission-time epoch, never read (the engine
    /// re-resolves it through the manager by id): it keeps the epoch
    /// from retiring until this ticket reaches its terminal outcome,
    /// however long it queues. `None` without live updates.
    _pin: Option<std::sync::Arc<Epoch>>,
}

/// A popped ticket plus its dispatch decision.
struct Job {
    ticket: Ticket,
    route: Route,
    popped_at: u64,
}

/// Result of executing one job, before the books are updated.
struct Executed {
    outcome: ServiceOutcome,
    /// Measured work units (`expanded_paths`, min 1).
    cost: u64,
    /// The primary engine reported a storage fault.
    storage_fault: bool,
    /// The answer came from the fallback path.
    via_fallback: bool,
    /// The route consulted the primary engine (feeds the breaker).
    primary_used: bool,
    /// The route was the half-open probe.
    probe: bool,
}

/// Mutable service state, behind one lock.
struct ServiceState {
    /// Index 0 = interactive, 1 = batch.
    queues: [VecDeque<Ticket>; 2],
    /// Sum of queued cost hints (work units), for wait estimation.
    queued_cost: u64,
    in_flight: usize,
    draining: Option<DrainMode>,
    next_id: TicketId,
    /// EWMA of observed clock-units-per-work-unit.
    ewma_units_per_cost: f64,
    breaker: CircuitBreaker,
    stats: ServiceStats,
    outcomes: Vec<(TicketId, ServiceOutcome)>,
}

impl ServiceState {
    fn depth(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    fn estimated_wait(&self) -> u64 {
        (self.queued_cost as f64 * self.ewma_units_per_cost) as u64
    }
}

/// The long-running query front end. See the module docs for the
/// full behavioral contract and `DESIGN.md` §11 for the design
/// rationale.
///
/// `B` is the primary query backend — the flat [`Engine`] over any
/// network source (typically the CCAM disk stack), or any other
/// [`PathfindBackend`] such as the contraction-hierarchy engine from
/// `fp-hierarchy`. The optional fallback engine always runs over the
/// in-memory [`roadnet::RoadNetwork`] snapshot: when the breaker
/// declares storage sick, answers must not depend on the sick store.
pub struct QueryService<'e, B: PathfindBackend + ?Sized> {
    primary: &'e B,
    fallback: Option<&'e Engine<'e, roadnet::RoadNetwork>>,
    /// Live-update epoch manager; when attached, every admission
    /// stamps the submission with the current epoch and pins it.
    epochs: Option<&'e EpochManager>,
    clock: &'e dyn ServiceClock,
    config: ServiceConfig,
    /// Service-wide cancellation, fired by [`DrainMode::Cancel`] and
    /// polled cooperatively by every in-flight search.
    cancel: CancelToken,
    state: Mutex<ServiceState>,
    /// Signalled on submission and drain; workers park here.
    work: Condvar,
}

impl<'e, B: PathfindBackend + ?Sized> QueryService<'e, B> {
    /// Build a service over `primary` with no dedicated fallback
    /// engine: breaker-rerouted queries run a zero-expansion budget
    /// against the primary backend instead (cheap, but still touching
    /// the possibly-sick store — prefer [`QueryService::with_fallback`]
    /// in production).
    pub fn new(primary: &'e B, clock: &'e dyn ServiceClock, config: ServiceConfig) -> Self {
        QueryService {
            primary,
            fallback: None,
            epochs: None,
            clock,
            config,
            cancel: CancelToken::new(),
            state: Mutex::new(ServiceState {
                queues: [VecDeque::new(), VecDeque::new()],
                queued_cost: 0,
                in_flight: 0,
                draining: None,
                next_id: 0,
                ewma_units_per_cost: 1.0,
                breaker: CircuitBreaker::default(),
                stats: ServiceStats::default(),
                outcomes: Vec::new(),
            }),
            work: Condvar::new(),
        }
    }

    /// Attach an in-memory fallback engine for breaker-rerouted
    /// queries.
    pub fn with_fallback(mut self, fallback: &'e Engine<'e, roadnet::RoadNetwork>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Attach a live-update [`EpochManager`]: every admitted
    /// submission is stamped with the epoch current *at admission* and
    /// holds a pin on it until its terminal outcome, so concurrent
    /// [`EpochManager::apply_delta`] publishes can never change the
    /// network version a queued query will be answered against.
    pub fn with_epochs(mut self, epochs: &'e EpochManager) -> Self {
        self.epochs = Some(epochs);
        self
    }

    /// The service-wide cancel token (fired by [`DrainMode::Cancel`]).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Current queued depth (both classes; excludes in-flight work).
    pub fn queue_depth(&self) -> usize {
        lock(&self.state).depth()
    }

    /// Has a drain begun?
    pub fn is_draining(&self) -> bool {
        lock(&self.state).draining.is_some()
    }

    /// Offer one submission. `Ok(id)` means the submission was
    /// admitted and will resolve to exactly one [`ServiceOutcome`];
    /// `Err(Overloaded)` is itself the (immediate) terminal outcome.
    pub fn submit(&self, sub: Submission) -> Result<TicketId, Overloaded> {
        let now = self.clock.now();
        let mut st = lock(&self.state);
        st.stats.submitted += 1;
        if st.draining.is_some() {
            st.stats.rejected += 1;
            return Err(Overloaded {
                reason: OverloadReason::Draining,
                queue_depth: st.depth(),
                estimated_wait: st.estimated_wait(),
            });
        }
        Self::shed_expired_locked(&mut st, now);
        if st.depth() >= self.config.queue_capacity {
            st.stats.rejected += 1;
            return Err(Overloaded {
                reason: OverloadReason::QueueFull,
                queue_depth: st.depth(),
                estimated_wait: st.estimated_wait(),
            });
        }
        if let Some(deadline) = sub.deadline {
            let wait = st.estimated_wait();
            if now.saturating_add(wait) > deadline {
                st.stats.rejected += 1;
                return Err(Overloaded {
                    reason: OverloadReason::PredictedLate,
                    queue_depth: st.depth(),
                    estimated_wait: wait,
                });
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        st.stats.admitted += 1;
        let cost = sub.cost_hint.unwrap_or(self.config.default_cost).max(1);
        st.queued_cost += cost;
        let mut spec = sub.spec;
        // Pin-at-admission: resolve the epoch now and hold it in the
        // ticket. An already-stamped spec keeps its stamp (its pin may
        // fail to resolve if that epoch retired — the query will then
        // fail with `EpochRetired` rather than silently run on a
        // different network version).
        let pin = self.epochs.and_then(|mgr| {
            let pin = mgr.pin(spec.epoch);
            if let Some(p) = &pin {
                spec.epoch = Some(p.id());
            }
            pin
        });
        st.queues[sub.class.index()].push_back(Ticket {
            id,
            spec,
            class: sub.class,
            deadline: sub.deadline,
            cost,
            submitted_at: now,
            _pin: pin,
        });
        let depth = st.depth();
        st.stats.queue_depth_high_water = st.stats.queue_depth_high_water.max(depth);
        drop(st);
        self.work.notify_one();
        Ok(id)
    }

    /// Shed queue-head entries whose deadline has passed. Head-only by
    /// design: expiry is checked exactly where a worker would pick
    /// work up, so shed decisions depend only on (queue order, clock),
    /// never on scan timing.
    fn shed_expired_locked(st: &mut ServiceState, now: u64) {
        for class in 0..2 {
            while let Some(head) = st.queues[class].front() {
                let expired = head.deadline.is_some_and(|d| d <= now);
                if !expired {
                    break;
                }
                // The head is expired: shedding it is strictly better
                // than executing it (the answer would be late either
                // way), and the freed slot admits fresh work.
                let Some(t) = st.queues[class].pop_front() else {
                    break;
                };
                st.queued_cost = st.queued_cost.saturating_sub(t.cost);
                st.stats.cancelled += 1;
                st.stats.shed += 1;
                st.outcomes
                    .push((t.id, ServiceOutcome::Cancelled(CancelReason::ShedExpired)));
            }
        }
    }

    /// Pop the next ticket (interactive first) and decide its route.
    fn pop_locked(&self, st: &mut ServiceState, now: u64) -> Option<Job> {
        let ticket = match st.queues[0].pop_front() {
            Some(t) => t,
            None => st.queues[1].pop_front()?,
        };
        st.queued_cost = st.queued_cost.saturating_sub(ticket.cost);
        st.in_flight += 1;
        let route = st.breaker.route(now, &self.config.breaker);
        Some(Job {
            ticket,
            route,
            popped_at: now,
        })
    }

    /// Serve one query from the constant-speed fallback: a
    /// zero-expansion budget forces the engine's degraded path (one
    /// time-independent A* plus an exact re-timing of that route),
    /// with the reason rewritten to
    /// [`DegradedReason::StorageUnavailable`].
    fn serve_fallback(&self, spec: &QuerySpec) -> (ServiceOutcome, u64) {
        let degraded_spec = spec
            .clone()
            .with_budget(QueryBudget::default().with_max_expansions(0));
        let result = match self.fallback {
            Some(fb) => fb.run_robust(&degraded_spec),
            None => self.primary.run_robust(&degraded_spec),
        };
        match result {
            Ok(QueryOutcome::Degraded(mut d)) => {
                d.reason = DegradedReason::StorageUnavailable;
                let cost = cost_of(&d.stats);
                (ServiceOutcome::Degraded(Box::new(d)), cost)
            }
            // Degenerate intervals bypass budgets entirely and come
            // back exact; that exactness is real (it never touched
            // the tripped budget), so report it as answered.
            Ok(QueryOutcome::Exact(a)) => {
                let cost = cost_of(&a.stats);
                (ServiceOutcome::Answered(Box::new(a)), cost)
            }
            Err(e) => (ServiceOutcome::Failed(e), 1),
        }
    }

    /// Execute one routed job (no lock held).
    fn execute(&self, job: &Job, session: &mut CacheSession<'_>) -> Executed {
        let spec = &job.ticket.spec;
        let primary_used = job.route != Route::Fallback;
        // (outcome, measured cost, storage fault, answered by fallback)
        let (outcome, cost, storage_fault, via_fallback) = if primary_used {
            match self
                .primary
                .robust_with_session(spec, session, Some(&self.cancel))
            {
                Ok(QueryOutcome::Exact(a)) => {
                    let cost = cost_of(&a.stats);
                    (ServiceOutcome::Answered(Box::new(a)), cost, false, false)
                }
                Ok(QueryOutcome::Degraded(d)) => {
                    let cost = cost_of(&d.stats);
                    (ServiceOutcome::Degraded(Box::new(d)), cost, false, false)
                }
                Err(AllFpError::Network(roadnet::NetworkError::Storage { .. })) => {
                    // The primary hit a storage fault mid-query: count
                    // it against the breaker and still give this
                    // caller an answer from the fallback.
                    let (outcome, cost) = self.serve_fallback(spec);
                    (outcome, cost, true, true)
                }
                Err(AllFpError::Cancelled) => {
                    let outcome = ServiceOutcome::Cancelled(CancelReason::TokenCancelled);
                    (outcome, 1, false, false)
                }
                Err(e) => (ServiceOutcome::Failed(e), 1, false, false),
            }
        } else {
            let (outcome, cost) = self.serve_fallback(spec);
            (outcome, cost, false, true)
        };
        Executed {
            outcome,
            cost,
            storage_fault,
            via_fallback,
            primary_used,
            probe: job.route == Route::Probe,
        }
    }

    /// Update the books for one executed job.
    fn complete(&self, job: Job, ex: Executed) {
        let now = self.clock.now();
        let mut st = lock(&self.state);
        st.in_flight -= 1;
        if ex.primary_used {
            if ex.probe {
                st.breaker
                    .on_probe(now, ex.storage_fault, &self.config.breaker);
            } else {
                st.breaker
                    .on_primary(now, ex.storage_fault, &self.config.breaker);
            }
        }
        match &ex.outcome {
            ServiceOutcome::Answered(_) => st.stats.answered += 1,
            ServiceOutcome::Degraded(_) => {
                st.stats.degraded += 1;
                if ex.via_fallback {
                    st.stats.breaker_fallbacks += 1;
                }
            }
            ServiceOutcome::Failed(_) => st.stats.failed += 1,
            ServiceOutcome::Cancelled(_) => st.stats.cancelled += 1,
        }
        if matches!(
            ex.outcome,
            ServiceOutcome::Answered(_) | ServiceOutcome::Degraded(_)
        ) {
            st.stats.latency[job.ticket.class.index()]
                .record(now.saturating_sub(job.ticket.submitted_at));
        }
        // Refine the wait estimator from observed service time. With
        // a ManualClock driven by the step() harness, execution takes
        // zero clock time (the harness advances the clock *after* the
        // step), so the initial estimate is left untouched — exactly
        // what keeps the simulation deterministic and exact.
        let elapsed = now.saturating_sub(job.popped_at);
        if elapsed > 0 {
            let observed = elapsed as f64 / ex.cost as f64;
            st.ewma_units_per_cost = 0.8 * st.ewma_units_per_cost + 0.2 * observed;
        }
        st.outcomes.push((job.ticket.id, ex.outcome));
    }

    /// Serve exactly one queued query on the calling thread, opening a
    /// fresh cache session for it. Returns `None` when nothing was
    /// queued (head-of-queue sheds may still have happened).
    pub fn step(&self) -> Option<StepReport> {
        let mut session = self.primary.cache_session();
        self.step_with_session(&mut session)
    }

    /// [`QueryService::step`] on a caller-held session, so a
    /// single-threaded driver keeps its L1 cache warm across steps.
    pub fn step_with_session(&self, session: &mut CacheSession<'_>) -> Option<StepReport> {
        let job = {
            let mut st = lock(&self.state);
            let now = self.clock.now();
            Self::shed_expired_locked(&mut st, now);
            self.pop_locked(&mut st, now)
        }?;
        let ex = self.execute(&job, session);
        let report = StepReport {
            id: job.ticket.id,
            cost: ex.cost,
        };
        self.complete(job, ex);
        Some(report)
    }

    /// Stop admitting new work. [`DrainMode::Cancel`] additionally
    /// resolves all queued tickets to [`CancelReason::Drained`] and
    /// fires the service [`CancelToken`] so in-flight queries stop at
    /// their next cooperative poll.
    pub fn begin_drain(&self, mode: DrainMode) {
        let mut st = lock(&self.state);
        // Finish never downgrades an in-progress Cancel drain.
        if st.draining != Some(DrainMode::Cancel) {
            st.draining = Some(mode);
        }
        if mode == DrainMode::Cancel {
            for class in 0..2 {
                while let Some(t) = st.queues[class].pop_front() {
                    st.queued_cost = st.queued_cost.saturating_sub(t.cost);
                    st.stats.cancelled += 1;
                    st.outcomes
                        .push((t.id, ServiceOutcome::Cancelled(CancelReason::Drained)));
                }
            }
            self.cancel.cancel();
        }
        drop(st);
        self.work.notify_all();
    }

    /// Snapshot the roll-up (counters, breaker log, histograms,
    /// live-update counters when an [`EpochManager`] is attached).
    pub fn stats(&self) -> ServiceStats {
        // Read the epoch counters before taking the service lock (the
        // manager sweep takes its own lock; never nest the two).
        let epochs = self.epochs.map(|mgr| mgr.stats());
        let st = lock(&self.state);
        let mut stats = st.stats.clone();
        stats.breaker_state = st.breaker.state;
        stats.breaker_transitions = st.breaker.transitions.clone();
        if let Some(e) = epochs {
            stats.epochs_published = e.epochs_published;
            stats.updates_applied = e.updates_applied;
            stats.epochs_retired = e.epochs_retired;
            stats.epoch_retire_lag = e.epoch_retire_lag;
        }
        stats
    }

    /// Drain the recorded terminal outcomes (in completion order).
    pub fn take_outcomes(&self) -> Vec<(TicketId, ServiceOutcome)> {
        std::mem::take(&mut lock(&self.state).outcomes)
    }

    /// Run the service on `workers` dedicated threads while `driver`
    /// (the caller's submission loop) runs on the current thread.
    /// When the driver returns, a [`DrainMode::Finish`] drain begins
    /// automatically (unless the driver already started one) and the
    /// call blocks until every admitted submission has resolved.
    pub fn serve<R>(&self, workers: usize, driver: impl FnOnce(&Self) -> R) -> R
    where
        B: Sync,
    {
        std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            let out = driver(self);
            if !self.is_draining() {
                self.begin_drain(DrainMode::Finish);
            }
            out
        })
    }

    /// One worker: pop → execute → complete until drained.
    fn worker_loop(&self) {
        let mut session = self.primary.cache_session();
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    let now = self.clock.now();
                    Self::shed_expired_locked(&mut st, now);
                    if let Some(job) = self.pop_locked(&mut st, now) {
                        break Some(job);
                    }
                    if st.draining.is_some() {
                        break None;
                    }
                    st = self
                        .work
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some(job) = job else { return };
            let ex = self.execute(&job, &mut session);
            self.complete(job, ex);
        }
    }
}

/// What one [`QueryService::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The ticket served.
    pub id: TicketId,
    /// Its measured cost in work units (`expanded_paths`, min 1) —
    /// what a virtual-time harness advances its [`ManualClock`] by.
    pub cost: u64,
}

/// Measured work units of a completed query.
fn cost_of(stats: &QueryStats) -> u64 {
    (stats.expanded_paths as u64).max(1)
}

// ---------------------------------------------------------------------------
// Deterministic open-loop load generation
// ---------------------------------------------------------------------------

/// A seeded open-loop arrival schedule: strictly increasing arrival
/// times in clock units, every gap derived from `(seed, index)` by
/// integer arithmetic only — no wall-clock randomness, no float
/// transforms — so the overload harness replays bit-identically.
///
/// Gaps are uniform on `[1, 2·mean_gap − 1]`, giving an expected gap
/// of exactly `mean_gap`: offered load against a service of capacity
/// one work unit per clock unit is `mean_cost / mean_gap`, so a 2×
/// overload schedule uses `mean_gap = mean_cost / 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    times: Vec<u64>,
}

impl ArrivalSchedule {
    /// Build `n` arrivals with the given seed and mean gap (≥ 1).
    pub fn open_loop(seed: u64, n: usize, mean_gap: u64) -> Self {
        let mean_gap = mean_gap.max(1);
        let mut t = 0u64;
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let gap = 1 + r % (2 * mean_gap - 1);
            t += gap;
            times.push(t);
        }
        ArrivalSchedule { times }
    }

    /// The arrival instants, strictly increasing.
    pub fn times(&self) -> &[u64] {
        &self.times
    }
}

// ---------------------------------------------------------------------------
// The virtual-time driver
// ---------------------------------------------------------------------------

/// `n` seeded query specs over `net`: sources, targets and 20-minute
/// morning leaving intervals drawn from `seed` by an MMIX LCG. Every
/// virtual-time scenario (the chaos suites and the bench twins) samples
/// its workload here, so equal seeds mean equal workloads across all of
/// them.
pub fn sample_specs(net: &roadnet::RoadNetwork, n: usize, seed: u64) -> Vec<QuerySpec> {
    let nodes = net.n_nodes() as u64;
    let mut x = seed ^ 0x0EE2_10AD;
    let mut lcg = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    (0..n)
        .map(|_| {
            let s = roadnet::NodeId((lcg() % nodes) as u32);
            let e = loop {
                let c = roadnet::NodeId((lcg() % nodes) as u32);
                if c != s {
                    break c;
                }
            };
            let lo = pwl::time::hm(6, 30) + (lcg() % 90) as f64;
            let leaving = pwl::Interval::of(lo, lo + 20.0);
            QuerySpec::new(s, e, leaving, traffic::DayCategory::WORKDAY)
        })
        .collect()
}

/// A bit-exact signature of an answer: partition bounds (as raw f64
/// bits) plus the node sequence of each sub-interval's fastest path.
pub type AnswerSig = Vec<(u64, u64, Vec<usize>)>;

/// Compute the [`AnswerSig`] of an answer.
pub fn answer_sig(a: &AllFpAnswer) -> AnswerSig {
    a.partition
        .iter()
        .map(|(iv, pi)| {
            (
                iv.lo().to_bits(),
                iv.hi().to_bits(),
                a.paths[*pi].nodes.iter().map(|n| n.index()).collect(),
            )
        })
        .collect()
}

/// A query mix with its calibrated costs — what a virtual-time
/// scenario offers the service, arrival after arrival.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The specs; arrival `i` asks `specs[i % specs.len()]`.
    pub specs: Vec<QuerySpec>,
    /// Work units (expansions, at least 1) of each spec, measured once
    /// on the calibration backend: identical data means identical
    /// costs on whatever backend then serves them.
    pub costs: Vec<u64>,
    /// Mean of `costs` (at least 1): the unit a scenario scales its
    /// arrival gap, deadlines and cooldowns by, so that virtual time
    /// means "work the service could have done".
    pub mean_cost: u64,
}

impl Workload {
    /// Answer every spec once on `backend` and record what it cost.
    pub fn calibrate<B: PathfindBackend + ?Sized>(
        backend: &B,
        specs: Vec<QuerySpec>,
    ) -> crate::Result<Workload> {
        let costs = specs
            .iter()
            .map(|q| backend.all_fastest_paths(q).map(|a| cost_of(&a.stats)))
            .collect::<crate::Result<Vec<u64>>>()?;
        let mean_cost = (costs.iter().sum::<u64>() / costs.len().max(1) as u64).max(1);
        Ok(Workload {
            specs,
            costs,
            mean_cost,
        })
    }

    /// The submission of arrival `arrival` offered at `now`: every
    /// fourth one batch class, due `deadline_slack` mean costs from
    /// now, hinted with its calibrated cost.
    pub fn submission(&self, arrival: usize, now: u64, deadline_slack: u64) -> Submission {
        let idx = arrival % self.specs.len();
        Submission::new(self.specs[idx].clone())
            .with_class(if arrival % 4 == 3 {
                Priority::Batch
            } else {
                Priority::Interactive
            })
            .with_deadline(now + deadline_slack * self.mean_cost)
            .with_cost_hint(self.costs[idx])
    }
}

/// What [`drive`] asks of a scenario: the submission of each arrival,
/// and optionally a stream of timed world events (a fault-plan switch,
/// a traffic delta) and bookkeeping hooks. An event-free scenario is
/// just its submission function — any `FnMut(arrival, now) ->
/// Submission` is one.
pub trait DriveScenario<B: PathfindBackend + ?Sized> {
    /// The submission of arrival number `arrival`, offered at `now`.
    fn submission(&mut self, arrival: usize, now: u64) -> Submission;

    /// When the next world event not yet fired is due, if one is left.
    fn next_event(&self) -> Option<u64> {
        None
    }

    /// Fire the event [`Self::next_event`] announced; `now` is at or
    /// past its instant. Events fire before an arrival of the same
    /// instant.
    fn fire_event(&mut self, _now: u64, _svc: &QueryService<'_, B>) {}

    /// Arrival `arrival` was admitted as `ticket`.
    fn admitted(&mut self, _arrival: usize, _ticket: TicketId) {}

    /// The service just executed one query.
    fn after_step(&mut self, _svc: &QueryService<'_, B>) {}
}

impl<B, F> DriveScenario<B> for F
where
    B: PathfindBackend + ?Sized,
    F: FnMut(usize, u64) -> Submission,
{
    fn submission(&mut self, arrival: usize, now: u64) -> Submission {
        self(arrival, now)
    }
}

/// What one [`drive`] run did, in a `PartialEq` shape so two runs of a
/// seed compare wholesale.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveLog {
    /// Work units executed across all steps.
    pub executed_units: u64,
    /// Final virtual time.
    pub elapsed: u64,
    /// `(arrival, rejection)` of every refused arrival, in order.
    pub rejected: Vec<(usize, Overloaded)>,
    /// The arrival each admitted ticket came from.
    pub arrival_of: HashMap<TicketId, usize>,
}

impl DriveLog {
    /// `executed_units / elapsed`: the share of the service's capacity
    /// (one work unit per clock unit) spent executing queries.
    pub fn goodput(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.executed_units as f64 / self.elapsed as f64
    }
}

/// Drive one service through one scenario in virtual time, on the
/// calling thread: fire every due event, offer every due arrival,
/// otherwise [`QueryService::step`] and advance `clock` by the step's
/// measured cost; when idle, jump to whichever of the next arrival and
/// the next event is due first; when both are exhausted, begin a
/// [`DrainMode::Finish`] drain and step the queue dry. Time is thereby
/// a pure function of the work done, and the whole run a pure function
/// of the seed that built `schedule` and `scenario`.
pub fn drive<B: PathfindBackend + ?Sized>(
    svc: &QueryService<'_, B>,
    clock: &ManualClock,
    schedule: &ArrivalSchedule,
    scenario: &mut impl DriveScenario<B>,
) -> DriveLog {
    let times = schedule.times();
    let mut log = DriveLog::default();
    let mut next = 0usize;
    loop {
        let now = clock.now();
        if scenario.next_event().is_some_and(|t| t <= now) {
            scenario.fire_event(now, svc);
        } else if times.get(next).is_some_and(|&t| t <= now) {
            match svc.submit(scenario.submission(next, now)) {
                Ok(ticket) => {
                    log.arrival_of.insert(ticket, next);
                    scenario.admitted(next, ticket);
                }
                Err(overloaded) => log.rejected.push((next, overloaded)),
            }
            next += 1;
        } else if let Some(rep) = svc.step() {
            log.executed_units += rep.cost;
            clock.advance(rep.cost);
            scenario.after_step(svc);
        } else if let Some(wake) = [times.get(next).copied(), scenario.next_event()]
            .into_iter()
            .flatten()
            .min()
        {
            // Idle: jump to whatever happens next.
            clock.set(wake);
        } else if svc.is_draining() {
            break;
        } else {
            // Nothing left to happen: stop admitting, step the queue
            // dry (the branch above), then leave.
            svc.begin_drain(DrainMode::Finish);
        }
    }
    log.elapsed = clock.now();
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_and_recovers() {
        let cfg = BreakerConfig {
            window: 4,
            trip_failures: 2,
            cooldown: 100,
            probe_successes: 2,
        };
        let mut b = CircuitBreaker::default();
        assert_eq!(b.route(0, &cfg), Route::Primary);
        b.on_primary(1, true, &cfg);
        assert_eq!(b.state, BreakerState::Closed);
        b.on_primary(2, true, &cfg);
        assert_eq!(b.state, BreakerState::Open);
        // During cooldown everything falls back.
        assert_eq!(b.route(50, &cfg), Route::Fallback);
        // Cooldown over: exactly one probe at a time.
        assert_eq!(b.route(102, &cfg), Route::Probe);
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.route(103, &cfg), Route::Fallback);
        // Failed probe re-opens.
        b.on_probe(104, true, &cfg);
        assert_eq!(b.state, BreakerState::Open);
        // Recover: cooldown, then two successful probes.
        assert_eq!(b.route(204, &cfg), Route::Probe);
        b.on_probe(205, false, &cfg);
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(b.route(206, &cfg), Route::Probe);
        b.on_probe(207, false, &cfg);
        assert_eq!(b.state, BreakerState::Closed);
        let states: Vec<BreakerState> = b.transitions.iter().map(|&(_, s)| s).collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed,
            ]
        );
    }

    #[test]
    fn breaker_window_slides() {
        let cfg = BreakerConfig {
            window: 4,
            trip_failures: 3,
            cooldown: 100,
            probe_successes: 1,
        };
        let mut b = CircuitBreaker::default();
        // Two faults diluted by successes never trip a 3-of-4 window.
        for i in 0..20u64 {
            b.on_primary(i, i % 2 == 0, &cfg);
        }
        assert_eq!(b.state, BreakerState::Closed);
        // Three faults back to back do.
        for i in 20..23u64 {
            b.on_primary(i, true, &cfg);
        }
        assert_eq!(b.state, BreakerState::Open);
    }

    /// Drive one breaker through `trips` open/probe cycles and return
    /// the clock at which each half-open probe was admitted.
    fn probe_times(cfg: &BreakerConfig, trips: usize) -> Vec<u64> {
        let mut b = CircuitBreaker::default();
        let mut now = 0u64;
        let mut times = Vec::new();
        for _ in 0..trips {
            // Trip it.
            while b.state != BreakerState::Open {
                now += 1;
                b.on_primary(now, true, cfg);
            }
            // Poll every clock unit until the probe is admitted.
            loop {
                now += 1;
                if b.route(now, cfg) == Route::Probe {
                    times.push(now);
                    break;
                }
            }
            // Fail the probe so the next iteration re-trips cleanly.
            b.on_probe(now, true, cfg);
        }
        times
    }

    #[test]
    fn probes_come_exactly_one_cooldown_after_each_trip() {
        let cfg = BreakerConfig {
            window: 2,
            trip_failures: 2,
            cooldown: 100,
            probe_successes: 1,
        };
        let mut b = CircuitBreaker::default();
        b.on_primary(1, true, &cfg);
        b.on_primary(2, true, &cfg);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.route(101, &cfg), Route::Fallback);
        assert_eq!(b.route(102, &cfg), Route::Probe);

        // After a failed probe at `t` the breaker re-opens with
        // `opened_at = t`, so consecutive probe gaps are exactly the
        // cooldown.
        let times = probe_times(&cfg, 4);
        for gap in times.windows(2).map(|w| w[1] - w[0]) {
            assert_eq!(gap, cfg.cooldown);
        }
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = LatencyHistogram::default();
        for v in [0u64, 1, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1011.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1); // {0}
        assert_eq!(h.buckets()[1], 2); // [1,2)
        assert_eq!(h.buckets()[2], 2); // [2,4)
        assert_eq!(h.buckets()[3], 1); // [4,8)
        assert_eq!(h.buckets()[10], 1); // [512,1024)
    }

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
        let c = ManualClock::new();
        c.advance(5);
        c.set(3); // never backwards
        assert_eq!(c.now(), 5);
        c.set(9);
        assert_eq!(c.now(), 9);
    }

    /// The substrate of the recorded `fpbench` overload and
    /// live-update runs (`experiments overload` / `update-storm` at
    /// seed 0x5EED): ten seeded specs on a 6×6 grid, calibrated on a
    /// flat engine of the default configuration (both runs were
    /// re-recorded when that became minTimeLB).
    const TWIN_SEED: u64 = 0x5EED;

    fn twin_net() -> roadnet::RoadNetwork {
        roadnet::generators::grid(6, 6, 0.3, traffic::RoadClass::LocalOutside).unwrap()
    }

    fn twin_load(net: &roadnet::RoadNetwork) -> Workload {
        let calib = Engine::new(net, crate::EngineConfig::default()).unwrap();
        Workload::calibrate(&calib, sample_specs(net, 10, TWIN_SEED)).unwrap()
    }

    /// ...and their service: a 10-deep queue offered 100 arrivals at
    /// twice its capacity.
    fn twin_service(load: &Workload) -> (ServiceConfig, ArrivalSchedule) {
        let config = ServiceConfig {
            queue_capacity: 10,
            default_cost: load.mean_cost,
            ..ServiceConfig::default()
        };
        let gap = (load.mean_cost / 2).max(1);
        (
            config,
            ArrivalSchedule::open_loop(TWIN_SEED ^ 0x0F_F3_4D, 100, gap),
        )
    }

    /// An event-free scenario reproduces the recorded overload block.
    #[test]
    fn drive_replays_the_recorded_overload_run() {
        let net = twin_net();
        let load = twin_load(&net);
        let (config, schedule) = twin_service(&load);
        let engine = Engine::new(&net, crate::EngineConfig::default()).unwrap();
        let clock = ManualClock::new();
        let svc = QueryService::new(&engine, &clock, config);
        let log = drive(&svc, &clock, &schedule, &mut |arrival, now| {
            load.submission(arrival, now, 5)
        });
        let s = svc.stats();
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(
            (s.admitted, s.rejected, s.answered, s.degraded, s.shed),
            (45, 55, 36, 0, 9)
        );
        assert_eq!(s.queue_depth_high_water, 8);
        assert_eq!((log.arrival_of.len(), log.rejected.len()), (45, 55));
        assert_eq!(format!("{:.4}", log.goodput()), "0.9884");
    }

    /// Eight seeded deltas as timed events, spread evenly over the
    /// arrival window.
    struct DeltaStream<'a> {
        load: &'a Workload,
        mgr: &'a EpochManager,
        times: Vec<u64>,
        applied: usize,
    }

    impl<'b> DriveScenario<crate::LiveBackend<'b>> for DeltaStream<'_> {
        fn submission(&mut self, arrival: usize, now: u64) -> Submission {
            self.load.submission(arrival, now, 5)
        }

        fn next_event(&self) -> Option<u64> {
            self.times.get(self.applied).copied()
        }

        fn fire_event(&mut self, now: u64, _svc: &QueryService<'_, crate::LiveBackend<'b>>) {
            assert!(self.times[self.applied] <= now, "event fired early");
            let k = self.applied as u64;
            let net = std::sync::Arc::clone(self.mgr.current().network());
            let delta = net.seeded_delta(TWIN_SEED ^ k, 4, k + 1).unwrap();
            self.mgr.apply_delta(&delta).unwrap();
            self.applied += 1;
        }
    }

    /// A delta stream reproduces the recorded live-update block, and
    /// the same seed the same log.
    #[test]
    fn drive_replays_the_recorded_update_storm() {
        let run = || {
            let net = twin_net();
            let load = twin_load(&net);
            let (config, schedule) = twin_service(&load);
            let mgr = EpochManager::new(net, crate::EngineConfig::default()).unwrap();
            let live = crate::LiveBackend::new(&mgr);
            let clock = ManualClock::new();
            let svc = QueryService::new(&live, &clock, config).with_epochs(&mgr);
            let horizon = *schedule.times().last().unwrap();
            let mut stream = DeltaStream {
                load: &load,
                mgr: &mgr,
                times: (1..=8).map(|k| k * horizon / 9).collect(),
                applied: 0,
            };
            let log = drive(&svc, &clock, &schedule, &mut stream);
            (svc.stats(), log)
        };
        let (s, log) = run();
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(
            (s.submitted, s.updates_applied, s.epochs_published),
            (100, 8, 9)
        );
        assert_eq!((s.epochs_retired, s.epoch_retire_lag), (8, 0));
        assert_eq!(format!("{:.4}", log.goodput()), "0.9877");
        assert_eq!(run(), (s, log), "same seed, different run");
    }
}
