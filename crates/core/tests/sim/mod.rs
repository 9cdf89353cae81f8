//! The virtual-time harness the two chaos suites share (`overload.rs`
//! and `update_storm.rs` each load it with `mod sim;`).
//!
//! A [`QueryService`] decides everything on time through its
//! [`ServiceClock`]. Here that clock is a [`ManualClock`] that [`drive`]
//! advances by each completed query's measured work units, so a whole
//! overload scenario (arrivals, sheds, breaker trips, epoch swaps)
//! replays bit-identically from a seed. A scenario supplies what it
//! differs in through [`DriveScenario`]; the arrivals come from a seeded
//! [`ArrivalSchedule`] and the queries from [`sample_specs`], costed once
//! by [`Workload::calibrate`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use allfp::service::{
    DrainMode, Overloaded, Priority, QueryService, ServiceClock, ServiceConfig, ServiceOutcome,
    Submission, TicketId,
};
use allfp::{AllFpAnswer, Engine, EngineConfig, PathfindBackend, QuerySpec};
use roadnet::RoadNetwork;

/// A manually advanced clock, at time 0 by default: [`drive`] advances
/// it by each completed query's measured work units, so "time" is a
/// pure function of the workload.
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
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

/// A seeded open-loop arrival schedule: strictly increasing arrival
/// times in clock units, every gap a SplitMix64 hash of `(seed,
/// index)`, integer arithmetic only, so a schedule replays
/// bit-identically.
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
        for i in 0..n as u64 {
            // SplitMix64 of `(seed, i)`: random access, no generator state.
            let mut z =
                (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            t += 1 + (z ^ (z >> 31)) % (2 * mean_gap - 1);
            times.push(t);
        }
        ArrivalSchedule { times }
    }

    /// The arrival instants, strictly increasing.
    pub fn times(&self) -> &[u64] {
        &self.times
    }
}

/// `n` seeded query specs over `net`: sources, targets and 20-minute
/// morning leaving intervals drawn from `seed` by an MMIX LCG. Every
/// virtual-time scenario samples its workload here, so equal seeds mean
/// equal workloads across all of them.
pub fn sample_specs(net: &RoadNetwork, n: usize, seed: u64) -> Vec<QuerySpec> {
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

/// A recorded terminal outcome's ticket and kind, with the reason of a
/// degradation or cancellation appended (`degraded:StorageUnavailable`,
/// `cancelled:ShedExpired`): the form replays are compared in.
pub fn label((id, outcome): &(TicketId, ServiceOutcome)) -> (TicketId, String) {
    let label = match outcome {
        ServiceOutcome::Answered(_) => "answered".to_string(),
        ServiceOutcome::Degraded(d) => format!("degraded:{:?}", d.reason),
        ServiceOutcome::Failed(_) => "failed".to_string(),
        ServiceOutcome::Cancelled(r) => format!("cancelled:{r:?}"),
    };
    (*id, label)
}

/// A query mix with its calibrated costs: what a virtual-time scenario
/// offers the service, arrival after arrival.
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
    /// Answer every spec once on `backend` and record what it cost, in
    /// the units a `StepReport` measures.
    pub fn calibrate<B: PathfindBackend + ?Sized>(backend: &B, specs: Vec<QuerySpec>) -> Self {
        let costs: Vec<u64> = specs
            .iter()
            .map(|q| {
                let a = backend.all_fastest_paths(q).expect("calibration query");
                (a.stats.expanded_paths as u64).max(1)
            })
            .collect();
        let mean_cost = (costs.iter().sum::<u64>() / costs.len().max(1) as u64).max(1);
        Workload {
            specs,
            costs,
            mean_cost,
        }
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

/// The substrate of the recorded replays (`drive_replays_*`) at
/// `seed`: a 6×6 grid, ten seeded specs calibrated on a default flat
/// engine, a 10-deep queue, and `arrivals` arrivals offered at twice
/// its capacity.
pub fn recorded_setup(
    seed: u64,
    arrivals: usize,
) -> (RoadNetwork, Workload, ServiceConfig, ArrivalSchedule) {
    let net = roadnet::generators::grid(6, 6, 0.3, traffic::RoadClass::LocalOutside).unwrap();
    let load = Workload::calibrate(
        &Engine::new(&net, EngineConfig::default()).unwrap(),
        sample_specs(&net, 10, seed),
    );
    let config = ServiceConfig {
        queue_capacity: 10,
        default_cost: load.mean_cost,
        ..ServiceConfig::default()
    };
    let gap = (load.mean_cost / 2).max(1);
    let schedule = ArrivalSchedule::open_loop(seed ^ 0x0F_F3_4D, arrivals, gap);
    (net, load, config, schedule)
}

/// What [`drive`] asks of a scenario: the submission of each arrival,
/// and optionally a stream of timed world events (a fault-plan switch,
/// a traffic delta) and bookkeeping hooks. An event-free scenario is
/// just its submission function: any `FnMut(arrival, now) ->
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

/// Every arrival of a [`drive`] run resolved exactly once: refused at
/// admission, or admitted with exactly one terminal outcome in
/// `terminal` (`(ticket, label)` in completion order).
pub fn assert_each_arrival_resolves_once(
    log: &DriveLog,
    terminal: &[(TicketId, String)],
    arrivals: usize,
) {
    let resolved: HashSet<TicketId> = terminal.iter().map(|(id, _)| *id).collect();
    assert_eq!(resolved.len(), terminal.len(), "a ticket resolved twice");
    let admitted: HashSet<TicketId> = log.arrival_of.keys().copied().collect();
    assert_eq!(resolved, admitted, "an admitted ticket never resolved");
    assert_eq!(
        log.rejected.len() + admitted.len(),
        arrivals,
        "arrivals leaked"
    );
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
