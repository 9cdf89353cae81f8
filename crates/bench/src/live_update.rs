//! Deterministic live-update harness for the report; its gates are
//! this module's tests.
//!
//! **Goodput under storm**, a pure function of the seed: a virtual-time
//! `QueryService` over an epoch-pinned [`allfp::LiveBackend`] at a
//! seeded 2× offered load while a stream of deltas swaps epochs
//! mid-flight; the service must keep ≥ half of capacity on useful work,
//! reconcile every counter (including the epoch identities), and replay
//! the run bit-identically.

use allfp::service::{
    drive, sample_specs, ArrivalSchedule, DriveScenario, ManualClock, QueryService, ServiceConfig,
    ServiceStats, Submission, Workload,
};
use allfp::{Engine, EngineConfig, EpochManager, LiveBackend};
use roadnet::generators::grid;
use traffic::RoadClass;

use crate::overload::{Residue, QUEUE_CAPACITY};
use crate::report::{float, Field, Table};

/// What one live-update run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveUpdateReport {
    /// Scenario seed.
    pub seed: u64,
    /// Submissions offered to the storm.
    pub submissions: usize,
    /// The storm service's final counters, epoch counters included.
    pub stats: ServiceStats,
    /// `executed_units / elapsed_units` under the storm (report gate:
    /// ≥ 0.5).
    pub goodput_ratio: f64,
    /// Did a second run of the same seed reproduce the storm, outcome
    /// for outcome?
    pub deterministic: bool,
}

impl LiveUpdateReport {
    /// The report's fields, in table order.
    pub fn fields(&self) -> Vec<Field> {
        let s = &self.stats;
        vec![
            ("seed", self.seed.into()),
            ("submissions", self.submissions.into()),
            ("updates_applied", s.updates_applied.into()),
            ("epochs_published", s.epochs_published.into()),
            ("epochs_retired", s.epochs_retired.into()),
            ("goodput_ratio", float(self.goodput_ratio, 4)),
            ("reconciled", s.reconciles().into()),
            ("deterministic", self.deterministic.into()),
        ]
    }
}

/// The overload twin's open-loop workload plus a stream of seeded
/// traffic deltas, each swapping in a new epoch mid-flight.
struct DeltaStream<'a> {
    seed: u64,
    load: &'a Workload,
    mgr: &'a EpochManager,
    /// When each delta lands; `applied` of them have.
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

    fn fire_event(&mut self, _now: u64, _svc: &QueryService<'_, LiveBackend<'b>>) {
        let k = self.applied as u64;
        let delta = self
            .mgr
            .current()
            .network()
            .seeded_delta(self.seed ^ k, 4, k + 1)
            .expect("seeded delta builds");
        self.mgr.apply_delta(&delta).expect("delta applies");
        self.applied += 1;
    }
}

fn storm_sim(seed: u64, submissions: usize, deltas: usize) -> Residue {
    let net = grid(6, 6, 0.3, RoadClass::LocalOutside).expect("generator is infallible here");
    let load = Workload::calibrate(
        &Engine::new(&net, EngineConfig::default()).expect("estimator builds"),
        sample_specs(&net, 10, seed),
    )
    .expect("specs answer");

    let mgr = EpochManager::new(net, EngineConfig::default()).expect("seed epoch builds");
    let live = LiveBackend::new(&mgr);
    let clock = ManualClock::new();
    let config = ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        default_cost: load.mean_cost,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&live, &clock, config).with_epochs(&mgr);

    let gap = (load.mean_cost / 2).max(1);
    let schedule = ArrivalSchedule::open_loop(seed ^ 0x0F_F3_4D, submissions, gap);
    let horizon = *schedule.times().last().expect("non-empty schedule");
    let mut stream = DeltaStream {
        seed,
        load: &load,
        mgr: &mgr,
        times: (1..=deltas as u64)
            .map(|k| k * horizon / (deltas as u64 + 1))
            .collect(),
        applied: 0,
    };
    let log = drive(&svc, &clock, &schedule, &mut stream);
    Residue::of(&svc, log)
}

/// Run the seeded update storm, twice, to certify determinism.
pub fn run(seed: u64, submissions: usize, deltas: usize) -> LiveUpdateReport {
    let a = storm_sim(seed, submissions, deltas);
    let deterministic = a == storm_sim(seed, submissions, deltas);
    LiveUpdateReport {
        seed,
        submissions,
        goodput_ratio: a.log.goodput(),
        stats: a.stats,
        deterministic,
    }
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &LiveUpdateReport) -> Table {
    let title = format!("Live update - seeded update storm (seed {:#x})", r.seed);
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The goodput promise, on this module's own seed and on the
    /// recorded run (`experiments update-storm`'s defaults).
    #[test]
    fn live_update_run_hits_the_report_gates() {
        for (seed, submissions, deltas) in [(0x11FE, 80, 6), (0x5EED, 100, 8)] {
            let r = run(seed, submissions, deltas);
            assert!(r.stats.reconciles(), "{r:?}");
            assert!(r.deterministic, "{r:?}");
            assert_eq!(r.stats.updates_applied, deltas as u64, "{r:?}");
            assert_eq!(r.stats.epochs_published, deltas as u64 + 1, "{r:?}");
            assert!((0.5..=1.0).contains(&r.goodput_ratio), "{r:?}");
        }
    }
}
