//! Deterministic live-update harness for the report; its gates are
//! this module's tests.
//!
//! Two halves, both pure functions of the seed:
//!
//! * **Scoped invalidation** — build the metro-medium hierarchy with
//!   exact overlay storage, apply a seeded 1%-of-edges
//!   [`traffic::TrafficDelta`], and measure the incremental refresh:
//!   wall time and the fraction of shortcut arcs whose composition
//!   cone the delta touched (everything else is reused verbatim). The
//!   report gates this fraction under 20%.
//! * **Goodput under storm** — a virtual-time `QueryService` over an
//!   epoch-pinned [`allfp::LiveBackend`] at a seeded 2× offered load
//!   while a stream of deltas swaps epochs mid-flight; the service
//!   must keep ≥ half of capacity on useful work, reconcile every
//!   counter (including the epoch identities), and replay the run
//!   bit-identically.

use allfp::service::{
    drive, sample_specs, ArrivalSchedule, DriveScenario, ManualClock, QueryService, ServiceConfig,
    ServiceStats, Submission, Workload,
};
use allfp::{Engine, EngineConfig, EpochManager, LiveBackend};
use hierarchy::{HierarchyConfig, HierarchyEngine, RefreshReport};
use roadnet::generators::grid;
use traffic::RoadClass;

use crate::overload::{Residue, QUEUE_CAPACITY};
use crate::report::{float, Field, Table};
use crate::scenario::{Scale, Scenario};

/// What one live-update run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveUpdateReport {
    /// Scenario seed.
    pub seed: u64,
    /// Edges in the metro-medium refresh network.
    pub n_edges: usize,
    /// Edges the seeded delta targeted (~1%).
    pub delta_edges: usize,
    /// Wall seconds of the full from-scratch hierarchy build.
    pub build_wall_seconds: f64,
    /// The incremental refresh: its wall and the shortcut arcs it had
    /// to re-compose, of how many (report gate: under a fifth, for a
    /// 1% delta).
    pub refresh: RefreshReport,
    /// Submissions offered to the storm half.
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
    /// The report's fields, in `BENCH_engine.json` order.
    pub fn fields(&self) -> Vec<Field> {
        let (rr, s) = (&self.refresh, &self.stats);
        vec![
            ("seed", self.seed.into()),
            ("scale", "medium".into()),
            ("n_edges", self.n_edges.into()),
            ("delta_edges", self.delta_edges.into()),
            ("shortcuts_total", rr.shortcuts_total.into()),
            ("shortcuts_rebuilt", rr.shortcuts_rebuilt.into()),
            (
                "invalidation_fraction",
                float(rr.invalidation_fraction(), 4),
            ),
            (
                "refresh_wall_seconds",
                float(rr.refresh_wall.as_secs_f64(), 4),
            ),
            ("build_wall_seconds", float(self.build_wall_seconds, 3)),
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

/// Run both halves: the metro-medium scoped-invalidation measurement
/// and the seeded update storm (twice, to certify determinism).
pub fn run(seed: u64, submissions: usize, deltas: usize) -> LiveUpdateReport {
    // Scoped invalidation on metro-medium.
    let scenario = Scenario::new(Scale::Medium, seed);
    let net = &scenario.net;
    let ch = HierarchyEngine::build(net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy builds on the scenario network");

    let delta_edges = (net.n_edges() / 100).max(1);
    let delta = net
        .seeded_delta(seed ^ 0xD17A, delta_edges, 1)
        .expect("seeded delta builds");
    let (net2, delta_report) = net.apply_delta(&delta).expect("delta applies");
    let (_, refresh) = ch
        .refreshed(
            Engine::new(&net2, EngineConfig::default()).expect("estimator builds"),
            &delta_report.changed,
        )
        .expect("refresh succeeds on exact storage");

    // The storm half, twice.
    let a = storm_sim(seed, submissions, deltas);
    let deterministic = a == storm_sim(seed, submissions, deltas);
    LiveUpdateReport {
        seed,
        n_edges: net.n_edges(),
        delta_edges,
        build_wall_seconds: ch.report().build_wall.as_secs_f64(),
        refresh,
        submissions,
        goodput_ratio: a.log.goodput(),
        stats: a.stats,
        deterministic,
    }
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &LiveUpdateReport) -> Table {
    let title = format!(
        "Live update - medium refresh + seeded update storm (seed {:#x})",
        r.seed
    );
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scoped-invalidation and goodput promises, on this module's
    /// own seed and on the run `BENCH_engine.json` records.
    #[test]
    fn live_update_run_hits_the_report_gates() {
        for (seed, submissions, deltas) in [(0x11FE, 80, 6), (0x5EED, 100, 8)] {
            let r = run(seed, submissions, deltas);
            assert!(r.stats.reconciles(), "{r:?}");
            assert!(r.deterministic, "{r:?}");
            assert_eq!(r.stats.updates_applied, deltas as u64, "{r:?}");
            assert_eq!(r.stats.epochs_published, deltas as u64 + 1, "{r:?}");
            assert!(
                r.refresh.invalidation_fraction() < 0.20,
                "1% delta rebuilt {:.1}% of shortcuts",
                r.refresh.invalidation_fraction() * 100.0
            );
            assert!(
                r.refresh.shortcuts_rebuilt > 0,
                "delta touched no cone: {r:?}"
            );
            assert!(
                r.refresh.refresh_wall.as_secs_f64() < r.build_wall_seconds,
                "refresh slower than a full rebuild: {r:?}"
            );
            assert!((0.5..=1.0).contains(&r.goodput_ratio), "{r:?}");
        }
    }
}
