//! Deterministic overload harness for the report; its gates are this
//! module's tests.
//!
//! Drives a [`QueryService`] at a seeded 2× offered load in virtual
//! time ([`ManualClock`] advanced by measured work units), with tight
//! per-submission deadlines so every overload mechanism — typed
//! admission rejections, queue-head deadline sheds, priority classes —
//! actually fires. No storage faults here: the chaos composition lives
//! in `fp-allfp`'s `tests/overload.rs`; this runner measures the
//! steady-state shedding behavior the report tracks over time.
//!
//! The simulation is a pure function of the seed, and [`run`] executes
//! it twice to certify that (the `deterministic` field of the report —
//! a CI gate, not an aspiration).

use allfp::service::{
    drive, sample_specs, ArrivalSchedule, DriveLog, ManualClock, QueryService, ServiceConfig,
    ServiceStats, TicketId, Workload,
};
use allfp::{Engine, EngineConfig, PathfindBackend};
use roadnet::generators::grid;
use traffic::RoadClass;

use crate::report::{float, Field, Table};
use crate::scenario::BackendKind;

/// What one overload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Which backend served the queries (`"flat"` or `"ch"`).
    pub backend: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Total submissions offered.
    pub submissions: usize,
    /// The service's final counters.
    pub stats: ServiceStats,
    /// Executed work units over elapsed virtual time: the fraction of
    /// capacity the service kept on useful work while shedding the
    /// excess.
    pub goodput_ratio: f64,
    /// Did a second run of the same seed reproduce the run, outcome
    /// for outcome?
    pub deterministic: bool,
}

impl OverloadReport {
    /// The report's fields, in table order.
    pub fn fields(&self) -> Vec<Field> {
        let s = &self.stats;
        vec![
            ("seed", self.seed.into()),
            ("submissions", self.submissions.into()),
            ("offered_ratio", float(OFFERED_RATIO, 1)),
            ("queue_capacity", QUEUE_CAPACITY.into()),
            ("queue_depth_high_water", s.queue_depth_high_water.into()),
            ("admitted", s.admitted.into()),
            ("rejected", s.rejected.into()),
            ("answered", s.answered.into()),
            ("degraded", s.degraded.into()),
            ("shed", s.shed.into()),
            ("goodput_ratio", float(self.goodput_ratio, 4)),
            ("reconciled", s.reconciles().into()),
            ("deterministic", self.deterministic.into()),
        ]
    }
}

/// One virtual-time run's comparable residue: final stats, the
/// terminal outcome kind of every ticket in completion order, and the
/// driver's log.
#[derive(Debug, PartialEq)]
pub(crate) struct Residue {
    pub(crate) stats: ServiceStats,
    terminals: Vec<(TicketId, &'static str)>,
    pub(crate) log: DriveLog,
}

impl Residue {
    /// Take the residue of a finished [`drive`].
    pub(crate) fn of<B: PathfindBackend + ?Sized>(
        svc: &QueryService<'_, B>,
        log: DriveLog,
    ) -> Self {
        let terminals = svc.take_outcomes();
        Residue {
            stats: svc.stats(),
            terminals: terminals.iter().map(|(id, o)| (*id, o.kind())).collect(),
            log,
        }
    }
}

pub(crate) const QUEUE_CAPACITY: usize = 10;
const OFFERED_RATIO: f64 = 2.0;

fn simulate(seed: u64, submissions: usize, backend: BackendKind) -> Residue {
    let net = grid(6, 6, 0.3, RoadClass::LocalOutside).expect("generator is infallible here");
    let engine = backend
        .wrap(Engine::new(&net, EngineConfig::default()).expect("estimator builds"))
        .expect("backend builds");
    let engine = engine.as_ref();

    // Calibrated work units (expansions) per spec keep arrival pacing
    // and admission estimates honest.
    let load = Workload::calibrate(engine, sample_specs(&net, 10, seed)).expect("specs answer");
    let clock = ManualClock::new();
    let config = ServiceConfig {
        queue_capacity: QUEUE_CAPACITY,
        default_cost: load.mean_cost,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(engine, &clock, config);

    // Service capacity is one work unit per clock unit; a mean gap of
    // `mean_cost / OFFERED_RATIO` offers twice that.
    let gap = ((load.mean_cost as f64 / OFFERED_RATIO) as u64).max(1);
    let schedule = ArrivalSchedule::open_loop(seed ^ 0x0F_F3_4D, submissions, gap);
    let log = drive(&svc, &clock, &schedule, &mut |arrival, now| {
        load.submission(arrival, now, 5)
    });
    Residue::of(&svc, log)
}

/// Run the seeded overload scenario (twice, to certify determinism) on
/// `backend` and fold it into an [`OverloadReport`]: the service-level
/// promises (bounded queue, typed rejections, deterministic replay)
/// must hold regardless of search strategy.
pub fn run(seed: u64, submissions: usize, backend: BackendKind) -> OverloadReport {
    let a = simulate(seed, submissions, backend);
    let deterministic = a == simulate(seed, submissions, backend);
    OverloadReport {
        backend: backend.label(),
        seed,
        submissions,
        goodput_ratio: a.log.goodput(),
        stats: a.stats,
        deterministic,
    }
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &OverloadReport) -> Table {
    let title = format!(
        "Overload twin - seeded {OFFERED_RATIO}x open-loop overload in virtual time ({} backend)",
        r.backend
    );
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The service-level promises the admission and shedding machinery
    /// exists for, on this module's own seed and on the recorded one
    /// (`experiments overload`'s default).
    #[test]
    fn overload_run_is_reconciled_and_deterministic() {
        for (seed, submissions) in [(0x0BAD_10AD, 80), (0x5EED, 100)] {
            let r = run(seed, submissions, BackendKind::Flat);
            let s = &r.stats;
            assert!(s.reconciles());
            assert!(r.deterministic);
            assert!(s.rejected > 0, "2x overload must reject: {r:?}");
            assert!(s.shed > 0, "tight deadlines must shed: {r:?}");
            assert!(s.queue_depth_high_water <= QUEUE_CAPACITY);
            assert!((0.4..=1.0).contains(&r.goodput_ratio), "{r:?}");
            assert_eq!(
                s.admitted + s.rejected,
                r.submissions as u64,
                "every submission accounted for: {r:?}"
            );
        }
    }

    #[test]
    fn overload_holds_on_the_hierarchy_backend() {
        let r = run(0x0BAD_10AD, 60, BackendKind::Ch);
        let s = &r.stats;
        assert_eq!(r.backend, "ch");
        assert!(s.reconciles(), "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert!(s.queue_depth_high_water <= QUEUE_CAPACITY, "{r:?}");
        assert_eq!(s.admitted + s.rejected, r.submissions as u64, "{r:?}");
    }
}
