//! Deterministic live-update harness for the report and smoke gates.
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

use std::time::Instant;

use allfp::service::{
    ArrivalSchedule, DrainMode, ManualClock, Priority, QueryService, ServiceClock, ServiceConfig,
    ServiceOutcome, ServiceStats, Submission,
};
use allfp::{Engine, EngineConfig, EpochManager, LiveBackend};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use roadnet::generators::grid;
use traffic::RoadClass;

use crate::report::Table;
use crate::scenario::{Scale, Scenario};

/// What one live-update run produced, in report-ready form.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveUpdateReport {
    /// Scenario seed.
    pub seed: u64,
    /// Scale label of the refresh substrate.
    pub scale: &'static str,
    /// Edges in the refresh network.
    pub n_edges: usize,
    /// Edges the seeded delta targeted (~1%).
    pub delta_edges: usize,
    /// Shortcut arcs in the overlay.
    pub shortcuts_total: usize,
    /// Shortcut arcs the refresh had to re-compose.
    pub shortcuts_rebuilt: usize,
    /// `shortcuts_rebuilt / shortcuts_total` — the scoped-invalidation
    /// metric (report gate: < 0.20 for a 1% delta).
    pub invalidation_fraction: f64,
    /// Wall seconds of the full from-scratch hierarchy build.
    pub build_wall_seconds: f64,
    /// Wall seconds of the incremental refresh.
    pub refresh_wall_seconds: f64,
    /// Submissions offered to the storm half.
    pub submissions: usize,
    /// Deltas applied during the storm.
    pub updates_applied: u64,
    /// Epochs published (seed + one per update).
    pub epochs_published: u64,
    /// Superseded epochs retired by the end of the run.
    pub epochs_retired: u64,
    /// Exact answers delivered under the storm.
    pub answered: u64,
    /// Typed admission rejections under the 2× load.
    pub rejected: u64,
    /// `executed_units / elapsed_units` under the storm (report gate:
    /// ≥ 0.5).
    pub goodput_ratio: f64,
    /// Did every counter identity hold at the end of the run?
    pub reconciled: bool,
    /// Did a second run of the same seed reproduce the storm, outcome
    /// for outcome?
    pub deterministic: bool,
}

/// One storm run's comparable residue.
#[derive(Debug, PartialEq)]
struct SimOutcome {
    stats: ServiceStats,
    terminals: Vec<(u64, &'static str)>,
    executed_units: u64,
    elapsed: u64,
}

fn storm_sim(seed: u64, submissions: usize, deltas: usize) -> SimOutcome {
    let net = grid(6, 6, 0.3, RoadClass::LocalOutside).expect("generator is infallible here");
    let specs = crate::overload::sample_specs(&net, 10, seed);
    let costs: Vec<u64> = {
        let calib = Engine::new(&net, EngineConfig::default());
        specs
            .iter()
            .map(|q| {
                calib
                    .all_fastest_paths(q)
                    .map(|a| a.stats.expanded_paths.max(1) as u64)
                    .unwrap_or(1)
            })
            .collect()
    };
    let mean_cost = (costs.iter().sum::<u64>() / costs.len() as u64).max(1);

    let mgr = EpochManager::new(net, EngineConfig::default()).expect("seed epoch builds");
    let live = LiveBackend::new(&mgr);
    let clock = ManualClock::new();
    let config = ServiceConfig {
        queue_capacity: 10,
        shed_expired: true,
        default_cost: mean_cost,
        initial_units_per_cost: 1.0,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(&live, &clock, config).with_epochs(&mgr);

    let gap = (mean_cost / 2).max(1);
    let schedule = ArrivalSchedule::open_loop(seed ^ 0x0F_F3_4D, submissions, gap);
    let horizon = *schedule.times().last().expect("non-empty schedule");
    let delta_times: Vec<u64> = (1..=deltas as u64)
        .map(|k| k * horizon / (deltas as u64 + 1))
        .collect();

    let mut executed_units = 0u64;
    let mut next = 0usize;
    let mut next_delta = 0usize;
    loop {
        let now = clock.now();
        if next_delta < delta_times.len() && delta_times[next_delta] <= now {
            let delta = mgr
                .current()
                .network()
                .seeded_delta(seed ^ (next_delta as u64), 4, next_delta as u64 + 1)
                .expect("seeded delta builds");
            mgr.apply_delta(&delta).expect("delta applies");
            next_delta += 1;
            continue;
        }
        if next < schedule.len() && schedule.times()[next] <= now {
            let idx = next % specs.len();
            let sub = Submission::new(specs[idx].clone())
                .with_class(if next % 4 == 3 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                })
                .with_deadline(now + 5 * mean_cost)
                .with_cost_hint(costs[idx]);
            let _ = svc.submit(sub);
            next += 1;
            continue;
        }
        match svc.step() {
            Some(rep) => {
                executed_units += rep.cost;
                clock.advance(rep.cost);
            }
            None => {
                if next >= schedule.len() && next_delta >= delta_times.len() {
                    break;
                }
                let mut jump = u64::MAX;
                if next < schedule.len() {
                    jump = jump.min(schedule.times()[next]);
                }
                if next_delta < delta_times.len() {
                    jump = jump.min(delta_times[next_delta]);
                }
                clock.set(jump);
            }
        }
    }
    svc.begin_drain(DrainMode::Finish);
    while let Some(rep) = svc.step() {
        executed_units += rep.cost;
        clock.advance(rep.cost);
    }

    let terminals = svc
        .take_outcomes()
        .iter()
        .map(|(id, out)| {
            (
                *id,
                match out {
                    ServiceOutcome::Answered(_) => "answered",
                    ServiceOutcome::Degraded(_) => "degraded",
                    ServiceOutcome::Failed(_) => "failed",
                    ServiceOutcome::Cancelled(_) => "cancelled",
                },
            )
        })
        .collect();
    SimOutcome {
        stats: svc.stats(),
        terminals,
        executed_units,
        elapsed: clock.now(),
    }
}

/// Run both halves: the metro-medium scoped-invalidation measurement
/// and the seeded update storm (twice, to certify determinism).
pub fn run(seed: u64, submissions: usize, deltas: usize) -> LiveUpdateReport {
    // Scoped invalidation on metro-medium.
    let scenario = Scenario::new(Scale::Medium, seed);
    let net = &scenario.net;
    let t0 = Instant::now();
    let ch = HierarchyEngine::build(net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy builds on the scenario network");
    let build_wall_seconds = t0.elapsed().as_secs_f64();

    let delta_edges = (net.n_edges() / 100).max(1);
    let delta = net
        .seeded_delta(seed ^ 0xD17A, delta_edges, 1)
        .expect("seeded delta builds");
    let (net2, delta_report) = net.apply_delta(&delta).expect("delta applies");
    let t0 = Instant::now();
    let (_, rr) = ch
        .refreshed(
            Engine::new(&net2, EngineConfig::default()),
            &delta_report.changed,
        )
        .expect("refresh succeeds on exact storage");
    let refresh_wall_seconds = t0.elapsed().as_secs_f64();

    // The storm half, twice.
    let a = storm_sim(seed, submissions, deltas);
    let b = storm_sim(seed, submissions, deltas);
    let deterministic = a == b;
    let s = a.stats;
    LiveUpdateReport {
        seed,
        scale: "medium",
        n_edges: net.n_edges(),
        delta_edges,
        shortcuts_total: rr.shortcuts_total,
        shortcuts_rebuilt: rr.shortcuts_rebuilt,
        invalidation_fraction: rr.invalidation_fraction(),
        build_wall_seconds,
        refresh_wall_seconds,
        submissions,
        updates_applied: s.updates_applied,
        epochs_published: s.epochs_published,
        epochs_retired: s.epochs_retired,
        answered: s.answered,
        rejected: s.rejected,
        goodput_ratio: if a.elapsed > 0 {
            a.executed_units as f64 / a.elapsed as f64
        } else {
            0.0
        },
        reconciled: s.reconciles(),
        deterministic,
    }
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &LiveUpdateReport) -> Table {
    let mut t = Table::new(
        format!(
            "Live update - {} refresh + seeded update storm (seed {:#x})",
            r.scale, r.seed
        ),
        &["metric", "value"],
    );
    let rows: [(&str, String); 14] = [
        ("edges (refresh substrate)", r.n_edges.to_string()),
        ("delta edges (~1%)", r.delta_edges.to_string()),
        (
            "shortcuts rebuilt / total",
            format!("{} / {}", r.shortcuts_rebuilt, r.shortcuts_total),
        ),
        (
            "invalidation fraction",
            format!("{:.4}", r.invalidation_fraction),
        ),
        (
            "full build wall (s)",
            format!("{:.3}", r.build_wall_seconds),
        ),
        ("refresh wall (s)", format!("{:.3}", r.refresh_wall_seconds)),
        ("storm submissions", r.submissions.to_string()),
        ("updates applied", r.updates_applied.to_string()),
        ("epochs published", r.epochs_published.to_string()),
        ("epochs retired", r.epochs_retired.to_string()),
        ("answered", r.answered.to_string()),
        ("goodput ratio", format!("{:.4}", r.goodput_ratio)),
        ("reconciled", r.reconciled.to_string()),
        ("deterministic replay", r.deterministic.to_string()),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.to_string(), v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_update_run_hits_the_report_gates() {
        let r = run(0x11FE, 80, 6);
        assert!(r.reconciled, "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert_eq!(r.updates_applied, 6, "{r:?}");
        assert_eq!(r.epochs_published, 7, "{r:?}");
        assert!(
            r.invalidation_fraction < 0.20,
            "1% delta rebuilt {:.1}% of shortcuts",
            r.invalidation_fraction * 100.0
        );
        assert!(r.shortcuts_rebuilt > 0, "delta touched no cone: {r:?}");
        assert!(
            r.refresh_wall_seconds < r.build_wall_seconds,
            "refresh slower than a full rebuild: {r:?}"
        );
        assert!((0.5..=1.0).contains(&r.goodput_ratio), "{r:?}");
    }
}
