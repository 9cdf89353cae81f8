//! Figure 10: the CapeCod (continuous) model vs the Discrete Time
//! model — travel-time accuracy and query-time cost per discretization
//! level.
//!
//! Paper setup (§6.3): 100 queries, interval = 2 rush hours, distance
//! 7–8 miles, discretizations 1 h / 10 min / 1 min / 10 s. Both panels
//! report ratios *discrete over CapeCod*.

use std::time::Instant;

use allfp::baseline::discrete_time;
use allfp::{Engine, EngineConfig, EstimatorKind, NaiveLb, QuerySpec};
use pwl::time::hm;
use pwl::Interval;
use roadnet::workload::sample_pairs;
use roadnet::RoadNetwork;
use traffic::DayCategory;

use crate::report::{fnum, Table};
use crate::scenario::BackendKind;

/// The probed discretization steps, minutes (1h, 10m, 1m, 10s).
pub const STEPS: [f64; 4] = [60.0, 10.0, 1.0, 1.0 / 6.0];

/// Aggregated ratios for one discretization step.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Discretization step, minutes.
    pub step_minutes: f64,
    /// Mean of (discrete travel / exact travel) — Figure 10(a).
    pub travel_ratio: f64,
    /// Total discrete wall time / total exact wall time — Figure 10(b).
    pub time_ratio: f64,
    /// Machine-independent analogue: total discrete expanded nodes /
    /// total exact expanded paths.
    pub work_ratio: f64,
    /// Probes per query at this step.
    pub probes: usize,
}

/// Outcome of the Figure 10 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Result {
    /// One row per discretization step.
    pub rows: Vec<Fig10Row>,
    /// Queries that completed.
    pub queries: usize,
    /// Mean exact (CapeCod model) query time, milliseconds.
    pub exact_ms: f64,
}

/// Run the Figure 10 experiment.
///
/// The query interval straddles the end of the morning rush
/// (8:15–10:10) so that discretization genuinely matters: the best
/// departures form a short plateau after 10:00 that coarse probing
/// misses.
pub fn run(
    net: &RoadNetwork,
    n_queries: usize,
    dist_lo: f64,
    dist_hi: f64,
    seed: u64,
    backend: BackendKind,
) -> Fig10Result {
    let interval = Interval::of(hm(8, 15), hm(10, 10));
    // The paper's setup: both models search under naiveLB.
    let naive = EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    };
    let engine = backend
        .wrap(Engine::new(net, naive).expect("the naive estimator builds"))
        .expect("backend builds");
    let lb = NaiveLb::new(net.max_speed());

    let pairs = sample_pairs(net, n_queries, dist_lo, dist_hi, seed).expect("sampling succeeds");
    let mut exact_total_ms = 0.0f64;
    let mut exact_total_work = 0usize;
    let mut exacts = Vec::new();
    for p in &pairs {
        let q = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
        let t0 = Instant::now();
        let Ok(single) = engine.single_fastest_path(&q) else {
            continue;
        };
        exact_total_ms += t0.elapsed().as_secs_f64() * 1e3;
        exact_total_work += single.stats.expanded_paths.max(1);
        exacts.push((p, single));
    }

    let mut rows = Vec::with_capacity(STEPS.len());
    for step in STEPS {
        let mut travel_ratio_sum = 0.0f64;
        let mut total_ms = 0.0f64;
        let mut total_work = 0usize;
        let mut probes = 0usize;
        for (p, exact) in &exacts {
            let t0 = Instant::now();
            let d = discrete_time(
                net,
                p.source,
                p.target,
                &interval,
                step,
                DayCategory::WORKDAY,
                &lb,
            )
            .expect("reachable per exact run");
            total_ms += t0.elapsed().as_secs_f64() * 1e3;
            total_work += d.expanded_nodes;
            probes = d.queries;
            travel_ratio_sum += d.travel_minutes / exact.travel_minutes;
        }
        let n = exacts.len().max(1) as f64;
        rows.push(Fig10Row {
            step_minutes: step,
            travel_ratio: travel_ratio_sum / n,
            time_ratio: total_ms / exact_total_ms.max(1e-9),
            work_ratio: total_work as f64 / exact_total_work.max(1) as f64,
            probes,
        });
    }
    Fig10Result {
        rows,
        queries: exacts.len(),
        exact_ms: exact_total_ms / exacts.len().max(1) as f64,
    }
}

/// Render both panels of Figure 10.
pub fn render(result: &Fig10Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 10 - Discrete Time vs CapeCod over {} queries (exact mean {:.2} ms)",
            result.queries, result.exact_ms
        ),
        &[
            "step",
            "probes",
            "travel ratio (10a)",
            "query-time ratio (10b)",
            "work ratio",
        ],
    );
    for r in &result.rows {
        t.push_row(vec![
            pwl::time::fmt_duration(r.step_minutes),
            r.probes.to_string(),
            fnum(r.travel_ratio, 3),
            fnum(r.time_ratio, 2),
            fnum(r.work_ratio, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn ratios_behave_like_the_paper() {
        let s = Scenario::new(Scale::Small, 77);
        let result = run(&s.net, 4, 1.5, 3.0, 11, BackendKind::Flat);
        assert!(result.queries >= 2);
        assert_eq!(result.rows.len(), 4);
        // travel ratio never below 1 and non-increasing as steps refine
        for w in result.rows.windows(2) {
            assert!(w[0].travel_ratio + 1e-9 >= w[1].travel_ratio);
        }
        for r in &result.rows {
            assert!(r.travel_ratio >= 1.0 - 1e-9, "{r:?}");
        }
        // work strictly grows as the step shrinks
        let w: Vec<f64> = result.rows.iter().map(|r| r.work_ratio).collect();
        assert!(w.windows(2).all(|x| x[1] > x[0]), "{w:?}");
        // finest step: ~700 probes of a few-hundred-node graph must
        // dwarf one interval query's work
        assert!(w[3] > w[0] * 50.0, "{w:?}");
    }
}
