//! The §6 constant-speed comparison: "The CapeCod model gives 50%
//! improvement regarding the travel time" over planning with speed
//! limits, under the Table 1 setup, for rush-hour departures.

use allfp::baseline::constant_speed_plan;
use allfp::{Engine, EngineConfig, PathfindBackend, QuerySpec};
use pwl::time::hm;
use pwl::Interval;
use roadnet::workload::commute_pairs;
use roadnet::{NetworkSource, RoadNetwork};
use traffic::DayCategory;

use crate::report::{fnum, Table};

/// Aggregate comparison at one departure instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstSpeedRow {
    /// Departure instant, minutes since midnight.
    pub leave: f64,
    /// Queries compared.
    pub queries: usize,
    /// Mean travel on the pattern-aware fastest path, minutes.
    pub smart_mean: f64,
    /// Mean travel when driving the constant-speed plan, minutes.
    pub constant_mean: f64,
    /// Mean per-query improvement, percent
    /// (`100 · (constant − smart) / constant`).
    pub improvement_pct: f64,
}

/// Run the comparison at several departure instants (rush and
/// off-peak; the paper notes the gap vanishes when speeds don't
/// differ).
///
/// The workload is a *commute*: suburb → downtown in the morning and
/// at noon, downtown → suburb in the evening — the trips whose
/// congestion exposure the paper's 50% claim is about.
pub fn run(net: &RoadNetwork, n_queries: usize, seed: u64) -> Vec<ConstSpeedRow> {
    let engine = Engine::new(net, EngineConfig::default()).expect("estimator builds");
    // (instant, evening?) — evening trips run the commute in reverse
    let instants = [(hm(8, 0), false), (hm(12, 0), false), (hm(17, 0), true)];
    let downtown_radius = downtown_radius(net);
    let pairs =
        commute_pairs(net, n_queries, 2.0, 6.0, downtown_radius, seed).expect("sampling succeeds");

    let mut rows = Vec::with_capacity(instants.len());
    for (leave, evening) in instants {
        let mut smart_sum = 0.0;
        let mut const_sum = 0.0;
        let mut improvement_sum = 0.0;
        let mut done = 0usize;
        for p in &pairs {
            let (src, dst) = if evening {
                (p.target, p.source)
            } else {
                (p.source, p.target)
            };
            let q = QuerySpec::new(src, dst, Interval::of(leave, leave), DayCategory::WORKDAY);
            let Ok(smart) = engine.single_fastest_path(&q) else {
                continue;
            };
            let Ok((_, constant)) =
                constant_speed_plan(net, q.source, q.target, leave, DayCategory::WORKDAY)
            else {
                continue;
            };
            smart_sum += smart.travel_minutes;
            const_sum += constant;
            improvement_sum += 100.0 * (constant - smart.travel_minutes) / constant.max(1e-9);
            done += 1;
        }
        let n = done.max(1) as f64;
        rows.push(ConstSpeedRow {
            leave,
            queries: done,
            smart_mean: smart_sum / n,
            constant_mean: const_sum / n,
            improvement_pct: improvement_sum / n,
        });
    }
    rows
}

/// Infer the downtown radius from the extent of LocalBoston streets.
fn downtown_radius(net: &RoadNetwork) -> f64 {
    let mut r = 0.0f64;
    for u in net.node_ids() {
        let p = net.find_node(u).expect("valid id");
        for e in net.neighbors(u).expect("valid id") {
            if e.class == traffic::RoadClass::LocalBoston {
                r = r.max(p.x.hypot(p.y));
                break;
            }
        }
    }
    if r == 0.0 {
        1.0
    } else {
        r
    }
}

/// Render the comparison.
pub fn render(rows: &[ConstSpeedRow]) -> Table {
    let mut t = Table::new(
        "Section 6 - CapeCod planning vs constant speed-limit planning (workday)",
        &[
            "departure",
            "queries",
            "smart mean",
            "constant mean",
            "improvement %",
        ],
    );
    for r in rows {
        t.push_row(vec![
            pwl::time::fmt_minutes(r.leave),
            r.queries.to_string(),
            pwl::time::fmt_duration(r.smart_mean),
            pwl::time::fmt_duration(r.constant_mean),
            fnum(r.improvement_pct, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn rush_hour_shows_improvement_noon_does_not() {
        let s = Scenario::new(Scale::Small, 19);
        let rows = run(&s.net, 12, 3);
        assert_eq!(rows.len(), 3);
        let rush = &rows[0]; // 8am
        let noon = &rows[1];
        assert!(rush.queries >= 6);
        // smart is never worse, and strictly better at rush hour
        assert!(rush.improvement_pct >= 0.0);
        assert!(noon.improvement_pct >= -1e-9);
        assert!(
            rush.improvement_pct >= noon.improvement_pct,
            "rush {} vs noon {}",
            rush.improvement_pct,
            noon.improvement_pct
        );
    }
}
