//! Figure 9: effect of the boundary-node estimator on expanded nodes,
//! varying the source–target Euclidean distance.
//!
//! Paper setup (§6.2): 100 queries per distance, query interval = the
//! 3-hour morning rush, distances 1–8 miles, reporting the number of
//! expanded nodes under (a) naiveLB and (b) bdLB, for both singleFP
//! and allFP.
//!
//! We report **three** estimators: `naiveLB`, the distance-based
//! `bdLB` exactly as §5 presents it, and `minTimeLB` — the exact bound
//! a travel-time boundary table (the extension §5 mentions but omits
//! "due to space limitations") would approximate: shortest paths over
//! best-case per-edge travel times. It is the one whose pruning matches
//! the paper's reported gap: a distance bound divided by the *global*
//! maximum speed cannot see that local streets are 40 MPH roads, a
//! travel-time bound can.

use allfp::{build_estimator, Engine, EngineConfig, EstimatorKind, QuerySpec};
use pwl::time::hm;
use pwl::Interval;
use roadnet::workload::distance_buckets;
use roadnet::RoadNetwork;
use traffic::DayCategory;

use crate::boundary::BoundaryLb;
use crate::report::{fnum, Table};
use crate::scenario::BackendKind;

/// One distance bucket's mean expanded-node counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Bucket center, miles.
    pub miles: f64,
    /// Queries that completed (unreachable pairs are skipped).
    pub queries: usize,
    /// Mean expanded nodes, singleFP with naiveLB.
    pub single_naive: f64,
    /// Mean expanded nodes, singleFP with distance-based bdLB.
    pub single_bd: f64,
    /// Mean expanded nodes, singleFP with minTimeLB.
    pub single_min_time: f64,
    /// Mean expanded nodes, allFP with naiveLB.
    pub all_naive: f64,
    /// Mean expanded nodes, allFP with distance-based bdLB.
    pub all_bd: f64,
    /// Mean expanded nodes, allFP with minTimeLB.
    pub all_min_time: f64,
}

/// Run the Figure 9 experiment.
///
/// `per_bucket` queries per whole-mile distance in `1..=max_miles`;
/// `grid` is the bdLB granularity (the paper does not state theirs; 8
/// is the ablation A-1 sweet spot here). `backend` selects the search
/// strategy: with [`BackendKind::Ch`] each estimator configuration is
/// wrapped in a contraction hierarchy (the overlay search uses its own
/// exact scalar bounds, so the three estimator columns converge — the
/// run then measures the hierarchy's insensitivity to the estimator,
/// and the estimator still serves any flat-engine fallbacks).
pub fn run(
    net: &RoadNetwork,
    per_bucket: usize,
    max_miles: usize,
    grid: usize,
    seed: u64,
    backend: BackendKind,
) -> Vec<Fig9Row> {
    let interval = Interval::of(hm(7, 0), hm(10, 0)); // the morning rush
    let wrap = |estimator| {
        let engine = Engine::with_estimator(net, estimator, EngineConfig::default());
        backend.wrap(engine).expect("backend builds")
    };
    let configured = |estimator| {
        let config = EngineConfig {
            estimator,
            ..Default::default()
        };
        build_estimator(net, &config).expect("estimator builds")
    };
    let naive = wrap(configured(EstimatorKind::Naive));
    let bd = wrap(Box::new(
        BoundaryLb::build(net, grid).expect("precomputation succeeds"),
    ));
    let min_time = wrap(configured(EstimatorKind::MinTime));

    let buckets =
        distance_buckets(net, per_bucket, max_miles, 0.25, seed).expect("sampling succeeds");
    let mut rows = Vec::with_capacity(buckets.len());
    for (miles, pairs) in buckets {
        let mut sums = [0.0f64; 6];
        let mut done = 0usize;
        for p in &pairs {
            let q = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
            let Ok(sn) = naive.single_fastest_path(&q) else {
                continue;
            };
            let Ok(sb) = bd.single_fastest_path(&q) else {
                continue;
            };
            let Ok(st) = min_time.single_fastest_path(&q) else {
                continue;
            };
            let Ok(an) = naive.all_fastest_paths(&q) else {
                continue;
            };
            let Ok(ab) = bd.all_fastest_paths(&q) else {
                continue;
            };
            let Ok(at) = min_time.all_fastest_paths(&q) else {
                continue;
            };
            sums[0] += sn.stats.expanded_nodes as f64;
            sums[1] += sb.stats.expanded_nodes as f64;
            sums[2] += st.stats.expanded_nodes as f64;
            sums[3] += an.stats.expanded_nodes as f64;
            sums[4] += ab.stats.expanded_nodes as f64;
            sums[5] += at.stats.expanded_nodes as f64;
            done += 1;
        }
        let mean = |s: f64| if done == 0 { 0.0 } else { s / done as f64 };
        rows.push(Fig9Row {
            miles,
            queries: done,
            single_naive: mean(sums[0]),
            single_bd: mean(sums[1]),
            single_min_time: mean(sums[2]),
            all_naive: mean(sums[3]),
            all_bd: mean(sums[4]),
            all_min_time: mean(sums[5]),
        });
    }
    rows
}

/// Render the rows as the two panels of Figure 9.
pub fn render(rows: &[Fig9Row]) -> Table {
    let mut t = Table::new(
        "Figure 9 - mean expanded nodes vs Euclidean distance (I = 7:00-10:00 workday)",
        &[
            "miles",
            "queries",
            "sFP naive",
            "sFP bd",
            "sFP min-time",
            "aFP naive",
            "aFP bd",
            "aFP min-time",
            "sFP prune x",
            "aFP prune x",
        ],
    );
    for r in rows {
        t.push_row(vec![
            fnum(r.miles, 0),
            r.queries.to_string(),
            fnum(r.single_naive, 1),
            fnum(r.single_bd, 1),
            fnum(r.single_min_time, 1),
            fnum(r.all_naive, 1),
            fnum(r.all_bd, 1),
            fnum(r.all_min_time, 1),
            fnum(
                if r.single_min_time > 0.0 {
                    r.single_naive / r.single_min_time
                } else {
                    0.0
                },
                2,
            ),
            fnum(
                if r.all_min_time > 0.0 {
                    r.all_naive / r.all_min_time
                } else {
                    0.0
                },
                2,
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn bd_never_expands_more_and_counts_grow_with_distance() {
        let s = Scenario::new(Scale::Small, 33);
        let rows = run(&s.net, 4, 3, 6, 5, BackendKind::Flat);
        assert_eq!(rows.len(), 3);
        let mut any_queries = false;
        for r in &rows {
            if r.queries == 0 {
                continue;
            }
            any_queries = true;
            assert!(
                r.single_bd <= r.single_naive + 1e-9,
                "bdLB should not expand more: {r:?}"
            );
            assert!(
                r.single_min_time <= r.single_bd + 1e-9,
                "minTimeLB should not expand more than bdLB: {r:?}"
            );
            assert!(r.all_bd <= r.all_naive + 1e-9, "{r:?}");
            assert!(r.all_min_time <= r.all_bd + 1e-9, "{r:?}");
            // allFP works at least as hard as singleFP
            assert!(r.all_naive + 1e-9 >= r.single_naive, "{r:?}");
        }
        assert!(any_queries);
        let t = render(&rows);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn ch_backend_runs_the_same_experiment() {
        let s = Scenario::new(Scale::Small, 33);
        let flat = run(&s.net, 2, 2, 6, 5, BackendKind::Flat);
        let ch = run(&s.net, 2, 2, 6, 5, BackendKind::Ch);
        assert_eq!(flat.len(), ch.len());
        for (f, c) in flat.iter().zip(ch.iter()) {
            // Same pairs complete under either backend (answers are
            // equivalent, so reachability classifications match too).
            assert_eq!(f.queries, c.queries, "flat {f:?} vs ch {c:?}");
        }
    }
}
