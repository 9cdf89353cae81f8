//! Arrival-interval queries — the "or arrival time interval" half of
//! the paper's problem statement (§1: "a user-defined leaving or
//! arrival time interval I").
//!
//! The paper presents the algorithm for leaving intervals only; this
//! module answers the arrival variant *exactly* by a time-mirroring
//! reduction instead of a second engine:
//!
//! 1. Build `G′` = the network with every edge reversed and every
//!    speed profile reflected around midnight
//!    ([`roadnet::RoadNetwork::reversed_time_mirrored`]). Driving
//!    `v → u` in `G′` starting at `1440 − a` covers distance
//!    `∫ v(1440 − τ) dτ` — by substitution exactly the distance an
//!    original `u → v` trip covers *ending* at `a`. Travel times, FIFO,
//!    and path feasibility all carry over.
//! 2. Run the ordinary leaving-interval engine on `G′` from the
//!    *target* with the mirrored interval `[1440 − a_hi, 1440 − a_lo]`.
//! 3. Mirror the answer back: reverse each path, reflect each
//!    sub-interval and travel-time function (`T_arr(a) = T′(1440 − a)`).
//!
//! The result partitions the arrival interval `A` into sub-intervals,
//! each with the path that minimizes travel time (equivalently:
//! maximizes the departure time) for every arrival instant in it.

use std::sync::Arc;

use pwl::time::MINUTES_PER_DAY;
use pwl::{Envelope, Interval, PwlScratch};
use roadnet::{NodeId, RoadNetwork};
use traffic::DayCategory;

use crate::backend::PathfindBackend;
use crate::cache::TravelFnCache;
use crate::engine::{build_estimator, lower_envelope, Engine, EngineConfig};
use crate::estimator::LowerBoundEstimator;
use crate::query::{FastestPath, QuerySpec, QueryStats};
use crate::Result;

/// An arrival-interval query: be at `target` within `arrival`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalQuerySpec {
    /// The source node `s`.
    pub source: NodeId,
    /// The end node `e`.
    pub target: NodeId,
    /// The arrival-time interval at `e` (minutes since midnight).
    pub arrival: Interval,
    /// The day category.
    pub category: DayCategory,
}

/// Answer to an arrival-interval allFP query.
#[derive(Debug, Clone)]
pub struct ArrivalAllFpAnswer {
    /// The distinct fastest paths, each with its travel-time function
    /// **of the arrival time** `T(a)` (leave at `a − T(a)`).
    pub paths: Vec<FastestPath>,
    /// Partitioning of the arrival interval; indices into `paths`.
    pub partition: Vec<(Interval, usize)>,
    /// The lower border over arrival times.
    pub lower_border: Envelope<usize>,
    /// Search statistics (measured on the mirrored network).
    pub stats: QueryStats,
}

impl ArrivalAllFpAnswer {
    /// Departure time for arriving exactly at `a` on the best path.
    pub fn departure_at(&self, a: f64) -> Option<f64> {
        Some(a - self.lower_border.as_pwl().try_eval(a)?)
    }
}

/// Answer to an arrival-interval singleFP query: the overall fastest
/// way to arrive within the window.
#[derive(Debug, Clone)]
pub struct ArrivalSingleFpAnswer {
    /// The fastest path (travel as a function of arrival time).
    pub path: FastestPath,
    /// Minimal travel time, minutes.
    pub travel_minutes: f64,
    /// The interval of optimal *arrival* instants.
    pub best_arrival: Interval,
    /// The corresponding departure instant for the earliest optimal
    /// arrival.
    pub departure: f64,
    /// Search statistics.
    pub stats: QueryStats,
}

/// A prepared arrival-query planner: owns the mirrored network, its
/// (possibly precomputed) estimator and one travel-function cache, so
/// repeated queries rebuild none of them.
pub struct ArrivalPlanner {
    mirrored: RoadNetwork,
    estimator: Arc<dyn LowerBoundEstimator>,
    cache: Arc<TravelFnCache>,
    config: EngineConfig,
}

impl ArrivalPlanner {
    /// Build the mirrored network (and, for boundary configs, its
    /// precomputed tables) once.
    pub fn new(net: &RoadNetwork, config: EngineConfig) -> Result<Self> {
        let mirrored = net.reversed_time_mirrored();
        let estimator = Arc::from(build_estimator(&mirrored, &config)?);
        Ok(ArrivalPlanner {
            mirrored,
            estimator,
            cache: Arc::new(TravelFnCache::new()),
            config,
        })
    }

    /// The mirrored network (exposed for tests and diagnostics).
    pub fn mirrored(&self) -> &RoadNetwork {
        &self.mirrored
    }

    fn engine(&self) -> Engine<'_, RoadNetwork> {
        Engine::with_shared(
            &self.mirrored,
            Arc::clone(&self.estimator),
            Arc::clone(&self.cache),
            self.config.clone(),
        )
    }

    /// Answer an arrival-interval **allFP** query.
    pub fn all_fastest_paths(&self, query: &ArrivalQuerySpec) -> Result<ArrivalAllFpAnswer> {
        let mirrored_query = self.mirror_query(query);
        let engine = self.engine();
        let ans = engine.all_fastest_paths(&mirrored_query)?;

        // Mirror back. Path i keeps its index; intervals reverse order.
        let paths: Vec<FastestPath> = ans
            .paths
            .iter()
            .map(|p| FastestPath {
                nodes: p.nodes.iter().rev().copied().collect(),
                travel: Arc::new(p.travel.reflect_x(MINUTES_PER_DAY)),
            })
            .collect();
        let partition: Vec<(Interval, usize)> = ans
            .partition
            .iter()
            .rev()
            .map(|(iv, idx)| {
                (
                    Interval::of(MINUTES_PER_DAY - iv.hi(), MINUTES_PER_DAY - iv.lo()),
                    *idx,
                )
            })
            .collect();
        // Rebuild the tagged border over arrival time in identification
        // order (same tie-break semantics as the mirrored search).
        let fns = paths.iter().map(|p| &p.travel);
        let lower_border = lower_envelope(fns, &mut PwlScratch::new())?.ok_or(
            crate::AllFpError::Internal("mirrored allFP answer carried no paths"),
        )?;
        Ok(ArrivalAllFpAnswer {
            paths,
            partition,
            lower_border,
            stats: ans.stats,
        })
    }

    /// Answer an arrival-interval **singleFP** query: the minimum
    /// travel time over all arrival instants in the window.
    pub fn single_fastest_path(&self, query: &ArrivalQuerySpec) -> Result<ArrivalSingleFpAnswer> {
        let mirrored_query = self.mirror_query(query);
        let engine = self.engine();
        let single = engine.single_fastest_path(&mirrored_query)?;
        let travel = Arc::new(single.path.travel.reflect_x(MINUTES_PER_DAY));
        let best_arrival = Interval::of(
            MINUTES_PER_DAY - single.best_leaving.hi(),
            MINUTES_PER_DAY - single.best_leaving.lo(),
        );
        let departure = best_arrival.lo() - single.travel_minutes;
        Ok(ArrivalSingleFpAnswer {
            path: FastestPath {
                nodes: single.path.nodes.iter().rev().copied().collect(),
                travel,
            },
            travel_minutes: single.travel_minutes,
            best_arrival,
            departure,
            stats: single.stats,
        })
    }

    fn mirror_query(&self, query: &ArrivalQuerySpec) -> QuerySpec {
        // mirrored search starts at the *target* and walks reversed
        // edges toward the source
        QuerySpec::new(
            query.target,
            query.source,
            Interval::of(
                MINUTES_PER_DAY - query.arrival.hi(),
                MINUTES_PER_DAY - query.arrival.lo(),
            ),
            query.category,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::evaluate_path;
    use pwl::time::hm;
    use pwl::MonotonePwl;
    use roadnet::examples::paper_running_example;

    #[test]
    fn paper_example_arrival_window() {
        // Arrive at e between 7:00 and 7:08 on a workday.
        let (net, ids) = paper_running_example();
        let planner = ArrivalPlanner::new(&net, EngineConfig::default()).unwrap();
        let q = ArrivalQuerySpec {
            source: ids.s,
            target: ids.e,
            arrival: Interval::of(hm(7, 0), hm(7, 8)),
            category: DayCategory::WORKDAY,
        };
        let ans = planner.all_fastest_paths(&q).unwrap();

        // partition covers the arrival window, contiguously
        assert!(pwl::approx_eq(ans.partition[0].0.lo(), hm(7, 0)));
        assert!(pwl::approx_eq(
            ans.partition.last().unwrap().0.hi(),
            hm(7, 8)
        ));
        for w in ans.partition.windows(2) {
            assert!(pwl::approx_eq(w[0].0.hi(), w[1].0.lo()));
            assert_ne!(w[0].1, w[1].1);
        }

        // every reported (arrival, path) pair is feasible and matches
        // when driven forward from the implied departure
        for (iv, idx) in &ans.partition {
            for a in [iv.lo(), iv.mid(), iv.hi()] {
                let t = ans.paths[*idx].travel.eval_clamped(a);
                let depart = a - t;
                let driven =
                    evaluate_path(&net, &ans.paths[*idx].nodes, depart, q.category).unwrap();
                assert!(
                    pwl::approx_eq(depart + driven, a),
                    "path {idx} at a={a}: depart {depart} + driven {driven} != a"
                );
            }
        }

        // singleFP: the overall fastest arrival should use the 5-minute
        // via-n window (arrivals shortly after 7:05)
        let single = planner.single_fastest_path(&q).unwrap();
        assert_eq!(single.path.nodes, vec![ids.s, ids.n, ids.e]);
        assert!((single.travel_minutes - 5.0).abs() < 1e-9);
        assert!(pwl::approx_eq(
            single.departure + 5.0,
            single.best_arrival.lo()
        ));
    }

    #[test]
    fn arrival_border_is_inverse_of_forward_border() {
        // Forward: a*(l) = l + border_fwd(l) is the optimal-arrival
        // function (strictly increasing). Backward: the arrival
        // answer's departure δ(a) must be its inverse wherever both are
        // defined.
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let fwd = engine
            .all_fastest_paths(&QuerySpec::new(
                ids.s,
                ids.e,
                Interval::of(hm(6, 40), hm(7, 10)),
                DayCategory::WORKDAY,
            ))
            .unwrap();
        let a_star = MonotonePwl::arrival_from_travel(fwd.lower_border.as_pwl()).unwrap();

        let planner = ArrivalPlanner::new(&net, EngineConfig::default()).unwrap();
        let arr = planner
            .all_fastest_paths(&ArrivalQuerySpec {
                source: ids.s,
                target: ids.e,
                arrival: Interval::of(hm(7, 0), hm(7, 10)),
                category: DayCategory::WORKDAY,
            })
            .unwrap();

        // probe arrivals that forward-optimal departures can reach
        let reach = a_star.range();
        for k in 0..=20 {
            let a = hm(7, 0) + (hm(7, 10) - hm(7, 0)) * (k as f64) / 20.0;
            if !reach.contains_approx(a) {
                continue;
            }
            let dep_bwd = arr.departure_at(a).unwrap();
            let dep_fwd = a_star.inverse_at(a).unwrap();
            assert!(
                (dep_bwd - dep_fwd).abs() < 1e-6,
                "a={a}: backward departure {dep_bwd} vs forward inverse {dep_fwd}"
            );
        }
    }

    #[test]
    fn second_pass_is_served_from_the_planners_cache() {
        let net = roadnet::generators::grid(5, 5, 0.3, traffic::RoadClass::LocalOutside).unwrap();
        let planner = ArrivalPlanner::new(&net, EngineConfig::default()).unwrap();
        let queries: Vec<ArrivalQuerySpec> = [(0, 24), (4, 20), (12, 3)]
            .into_iter()
            .map(|(s, t)| ArrivalQuerySpec {
                source: NodeId(s),
                target: NodeId(t),
                arrival: Interval::of(hm(7, 30), hm(8, 15)),
                category: DayCategory::WORKDAY,
            })
            .collect();
        let pass = || -> Vec<(ArrivalAllFpAnswer, ArrivalSingleFpAnswer)> {
            queries
                .iter()
                .map(|q| {
                    (
                        planner.all_fastest_paths(q).unwrap(),
                        planner.single_fastest_path(q).unwrap(),
                    )
                })
                .collect()
        };
        let (first, second) = (pass(), pass());
        assert!(first[0].0.stats.cache_misses > 0, "a cold planner misses");
        for ((all1, single1), (all2, single2)) in first.iter().zip(&second) {
            assert_eq!(all2.stats.cache_misses, 0);
            assert_eq!(single2.stats.cache_misses, 0);
            // bit-equal answers: `Pwl` and `Interval` compare by `==` on
            // their `f64`s, and no value here is a NaN or a signed zero
            assert_eq!(all1.paths, all2.paths);
            assert_eq!(all1.partition, all2.partition);
            assert_eq!(single1.path, single2.path);
            assert_eq!(
                single1.travel_minutes.to_bits(),
                single2.travel_minutes.to_bits()
            );
            assert_eq!(single1.best_arrival, single2.best_arrival);
        }
    }

    #[test]
    fn mirrored_network_shape() {
        let (net, ids) = paper_running_example();
        let planner = ArrivalPlanner::new(&net, EngineConfig::default()).unwrap();
        let m = planner.mirrored();
        assert_eq!(m.n_nodes(), 3);
        assert_eq!(m.n_edges(), 3);
        // e now has two outgoing (reversed) edges, s has none
        assert_eq!(m.neighbors(ids.e).unwrap().len(), 2);
        assert!(m.neighbors(ids.s).unwrap().is_empty());
    }
}
