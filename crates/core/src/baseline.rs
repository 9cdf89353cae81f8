//! Baselines the paper evaluates against (§3, §6.3).
//!
//! * [`astar_at`] — the classic fixed-leaving-instant A\* (§1: with a
//!   single leaving instant the fastest-path problem "degrades into
//!   the shortest-path problem" because each edge's travel time is
//!   fixed once the arrival time at its tail is known — correct under
//!   FIFO);
//! * [`discrete_time`] — the **Discrete Time model**: pose one
//!   fixed-instant query per time step across the query interval and
//!   keep the best (the approach the paper shows to be both inaccurate
//!   and slow, Figure 10);
//! * [`constant_speed_plan`] — the **commercial navigation** model:
//!   plan assuming every road moves at its speed limit at all times,
//!   then drive the resulting (possibly bad) route under real
//!   patterns;
//! * [`evaluate_path`] — drive a fixed route at a given leaving
//!   instant under the real CapeCod patterns.

use std::collections::{BinaryHeap, HashMap};

use roadnet::{NetworkSource, NodeId};
use traffic::{travel::travel_time_at, DayCategory};

use crate::estimator::LowerBoundEstimator;
use crate::{AllFpError, MinEntry, Result};

/// Result of a fixed-instant query.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantAnswer {
    /// The fastest path for this leaving instant.
    pub nodes: Vec<NodeId>,
    /// Travel time, minutes.
    pub travel_minutes: f64,
    /// Nodes expanded (settled) by the search.
    pub expanded_nodes: usize,
}

/// Time-dependent A\* for a single leaving instant (the special case
/// that degrades to shortest-path search).
///
/// Settles nodes by earliest *arrival time*; the edge relaxation
/// evaluates the CapeCod travel time at the tail's arrival instant,
/// which is exact under FIFO. `heuristic` must be a lower bound on the
/// remaining travel time.
pub fn astar_at<S: NetworkSource>(
    source: &S,
    s: NodeId,
    e: NodeId,
    leave: f64,
    category: DayCategory,
    heuristic: &dyn LowerBoundEstimator,
) -> Result<InstantAnswer> {
    let target_loc = source.find_node(e)?;
    let mut arrival: HashMap<NodeId, f64> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut settled: HashMap<NodeId, bool> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let mut expanded = 0usize;

    arrival.insert(s, leave);
    let s_loc = source.find_node(s)?;
    let h = heuristic.travel_lower_bound(s, s_loc, e, target_loc);
    heap.push(MinEntry::new(leave + h, s));

    while let Some(MinEntry { tie: u, .. }) = heap.pop() {
        if settled.get(&u).copied().unwrap_or(false) {
            continue;
        }
        settled.insert(u, true);
        expanded += 1;
        let t_u = arrival[&u];
        if u == e {
            let mut nodes = vec![e];
            let mut cur = e;
            while let Some(&p) = parent.get(&cur) {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            return Ok(InstantAnswer {
                nodes,
                travel_minutes: t_u - leave,
                expanded_nodes: expanded,
            });
        }
        for edge in source.successors(u)? {
            if settled.get(&edge.to).copied().unwrap_or(false) {
                continue;
            }
            let profile = source.pattern(edge.pattern)?.profile(category)?;
            let t_edge = travel_time_at(profile, edge.distance, t_u)?;
            let t_v = t_u + t_edge;
            if t_v < arrival.get(&edge.to).copied().unwrap_or(f64::INFINITY) {
                arrival.insert(edge.to, t_v);
                parent.insert(edge.to, u);
                let v_loc = source.find_node(edge.to)?;
                let h = heuristic.travel_lower_bound(edge.to, v_loc, e, target_loc);
                heap.push(MinEntry::new(t_v + h, edge.to));
            }
        }
    }
    Err(AllFpError::Unreachable {
        source: s,
        target: e,
    })
}

/// Result of a discrete-time interval query.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteAnswer {
    /// Best leaving instant among the probed steps.
    pub best_leave: f64,
    /// The fastest path found at that instant.
    pub nodes: Vec<NodeId>,
    /// Its travel time, minutes.
    pub travel_minutes: f64,
    /// Number of fixed-instant queries posed.
    pub queries: usize,
    /// Total nodes expanded across all queries.
    pub expanded_nodes: usize,
}

/// The Discrete Time model: probe leaving instants
/// `lo, lo+step, …, ≤ hi` with [`astar_at`] and keep the best.
pub fn discrete_time<S: NetworkSource>(
    source: &S,
    s: NodeId,
    e: NodeId,
    interval: &pwl::Interval,
    step_minutes: f64,
    category: DayCategory,
    heuristic: &dyn LowerBoundEstimator,
) -> Result<DiscreteAnswer> {
    assert!(step_minutes > 0.0, "step must be positive");
    let mut best: Option<DiscreteAnswer> = None;
    let mut queries = 0usize;
    let mut expanded = 0usize;
    let mut l = interval.lo();
    while l <= interval.hi() + 1e-9 {
        let ans = astar_at(source, s, e, l, category, heuristic)?;
        queries += 1;
        expanded += ans.expanded_nodes;
        let better = best
            .as_ref()
            .is_none_or(|b| ans.travel_minutes < b.travel_minutes);
        if better {
            best = Some(DiscreteAnswer {
                best_leave: l,
                nodes: ans.nodes,
                travel_minutes: ans.travel_minutes,
                queries: 0,
                expanded_nodes: 0,
            });
        }
        l += step_minutes;
    }
    // `Interval` guarantees lo ≤ hi, so the loop always probes ≥ once.
    let mut best = best.ok_or(AllFpError::Internal("discrete-time loop ran zero probes"))?;
    best.queries = queries;
    best.expanded_nodes = expanded;
    Ok(best)
}

/// Drive the fixed route `nodes` leaving at `leave`, under the real
/// patterns; returns total travel minutes.
pub fn evaluate_path<S: NetworkSource>(
    source: &S,
    nodes: &[NodeId],
    leave: f64,
    category: DayCategory,
) -> Result<f64> {
    let mut t = leave;
    for w in nodes.windows(2) {
        let edges = source.successors(w[0])?;
        let edge = edges
            .iter()
            .find(|e| e.to == w[1])
            .ok_or(AllFpError::Unreachable {
                source: w[0],
                target: w[1],
            })?;
        let profile = source.pattern(edge.pattern)?.profile(category)?;
        t += travel_time_at(profile, edge.distance, t)?;
    }
    Ok(t - leave)
}

/// The commercial-navigation baseline: plan with constant speed-limit
/// weights (time-independent Dijkstra/A\*), then drive the planned
/// route under the real CapeCod patterns.
///
/// Returns `(planned_route, real_travel_minutes)`.
pub fn constant_speed_plan<S: NetworkSource>(
    source: &S,
    s: NodeId,
    e: NodeId,
    leave: f64,
    category: DayCategory,
) -> Result<(Vec<NodeId>, f64)> {
    let mut cost: HashMap<NodeId, f64> = HashMap::new();
    let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
    let mut settled: HashMap<NodeId, bool> = HashMap::new();
    let mut heap = BinaryHeap::new();
    cost.insert(s, 0.0);
    heap.push(MinEntry::new(0.0, s));

    while let Some(MinEntry { tie: u, .. }) = heap.pop() {
        if settled.get(&u).copied().unwrap_or(false) {
            continue;
        }
        settled.insert(u, true);
        if u == e {
            let mut nodes = vec![e];
            let mut cur = e;
            while let Some(&p) = parent.get(&cur) {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            let real = evaluate_path(source, &nodes, leave, category)?;
            return Ok((nodes, real));
        }
        let c_u = cost[&u];
        for edge in source.successors(u)? {
            if settled.get(&edge.to).copied().unwrap_or(false) {
                continue;
            }
            // speed-limit minutes: miles / (mph / 60)
            let w = edge.distance / pwl::time::mph_to_mpm(edge.class.speed_limit_mph());
            let c_v = c_u + w;
            if c_v < cost.get(&edge.to).copied().unwrap_or(f64::INFINITY) {
                cost.insert(edge.to, c_v);
                parent.insert(edge.to, u);
                heap.push(MinEntry::new(c_v, edge.to));
            }
        }
    }
    Err(AllFpError::Unreachable {
        source: s,
        target: e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{NaiveLb, ZeroLb};
    use pwl::time::hm;
    use pwl::Interval;
    use roadnet::examples::paper_running_example;

    #[test]
    fn astar_picks_direct_before_rush_clears() {
        let (net, ids) = paper_running_example();
        // Leaving 6:50: via-n takes 9 min, direct takes 6 → direct wins.
        let ans = astar_at(
            &net,
            ids.s,
            ids.e,
            hm(6, 50),
            DayCategory::WORKDAY,
            &NaiveLb::new(net.max_speed()),
        )
        .unwrap();
        assert_eq!(ans.nodes, vec![ids.s, ids.e]);
        assert!((ans.travel_minutes - 6.0).abs() < 1e-9);
    }

    #[test]
    fn astar_picks_via_n_after_rush() {
        let (net, ids) = paper_running_example();
        // Leaving 7:00: via-n takes 5 min (2 + 3) → beats the 6-min direct.
        let ans = astar_at(
            &net,
            ids.s,
            ids.e,
            hm(7, 0),
            DayCategory::WORKDAY,
            &NaiveLb::new(net.max_speed()),
        )
        .unwrap();
        assert_eq!(ans.nodes, vec![ids.s, ids.n, ids.e]);
        assert!((ans.travel_minutes - 5.0).abs() < 1e-9);
    }

    #[test]
    fn astar_unreachable_errors() {
        let (net, ids) = paper_running_example();
        // e has no outgoing edges: e -> s is unreachable.
        assert!(matches!(
            astar_at(&net, ids.e, ids.s, hm(7, 0), DayCategory::WORKDAY, &ZeroLb),
            Err(AllFpError::Unreachable { .. })
        ));
    }

    #[test]
    fn astar_source_equals_target() {
        let (net, ids) = paper_running_example();
        let ans = astar_at(&net, ids.s, ids.s, hm(7, 0), DayCategory::WORKDAY, &ZeroLb).unwrap();
        assert_eq!(ans.nodes, vec![ids.s]);
        assert_eq!(ans.travel_minutes, 0.0);
    }

    #[test]
    fn heuristic_reduces_expansions() {
        // Corner to center: the quadrant past the target is where the
        // heuristic prunes (corner-to-corner would leave nothing to
        // prune — every node is "on the way").
        let net =
            roadnet::generators::grid(15, 15, 0.3, traffic::RoadClass::InboundHighway).unwrap();
        let (s, e) = (NodeId(0), NodeId(7 * 15 + 7));
        let with_h = astar_at(
            &net,
            s,
            e,
            hm(12, 0),
            DayCategory::WORKDAY,
            &NaiveLb::new(net.max_speed()),
        )
        .unwrap();
        let without = astar_at(&net, s, e, hm(12, 0), DayCategory::WORKDAY, &ZeroLb).unwrap();
        assert!((with_h.travel_minutes - without.travel_minutes).abs() < 1e-9);
        assert!(
            with_h.expanded_nodes < without.expanded_nodes,
            "A* ({}) should expand fewer than Dijkstra ({})",
            with_h.expanded_nodes,
            without.expanded_nodes
        );
    }

    #[test]
    fn discrete_time_converges_with_finer_steps() {
        let (net, ids) = paper_running_example();
        let i = Interval::of(hm(6, 50), hm(7, 5));
        let lb = NaiveLb::new(net.max_speed());
        // coarse: only probes 6:50 → finds the 6-min direct path
        let coarse =
            discrete_time(&net, ids.s, ids.e, &i, 60.0, DayCategory::WORKDAY, &lb).unwrap();
        assert_eq!(coarse.queries, 1);
        assert!((coarse.travel_minutes - 6.0).abs() < 1e-9);
        // fine: probes every minute → finds the 5-min via-n window
        let fine = discrete_time(&net, ids.s, ids.e, &i, 1.0, DayCategory::WORKDAY, &lb).unwrap();
        assert_eq!(fine.queries, 16);
        assert!((fine.travel_minutes - 5.0).abs() < 1e-9);
        assert!(fine.best_leave >= hm(7, 0) - 1e-9);
        assert!(fine.expanded_nodes > coarse.expanded_nodes);
    }

    #[test]
    fn evaluate_path_matches_astar() {
        let (net, ids) = paper_running_example();
        let t =
            evaluate_path(&net, &[ids.s, ids.n, ids.e], hm(7, 0), DayCategory::WORKDAY).unwrap();
        assert!((t - 5.0).abs() < 1e-9);
        // unknown edge errors
        assert!(evaluate_path(&net, &[ids.e, ids.s], hm(7, 0), DayCategory::WORKDAY).is_err());
    }

    #[test]
    fn constant_speed_plan_ignores_congestion() {
        let (net, ids) = paper_running_example();
        // With per-class speed limits all three edges look constant
        // (class LocalOutside, 40 MPH): the planner picks the shorter
        // 5-mile via-n route; driven at 6:50 in real traffic it costs
        // 6 + 3 = 9 minutes vs the 6-minute direct road.
        let (nodes, real) =
            constant_speed_plan(&net, ids.s, ids.e, hm(6, 50), DayCategory::WORKDAY).unwrap();
        assert_eq!(nodes, vec![ids.s, ids.n, ids.e]);
        assert!((real - 9.0).abs() < 1e-9);
    }
}
