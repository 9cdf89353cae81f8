//! The boundary-node lower-bound estimator (§5).
//!
//! Space is partitioned into non-overlapping grid cells. A **boundary
//! node** of a cell is a node with an edge to or from a node in a
//! different cell; any path between different cells must pass through
//! a boundary node on each side. The precomputation stores, per the
//! paper:
//!
//! 1. for every ordered pair of cells `(C₁, C₂)`, the minimum network
//!    distance from a boundary node of `C₁` to a boundary node of `C₂`
//!    (computed with one multi-source Dijkstra per cell, all boundary
//!    nodes collapsed into a single start);
//! 2. for every node, the distance to its nearest own-cell boundary
//!    node (forward), and from its nearest own-cell boundary node
//!    (backward).
//!
//! The estimate `d(n,b₃) + d(b₁,b₂) + d(b₄,e)` is a lower bound on the
//! network distance (Theorem 1); dividing by `v_max` gives a
//! travel-time lower bound. [`crate::MinTimeLb`] is never looser and
//! needs no table; this one stays as the paper's, for its Figure 9.

use std::collections::BinaryHeap;

use roadnet::{NodeId, Point, RoadNetwork};

use crate::estimator::LowerBoundEstimator;
use crate::MinEntry;
use crate::Result;

/// The precomputed boundary-node estimator.
///
/// `PartialEq` compares every table bit-for-bit — the live-update
/// property tests use it to prove that an estimator reused across a
/// traffic delta equals one rebuilt from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryLb {
    /// Number of cells (`grid²`).
    n_cells: usize,
    v_max: f64,
    cell_of_node: Vec<u32>,
    /// node → nearest own-cell boundary node (forward direction).
    d_out: Vec<f64>,
    /// nearest own-cell boundary node → node (i.e. entering distance).
    d_in: Vec<f64>,
    /// `table[c1 * n_cells + c2]` = min boundary-to-boundary distance.
    table: Vec<f64>,
}

impl BoundaryLb {
    /// Precompute over `net` with a `grid × grid` space partitioning.
    ///
    /// Runs `2 · grid²` multi-source Dijkstras, parallelized across
    /// available cores with `std::thread` scoped threads.
    pub fn build(net: &RoadNetwork, grid: usize) -> Result<BoundaryLb> {
        let grid = grid.max(1);
        let n = net.n_nodes();
        let n_cells = grid * grid;

        // --- geometry: assign nodes to cells --------------------------------
        let (min, max) = net
            .bounding_box()
            .unwrap_or((Point { x: 0.0, y: 0.0 }, Point { x: 1.0, y: 1.0 }));
        let span_x = (max.x - min.x).max(1e-9);
        let span_y = (max.y - min.y).max(1e-9);
        let cell_of = |p: &Point| -> u32 {
            let cx = (((p.x - min.x) / span_x) * grid as f64).floor() as usize;
            let cy = (((p.y - min.y) / span_y) * grid as f64).floor() as usize;
            (cy.min(grid - 1) * grid + cx.min(grid - 1)) as u32
        };
        let mut cell_of_node = vec![0u32; n];
        for u in net.node_ids() {
            cell_of_node[u.index()] = cell_of(net.point(u)?);
        }

        // --- adjacency with weights -----------------------------------------
        let mut fwd: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut rev: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in net.node_ids() {
            for e in net.neighbors(u)? {
                fwd[u.index()].push((e.to.0, e.distance));
                rev[e.to.index()].push((u.0, e.distance));
            }
        }

        // --- boundary nodes per cell -----------------------------------------
        let mut boundary: Vec<Vec<u32>> = vec![Vec::new(); n_cells];
        for u in 0..n {
            let cu = cell_of_node[u];
            let crosses = fwd[u].iter().any(|&(v, _)| cell_of_node[v as usize] != cu)
                || rev[u].iter().any(|&(v, _)| cell_of_node[v as usize] != cu);
            if crosses {
                boundary[cu as usize].push(u as u32);
            }
        }

        // --- per-cell Dijkstras, parallel -------------------------------------
        struct CellResult {
            cell: usize,
            d_out: Vec<(u32, f64)>,
            d_in: Vec<(u32, f64)>,
            row: Vec<f64>,
        }

        let workers = std::thread::available_parallelism()
            .map_or(4, |p| p.get())
            .min(n_cells.max(1));
        let joined: Vec<std::thread::Result<Vec<CellResult>>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let boundary = &boundary;
                let cell_of_node = &cell_of_node;
                let fwd = &fwd;
                let rev = &rev;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut cell = w;
                    while cell < n_cells {
                        let sources = &boundary[cell];
                        // forward: boundary → everyone (fills d_in for
                        // this cell's nodes and the cell-to-cell row)
                        let dist_f = multi_source_dijkstra(fwd, sources, usize::MAX);
                        // backward: everyone → boundary
                        let dist_b = multi_source_dijkstra(rev, sources, usize::MAX);
                        let mut d_in = Vec::new();
                        let mut d_out = Vec::new();
                        for (u, &cu) in cell_of_node.iter().enumerate() {
                            if cu as usize == cell {
                                d_in.push((u as u32, dist_f[u]));
                                d_out.push((u as u32, dist_b[u]));
                            }
                        }
                        let mut row = vec![f64::INFINITY; n_cells];
                        for (c2, bnodes) in boundary.iter().enumerate() {
                            let mut best = f64::INFINITY;
                            for &b in bnodes {
                                best = best.min(dist_f[b as usize]);
                            }
                            row[c2] = best;
                        }
                        row[cell] = 0.0;
                        out.push(CellResult {
                            cell,
                            d_out,
                            d_in,
                            row,
                        });
                        cell += workers;
                    }
                    out
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut results: Vec<CellResult> = Vec::new();
        for j in joined {
            results.extend(j.map_err(|_| {
                crate::AllFpError::Panicked("per-cell Dijkstra worker".to_string())
            })?);
        }

        let mut d_out = vec![f64::INFINITY; n];
        let mut d_in = vec![f64::INFINITY; n];
        let mut table = vec![f64::INFINITY; n_cells * n_cells];
        for r in results {
            for (u, d) in r.d_out {
                d_out[u as usize] = d;
            }
            for (u, d) in r.d_in {
                d_in[u as usize] = d;
            }
            table[r.cell * n_cells..(r.cell + 1) * n_cells].copy_from_slice(&r.row);
        }

        Ok(BoundaryLb {
            n_cells,
            v_max: net.max_speed(),
            cell_of_node,
            d_out,
            d_in,
            table,
        })
    }

    /// Raw estimate in miles, before the `v_max` division; 0 when the
    /// bound does not apply (same cell, unknown node, unreachable
    /// boundary pair).
    pub fn raw_estimate(&self, from: NodeId, to: NodeId) -> f64 {
        let (Some(&cf), Some(&ct)) = (
            self.cell_of_node.get(from.index()),
            self.cell_of_node.get(to.index()),
        ) else {
            return 0.0;
        };
        if cf == ct {
            return 0.0;
        }
        let through = self.table[cf as usize * self.n_cells + ct as usize];
        let total = self.d_out[from.index()] + through + self.d_in[to.index()];
        if total.is_finite() {
            total
        } else {
            0.0
        }
    }
}

impl LowerBoundEstimator for BoundaryLb {
    fn travel_lower_bound(&self, from: NodeId, _: Point, to: NodeId, _: Point) -> f64 {
        self.raw_estimate(from, to) / self.v_max
    }

    fn name(&self) -> &'static str {
        "bdLB"
    }

    fn reads_location(&self) -> bool {
        false
    }
}

/// Multi-source Dijkstra over an adjacency list; stops after settling
/// `settle_limit` nodes.
pub(crate) fn multi_source_dijkstra(
    adj: &[Vec<(u32, f64)>],
    sources: &[u32],
    settle_limit: usize,
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; adj.len()];
    let mut heap = BinaryHeap::with_capacity(sources.len() * 2);
    for &s in sources {
        dist[s as usize] = 0.0;
        heap.push(MinEntry::new(0.0, s));
    }
    let mut settled = 0usize;
    while let Some(MinEntry { key: d, tie: u, .. }) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        settled += 1;
        if settled > settle_limit {
            break;
        }
        for &(v, w) in &adj[u as usize] {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(MinEntry::new(nd, v));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::NaiveLb;
    use roadnet::generators::grid;
    use traffic::RoadClass;

    #[test]
    fn same_cell_estimates_zero() {
        let net = grid(6, 6, 0.1, RoadClass::LocalOutside).unwrap();
        let lb = BoundaryLb::build(&net, 1).unwrap();
        let p = *net.point(NodeId(0)).unwrap();
        let q = *net.point(NodeId(35)).unwrap();
        assert_eq!(lb.travel_lower_bound(NodeId(0), p, NodeId(35), q), 0.0);
    }

    #[test]
    fn is_lower_bound_on_network_distance() {
        // On a uniform grid the true network distance is the Manhattan
        // distance; the estimate must never exceed it.
        let spacing = 0.25;
        let net = grid(10, 10, spacing, RoadClass::LocalOutside).unwrap();
        let lb = BoundaryLb::build(&net, 4).unwrap();
        for (a, b) in [(0u32, 99u32), (0, 9), (5, 77), (90, 9), (33, 66)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let (ax, ay) = (a.index() % 10, a.index() / 10);
            let (bx, by) = (b.index() % 10, b.index() / 10);
            let manhattan =
                spacing * ((ax as f64 - bx as f64).abs() + (ay as f64 - by as f64).abs());
            let est = lb.raw_estimate(a, b);
            assert!(
                est <= manhattan + 1e-9,
                "estimate {est} exceeds true distance {manhattan} for {a}->{b}"
            );
        }
    }

    #[test]
    fn tighter_than_naive_on_detour_networks() {
        // Two rows of nodes connected only at the far ends: the network
        // distance between vertically-adjacent nodes is a long detour,
        // which bdLB sees and the Euclidean estimator cannot.
        let schema = traffic::PatternSchema::table1().unwrap();
        let mut net = roadnet::RoadNetwork::with_schema(&schema);
        let n = 12;
        let mut top = Vec::new();
        let mut bot = Vec::new();
        for i in 0..n {
            top.push(net.add_node(i as f64, 1.0).unwrap());
            bot.push(net.add_node(i as f64, 0.0).unwrap());
        }
        for i in 0..n - 1 {
            net.add_bidirectional(top[i], top[i + 1], 1.0, RoadClass::LocalOutside)
                .unwrap();
            net.add_bidirectional(bot[i], bot[i + 1], 1.0, RoadClass::LocalOutside)
                .unwrap();
        }
        // single vertical link at the right end
        net.add_bidirectional(top[n - 1], bot[n - 1], 1.0, RoadClass::LocalOutside)
            .unwrap();

        let lb = BoundaryLb::build(&net, 6).unwrap();
        let naive = NaiveLb::new(net.max_speed());
        let (s, t) = (top[0], bot[0]);
        let (ps, pt) = (*net.point(s).unwrap(), *net.point(t).unwrap());
        let bd = lb.travel_lower_bound(s, ps, t, pt);
        let nv = naive.travel_lower_bound(s, ps, t, pt);
        // true network distance is 23 miles; naive sees 1 mile
        assert!(bd > nv * 3.0, "bd {bd} should dwarf naive {nv}");
        // and remains a lower bound on the true distance
        assert!(bd * net.max_speed() <= 23.0 + 1e-9);
    }

    #[test]
    fn unknown_nodes_fall_back_to_zero() {
        let net = grid(3, 3, 0.5, RoadClass::LocalOutside).unwrap();
        let lb = BoundaryLb::build(&net, 2).unwrap();
        assert_eq!(lb.raw_estimate(NodeId(100), NodeId(0)), 0.0);
    }

    #[test]
    fn dijkstra_basics() {
        // 0 -> 1 (1.0), 1 -> 2 (2.0), 0 -> 2 (5.0)
        let adj = vec![vec![(1u32, 1.0), (2, 5.0)], vec![(2, 2.0)], vec![]];
        let d = multi_source_dijkstra(&adj, &[0], usize::MAX);
        assert_eq!(d, vec![0.0, 1.0, 3.0]);
        let d2 = multi_source_dijkstra(&adj, &[0, 1], usize::MAX);
        assert_eq!(d2, vec![0.0, 0.0, 2.0]);
        let none = multi_source_dijkstra(&adj, &[], usize::MAX);
        assert!(none.iter().all(|d| d.is_infinite()));
    }
}
