//! The paper's boundary-node lower-bound estimator, bdLB (§5), kept to
//! regenerate Figure 9 and ablation A-1 ([`crate::fig9`],
//! [`crate::ablations::grid_sweep`]). The engine serves with
//! [`allfp::MinTimeLb`], which is never looser and needs no table.
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
//! travel-time lower bound, and the estimator answers the larger of it
//! and the naive bound, so it is never looser than [`NaiveLb`].

use std::collections::BinaryHeap;

use allfp::{LowerBoundEstimator, MinEntry, NaiveLb};
use roadnet::{NetworkError, NodeId, Point, RoadNetwork};

/// The precomputed boundary-node estimator.
///
/// `PartialEq` compares every table bit-for-bit — the live-update
/// property tests use it to prove that tables built over a
/// delta-applied network equal those built over its predecessor.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryLb {
    /// Number of cells (`grid²`).
    n_cells: usize,
    v_max: f64,
    naive: NaiveLb,
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
    /// available cores with `std::thread` scoped threads; a worker's
    /// panic propagates to the caller.
    pub fn build(net: &RoadNetwork, grid: usize) -> Result<BoundaryLb, NetworkError> {
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
        let results: Vec<CellResult> = std::thread::scope(|scope| {
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
                        let dist_f = multi_source_dijkstra(fwd, sources);
                        // backward: everyone → boundary
                        let dist_b = multi_source_dijkstra(rev, sources);
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
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

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
            naive: NaiveLb::new(net.max_speed()),
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
    /// The naive bound, then the table's over `v_max`: the larger.
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64 {
        self.naive
            .travel_lower_bound(from, from_loc, to, to_loc)
            .max(self.raw_estimate(from, to) / self.v_max)
    }

    fn name(&self) -> &'static str {
        "bdLB"
    }
}

/// Every node's distance from the nearest of `sources` over an
/// adjacency list (`+∞` where none reaches).
pub fn multi_source_dijkstra(adj: &[Vec<(u32, f64)>], sources: &[u32]) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; adj.len()];
    let mut heap = BinaryHeap::with_capacity(sources.len() * 2);
    for &s in sources {
        dist[s as usize] = 0.0;
        heap.push(MinEntry::new(0.0, s));
    }
    while let Some(MinEntry { key: d, tie: u, .. }) = heap.pop() {
        if d > dist[u as usize] {
            continue;
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
