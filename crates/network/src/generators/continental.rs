//! The continental tier: seeded million-node networks, generated
//! *lazily*.
//!
//! The paper's experiments top out at county scale (≈14k nodes). To
//! exercise CCAM at continental scale — where the graph no longer fits
//! comfortably in memory and builds must stream — this generator tiles
//! a `cells_x × cells_y` lattice of `cell_w × cell_h` street cells and
//! defines every node location and every adjacency list as a **pure
//! function of `(config, node id)`**:
//!
//! * jittered lattice positions from a splitmix64 hash of the id (the
//!   same mixing constants as `RoadNetwork::seeded_delta`);
//! * deterministic edge rules — per-cell row chains, a column-0 spine
//!   per cell, guaranteed corner stitches between adjacent cells (so
//!   the network is provably connected), plus hash-thinned extra
//!   vertical streets;
//! * per-edge distance `euclidean × (1 + wiggle)` with the wiggle
//!   hashed from the unordered node pair, so both endpoints derive the
//!   identical (and metric-valid) length;
//! * the paper's Table 1 road classes: a central band of cells carries
//!   a transcontinental highway corridor (toward the center as
//!   [`RoadClass::InboundHighway`], away as
//!   [`RoadClass::OutboundHighway`]), core cells are
//!   [`RoadClass::LocalBoston`], everything else
//!   [`RoadClass::LocalOutside`] — each with its CapeCod pattern.
//!
//! [`ContinentalNet`] implements [`NetworkSource`] directly over those
//! rules, so the CCAM builder can stream a million-node network to
//! pages without the graph ever existing in memory; [`continental`]
//! materializes the identical [`RoadNetwork`] (test- and small-scale
//! path). The two agree node-for-node and edge-for-edge, pinned by the
//! tests below.

use traffic::{CapeCodPattern, PatternSchema, RoadClass};

use crate::source::NetworkSource;
use crate::{Edge, NetworkError, NodeId, PatternId, Point, Result, RoadNetwork};

/// Parameters for the continental tier. The network has
/// `cells_x · cells_y · cell_w · cell_h` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinentalConfig {
    /// Hash seed; equal configs with equal seeds are identical
    /// networks, bit for bit.
    pub seed: u64,
    /// Cell columns.
    pub cells_x: u32,
    /// Cell rows.
    pub cells_y: u32,
    /// Street-lattice columns per cell.
    pub cell_w: u32,
    /// Street-lattice rows per cell.
    pub cell_h: u32,
    /// Lattice spacing, miles.
    pub spacing: f64,
    /// Positional jitter as a fraction of spacing (< 0.5 keeps the
    /// lattice planar).
    pub jitter: f64,
    /// Per-mille of candidate extra vertical streets to keep (adds
    /// cycles beyond the guaranteed spanning structure).
    pub extra_link_permille: u32,
    /// Half-width, in cells, of the `LocalBoston` core around the
    /// center cell.
    pub core_cells: u32,
}

impl ContinentalConfig {
    /// The metro-huge tier: 16×16 cells of 64×64 nodes = 1,048,576
    /// nodes — the million-node CCAM scaling target.
    pub fn metro_huge(seed: u64) -> Self {
        ContinentalConfig {
            seed,
            cells_x: 16,
            cells_y: 16,
            cell_w: 64,
            cell_h: 64,
            spacing: 0.05,
            jitter: 0.3,
            extra_link_permille: 300,
            core_cells: 1,
        }
    }

    /// A scaled-down huge tier (4×4 cells of 32×32 = 16,384 nodes)
    /// with the same structure, for the metro-huge smoke test.
    pub fn smoke(seed: u64) -> Self {
        ContinentalConfig {
            cells_x: 4,
            cells_y: 4,
            cell_w: 32,
            cell_h: 32,
            ..ContinentalConfig::metro_huge(seed)
        }
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        (self.cells_x as usize) * (self.cells_y as usize) * self.nodes_per_cell()
    }

    fn nodes_per_cell(&self) -> usize {
        (self.cell_w as usize) * (self.cell_h as usize)
    }
}

/// splitmix64 finalizer — the repo's standard seeded hash (see
/// `RoadNetwork::seeded_delta`).
fn mix64(seed: u64, v: u64) -> u64 {
    let mut z = seed
        .wrapping_add(v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)` with full 53-bit mantissa entropy.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A node's decoded lattice coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Coords {
    cx: u32,
    cy: u32,
    i: u32,
    j: u32,
}

/// A lazily generated continental network: every [`NetworkSource`]
/// call recomputes from the config, so the memory footprint is the
/// pattern table and nothing else, at any node count.
pub struct ContinentalNet {
    cfg: ContinentalConfig,
    patterns: Vec<CapeCodPattern>,
    max_speed: f64,
}

impl ContinentalNet {
    /// Validate the config and set up the pattern table.
    pub fn new(cfg: ContinentalConfig) -> Result<ContinentalNet> {
        if cfg.cell_w == 0 || cfg.cell_h == 0 || cfg.cells_x == 0 || cfg.cells_y == 0 {
            return Err(NetworkError::BadCoordinate(0.0, 0.0));
        }
        if cfg.n_nodes() > u32::MAX as usize {
            return Err(NetworkError::BadCoordinate(cfg.n_nodes() as f64, 0.0));
        }
        let schema = PatternSchema::table1()?;
        let patterns: Vec<CapeCodPattern> = RoadClass::ALL
            .iter()
            .map(|c| schema.pattern(*c).clone())
            .collect();
        let max_speed = patterns
            .iter()
            .map(CapeCodPattern::max_speed)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(ContinentalNet {
            cfg,
            patterns,
            max_speed,
        })
    }

    /// The generating config.
    pub fn config(&self) -> &ContinentalConfig {
        &self.cfg
    }

    /// The pattern table (one [`CapeCodPattern`] per [`RoadClass`], in
    /// [`RoadClass::ALL`] order — matching the [`PatternId`]s the
    /// edges carry). A CCAM build persists this alongside the pages.
    pub fn patterns(&self) -> &[CapeCodPattern] {
        &self.patterns
    }

    fn decode(&self, node: NodeId) -> Result<Coords> {
        let id = node.index();
        if id >= self.cfg.n_nodes() {
            return Err(NetworkError::UnknownNode(node));
        }
        let npc = self.cfg.nodes_per_cell();
        let (cell, k) = (id / npc, id % npc);
        Ok(Coords {
            cx: (cell % self.cfg.cells_x as usize) as u32,
            cy: (cell / self.cfg.cells_x as usize) as u32,
            i: (k % self.cfg.cell_w as usize) as u32,
            j: (k / self.cfg.cell_w as usize) as u32,
        })
    }

    fn encode(&self, c: Coords) -> NodeId {
        let npc = self.cfg.nodes_per_cell();
        let cell = (c.cy as usize) * (self.cfg.cells_x as usize) + c.cx as usize;
        NodeId((cell * npc + (c.j as usize) * (self.cfg.cell_w as usize) + c.i as usize) as u32)
    }

    /// Global (unjittered) lattice column/row of a node.
    fn lattice(&self, c: Coords) -> (u64, u64) {
        (
            u64::from(c.cx) * u64::from(self.cfg.cell_w) + u64::from(c.i),
            u64::from(c.cy) * u64::from(self.cfg.cell_h) + u64::from(c.j),
        )
    }

    fn point_of(&self, c: Coords) -> Point {
        let (gx, gy) = self.lattice(c);
        let id = u64::from(self.encode(c).0);
        let jx = (unit_f64(mix64(self.cfg.seed, id.wrapping_mul(2))) - 0.5)
            * 2.0
            * self.cfg.jitter
            * self.cfg.spacing;
        let jy = (unit_f64(mix64(self.cfg.seed, id.wrapping_mul(2) + 1)) - 0.5)
            * 2.0
            * self.cfg.jitter
            * self.cfg.spacing;
        Point {
            x: gx as f64 * self.cfg.spacing + jx,
            y: gy as f64 * self.cfg.spacing + jy,
        }
    }

    /// Whether a node sits on the transcontinental highway corridor:
    /// row 0 of every cell in the central band of cell rows.
    fn on_highway(&self, c: Coords) -> bool {
        c.j == 0 && c.cy == self.cfg.cells_y / 2
    }

    /// Whether a cell belongs to the `LocalBoston` core.
    fn in_core(&self, c: Coords) -> bool {
        let (ccx, ccy) = (self.cfg.cells_x / 2, self.cfg.cells_y / 2);
        c.cx.abs_diff(ccx) <= self.cfg.core_cells && c.cy.abs_diff(ccy) <= self.cfg.core_cells
    }

    /// Keep the extra vertical street whose *lower* endpoint is `low`?
    fn keep_extra(&self, low: Coords) -> bool {
        let id = u64::from(self.encode(low).0);
        mix64(self.cfg.seed ^ 0x5EED_11BB, id) % 1000 < u64::from(self.cfg.extra_link_permille)
    }

    /// The directed edge `from → to` under the generation rules.
    fn edge(&self, from: Coords, to: Coords) -> Edge {
        let (a, b) = (self.encode(from), self.encode(to));
        let (pa, pb) = (self.point_of(from), self.point_of(to));
        let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
        let wiggle = unit_f64(mix64(
            self.cfg.seed ^ 0xD15_7A4CE,
            (u64::from(lo) << 32) | u64::from(hi),
        )) * 0.15;
        let class = if self.on_highway(from) && self.on_highway(to) {
            // Inbound points toward the center meridian; ties (mirror
            // pairs around the center) resolve outbound.
            let center =
                (u64::from(self.cfg.cells_x) * u64::from(self.cfg.cell_w) - 1) as f64 / 2.0;
            let (gxf, _) = self.lattice(from);
            let (gxt, _) = self.lattice(to);
            if (gxt as f64 - center).abs() < (gxf as f64 - center).abs() {
                RoadClass::InboundHighway
            } else {
                RoadClass::OutboundHighway
            }
        } else if self.in_core(from) && self.in_core(to) {
            RoadClass::LocalBoston
        } else {
            RoadClass::LocalOutside
        };
        Edge {
            to: b,
            distance: pa.distance(&pb) * (1.0 + wiggle),
            class,
            pattern: PatternId(class.index() as u16),
        }
    }
}

impl NetworkSource for ContinentalNet {
    fn n_nodes(&self) -> usize {
        self.cfg.n_nodes()
    }

    fn find_node(&self, node: NodeId) -> Result<Point> {
        Ok(self.point_of(self.decode(node)?))
    }

    fn successors(&self, node: NodeId) -> Result<Vec<Edge>> {
        let mut out = Vec::new();
        self.successors_into(node, &mut out)?;
        Ok(out)
    }

    fn successors_into(&self, node: NodeId, out: &mut Vec<Edge>) -> Result<()> {
        out.clear();
        let c = self.decode(node)?;
        let cfg = &self.cfg;
        let mut push = |to: Coords| out.push(self.edge(c, to));

        // 1. row chain, left then right
        if c.i > 0 {
            push(Coords { i: c.i - 1, ..c });
        }
        if c.i + 1 < cfg.cell_w {
            push(Coords { i: c.i + 1, ..c });
        }
        // 2. corner stitches to the horizontally adjacent cells
        if c.i == 0 && c.j == 0 && c.cx > 0 {
            push(Coords {
                cx: c.cx - 1,
                i: cfg.cell_w - 1,
                ..c
            });
        }
        if c.i == cfg.cell_w - 1 && c.j == 0 && c.cx + 1 < cfg.cells_x {
            push(Coords {
                cx: c.cx + 1,
                i: 0,
                ..c
            });
        }
        // 3. column-0 spine, down then up
        if c.i == 0 {
            if c.j > 0 {
                push(Coords { j: c.j - 1, ..c });
            }
            if c.j + 1 < cfg.cell_h {
                push(Coords { j: c.j + 1, ..c });
            }
            // 4. corner stitches to the vertically adjacent cells
            if c.j == 0 && c.cy > 0 {
                push(Coords {
                    cy: c.cy - 1,
                    j: cfg.cell_h - 1,
                    ..c
                });
            }
            if c.j == cfg.cell_h - 1 && c.cy + 1 < cfg.cells_y {
                push(Coords {
                    cy: c.cy + 1,
                    j: 0,
                    ..c
                });
            }
        }
        // 5. hash-thinned extra vertical streets (columns ≥ 1; column 0
        // already has the spine)
        if c.i >= 1 {
            if c.j > 0 && self.keep_extra(Coords { j: c.j - 1, ..c }) {
                push(Coords { j: c.j - 1, ..c });
            }
            if c.j + 1 < cfg.cell_h && self.keep_extra(c) {
                push(Coords { j: c.j + 1, ..c });
            }
        }
        Ok(())
    }

    fn pattern(&self, id: PatternId) -> Result<&CapeCodPattern> {
        self.patterns
            .get(usize::from(id.0))
            .ok_or(NetworkError::UnknownPattern(id))
    }

    fn max_speed(&self) -> f64 {
        self.max_speed
    }
}

/// Materialize the continental network as a [`RoadNetwork`] —
/// node-for-node and edge-for-edge identical to [`ContinentalNet`]
/// over the same config (pinned by the equivalence test). Intended for
/// tests and small tiers; the million-node tier should stream through
/// [`ContinentalNet`] instead.
pub fn continental(cfg: &ContinentalConfig) -> Result<RoadNetwork> {
    let lazy = ContinentalNet::new(cfg.clone())?;
    let schema = PatternSchema::table1()?;
    let mut net = RoadNetwork::with_schema(&schema);
    let n = lazy.n_nodes();
    for id in 0..n {
        let p = lazy.find_node(NodeId(id as u32))?;
        net.add_node(p.x, p.y)?;
    }
    let mut edges = Vec::new();
    for id in 0..n {
        let u = NodeId(id as u32);
        lazy.successors_into(u, &mut edges)?;
        for e in &edges {
            net.add_class_edge(u, e.to, e.distance, e.class)?;
        }
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::is_connected_undirected;

    fn tiny(seed: u64) -> ContinentalConfig {
        ContinentalConfig {
            cells_x: 4,
            cells_y: 4,
            cell_w: 6,
            cell_h: 6,
            ..ContinentalConfig::metro_huge(seed)
        }
    }

    #[test]
    fn node_count_matches_config() {
        assert_eq!(ContinentalConfig::metro_huge(0).n_nodes(), 1 << 20);
        assert_eq!(ContinentalConfig::smoke(0).n_nodes(), 16_384);
        assert_eq!(tiny(0).n_nodes(), 576);
    }

    #[test]
    fn materialized_is_connected_and_classed() {
        let net = continental(&tiny(7)).unwrap();
        assert_eq!(net.n_nodes(), 576);
        assert!(is_connected_undirected(&net));
        let mut class_seen = [false; 4];
        for u in net.node_ids() {
            for e in net.neighbors(u).unwrap() {
                class_seen[e.class.index()] = true;
                // every directed edge has a reverse companion
                assert!(
                    net.neighbors(e.to).unwrap().iter().any(|r| r.to == u),
                    "edge {u} -> {} has no reverse",
                    e.to
                );
            }
        }
        assert_eq!(class_seen, [true; 4], "some road class missing");
    }

    #[test]
    fn lazy_equals_materialized() {
        let cfg = tiny(42);
        let lazy = ContinentalNet::new(cfg.clone()).unwrap();
        let net = continental(&cfg).unwrap();
        assert_eq!(NetworkSource::n_nodes(&lazy), net.n_nodes());
        assert!((lazy.max_speed() - NetworkSource::max_speed(&net)).abs() < 1e-12);
        for u in net.node_ids() {
            assert_eq!(
                lazy.find_node(u).unwrap(),
                *net.point(u).unwrap(),
                "node {u} location diverged"
            );
            assert_eq!(
                lazy.successors(u).unwrap().as_slice(),
                net.neighbors(u).unwrap(),
                "node {u} adjacency diverged"
            );
        }
        for pid in 0..4u16 {
            assert_eq!(
                NetworkSource::pattern(&lazy, PatternId(pid)).unwrap(),
                NetworkSource::pattern(&net, PatternId(pid)).unwrap()
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let a = continental(&tiny(1)).unwrap();
        let b = continental(&tiny(1)).unwrap();
        let c = continental(&tiny(2)).unwrap();
        assert_eq!(a.n_edges(), b.n_edges());
        for u in a.node_ids() {
            assert_eq!(a.point(u).unwrap(), b.point(u).unwrap());
        }
        let moved = a
            .node_ids()
            .filter(|&u| a.point(u).unwrap() != c.point(u).unwrap())
            .count();
        assert!(moved > 500, "different seed barely moved nodes: {moved}");
    }

    #[test]
    fn highway_corridor_spans_the_band() {
        let cfg = tiny(3);
        let net = continental(&cfg).unwrap();
        let lazy = ContinentalNet::new(cfg.clone()).unwrap();
        let mut inbound = 0usize;
        let mut outbound = 0usize;
        for u in net.node_ids() {
            for e in net.neighbors(u).unwrap() {
                match e.class {
                    RoadClass::InboundHighway => inbound += 1,
                    RoadClass::OutboundHighway => outbound += 1,
                    _ => {
                        // locals never sit fully on the corridor row
                        let c_from = lazy.decode(u).unwrap();
                        let c_to = lazy.decode(e.to).unwrap();
                        assert!(!(lazy.on_highway(c_from) && lazy.on_highway(c_to)));
                    }
                }
            }
        }
        // the corridor crosses the full width, one chain per band cell
        let corridor = (cfg.cells_x * cfg.cell_w - 1) as usize;
        assert_eq!(inbound + outbound, 2 * corridor);
        assert!(inbound > 0 && outbound > 0);
    }

    #[test]
    fn rejects_degenerate_and_oversized_configs() {
        assert!(ContinentalNet::new(ContinentalConfig {
            cell_w: 0,
            ..tiny(0)
        })
        .is_err());
        assert!(ContinentalNet::new(ContinentalConfig {
            cells_x: 1 << 16,
            cells_y: 1 << 16,
            ..tiny(0)
        })
        .is_err());
    }
}
