//! The Suffolk-like metro network — the experiment substrate.
//!
//! The paper evaluates on a TIGER/Line extract of Suffolk County, MA
//! (metropolitan Boston): 14,456 nodes and 20,461 edges across four
//! road classes. That dataset is not redistributable here, so this
//! generator produces a deterministic synthetic stand-in with the same
//! structural ingredients (see DESIGN.md §3):
//!
//! * a **dense urban core** (disc of radius `core_radius`) of
//!   jittered local streets, class [`RoadClass::LocalBoston`];
//! * a **sparser suburban grid** out to `extent`, class
//!   [`RoadClass::LocalOutside`];
//! * `n_highways` **radial highways** from the core to the edge, each
//!   a pair of one-way chains — toward the core as
//!   [`RoadClass::InboundHighway`], away as
//!   [`RoadClass::OutboundHighway`] — with interchanges onto the local
//!   grid;
//! * an optional **ring highway** just outside the core;
//! * local streets thinned to a realistic average degree (a spanning
//!   tree is always retained, so the network stays connected).
//!
//! With default parameters the network has ≈14–15k nodes and ≈20k
//! undirected road segments (≈40k directed edges), matching the
//! paper's dataset scale under the reading that TIGER segment counts
//! are undirected.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use traffic::{PatternSchema, RoadClass};

use crate::generators::UnionFind;
use crate::{NodeId, Point, Result, RoadNetwork};

/// Parameters for [`suffolk_like`]. Distances in miles.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroConfig {
    /// RNG seed; equal configs with equal seeds produce identical
    /// networks.
    pub seed: u64,
    /// Half-width of the square region (networks span `2·extent` per
    /// axis).
    pub extent: f64,
    /// Radius of the urban core disc.
    pub core_radius: f64,
    /// Street spacing inside the core.
    pub core_spacing: f64,
    /// Street spacing outside the core.
    pub outer_spacing: f64,
    /// Positional jitter as a fraction of local spacing.
    pub jitter: f64,
    /// Number of radial highways.
    pub n_highways: usize,
    /// Node spacing along highways.
    pub highway_spacing: f64,
    /// Probability of keeping a non-spanning-tree local street.
    pub keep_extra_edge_prob: f64,
    /// Every k-th highway node gets an interchange to the local grid.
    pub interchange_every: usize,
    /// Whether to add a ring highway just outside the core.
    pub ring: bool,
    /// Whether to carve a harbor — a water sector with no local
    /// streets, crossed only by bridge highways. Suffolk County is
    /// bounded by Boston Harbor; the resulting detours are what makes
    /// network distance exceed Euclidean distance, the gap the
    /// boundary-node estimator (§5) exploits.
    pub harbor: bool,
    /// Harbor sector center angle, radians (default: southeast).
    pub harbor_angle: f64,
    /// Harbor sector half-angle, radians.
    pub harbor_half_angle: f64,
}

impl Default for MetroConfig {
    /// Full experiment scale: ≈14–15k nodes (the paper's dataset size).
    fn default() -> Self {
        MetroConfig {
            seed: 0x5EED_CAFE,
            extent: 4.0,
            core_radius: 2.0,
            core_spacing: 0.05,
            outer_spacing: 0.08,
            jitter: 0.3,
            n_highways: 8,
            highway_spacing: 0.25,
            keep_extra_edge_prob: 0.45,
            interchange_every: 4,
            ring: true,
            harbor: true,
            harbor_angle: -std::f64::consts::FRAC_PI_4,
            harbor_half_angle: 0.45,
        }
    }
}

impl MetroConfig {
    /// A reduced configuration (≈1–2k nodes) for tests and quick runs.
    pub fn small(seed: u64) -> Self {
        MetroConfig {
            seed,
            extent: 2.0,
            core_radius: 1.0,
            core_spacing: 0.14,
            outer_spacing: 0.22,
            ..MetroConfig::default()
        }
    }

    /// A medium configuration (≈3–4k nodes) covering the full 8×8-mile
    /// extent — same trip distances as the paper's workloads at a
    /// fraction of the node count; the experiment harness's default.
    pub fn medium(seed: u64) -> Self {
        MetroConfig {
            seed,
            core_spacing: 0.11,
            outer_spacing: 0.18,
            ..MetroConfig::default()
        }
    }
}

/// Spatial hash over generated points for nearest-neighbor stitching.
struct BucketIndex {
    cell: f64,
    buckets: HashMap<(i32, i32), Vec<(NodeId, Point)>>,
}

impl BucketIndex {
    fn new(cell: f64) -> Self {
        BucketIndex {
            cell,
            buckets: HashMap::new(),
        }
    }

    fn key(&self, p: &Point) -> (i32, i32) {
        (
            (p.x / self.cell).floor() as i32,
            (p.y / self.cell).floor() as i32,
        )
    }

    fn insert(&mut self, id: NodeId, p: Point) {
        self.buckets.entry(self.key(&p)).or_default().push((id, p));
    }

    /// Nearest inserted node to `p`, searching outward ring by ring.
    fn nearest(&self, p: &Point) -> Option<(NodeId, f64)> {
        let (cx, cy) = self.key(p);
        let mut best: Option<(NodeId, f64)> = None;
        for radius in 0i32..16 {
            for dx in -radius..=radius {
                for dy in -radius..=radius {
                    if dx.abs().max(dy.abs()) != radius {
                        continue; // ring cells only
                    }
                    if let Some(v) = self.buckets.get(&(cx + dx, cy + dy)) {
                        for (id, q) in v {
                            let d = p.distance(q);
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((*id, d));
                            }
                        }
                    }
                }
            }
            // Once we have a candidate, one extra ring guarantees
            // correctness under the hash geometry.
            if let Some((_, bd)) = best {
                if bd <= (radius as f64) * self.cell {
                    break;
                }
            }
        }
        best
    }
}

/// `true` if `(x, y)` lies in the harbor water sector.
fn in_harbor(cfg: &MetroConfig, x: f64, y: f64) -> bool {
    if !cfg.harbor {
        return false;
    }
    let r = x.hypot(y);
    if r <= cfg.core_radius * 0.55 {
        return false; // downtown waterfront stays on land
    }
    let angle = y.atan2(x);
    let mut diff = angle - cfg.harbor_angle;
    while diff > std::f64::consts::PI {
        diff -= std::f64::consts::TAU;
    }
    while diff < -std::f64::consts::PI {
        diff += std::f64::consts::TAU;
    }
    diff.abs() < cfg.harbor_half_angle
}

/// Generate the Suffolk-like metro network.
pub fn suffolk_like(cfg: &MetroConfig) -> Result<RoadNetwork> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = PatternSchema::table1()?;
    let mut net = RoadNetwork::with_schema(&schema);

    let mut index = BucketIndex::new(cfg.outer_spacing.max(cfg.core_spacing) * 1.5);
    let mut local_nodes: Vec<NodeId> = Vec::new();
    // candidate undirected local street segments
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();

    // --- 1. core grid (disc) ------------------------------------------------
    let core_ids = lay_grid(
        &mut net,
        &mut rng,
        cfg.core_spacing,
        cfg.jitter,
        -cfg.core_radius,
        cfg.core_radius,
        |x, y| x.hypot(y) <= cfg.core_radius && !in_harbor(cfg, x, y),
        &mut local_nodes,
        &mut candidates,
    )?;
    for &(id, p) in &core_ids {
        index.insert(id, p);
    }

    // --- 2. outer grid (annulus to the square edge) -------------------------
    let outer_ids = lay_grid(
        &mut net,
        &mut rng,
        cfg.outer_spacing,
        cfg.jitter,
        -cfg.extent,
        cfg.extent,
        |x, y| x.hypot(y) > cfg.core_radius && !in_harbor(cfg, x, y),
        &mut local_nodes,
        &mut candidates,
    )?;

    // --- 3. stitch outer grid to core along the seam ------------------------
    let seam = cfg.core_radius + 1.6 * cfg.outer_spacing;
    for &(id, p) in &outer_ids {
        let r = p.x.hypot(p.y);
        if r <= seam {
            if let Some((near, _)) = index.nearest(&p) {
                candidates.push((id, near));
            }
        }
        index.insert(id, p);
    }

    // --- 4. thin local streets, keeping a spanning tree ---------------------
    let mut uf = UnionFind::new(net.n_nodes() + 4096);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    shuffle(&mut order, &mut rng);
    let mut kept: Vec<(NodeId, NodeId)> = Vec::with_capacity(candidates.len());
    let mut extras: Vec<(NodeId, NodeId)> = Vec::new();
    for i in order {
        let (a, b) = candidates[i];
        if uf.union(a.0, b.0) {
            kept.push((a, b));
        } else {
            extras.push((a, b));
        }
    }
    for (a, b) in extras {
        if rng.gen_bool(cfg.keep_extra_edge_prob) {
            kept.push((a, b));
        }
    }
    for (a, b) in kept {
        let d = net.euclidean(a, b)?;
        let class = local_class(&net, cfg, a, b)?;
        net.add_bidirectional(a, b, d.max(1e-6), class)?;
    }

    // --- 5. radial highways --------------------------------------------------
    for h in 0..cfg.n_highways {
        let theta = (h as f64) / (cfg.n_highways as f64) * std::f64::consts::TAU
            + rng.gen_range(-0.05..0.05);
        let (dx, dy) = (theta.cos(), theta.sin());
        // from just inside the core to the edge of the square region
        let r_start = cfg.core_radius * 0.2;
        let r_end = cfg.extent / dx.abs().max(dy.abs()).max(1e-9) * 0.95;
        let r_end = r_end.min(cfg.extent * 1.35);
        let mut chain: Vec<NodeId> = Vec::new();
        let mut r = r_start;
        while r <= r_end {
            let id = net.add_node(r * dx, r * dy)?;
            chain.push(id);
            r += cfg.highway_spacing;
        }
        for w in chain.windows(2) {
            let (inner, outer) = (w[0], w[1]);
            let d = net.euclidean(inner, outer)?;
            // toward the core = inbound; away = outbound
            net.add_class_edge(outer, inner, d, RoadClass::InboundHighway)?;
            net.add_class_edge(inner, outer, d, RoadClass::OutboundHighway)?;
        }
        // interchanges onto the local grid (not mid-bridge: skip sites
        // whose nearest street is far away, i.e. over water)
        let max_ramp = 4.0 * cfg.outer_spacing;
        for (i, &hw) in chain.iter().enumerate() {
            if i % cfg.interchange_every == 0 {
                let p = *net.point(hw)?;
                if in_harbor(cfg, p.x, p.y) {
                    continue; // no exits mid-bridge
                }
                if let Some((near, d)) = index.nearest(&p) {
                    if d <= max_ramp {
                        let class = local_class(&net, cfg, hw, near)?;
                        net.add_bidirectional(hw, near, d.max(1e-6), class)?;
                    }
                }
            }
        }
    }

    // --- 6. ring highway ------------------------------------------------------
    if cfg.ring {
        let r = cfg.core_radius + 3.0 * cfg.outer_spacing;
        let n_ring = ((std::f64::consts::TAU * r) / cfg.highway_spacing).ceil() as usize;
        let mut ring: Vec<NodeId> = Vec::with_capacity(n_ring);
        for k in 0..n_ring {
            let a = (k as f64) / (n_ring as f64) * std::f64::consts::TAU;
            ring.push(net.add_node(r * a.cos(), r * a.sin())?);
        }
        for k in 0..n_ring {
            let (a, b) = (ring[k], ring[(k + 1) % n_ring]);
            let d = net.euclidean(a, b)?;
            // one-way pair; class assignment is arbitrary for a ring —
            // clockwise as outbound, counter-clockwise as inbound.
            net.add_class_edge(a, b, d, RoadClass::OutboundHighway)?;
            net.add_class_edge(b, a, d, RoadClass::InboundHighway)?;
            if k % cfg.interchange_every == 0 {
                let p = *net.point(a)?;
                if in_harbor(cfg, p.x, p.y) {
                    continue; // no exits mid-bridge
                }
                if let Some((near, d)) = index.nearest(&p) {
                    if d <= 4.0 * cfg.outer_spacing {
                        let class = local_class(&net, cfg, a, near)?;
                        net.add_bidirectional(a, near, d.max(1e-6), class)?;
                    }
                }
            }
        }
    }

    // --- 7. final connectivity sweep ------------------------------------------
    connect_components(&mut net, cfg)?;

    Ok(net)
}

/// Lay a jittered grid over `[lo, hi]²` keeping points where
/// `keep(x, y)`; records nodes and 4-neighbor candidate segments.
#[allow(clippy::too_many_arguments)]
fn lay_grid(
    net: &mut RoadNetwork,
    rng: &mut StdRng,
    spacing: f64,
    jitter: f64,
    lo: f64,
    hi: f64,
    keep: impl Fn(f64, f64) -> bool,
    local_nodes: &mut Vec<NodeId>,
    candidates: &mut Vec<(NodeId, NodeId)>,
) -> Result<Vec<(NodeId, Point)>> {
    // The grid-coordinate map is internal (left/down neighbor lookup);
    // callers get the nodes as a Vec in generation order. Returning the
    // HashMap itself would hand callers a process-random iteration
    // order (std's hasher is seeded per process), and the stitching
    // pass inserts into the spatial index *while* querying it — seeded
    // runs would produce different networks from run to run.
    let mut ids: HashMap<(i32, i32), (NodeId, Point)> = HashMap::new();
    let mut laid: Vec<(NodeId, Point)> = Vec::new();
    let n = ((hi - lo) / spacing).floor() as i32;
    for j in 0..=n {
        for i in 0..=n {
            let gx = lo + f64::from(i) * spacing;
            let gy = lo + f64::from(j) * spacing;
            if !keep(gx, gy) {
                continue;
            }
            let jx = gx + rng.gen_range(-jitter..jitter) * spacing;
            let jy = gy + rng.gen_range(-jitter..jitter) * spacing;
            let id = net.add_node(jx, jy)?;
            let p = Point { x: jx, y: jy };
            ids.insert((i, j), (id, p));
            laid.push((id, p));
            local_nodes.push(id);
            if let Some(&(left, _)) = ids.get(&(i - 1, j)) {
                candidates.push((left, id));
            }
            if let Some(&(down, _)) = ids.get(&(i, j - 1)) {
                candidates.push((down, id));
            }
        }
    }
    Ok(laid)
}

/// Local street class from endpoint radii: inside the core disc →
/// `LocalBoston`, otherwise `LocalOutside`.
fn local_class(net: &RoadNetwork, cfg: &MetroConfig, a: NodeId, b: NodeId) -> Result<RoadClass> {
    let pa = net.point(a)?;
    let pb = net.point(b)?;
    let ra = pa.x.hypot(pa.y);
    let rb = pb.x.hypot(pb.y);
    Ok(if ra.max(rb) <= cfg.core_radius * 1.02 {
        RoadClass::LocalBoston
    } else {
        RoadClass::LocalOutside
    })
}

/// Fisher–Yates shuffle with the generator's RNG (keeps `rand`'s
/// `SliceRandom` out of the public dependency surface).
fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// If the undirected view has several components (rare — seam
/// stitching can miss), link each to the main component at its closest
/// node pair.
fn connect_components(net: &mut RoadNetwork, cfg: &MetroConfig) -> Result<()> {
    loop {
        let n = net.n_nodes();
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let rev = net.reverse_adj();
        while let Some(u) = stack.pop() {
            for e in net.neighbors(u)? {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    stack.push(e.to);
                }
            }
            for (v, _) in &rev[u.index()] {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(*v);
                }
            }
        }
        let Some(stranded) = (0..n).find(|&i| !seen[i]) else {
            return Ok(());
        };
        // nearest seen node to the stranded one
        let sp = *net.point(NodeId(stranded as u32))?;
        // Node 0 is in the main component: the first candidate.
        let mut best = (0, net.point(NodeId(0))?.distance(&sp));
        for (i, &s) in seen.iter().enumerate().skip(1) {
            if s {
                let d = net.point(NodeId(i as u32))?.distance(&sp);
                if d < best.1 {
                    best = (i, d);
                }
            }
        }
        let (b, d) = best;
        let class = local_class(net, cfg, NodeId(stranded as u32), NodeId(b as u32))?;
        net.add_bidirectional(
            NodeId(stranded as u32),
            NodeId(b as u32),
            d.max(1e-6),
            class,
        )?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::is_connected_undirected;
    use crate::NetworkStats;

    #[test]
    fn small_metro_is_connected_and_classed() {
        let net = suffolk_like(&MetroConfig::small(11)).unwrap();
        assert!(net.n_nodes() > 300, "got {}", net.n_nodes());
        assert!(is_connected_undirected(&net));
        let stats = NetworkStats::of(&net);
        // all four classes present
        for (i, &c) in stats.class_counts.iter().enumerate() {
            assert!(c > 0, "class {i} missing: {stats}");
        }
        // inbound and outbound highway counts are paired
        assert_eq!(stats.class_counts[0], stats.class_counts[1]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = suffolk_like(&MetroConfig::small(5)).unwrap();
        let b = suffolk_like(&MetroConfig::small(5)).unwrap();
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
        let c = suffolk_like(&MetroConfig::small(6)).unwrap();
        assert!(
            a.n_nodes() != c.n_nodes() || a.n_edges() != c.n_edges(),
            "different seeds should perturb the network"
        );
    }

    #[test]
    fn core_streets_are_boston_class() {
        let net = suffolk_like(&MetroConfig::small(3)).unwrap();
        let cfg = MetroConfig::small(3);
        for u in net.node_ids() {
            for e in net.neighbors(u).unwrap() {
                if e.class == RoadClass::LocalBoston {
                    let p = net.point(u).unwrap();
                    let q = net.point(e.to).unwrap();
                    assert!(p.x.hypot(p.y) <= cfg.core_radius * 1.05);
                    assert!(q.x.hypot(q.y) <= cfg.core_radius * 1.05);
                }
            }
        }
    }

    #[test]
    fn harbor_carves_a_detour() {
        let with = suffolk_like(&MetroConfig::small(9)).unwrap();
        let without = suffolk_like(&MetroConfig {
            harbor: false,
            ..MetroConfig::small(9)
        })
        .unwrap();
        // fewer local nodes with the harbor carved out
        assert!(with.n_nodes() < without.n_nodes());
        // no local street endpoints deep inside the water sector
        let cfg = MetroConfig::small(9);
        for u in with.node_ids() {
            for e in with.neighbors(u).unwrap() {
                if e.class == RoadClass::LocalBoston || e.class == RoadClass::LocalOutside {
                    let p = with.point(u).unwrap();
                    // allow seam nodes right at the sector edge
                    let angle = p.y.atan2(p.x);
                    let diff = (angle - cfg.harbor_angle).abs();
                    let well_inside = diff < cfg.harbor_half_angle - 0.12
                        && p.x.hypot(p.y) > cfg.core_radius * 0.7;
                    assert!(
                        !well_inside,
                        "local street endpoint deep in the harbor at ({}, {})",
                        p.x, p.y
                    );
                }
            }
        }
        assert!(is_connected_undirected(&with));
    }

    #[test]
    #[ignore = "full-scale network (run explicitly: cargo test -- --ignored)"]
    fn full_scale_matches_paper_magnitude() {
        let net = suffolk_like(&MetroConfig::default()).unwrap();
        let stats = NetworkStats::of(&net);
        assert!(
            (10_000..=20_000).contains(&stats.nodes),
            "nodes {} out of paper magnitude",
            stats.nodes
        );
        assert!(is_connected_undirected(&net));
    }
}
