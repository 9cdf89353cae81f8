//! The CapeCod road network: nodes with coordinates, directed edges
//! with lengths and speed patterns.

use traffic::{
    CapeCodPattern, DayCategory, PatternSchema, PatternUpdate, RoadClass, SpeedProfile,
    TrafficDelta,
};

use crate::{NetworkError, Result};

/// A node identifier — a dense index into the network's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A pattern identifier — an index into the network's pattern table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternId(pub u16);

/// A point in the plane, in miles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// East–west coordinate, miles.
    pub x: f64,
    /// North–south coordinate, miles.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`, miles.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

/// A directed edge `u → v` with its length, road class, and speed
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Head node `v`.
    pub to: NodeId,
    /// Length in miles (≥ the Euclidean distance between endpoints).
    pub distance: f64,
    /// Road class (drives the Table 1 schema and the constant-speed
    /// baseline's speed limit).
    pub class: RoadClass,
    /// Speed pattern of the segment.
    pub pattern: PatternId,
}

/// What applying one [`TrafficDelta`] did — the numbers the epoch
/// layer's scoped invalidation and the service counters key off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaReport {
    /// Sequence number echoed from the delta.
    pub seq: u64,
    /// Directed edges the updates named (including no-op repoints to
    /// the pattern id the edge already had).
    pub edges_matched: usize,
    /// Directed edges whose pattern id actually changed.
    pub edges_changed: usize,
    /// Fresh pattern ids appended to the table.
    pub patterns_added: usize,
    /// Updates that interned to an already-present identical pattern.
    pub patterns_interned: usize,
    /// Distinct `(from, to)` endpoint pairs whose edges changed — the
    /// dirty set scoped invalidation propagates from.
    pub changed: Vec<(u32, u32)>,
    /// Did any changed edge's pattern `max_speed` change? `false`
    /// means every best-case edge weight `distance / max_speed` is
    /// untouched, so the min-time estimator's tables are republished
    /// as they are.
    pub best_time_weights_changed: bool,
}

/// `patterns[id].max_speed()`, `NaN`-safe for out-of-range ids (which
/// `apply_delta` has already validated away).
fn self_pattern_max(patterns: &[CapeCodPattern], id: PatternId) -> f64 {
    patterns
        .get(usize::from(id.0))
        .map_or(f64::NAN, CapeCodPattern::max_speed)
}

/// A CapeCod road network (Definition 3): a directed spatial graph
/// whose edges carry CapeCod speed patterns.
///
/// Patterns live in a small *pattern table*; edges reference patterns
/// by [`PatternId`]. Networks built from a [`PatternSchema`] install
/// one pattern per [`RoadClass`] (ids `0..4` in `RoadClass::ALL`
/// order); bespoke networks (like the paper's running example) append
/// additional patterns with [`RoadNetwork::add_pattern`].
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    points: Vec<Point>,
    adj: Vec<Vec<Edge>>,
    patterns: Vec<CapeCodPattern>,
    max_speed: f64,
}

impl RoadNetwork {
    /// An empty network seeded with the four class patterns of
    /// `schema` (pattern id = `RoadClass::index`).
    pub fn with_schema(schema: &PatternSchema) -> Self {
        let patterns: Vec<CapeCodPattern> = RoadClass::ALL
            .iter()
            .map(|&c| schema.pattern(c).clone())
            .collect();
        let max_speed = patterns
            .iter()
            .map(CapeCodPattern::max_speed)
            .fold(f64::NEG_INFINITY, f64::max);
        RoadNetwork {
            points: Vec::new(),
            adj: Vec::new(),
            patterns,
            max_speed,
        }
    }

    /// An empty network with an empty pattern table.
    pub fn empty() -> Self {
        RoadNetwork {
            points: Vec::new(),
            adj: Vec::new(),
            patterns: Vec::new(),
            max_speed: 0.0,
        }
    }

    /// Append a pattern to the pattern table, returning its id.
    pub fn add_pattern(&mut self, pattern: CapeCodPattern) -> PatternId {
        let id = PatternId(self.patterns.len() as u16);
        self.max_speed = self.max_speed.max(pattern.max_speed());
        self.patterns.push(pattern);
        id
    }

    /// Add a node at `(x, y)` miles, returning its id.
    pub fn add_node(&mut self, x: f64, y: f64) -> Result<NodeId> {
        if !x.is_finite() || !y.is_finite() {
            return Err(NetworkError::BadCoordinate(x, y));
        }
        let id = NodeId(self.points.len() as u32);
        self.points.push(Point { x, y });
        self.adj.push(Vec::new());
        Ok(id)
    }

    /// Add a directed edge `from → to` with explicit pattern.
    ///
    /// `distance` must be positive and at least the Euclidean distance
    /// between the endpoints (within a small slack) — the invariant the
    /// lower-bound estimators rely on.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        distance: f64,
        class: RoadClass,
        pattern: PatternId,
    ) -> Result<()> {
        let pf = *self.point(from)?;
        let pt = *self.point(to)?;
        if usize::from(pattern.0) >= self.patterns.len() {
            return Err(NetworkError::UnknownPattern(pattern));
        }
        let euclidean = pf.distance(&pt);
        if !distance.is_finite() || distance <= 0.0 || distance < euclidean - 1e-9 {
            return Err(NetworkError::BadEdgeLength {
                length: distance,
                euclidean,
            });
        }
        self.adj[from.index()].push(Edge {
            to,
            distance,
            class,
            pattern,
        });
        Ok(())
    }

    /// Add a directed edge whose pattern is the class pattern installed
    /// by [`RoadNetwork::with_schema`].
    pub fn add_class_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        distance: f64,
        class: RoadClass,
    ) -> Result<()> {
        self.add_edge(from, to, distance, class, PatternId(class.index() as u16))
    }

    /// Add both directions of a segment with the same length and class.
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        distance: f64,
        class: RoadClass,
    ) -> Result<()> {
        self.add_class_edge(a, b, distance, class)?;
        self.add_class_edge(b, a, distance, class)
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Location of `node`.
    pub fn point(&self, node: NodeId) -> Result<&Point> {
        self.points
            .get(node.index())
            .ok_or(NetworkError::UnknownNode(node))
    }

    /// Outgoing edges of `node`.
    pub fn neighbors(&self, node: NodeId) -> Result<&[Edge]> {
        self.adj
            .get(node.index())
            .map(Vec::as_slice)
            .ok_or(NetworkError::UnknownNode(node))
    }

    /// Euclidean distance between two nodes, miles.
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> Result<f64> {
        Ok(self.point(a)?.distance(self.point(b)?))
    }

    /// The pattern table.
    #[inline]
    pub fn patterns(&self) -> &[CapeCodPattern] {
        &self.patterns
    }

    /// Pattern by id.
    pub fn pattern(&self, id: PatternId) -> Result<&CapeCodPattern> {
        self.patterns
            .get(usize::from(id.0))
            .ok_or(NetworkError::UnknownPattern(id))
    }

    /// Speed profile of `edge` under `category`.
    pub fn profile(&self, edge: &Edge, category: DayCategory) -> Result<&SpeedProfile> {
        Ok(self.pattern(edge.pattern)?.profile(category)?)
    }

    /// The maximum speed appearing anywhere in the pattern table
    /// (miles per minute) — the `v_max` of the naive estimator.
    #[inline]
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Reverse adjacency: for each node, the list of `(source, edge)`
    /// pairs of its incoming edges. Built on demand (used by the
    /// boundary-node precomputation's reverse Dijkstra).
    pub fn reverse_adj(&self) -> Vec<Vec<(NodeId, Edge)>> {
        let mut rev: Vec<Vec<(NodeId, Edge)>> = vec![Vec::new(); self.n_nodes()];
        for (u, edges) in self.adj.iter().enumerate() {
            for e in edges {
                rev[e.to.index()].push((NodeId(u as u32), *e));
            }
        }
        rev
    }

    /// The network with every edge reversed and every pattern
    /// time-mirrored.
    ///
    /// This is the arrival-interval query reduction's substrate: a
    /// trip `u → v` arriving at time `a` in this network corresponds
    /// exactly to a trip `v → u` departing at `1440 − a` in the
    /// original (`∫ v(τ) dτ` is preserved under `τ ↦ 1440 − τ`), so a
    /// *leaving-interval* query here answers an *arrival-interval*
    /// query there.
    pub fn reversed_time_mirrored(&self) -> RoadNetwork {
        let patterns: Vec<CapeCodPattern> = self
            .patterns
            .iter()
            .map(CapeCodPattern::time_mirrored)
            .collect();
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); self.points.len()];
        for (u, edges) in self.adj.iter().enumerate() {
            for e in edges {
                adj[e.to.index()].push(Edge {
                    to: NodeId(u as u32),
                    distance: e.distance,
                    class: e.class,
                    pattern: e.pattern,
                });
            }
        }
        RoadNetwork {
            points: self.points.clone(),
            adj,
            patterns,
            max_speed: self.max_speed,
        }
    }

    /// Apply a live-traffic delta, producing the **next version** of
    /// this network; `self` is untouched, so queries pinned to it keep
    /// a fully consistent view (the epoch layer publishes the result
    /// atomically — see `allfp::epoch`).
    ///
    /// The pattern table is **append-only**: replacement patterns are
    /// *interned* — an update whose pattern is structurally identical
    /// to a table entry reuses that entry's id, anything else is
    /// appended under a fresh id — and existing ids are never mutated
    /// or reused. A pattern id therefore means the same function in
    /// every network version that knows it, which is what keeps the
    /// engine's travel-function cache (keyed by pattern id) exact
    /// across epochs with no invalidation on the hot path.
    ///
    /// An update named `from → to` re-points **every** parallel edge
    /// between those endpoints; later updates in the batch win over
    /// earlier ones. Errors ([`NetworkError::NoSuchEdge`], exhausted
    /// id space) reject the whole batch — the returned network is
    /// never partially updated.
    pub fn apply_delta(&self, delta: &TrafficDelta) -> Result<(RoadNetwork, DeltaReport)> {
        let mut next = self.clone();
        let mut report = DeltaReport {
            seq: delta.seq,
            ..DeltaReport::default()
        };
        for update in &delta.updates {
            let PatternUpdate { from, to, pattern } = update;
            let id = next.intern_pattern(pattern, &mut report)?;
            let edges = next
                .adj
                .get_mut(*from as usize)
                .ok_or(NetworkError::UnknownNode(NodeId(*from)))?;
            let mut matched = false;
            for e in edges.iter_mut().filter(|e| e.to.0 == *to) {
                matched = true;
                report.edges_matched += 1;
                if e.pattern != id {
                    let old_max = self_pattern_max(&next.patterns, e.pattern);
                    let new_max = self_pattern_max(&next.patterns, id);
                    if old_max != new_max {
                        report.best_time_weights_changed = true;
                    }
                    e.pattern = id;
                    report.edges_changed += 1;
                    if !report.changed.contains(&(*from, *to)) {
                        report.changed.push((*from, *to));
                    }
                }
            }
            if !matched {
                return Err(NetworkError::NoSuchEdge {
                    from: *from,
                    to: *to,
                });
            }
        }
        Ok((next, report))
    }

    /// Find `pattern` in the table or append it, returning its id.
    fn intern_pattern(
        &mut self,
        pattern: &CapeCodPattern,
        report: &mut DeltaReport,
    ) -> Result<PatternId> {
        if let Some(i) = self.patterns.iter().position(|p| p == pattern) {
            report.patterns_interned += 1;
            return Ok(PatternId(i as u16));
        }
        if self.patterns.len() > usize::from(u16::MAX) {
            return Err(NetworkError::PatternTableFull);
        }
        report.patterns_added += 1;
        Ok(self.add_pattern(pattern.clone()))
    }

    /// Which pattern ids are referenced by at least one edge —
    /// `mask[id]` is `true` iff some edge points at `id`. The epoch
    /// layer uses this to flush cache entries for ids no live network
    /// version references any more.
    pub fn referenced_patterns(&self) -> Vec<bool> {
        let mut mask = vec![false; self.patterns.len()];
        for edges in &self.adj {
            for e in edges {
                if let Some(slot) = mask.get_mut(usize::from(e.pattern.0)) {
                    *slot = true;
                }
            }
        }
        mask
    }

    /// A deterministic seeded delta touching `n_edges` distinct
    /// directed edges (fewer if the network is smaller): each chosen
    /// edge's current pattern is rescaled by a seed-derived factor in
    /// `[0.5, 1.5] \ {1.0}`, the shape live congestion feeds produce.
    /// Identical `(network, seed, n_edges, seq)` always yields an
    /// identical delta — the chaos harness replays on this.
    pub fn seeded_delta(&self, seed: u64, n_edges: usize, seq: u64) -> Result<TrafficDelta> {
        let mut flat: Vec<(u32, usize)> = Vec::with_capacity(self.n_edges());
        for (u, edges) in self.adj.iter().enumerate() {
            for (k, _) in edges.iter().enumerate() {
                flat.push((u as u32, k));
            }
        }
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Partial Fisher–Yates over the flat edge list: the first
        // `n_edges` slots end up a uniform distinct sample.
        let take = n_edges.min(flat.len());
        for i in 0..take {
            let j = i + (next() as usize) % (flat.len() - i);
            flat.swap(i, j);
        }
        let mut updates = Vec::with_capacity(take);
        for &(u, k) in &flat[..take] {
            let e = self.adj[u as usize][k];
            let r = next() % 11; // 0..=10
            let factor = if r == 5 {
                0.45
            } else {
                0.5 + f64::from(r as u32) / 10.0
            };
            let pattern = self.pattern(e.pattern)?.with_speed_factor(factor)?;
            updates.push(PatternUpdate {
                from: u,
                to: e.to.0,
                pattern,
            });
        }
        Ok(TrafficDelta::new(seq, updates))
    }

    /// Bounding box of all node locations as
    /// `((min_x, min_y), (max_x, max_y))`; `None` for an empty network.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        let first = self.points.first()?;
        let mut min = *first;
        let mut max = *first;
        for p in &self.points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> (RoadNetwork, NodeId, NodeId) {
        let schema = PatternSchema::table1().unwrap();
        let mut net = RoadNetwork::with_schema(&schema);
        let a = net.add_node(0.0, 0.0).unwrap();
        let b = net.add_node(3.0, 4.0).unwrap(); // 5 miles apart
        (net, a, b)
    }

    #[test]
    fn schema_patterns_installed() {
        let (net, _, _) = two_node_net();
        assert_eq!(net.patterns().len(), 4);
        assert!((net.max_speed() - 65.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn add_edge_validates_geometry() {
        let (mut net, a, b) = two_node_net();
        // shorter than euclidean: rejected
        assert!(matches!(
            net.add_class_edge(a, b, 4.9, RoadClass::LocalOutside),
            Err(NetworkError::BadEdgeLength { .. })
        ));
        assert!(net
            .add_class_edge(a, b, 5.0, RoadClass::LocalOutside)
            .is_ok());
        assert!(net
            .add_class_edge(a, b, 6.2, RoadClass::LocalOutside)
            .is_ok());
        assert!(matches!(
            net.add_class_edge(a, b, 0.0, RoadClass::LocalOutside),
            Err(NetworkError::BadEdgeLength { .. })
        ));
        assert_eq!(net.n_edges(), 2);
    }

    #[test]
    fn unknown_ids_rejected() {
        let (mut net, a, _) = two_node_net();
        let ghost = NodeId(99);
        assert!(matches!(
            net.point(ghost),
            Err(NetworkError::UnknownNode(_))
        ));
        assert!(net
            .add_class_edge(a, ghost, 1.0, RoadClass::LocalOutside)
            .is_err());
        assert!(net
            .add_edge(a, a, 1.0, RoadClass::LocalOutside, PatternId(77))
            .is_err());
    }

    #[test]
    fn neighbors_and_reverse() {
        let (mut net, a, b) = two_node_net();
        net.add_bidirectional(a, b, 5.5, RoadClass::LocalBoston)
            .unwrap();
        assert_eq!(net.neighbors(a).unwrap().len(), 1);
        assert_eq!(net.neighbors(a).unwrap()[0].to, b);
        let rev = net.reverse_adj();
        assert_eq!(rev[a.index()].len(), 1);
        assert_eq!(rev[a.index()][0].0, b);
        assert_eq!(net.n_edges(), 2);
    }

    #[test]
    fn custom_patterns() {
        let mut net = RoadNetwork::empty();
        let p = net.add_pattern(CapeCodPattern::paper_example());
        assert_eq!(p, PatternId(0));
        let a = net.add_node(0.0, 0.0).unwrap();
        let b = net.add_node(1.0, 0.0).unwrap();
        net.add_edge(a, b, 1.0, RoadClass::LocalOutside, p).unwrap();
        assert_eq!(net.max_speed(), 1.0);
        let prof = net
            .profile(&net.neighbors(a).unwrap()[0], DayCategory::WORKDAY)
            .unwrap();
        assert_eq!(prof.speed_at(pwl::time::hm(8, 0)), 0.5);
    }

    #[test]
    fn reversed_time_mirrored_flips_edges_and_profiles() {
        let schema = PatternSchema::table1().unwrap();
        let mut net = RoadNetwork::with_schema(&schema);
        let a = net.add_node(0.0, 0.0).unwrap();
        let b = net.add_node(1.0, 0.0).unwrap();
        net.add_class_edge(a, b, 1.2, RoadClass::InboundHighway)
            .unwrap();

        let rev = net.reversed_time_mirrored();
        assert_eq!(rev.n_nodes(), 2);
        assert_eq!(rev.n_edges(), 1);
        assert!(rev.neighbors(a).unwrap().is_empty());
        let e = &rev.neighbors(b).unwrap()[0];
        assert_eq!(e.to, a);
        assert_eq!(e.distance, 1.2);
        assert_eq!(e.class, RoadClass::InboundHighway);
        // inbound rush [7:00, 10:00) mirrors to (14:00, 17:00]
        let prof = rev.profile(e, DayCategory::WORKDAY).unwrap();
        assert!((prof.speed_at(pwl::time::hm(15, 0)) - 20.0 / 60.0).abs() < 1e-12);
        assert!((prof.speed_at(pwl::time::hm(8, 0)) - 65.0 / 60.0).abs() < 1e-12);
        // double mirror restores the original patterns
        let back = rev.reversed_time_mirrored();
        assert_eq!(back.patterns(), net.patterns());
        assert_eq!(back.neighbors(a).unwrap(), net.neighbors(a).unwrap());
    }

    #[test]
    fn bounding_box() {
        let (net, _, _) = two_node_net();
        let (min, max) = net.bounding_box().unwrap();
        assert_eq!((min.x, min.y), (0.0, 0.0));
        assert_eq!((max.x, max.y), (3.0, 4.0));
        assert!(RoadNetwork::empty().bounding_box().is_none());
    }

    #[test]
    fn euclidean_distance() {
        let (net, a, b) = two_node_net();
        assert!((net.euclidean(a, b).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn apply_delta_appends_and_repoints() {
        let (mut net, a, b) = two_node_net();
        net.add_bidirectional(a, b, 5.5, RoadClass::LocalBoston)
            .unwrap();
        let before_patterns = net.patterns().len();
        let old_id = net.neighbors(a).unwrap()[0].pattern;
        let slow = net.pattern(old_id).unwrap().with_speed_factor(0.5).unwrap();
        let delta = TrafficDelta::new(
            7,
            vec![PatternUpdate {
                from: a.0,
                to: b.0,
                pattern: slow.clone(),
            }],
        );
        let (next, report) = net.apply_delta(&delta).unwrap();
        // source untouched
        assert_eq!(net.neighbors(a).unwrap()[0].pattern, old_id);
        assert_eq!(net.patterns().len(), before_patterns);
        // next version repointed, appended one pattern
        assert_eq!(report.seq, 7);
        assert_eq!(report.edges_matched, 1);
        assert_eq!(report.edges_changed, 1);
        assert_eq!(report.patterns_added, 1);
        assert_eq!(report.changed, vec![(a.0, b.0)]);
        assert!(report.best_time_weights_changed);
        let new_id = next.neighbors(a).unwrap()[0].pattern;
        assert_ne!(new_id, old_id);
        assert_eq!(next.pattern(new_id).unwrap(), &slow);
        assert_eq!(next.patterns().len(), before_patterns + 1);
        // the reverse edge kept its pattern
        assert_eq!(next.neighbors(b).unwrap()[0].pattern, old_id);
        // old id still resolves in the next version (append-only)
        assert_eq!(next.pattern(old_id).unwrap(), net.pattern(old_id).unwrap());

        // re-applying the same content interns, adds nothing
        let (next2, report2) = next.apply_delta(&delta).unwrap();
        assert_eq!(report2.patterns_added, 0);
        assert_eq!(report2.patterns_interned, 1);
        assert_eq!(report2.edges_changed, 0);
        assert!(report2.changed.is_empty());
        assert_eq!(next2.patterns().len(), next.patterns().len());
    }

    #[test]
    fn apply_delta_rejects_missing_edges() {
        let (net, a, b) = two_node_net();
        let delta = TrafficDelta::new(
            1,
            vec![PatternUpdate {
                from: a.0,
                to: b.0,
                pattern: CapeCodPattern::paper_example(),
            }],
        );
        assert!(matches!(
            net.apply_delta(&delta),
            Err(NetworkError::NoSuchEdge { .. })
        ));
        let ghost = TrafficDelta::new(
            1,
            vec![PatternUpdate {
                from: 99,
                to: 0,
                pattern: CapeCodPattern::paper_example(),
            }],
        );
        assert!(net.apply_delta(&ghost).is_err());
    }

    #[test]
    fn referenced_patterns_tracks_edges() {
        let (mut net, a, b) = two_node_net();
        net.add_class_edge(a, b, 5.0, RoadClass::LocalOutside)
            .unwrap();
        let mask = net.referenced_patterns();
        assert_eq!(mask.len(), net.patterns().len());
        assert!(mask[RoadClass::LocalOutside.index()]);
        assert!(!mask[RoadClass::InboundHighway.index()]);
    }

    #[test]
    fn seeded_delta_is_deterministic_and_applies() {
        let schema = PatternSchema::table1().unwrap();
        let mut net = RoadNetwork::with_schema(&schema);
        let mut nodes = Vec::new();
        for i in 0..4 {
            nodes.push(net.add_node(f64::from(i), 0.0).unwrap());
        }
        for w in nodes.windows(2) {
            net.add_bidirectional(w[0], w[1], 1.0, RoadClass::LocalOutside)
                .unwrap();
        }
        let d1 = net.seeded_delta(42, 3, 1).unwrap();
        let d2 = net.seeded_delta(42, 3, 1).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 3);
        assert_ne!(net.seeded_delta(43, 3, 1).unwrap(), d1);
        let (next, report) = net.apply_delta(&d1).unwrap();
        assert_eq!(report.edges_changed, report.edges_matched);
        assert!(next.patterns().len() > net.patterns().len());
        // asking for more edges than exist saturates
        assert_eq!(net.seeded_delta(1, 999, 2).unwrap().len(), net.n_edges());
    }
}
