//! Lower-bound travel-time estimators.
//!
//! A\*-style search is correct as long as the heuristic never
//! overestimates (§1, citing \[15\]); the closer the estimate, the
//! smaller the expanded search space. The engine adds
//! `T_est(n ⇒ e)` — a *constant* per node — to every path function in
//! the queue.
//!
//! Two kinds are built from a configuration ([`EstimatorKind`]): the
//! paper's [`NaiveLb`] (§4.2), a *distance* over one global top speed,
//! and [`MinTimeLb`], the exact bound that and the paper's boundary-node
//! tables (§5) approximate: the shortest path over per-edge best-case
//! travel times, grown backward from the target on demand. Any other
//! [`LowerBoundEstimator`] — the paper's bdLB, kept as
//! `fpbench::boundary` for Figure 9 — runs through
//! [`crate::Engine::with_estimator`].

use std::cell::RefCell;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use roadnet::{Edge, NetworkError, NetworkSource, NodeId, Point};

use crate::{AllFpError, MinEntry, Result};

/// A lower bound on the travel time (minutes) from a node to the query
/// target, for every leaving instant: what the engine adds to every
/// queued path's function. Implemented here by [`NaiveLb`],
/// [`MinTimeLb`] and [`ZeroLb`], and outside by any caller-built bound
/// handed to [`crate::Engine::with_estimator`].
pub trait LowerBoundEstimator: Send + Sync {
    /// Lower-bound travel time from `from` (at `from_loc`) to `to`
    /// (at `to_loc`), minutes. Must never exceed the true fastest
    /// travel time at any leaving instant.
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64;

    /// Short display name (used by the experiment harness).
    fn name(&self) -> &'static str;

    /// Does the bound read `from_loc` or `to_loc`? An estimator that
    /// answers from the node ids alone says `false`, and the search
    /// then reads a node's record only when it expands the node, and
    /// never looks up the target's location (DESIGN.md §10).
    fn reads_location(&self) -> bool {
        true
    }
}

impl<T: LowerBoundEstimator + ?Sized> LowerBoundEstimator for &T {
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64 {
        (**self).travel_lower_bound(from, from_loc, to, to_loc)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reads_location(&self) -> bool {
        (**self).reads_location()
    }
}

/// Shared estimators: the epoch layer hands the same estimator to many
/// per-epoch engines behind an `Arc` (estimator tables are reusable
/// across every delta that leaves their inputs unchanged).
impl<T: LowerBoundEstimator + ?Sized> LowerBoundEstimator for std::sync::Arc<T> {
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64 {
        (**self).travel_lower_bound(from, from_loc, to, to_loc)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reads_location(&self) -> bool {
        (**self).reads_location()
    }
}

/// Which estimator an [`crate::EngineConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Euclidean distance over the network maximum speed ("naiveLB").
    Naive,
    /// Shortest path over per-edge best-case travel times, searched
    /// backward from the query target on demand ("minTimeLB",
    /// [`MinTimeLb`]).
    MinTime,
    /// Alias of [`EstimatorKind::MinTime`], the estimator that replaced
    /// the partitioned boundary tables this variant used to select;
    /// kept constructible because `benchmark/` names it.
    BoundaryPartitioned {
        /// Ignored.
        groups: usize,
    },
}

/// The naive estimator: `d_euc(n, e) / v_max` (§4.2 step 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveLb {
    v_max: f64,
}

impl NaiveLb {
    /// Build from the network's maximum speed (miles per minute).
    pub fn new(v_max: f64) -> Self {
        assert!(v_max > 0.0, "maximum speed must be positive");
        NaiveLb { v_max }
    }
}

impl LowerBoundEstimator for NaiveLb {
    fn travel_lower_bound(
        &self,
        _from: NodeId,
        from_loc: Point,
        _to: NodeId,
        to_loc: Point,
    ) -> f64 {
        from_loc.distance(&to_loc) / self.v_max
    }

    fn name(&self) -> &'static str {
        "naiveLB"
    }
}

/// The trivial estimator (always zero) — turns the engine into plain
/// Dijkstra-style expansion; useful as an experimental floor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLb;

impl LowerBoundEstimator for ZeroLb {
    fn travel_lower_bound(&self, _: NodeId, _: Point, _: NodeId, _: Point) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "zeroLB"
    }

    fn reads_location(&self) -> bool {
        false
    }
}

/// The exact best-case bound: `est(v → e)` is the shortest-path
/// distance from `v` to `e` over per-edge weights
/// `length / that edge's own maximum speed` (minutes).
///
/// **Sound**: by Eq. (1) an edge of length `d` takes at least
/// `d / (its maximum speed)` at every instant of every day category, so
/// a path's travel time at any leaving instant is at least its weight
/// sum, which is at least the shortest weight sum (FIFO is not needed).
/// **Consistent**: `est(u) ≤ w(u, v) + est(v)`. **Never looser** than
/// [`NaiveLb`] or the paper's boundary-node bound: every edge is at
/// least as long as its chord and no pattern exceeds the network's
/// `v_max`, so both bound this distance from below.
///
/// Nothing is precomputed per target. The estimator owns a reverse CSR
/// of the network (4 B/node + 12 B/edge) and answers from a per-thread
/// workspace holding one backward Dijkstra from the current target,
/// paused as soon as the asked node's distance is final and resumed by
/// the next question. Pausing replays nothing and skips nothing, so
/// `est(v)` is a pure function of (weights, target, `v`) — whatever was
/// asked before, on whichever thread. A node that cannot reach the
/// target gets `+∞`.
#[derive(Debug)]
pub struct MinTimeLb {
    /// Process-unique: with the target, the key of a thread's
    /// workspace. A counter, not the address of a buffer, which a
    /// freed-and-reallocated estimator could reuse.
    id: u64,
    /// `tails[offsets[v]..offsets[v + 1]]` are the tails of the edges
    /// into `v`, `weights` their best-case minutes.
    offsets: Vec<u32>,
    tails: Vec<u32>,
    weights: Vec<f64>,
}

/// Equal tables; the instance id is not part of the value.
impl PartialEq for MinTimeLb {
    fn eq(&self, other: &Self) -> bool {
        (&self.offsets, &self.tails, &self.weights)
            == (&other.offsets, &other.tails, &other.weights)
    }
}

impl MinTimeLb {
    /// Build from two `successors_into` sweeps over `src` (any
    /// [`NetworkSource`], a lazily generated one included): the first
    /// counts each node's in-degree, the second fills the reverse CSR
    /// in place, so nothing but the tables grows. A pattern's maximum
    /// speed is computed once per pattern id.
    pub fn build<S: NetworkSource + ?Sized>(src: &S) -> Result<MinTimeLb> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        const CHANGED: AllFpError = AllFpError::Internal("the source changed between sweeps");
        let n = src.n_nodes();
        if u32::try_from(n).is_err() {
            return Err(AllFpError::Internal("node ids outgrew u32"));
        }
        let mut offsets = vec![0u32; n + 1];
        // By pattern id; `NaN` until first asked.
        let mut max_speed: Vec<f64> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        for u in 0..n as u32 {
            src.successors_into(NodeId(u), &mut edges)?;
            for e in &edges {
                let p = usize::from(e.pattern.0);
                if p >= max_speed.len() {
                    max_speed.resize(p + 1, f64::NAN);
                }
                if max_speed[p].is_nan() {
                    max_speed[p] = src.pattern(e.pattern)?.max_speed();
                }
                let in_degree = offsets
                    .get_mut(e.to.index() + 1)
                    .ok_or(NetworkError::UnknownNode(e.to))?;
                *in_degree += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] = offsets[v]
                .checked_add(offsets[v + 1])
                .ok_or(AllFpError::Internal("edge count outgrew u32 offsets"))?;
        }
        let mut next = offsets[..n].to_vec();
        let mut tails = vec![0u32; offsets[n] as usize];
        let mut weights = vec![0.0f64; offsets[n] as usize];
        for u in 0..n as u32 {
            src.successors_into(NodeId(u), &mut edges)?;
            for e in &edges {
                let speed = max_speed.get(usize::from(e.pattern.0)).ok_or(CHANGED)?;
                let slot = next.get_mut(e.to.index()).ok_or(CHANGED)?;
                *tails.get_mut(*slot as usize).ok_or(CHANGED)? = u;
                weights[*slot as usize] = e.distance / speed;
                *slot += 1;
            }
        }
        if next[..] != offsets[1..] {
            return Err(CHANGED);
        }
        Ok(MinTimeLb {
            id: NEXT_ID.fetch_add(1, AtomicOrdering::Relaxed),
            offsets,
            tails,
            weights,
        })
    }

    /// Nodes of the network the tables were built over.
    fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap bytes of the three tables.
    pub fn bytes(&self) -> usize {
        4 * (self.offsets.len() + self.tails.len()) + 8 * self.weights.len()
    }
}

impl LowerBoundEstimator for MinTimeLb {
    fn travel_lower_bound(&self, from: NodeId, _: Point, to: NodeId, _: Point) -> f64 {
        let n = self.n_nodes();
        if from.index() >= n || to.index() >= n {
            return 0.0; // unknown node: no bound to give
        }
        WORKSPACE.with(|ws| ws.borrow_mut().distance(self, from.0, to.0))
    }

    fn name(&self) -> &'static str {
        "minTimeLB"
    }

    fn reads_location(&self) -> bool {
        false
    }
}

thread_local! {
    /// This thread's backward search, shared by every [`MinTimeLb`]
    /// asked on it (the a-b-street `ThreadLocal<RefCell<_>>` shape).
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// One backward Dijkstra, kept between questions: `dist[v]` counts
/// while `seen[v]` is the current stamp, so moving to another target
/// or estimator is one increment — never a clear or a reallocation.
#[derive(Default)]
struct Workspace {
    /// `(estimator id, target)` of the search the arrays hold.
    key: (u64, u32),
    stamp: u32,
    seen: Vec<u32>,
    dist: Vec<f64>,
    heap: BinaryHeap<MinEntry<u32>>,
}

impl Workspace {
    /// `lb`'s distance from `from` to `target`, growing the search
    /// only as far as needed to make it final.
    fn distance(&mut self, lb: &MinTimeLb, from: u32, target: u32) -> f64 {
        if self.key != (lb.id, target) {
            self.restart(lb, target);
        }
        let from = from as usize;
        loop {
            let known = if self.seen[from] == self.stamp {
                self.dist[from]
            } else {
                f64::INFINITY
            };
            // Every later pop carries at least the top's key, and a
            // relaxation only adds to it: at or under it, `known` is
            // final. An empty heap has settled all that reach the target.
            let Some(top) = self.heap.peek_mut() else {
                return known;
            };
            if known <= top.key {
                return known;
            }
            let MinEntry { key: d, tie: u, .. } = PeekMut::pop(top);
            let u = u as usize;
            if d > self.dist[u] {
                continue; // superseded by a shorter entry
            }
            for i in lb.offsets[u] as usize..lb.offsets[u + 1] as usize {
                let (v, nd) = (lb.tails[i] as usize, d + lb.weights[i]);
                if self.seen[v] != self.stamp || nd < self.dist[v] {
                    (self.seen[v], self.dist[v]) = (self.stamp, nd);
                    self.heap.push(MinEntry::new(nd, v as u32));
                }
            }
        }
    }

    /// Forget the held search and seed `lb`'s from `target`.
    fn restart(&mut self, lb: &MinTimeLb, target: u32) {
        let n = lb.n_nodes();
        if self.seen.len() < n {
            // Fresh zeroed arrays, not `resize`: their pages are mapped
            // on first touch, so a search pays for what it reaches.
            self.seen = vec![0; n];
            self.dist = vec![0.0; n];
        }
        if cfg!(test) && self.stamp == 0 {
            self.stamp = u32::MAX - 40; // the wrap is a few targets away
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamps of 2³² targets ago would read as current.
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.key = (lb.id, target);
        self.heap.clear();
        (self.seen[target as usize], self.dist[target as usize]) = (self.stamp, 0.0);
        self.heap.push(MinEntry::new(0.0, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::astar_at;
    use proptest::prelude::*;
    use roadnet::generators::{random_geometric, suffolk_like, MetroConfig};
    use roadnet::RoadNetwork;
    use traffic::{DayCategory, PatternSchema, RoadClass};

    /// `lb`'s bound from `from` to `to` (it reads no locations).
    fn est(lb: &MinTimeLb, from: u32, to: u32) -> f64 {
        let nowhere = Point { x: 0.0, y: 0.0 };
        lb.travel_lower_bound(NodeId(from), nowhere, NodeId(to), nowhere)
    }

    /// Every node's distance to `target` over `lb`'s weights, by a
    /// from-scratch Dijkstra run to exhaustion.
    fn eager(lb: &MinTimeLb, target: u32) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; lb.n_nodes()];
        let mut heap = BinaryHeap::from([MinEntry::new(0.0, target)]);
        dist[target as usize] = 0.0;
        while let Some(MinEntry { key: d, tie: u, .. }) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for i in lb.offsets[u as usize] as usize..lb.offsets[u as usize + 1] as usize {
                let (v, nd) = (lb.tails[i], d + lb.weights[i]);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(MinEntry::new(nd, v));
                }
            }
        }
        dist
    }

    /// Fisher–Yates under a 64-bit LCG (MMIX constants).
    fn shuffled(n: u32, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n).collect();
        let mut x = seed;
        for i in (1..order.len()).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        order
    }

    /// Twelve nodes on a circle, each with one edge to the next.
    fn one_way_ring() -> RoadNetwork {
        let mut net = RoadNetwork::with_schema(&PatternSchema::table1().unwrap());
        let ids: Vec<NodeId> = (0..12)
            .map(|i| {
                let a = f64::from(i) * std::f64::consts::TAU / 12.0;
                net.add_node(2.0 * a.cos(), 2.0 * a.sin()).unwrap()
            })
            .collect();
        for i in 0..12 {
            let class = [RoadClass::LocalBoston, RoadClass::LocalOutside][i % 2];
            net.add_class_edge(ids[i], ids[(i + 1) % 12], 1.1, class)
                .unwrap();
        }
        net
    }

    /// Seven nodes in a row: a two-way road over 0–3 with a slow
    /// shortcut 0 → 3, then one-way 3 → 4 → 5, and 6 on a spur out of 2
    /// that nothing leaves. 4, 5 and 6 reach no lower node.
    fn directed_net() -> RoadNetwork {
        let mut net = RoadNetwork::with_schema(&PatternSchema::table1().unwrap());
        let ids: Vec<NodeId> = (0..7)
            .map(|i| net.add_node(f64::from(i), 0.0).unwrap())
            .collect();
        for i in 0..3 {
            net.add_bidirectional(ids[i], ids[i + 1], 1.0, RoadClass::LocalOutside)
                .unwrap();
        }
        net.add_class_edge(ids[0], ids[3], 3.5, RoadClass::LocalBoston)
            .unwrap();
        net.add_class_edge(ids[3], ids[4], 1.0, RoadClass::LocalBoston)
            .unwrap();
        net.add_class_edge(ids[4], ids[5], 1.0, RoadClass::LocalOutside)
            .unwrap();
        net.add_class_edge(ids[2], ids[6], 4.0, RoadClass::LocalOutside)
            .unwrap();
        net
    }

    /// Ask every `(v, target)` in three shuffled orders — one target at
    /// a time, so questions resume the search the earlier ones grew,
    /// then two targets interleaved call by call, so every question
    /// restarts it — and require the eager Dijkstra's bits each time.
    fn assert_lazy_equals_eager(lb: &MinTimeLb, targets: [u32; 2]) {
        let n = lb.n_nodes() as u32;
        let want = targets.map(|t| eager(lb, t));
        for seed in [1, 2, 3] {
            for (t, want) in targets.iter().zip(&want) {
                for v in shuffled(n, seed) {
                    assert_eq!(est(lb, v, *t).to_bits(), want[v as usize].to_bits());
                }
            }
            for (v0, v1) in shuffled(n, seed).into_iter().zip(shuffled(n, seed + 7)) {
                assert_eq!(
                    est(lb, v0, targets[0]).to_bits(),
                    want[0][v0 as usize].to_bits()
                );
                assert_eq!(
                    est(lb, v1, targets[1]).to_bits(),
                    want[1][v1 as usize].to_bits()
                );
            }
        }
    }

    #[test]
    fn lazy_answers_equal_an_eager_dijkstra_in_any_order() {
        let metro = suffolk_like(&MetroConfig::small(17)).unwrap();
        let n = metro.n_nodes() as u32;
        assert_lazy_equals_eager(&MinTimeLb::build(&metro).unwrap(), [n / 3, n - 5]);
        assert_lazy_equals_eager(&MinTimeLb::build(&one_way_ring()).unwrap(), [0, 7]);
        let lb = MinTimeLb::build(&directed_net()).unwrap();
        assert_lazy_equals_eager(&lb, [1, 5]);
        // against the one-way streets: no path, no bound
        for (from, to) in [(4, 3), (5, 0), (6, 2), (6, 5), (4, 6)] {
            assert_eq!(est(&lb, from, to), f64::INFINITY, "{from} -> {to}");
        }
        assert_eq!(est(&lb, 6, 6), 0.0);
        assert!(est(&lb, 0, 5).is_finite());
        // an unknown node gets the trivial bound, not a panic
        assert_eq!(est(&lb, 7, 0), 0.0);
        assert_eq!(est(&lb, 0, 7), 0.0);
    }

    #[test]
    fn admissible_and_never_looser_than_the_naive_estimator() {
        let net = suffolk_like(&MetroConfig::small(17)).unwrap();
        let lb = MinTimeLb::build(&net).unwrap();
        let naive = NaiveLb::new(net.max_speed());
        let n = net.n_nodes() as u32;
        let sources: Vec<u32> = (0..n).step_by(41).collect();
        let targets: Vec<u32> = (3..n).step_by(173).collect();
        for &t in &targets {
            for &s in &sources {
                let (ns, nt) = (NodeId(s), NodeId(t));
                let (ps, pt) = (*net.point(ns).unwrap(), *net.point(nt).unwrap());
                let bound = est(&lb, s, t);
                assert!(bound + 1e-9 >= naive.travel_lower_bound(ns, ps, nt, pt));
            }
        }
        // 64 leaving instants across the day, in every category
        for (&s, &t) in sources.iter().zip(targets.iter().cycle()).take(6) {
            let bound = est(&lb, s, t);
            for category in [DayCategory::WORKDAY, DayCategory::NON_WORKDAY] {
                for k in 0..64 {
                    let leave = f64::from(k) * 1440.0 / 64.0;
                    let truth = astar_at(&net, NodeId(s), NodeId(t), leave, category, &ZeroLb);
                    let truth = truth.unwrap().travel_minutes;
                    assert!(
                        bound <= truth + 1e-9,
                        "{s} -> {t} leaving {leave} ({category}): bound {bound} over {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn estimators_alternating_on_one_thread_keep_their_own_distances() {
        // Equal node counts, one target id: only the instance id tells
        // the two searches apart.
        let lbs = [5, 6].map(|seed| MinTimeLb::build(&random_geometric(20, 2.0, 3, seed).unwrap()));
        let lbs = lbs.map(Result::unwrap);
        let want = [eager(&lbs[0], 11), eager(&lbs[1], 11)];
        assert_ne!(want[0], want[1]);
        for v in shuffled(20, 9) {
            for (lb, want) in lbs.iter().zip(&want) {
                assert_eq!(est(lb, v, 11).to_bits(), want[v as usize].to_bits());
            }
        }
    }

    #[test]
    fn a_rebuilt_estimator_answers_the_new_distances_for_the_same_target() {
        let net = random_geometric(20, 2.0, 3, 5).unwrap();
        let old = MinTimeLb::build(&net).unwrap();
        let before: Vec<f64> = (0..20).map(|v| est(&old, v, 11)).collect();
        assert_eq!(before, eager(&old, 11));
        // Freed first: the rebuilt tables may well land on the old
        // buffers' addresses, and must still not be mistaken for them.
        drop(old);
        let delta = net.seeded_delta(3, 12, 1).unwrap();
        let (net, report) = net.apply_delta(&delta).unwrap();
        assert!(report.best_time_weights_changed);
        let new = MinTimeLb::build(&net).unwrap();
        let after: Vec<f64> = (0..20).map(|v| est(&new, v, 11)).collect();
        assert_eq!(after, eager(&new, 11));
        assert_ne!(after, before, "the delta moved no distance to node 11");
    }

    /// 200 targets on one thread cross the stamp wrap, which `restart`
    /// places 40 targets in under `cfg(test)`: every answer is still the
    /// eager one and no stamp outlives the wrap. The ring makes each
    /// search touch every node.
    #[test]
    fn the_stamp_wrap_forgets_every_earlier_search() {
        let lb = MinTimeLb::build(&one_way_ring()).unwrap();
        est(&lb, 0, 0);
        let first = WORKSPACE.with(|ws| ws.borrow().stamp);
        assert!(first > u32::MAX - 41, "a fresh thread starts at the wrap");
        for i in 0..200u32 {
            let target = i * 5 % 12;
            let want = eager(&lb, target);
            for v in shuffled(12, u64::from(i)) {
                assert_eq!(est(&lb, v, target).to_bits(), want[v as usize].to_bits());
            }
        }
        WORKSPACE.with(|ws| {
            let ws = ws.borrow();
            assert!(ws.stamp < 1000, "200 targets must have wrapped the stamp");
            for (v, &seen) in ws.seen.iter().enumerate() {
                assert!(seen <= ws.stamp, "node {v} kept a pre-wrap stamp");
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        /// Any question sequence over any network reads the eager
        /// Dijkstra's bits: the answer to a question does not depend on
        /// what was asked before it.
        #[test]
        fn any_question_sequence_reads_the_eager_distances(
            seed in 0u64..500,
            n in 8usize..40,
            questions in prop::collection::vec((0u32..40, 0u32..3), 1..60),
        ) {
            let net = random_geometric(n, 2.5, 3, seed).unwrap();
            let (net, _) = net.apply_delta(&net.seeded_delta(seed, n / 2, 1).unwrap()).unwrap();
            let lb = MinTimeLb::build(&net).unwrap();
            let n = n as u32;
            let targets = [seed as u32 % n, (seed as u32 / 7) % n, n - 1];
            let want = targets.map(|t| eager(&lb, t));
            for (v, k) in questions {
                let v = v % n;
                prop_assert_eq!(
                    est(&lb, v, targets[k as usize]).to_bits(),
                    want[k as usize][v as usize].to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 16,
            ..ProptestConfig::default()
        })]

        /// An estimator that declares itself location-blind answers the
        /// same bits whatever points it is handed — the search passes it
        /// none it has read — and one that reads locations says so.
        #[test]
        fn location_blind_estimators_ignore_the_points(
            seed in 0u64..500,
            n in 8usize..40,
            questions in prop::collection::vec(
                (0u32..40, 0u32..40, -9.0f64..9.0, -9.0f64..9.0, -9.0f64..9.0, -9.0f64..9.0),
                1..40,
            ),
        ) {
            let net = random_geometric(n, 2.5, 3, seed).unwrap();
            let naive = NaiveLb::new(net.max_speed());
            let min_time = MinTimeLb::build(&net).unwrap();
            let shared: std::sync::Arc<dyn LowerBoundEstimator> =
                std::sync::Arc::new(MinTimeLb::build(&net).unwrap());
            let blind: [&dyn LowerBoundEstimator; 4] = [&ZeroLb, &min_time, &&min_time, &shared];
            for lb in blind {
                prop_assert!(!lb.reads_location(), "{}", lb.name());
            }
            prop_assert!(naive.reads_location());
            let origin = Point { x: 0.0, y: 0.0 };
            let n = n as u32;
            for (from, to, fx, fy, tx, ty) in questions {
                let (from, to) = (NodeId(from % n), NodeId(to % n));
                let (at, toward) = (Point { x: fx, y: fy }, Point { x: tx, y: ty });
                for lb in blind {
                    let (moved, still) = (
                        lb.travel_lower_bound(from, at, to, toward),
                        lb.travel_lower_bound(from, origin, to, origin),
                    );
                    prop_assert!(moved.to_bits() == still.to_bits(), "{}", lb.name());
                }
            }
        }
    }

    #[test]
    fn naive_is_distance_over_vmax() {
        let lb = NaiveLb::new(0.5);
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        let t = lb.travel_lower_bound(NodeId(0), a, NodeId(1), b);
        assert!((t - 10.0).abs() < 1e-12);
        assert_eq!(lb.name(), "naiveLB");
        // matches the paper's Figure 3 example: 1 mile at v_max 1 mpm
        let lb1 = NaiveLb::new(1.0);
        let n = Point { x: 0.8, y: 0.6 };
        let e = Point { x: 1.8, y: 0.6 };
        assert!((lb1.travel_lower_bound(NodeId(1), n, NodeId(2), e) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "maximum speed must be positive")]
    fn naive_rejects_zero_speed() {
        NaiveLb::new(0.0);
    }

    #[test]
    fn zero_estimator() {
        let z = ZeroLb;
        let p = Point { x: 0.0, y: 0.0 };
        assert_eq!(z.travel_lower_bound(NodeId(0), p, NodeId(1), p), 0.0);
    }
}
