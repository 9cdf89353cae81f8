//! The up–down overlay search.
//!
//! Every fastest path of the original network survives contraction as
//! an **up-then-down** path over the overlay (ranks strictly ascend,
//! then strictly descend — see `overlay.rs` for why). The query search
//! is therefore the flat engine's best-first path expansion restricted
//! to that shape: ascending labels relax up arcs; a label may begin
//! descending through any down arc whose head can still reach the
//! target by down arcs alone (the *D-set*, one reverse sweep per
//! query); descending labels stay in the D-set. Rank monotonicity
//! makes cycles impossible, so labels need no cycle check at all.
//!
//! Before the expansion starts, two scalar sweeps run over the query's
//! **search space only** — `F`, the nodes reachable from the source by
//! up arcs, and `D` — never over the whole overlay (DESIGN.md §12.4):
//! `down(v)`, the cheapest down-arc chain `v ⇒ target`, and `up(v) =
//! min(down(v), min over up arcs v→x of w + up(x))`, the cheapest
//! up\*–down\* completion — exactly the completions a label can take.
//! Under per-arc *maximum* weights `up(source)` is an upper bound `U`
//! on the optimal travel at every leaving instant; under **banded
//! minima** — the tightest per-arc lower bound stored for the leaving
//! window `[query.lo, query.hi + U]` that any answer-relevant label can
//! occupy (elapsed time along a winning route never exceeds `U`) —
//! `up` and `down` are admissible for ascending and descending labels.
//! Both sweeps walk the overlay's **bound graph** — one entry per
//! neighbour, parallel arcs folded — not the expansion adjacency.
//! Those bounds steer the best-first order and gate each relaxation
//! *before* the expensive PWL composition; `U` additionally prunes
//! labels that are *strictly* worse than some complete route before
//! the first target label is even found. Strictness matters: in a
//! time-independent network every optimal label has `f_min == U`
//! exactly, so a non-strict cap would prune the answer itself.
//!
//! Once allFP has a lower border, an expansion reads the border's
//! **gap** over the popped label once ([`Pwl::gap`]) and skips, in O(1)
//! each, every hop whose arc minimum plus phase bound clears it — a
//! child the pointwise border rule would kill once composed. That rule
//! stays as it was; the gate only spares its compounds.
//!
//! The search only **selects** winning node sequences: it hands them to
//! the flat engine's ending ([`allfp::Engine::answer_routes`]), which
//! re-composes each edge by edge through the flat pipeline, so the
//! answer functions are bit-identical to the flat engine's — the
//! overlay's label functions never reach the caller. singleFP stops at
//! the first target label popped, as the flat engine does (§4.5).

use std::collections::BinaryHeap;

use allfp::{
    AllFpError, CancelToken, DegradedReason, MinEntry, QuerySpec, QueryStats, Result, SearchRun,
    Watch,
};
use pwl::compose::Arrivals;
use pwl::{compose_travel_into, compose_travel_window_into, Envelope, Pwl, PwlRef, PwlScratch};
use roadnet::NodeId;

use crate::overlay;
use crate::overlay::{unpack_route, Bound, Overlay};

/// One label of the overlay search: a path `s ⇒ node` over overlay
/// arcs, with its travel function and phase flag.
struct Label {
    /// Arena index of the label this one extends (`None` for the seed).
    parent: Option<u32>,
    /// Head node.
    node: u32,
    /// Overlay arc taken to get here (`None` for the seed).
    arc: Option<u32>,
    /// Has the path taken a down arc yet? Once descending, always
    /// descending.
    desc: bool,
    /// Next label of the head node's dominance bucket for this phase
    /// (see [`NodeState::asc`]); [`END`] at the tail.
    next_at_node: u32,
    /// Cached `travel.min_value()`.
    travel_min: f64,
    /// The route's travel function over the query interval.
    travel: PwlRef,
}

/// The end of a dominance bucket, and an empty one's head and tail:
/// the seed's arena index — the one label that is in no bucket.
const END: u32 = 0;

/// A dominance bucket: a list threaded through the label arena by
/// [`Label::next_at_node`] in push order.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// Queue entry: the label's `travel_min` plus its phase bound, FIFO
/// among equals like the flat engine, carrying the label's arena index.
type Entry = MinEntry<u64, usize>;

/// Search state of one overlay node, valid while `stamp` is the
/// workspace's current epoch.
#[derive(Default)]
struct NodeState {
    stamp: u32,
    expanded: bool,
    /// Bound for ascending labels here (`∞`: no completion exists).
    up: f64,
    /// Bound for descending labels here; finite exactly on `D`.
    down: f64,
    /// Dominance buckets per phase. An ascending label can do
    /// everything a descending one can, so ascending labels prune new
    /// labels of both phases; descending labels prune only descending.
    asc: Bucket,
    desc: Bucket,
}

/// Everything a query would otherwise allocate per overlay node, kept
/// across queries and reset in O(touched): a node's state counts only
/// while its stamp is the current epoch, so starting a query is one
/// increment. Checked out from the pool on [`crate::HierarchyEngine`].
#[derive(Default)]
pub(crate) struct QueryWorkspace {
    epoch: u32,
    nodes: Vec<NodeState>,
    /// `F` in descending and `D` in ascending rank.
    f_order: Vec<u32>,
    d_order: Vec<u32>,
    labels: Vec<Label>,
    heap: BinaryHeap<Entry>,
}

impl QueryWorkspace {
    /// Start a query over an `n`-node overlay: no node is touched.
    fn begin(&mut self, n: usize) {
        if self.nodes.len() != n {
            self.nodes.clear();
            self.nodes.resize_with(n, NodeState::default);
        }
        if cfg!(test) && self.epoch == 0 {
            self.epoch = u32::MAX - 40; // the wrap is a few queries away
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps of 2³² queries ago would read as current.
            self.nodes.iter_mut().for_each(|state| state.stamp = 0);
            self.epoch = 1;
        }
        self.f_order.clear();
        self.d_order.clear();
        self.labels.clear();
        self.heap.clear();
    }

    /// Reset `v`'s state on its first touch by this query; returns it.
    fn touch(&mut self, v: u32) -> &mut NodeState {
        let state = &mut self.nodes[v as usize];
        if state.stamp != self.epoch {
            (state.stamp, state.expanded) = (self.epoch, false);
            (state.up, state.down) = (f64::INFINITY, f64::INFINITY);
            (state.asc, state.desc) = Default::default();
        }
        state
    }

    /// One pass of the restricted bounds under the scalar arc weight
    /// `w`; returns `up(source)`. With `w = max` that value caps the
    /// optimal travel at *every* leaving instant (some fixed up–down
    /// arc sequence costs at most its max-sum); with `w =` a valid
    /// lower bound per arc, `up`/`down` lower-bound every completion
    /// whose leaving instants stay inside the band window.
    fn sweep(&mut self, overlay: &Overlay, query: &QuerySpec, w: impl Fn(&Bound) -> f64) -> f64 {
        let nodes = &mut self.nodes;
        for &v in self.f_order.iter().chain(&self.d_order) {
            (nodes[v as usize].up, nodes[v as usize].down) = (f64::INFINITY, f64::INFINITY);
        }
        // Ascending rank: `down` of the visited node is final (down
        // arcs into it leave strictly higher ranks).
        nodes[query.target.index()].down = 0.0;
        for &x in &self.d_order {
            let dist = nodes[x as usize].down;
            for tail in overlay.down_bound.at(x) {
                let down = &mut nodes[tail.node as usize].down;
                *down = down.min(w(tail) + dist);
            }
        }
        // Descending rank: `up` of every up-arc head is final.
        for &v in &self.f_order {
            let ups = overlay.up_bound.at(v).iter();
            let best = ups.map(|head| w(head) + nodes[head.node as usize].up);
            nodes[v as usize].up = best.fold(nodes[v as usize].down, f64::min);
        }
        nodes[query.source.index()].up
    }
}

/// Lay out the query's search space in `ws` and run the two scalar
/// sweeps (see module docs). Returns `(up(source) under banded
/// minima, U)`.
pub(crate) fn bounds(overlay: &Overlay, ws: &mut QueryWorkspace, query: &QuerySpec) -> (f64, f64) {
    ws.begin(overlay.rank.len());
    // F, by BFS over up arcs.
    ws.touch(query.source.0).up = 0.0;
    ws.f_order.push(query.source.0);
    // D, by reverse BFS over down arcs.
    ws.touch(query.target.0).down = 0.0;
    ws.d_order.push(query.target.0);
    // A finite bound marks a node as queued (the sweeps reset both).
    let (mut f_next, mut d_next) = (0, 0);
    while let Some(&v) = ws.f_order.get(f_next) {
        for head in overlay.up_bound.at(v) {
            if std::mem::replace(&mut ws.touch(head.node).up, 0.0).is_infinite() {
                ws.f_order.push(head.node);
            }
        }
        f_next += 1;
    }
    while let Some(&x) = ws.d_order.get(d_next) {
        for tail in overlay.down_bound.at(x) {
            if std::mem::replace(&mut ws.touch(tail.node).down, 0.0).is_infinite() {
                ws.d_order.push(tail.node);
            }
        }
        d_next += 1;
    }
    let rank = |v: &u32| overlay.rank[*v as usize];
    ws.f_order
        .sort_unstable_by_key(|v| std::cmp::Reverse(rank(v)));
    ws.d_order.sort_unstable_by_key(rank);

    let u_cap = ws.sweep(overlay, query, |e| e.max);
    let window = overlay.band_window(query.interval.lo(), query.interval.hi() + u_cap);
    let lower = ws.sweep(overlay, query, |e| e.banded_min(window));
    (lower, u_cap)
}

/// The top-level arc chain of label `idx`, root first.
fn arc_chain(labels: &[Label], idx: usize) -> Vec<u32> {
    let mut chain = Vec::new();
    let mut cur = Some(idx);
    while let Some(i) = cur {
        if let Some(a) = labels[i].arc {
            chain.push(a);
        }
        cur = labels[i].parent.map(|p| p as usize);
    }
    chain.reverse();
    chain
}

/// Run the up–down search. Returns `Ok(None)` when a label's arrival
/// window escapes an arc's periodic extension — the caller falls back
/// to the flat engine for that query (exactness before speed).
pub(crate) fn run(
    overlay: &Overlay,
    query: &QuerySpec,
    single_only: bool,
    engine_cap: usize,
    ws: &mut QueryWorkspace,
    scratch: &mut PwlScratch,
    cancel: Option<&CancelToken>,
) -> Result<Option<SearchRun>> {
    let mut watch = Watch::new(query, engine_cap, cancel);
    let mut stats = QueryStats::default();

    // Scalar pre-passes over the search space (see module docs).
    let (lower, u_cap) = bounds(overlay, ws, query);
    let target = query.target.0;
    let (epoch, nodes, labels, heap) = (ws.epoch, &mut ws.nodes, &mut ws.labels, &mut ws.heap);

    let mut seq = 0u64;
    let mut expanded_node_count = 0usize;

    // allFP's lower border: the envelope of the target labels found so
    // far. Its max is a cap the optimum never exceeds anywhere in the
    // interval.
    let mut border: Option<Envelope<usize>> = None;
    let mut border_cap = f64::INFINITY;
    // `labels.len()` at the last border merge: exactly the labels below
    // it were last tested against an older (higher) border.
    let mut border_seen = 0usize;
    // The pointwise border rule (DESIGN.md §7): a label whose function
    // plus its phase bound clears the border at every leaving instant
    // has no completion that wins anywhere.
    let clears_border = |border: &Option<Envelope<usize>>, travel: &Pwl, est: f64| {
        border
            .as_ref()
            .is_some_and(|b| travel.dominated_by_offset(est, b.as_pwl()))
    };
    let mut routes: Vec<Vec<NodeId>> = Vec::new();

    // Seed. An infinite bound (target unreachable: F and D never
    // meet) still seeds: the search pops once, relaxes nothing, and
    // returns the same empty route set the flat engine would.
    {
        let travel = Pwl::constant(query.interval, 0.0)?;
        let travel_min = travel.min_value();
        labels.push(Label {
            parent: None,
            node: query.source.0,
            arc: None,
            desc: false,
            next_at_node: END,
            travel_min,
            travel: travel.into(),
        });
        heap.push(Entry {
            key: travel_min + lower,
            tie: seq,
            item: 0,
        });
        seq += 1;
        stats.pushed += 1;
    }

    let mut trip: Option<DegradedReason> = None;

    'search: while let Some(entry) = heap.pop() {
        if border_cap.is_finite() && pwl::approx_le(border_cap, entry.key) {
            break;
        }
        let node = labels[entry.item].node;

        if node == target {
            // Identified a target label: record its route (dedup — two
            // distinct arc chains can unpack to one node sequence).
            let chain = arc_chain(labels, entry.item);
            let route = unpack_route(overlay, query.source, &chain);
            if !routes.contains(&route) {
                routes.push(route);
            }
            if single_only {
                break; // §4.5: the first target label is the answer
            }
            // Fold its function into the border.
            stats.border_merges += 1;
            match &mut border {
                None => border = Some(Envelope::new(labels[entry.item].travel.share(), entry.item)),
                Some(b) => b.merge_min_with(scratch, &labels[entry.item].travel, entry.item)?,
            }
            border_cap = border.as_ref().map_or(f64::INFINITY, Envelope::max_value);
            border_seen = labels.len();
            continue;
        }

        if let Some(reason) = watch.poll()? {
            trip = Some(reason);
            break 'search;
        }
        // Re-run the rule against a border that fell since this label
        // was pushed; a label it kills was polled but is no expansion.
        let label = &labels[entry.item];
        let state = &nodes[node as usize];
        let est = if label.desc { state.down } else { state.up };
        if entry.item < border_seen && clears_border(&border, &label.travel, est) {
            stats.pruned_by_border += 1;
            continue;
        }
        if stats.expanded_paths >= watch.max_expansions {
            trip = Some(DegradedReason::ExpansionsExhausted);
            break 'search;
        }

        stats.expanded_paths += 1;
        if !std::mem::replace(&mut nodes[node as usize].expanded, true) {
            expanded_node_count += 1;
        }

        let ups = match labels[entry.item].desc {
            true => &[][..],
            false => overlay.up_out.at(node),
        };
        let hops = ups.iter().map(|h| (h, false));
        let hops = hops.chain(overlay.down_out.at(node).iter().map(|h| (h, true)));

        let arrivals = Arrivals::of(&labels[entry.item].travel)?;
        // How far the border rises over this label, read once: a child
        // over an arc is nowhere below the label plus the arc's minimum.
        let gap = border
            .as_ref()
            .map_or(f64::INFINITY, |b| labels[entry.item].travel.gap(b.as_pwl()));
        for (hop, to_desc) in hops {
            let to = hop.node as usize;
            let est = if nodes[to].stamp != epoch {
                f64::INFINITY
            } else if to_desc {
                nodes[to].down
            } else {
                nodes[to].up
            };
            if est.is_infinite() {
                // Descending labels stay inside D (not a relaxation
                // at all); an ascending one whose head has no up–down
                // completion can never win.
                stats.pruned_by_border += usize::from(!to_desc);
                continue;
            }

            // Early bounds before the expensive composition: the
            // border cap (once a target label exists), and the strict
            // `U` cap — a label *definitely* above the optimum at
            // every leaving instant can never appear in an answer.
            let optimistic = labels[entry.item].travel_min + hop.min + est;
            if border_cap.is_finite() && pwl::approx_le(border_cap, optimistic) {
                stats.pruned_by_border += 1;
                continue;
            }
            if u_cap.is_finite() && pwl::definitely_lt(u_cap, optimistic) {
                stats.pruned_by_border += 1;
                continue;
            }
            // The gap gate: the child plus `est` clears the border at
            // every leaving instant — the label the pointwise rule
            // below kills once composed, so it is not composed.
            if pwl::definitely_lt(gap, hop.min + est) {
                // Debug builds compose it all the same and hold the
                // rule to that verdict.
                #[cfg(debug_assertions)]
                {
                    let full = overlay.arcs[hop.arc as usize].function()?;
                    if overlay::ext_domain(full).covers(arrivals.interval()) {
                        let child = relax(scratch, &labels[entry.item].travel, full, &arrivals)?;
                        assert!(
                            clears_border(&border, &child, est),
                            "the gap gate skipped a hop the border rule keeps: gap {gap}"
                        );
                        scratch.recycle(child);
                    }
                }
                stats.pruned_by_border += 1;
                continue;
            }

            if let Some(reason) = watch.poll_compound()? {
                trip = Some(reason);
                break 'search;
            }

            let full = overlay.arcs[hop.arc as usize].function()?;
            if !overlay::ext_domain(full).covers(arrivals.interval()) {
                // Arrival window escapes the periodic extension
                // (multi-day travel): hand the whole query to the flat
                // engine rather than extend on the hot path.
                drain(labels, scratch, border);
                return Ok(None);
            }
            let travel = relax(scratch, &labels[entry.item].travel, full, &arrivals)?;
            let np = travel.n_pieces();
            stats.pieces_total += np as u64;
            stats.pieces_max = stats.pieces_max.max(np as u64);
            stats.bytes_allocated += (8 * (np + 1) + 16 * np) as u64;
            let travel_min = travel.min_value();
            let f_min = travel_min + est;

            // The pointwise rule at push; a survivor is keyed by its
            // best `T(l) + est` over the instants where it still beats
            // the border (the live-instant key, DESIGN.md §7).
            let key = match &border {
                None => Some(f_min),
                Some(_) if border_cap.is_finite() && pwl::approx_le(border_cap, f_min) => None,
                Some(b) => travel.live_min(est, b.as_pwl()).map(|k| k.max(f_min)),
            };
            let Some(key) = key else {
                stats.pruned_by_border += 1;
                scratch.recycle(travel);
                continue;
            };
            if u_cap.is_finite() && pwl::definitely_lt(u_cap, f_min) {
                stats.pruned_by_border += 1;
                scratch.recycle(travel);
                continue;
            }

            // Phase-aware dominance pruning (see `NodeState::asc`):
            // each bucket oldest first, the ascending one before.
            let covered = |bucket: Bucket| {
                let mut l = bucket.head;
                while l != END && !travel.dominated_by_offset(0.0, &labels[l as usize].travel) {
                    l = labels[l as usize].next_at_node;
                }
                l != END
            };
            if covered(nodes[to].asc) || to_desc && covered(nodes[to].desc) {
                stats.pruned_dominated += 1;
                scratch.recycle(travel);
                continue;
            }

            let idx = u32::try_from(labels.len())
                .map_err(|_| AllFpError::Internal("overlay label arena outgrew u32 indices"))?;
            labels.push(Label {
                // Arena indices passed this same check when pushed.
                parent: Some(entry.item as u32),
                node: hop.node,
                arc: Some(hop.arc),
                desc: to_desc,
                next_at_node: END,
                travel_min,
                travel: travel.into(),
            });
            let bucket = match to_desc {
                true => &mut nodes[to].desc,
                false => &mut nodes[to].asc,
            };
            match std::mem::replace(&mut bucket.tail, idx) {
                END => bucket.head = idx,
                tail => labels[tail as usize].next_at_node = idx,
            }
            heap.push(Entry {
                key,
                tie: seq,
                item: idx as usize,
            });
            seq += 1;
            stats.pushed += 1;
        }
    }

    if trip.is_some() {
        // Salvage: complete target labels still queued become answer
        // candidates (envelope merges only, no composition work).
        for e in std::mem::take(heap).into_sorted_vec().into_iter().rev() {
            if labels[e.item].node != target {
                continue;
            }
            let chain = arc_chain(labels, e.item);
            let route = unpack_route(overlay, query.source, &chain);
            if !routes.contains(&route) {
                routes.push(route);
            }
            stats.border_merges += 1;
        }
    }

    stats.expanded_nodes = expanded_node_count;
    drain(labels, scratch, border);
    Ok(Some(SearchRun {
        routes,
        trip,
        stats,
    }))
}

/// Extend a label over an arc: the compound of its travel function
/// `t1` with the arc's stored day function `full` on `arrivals`. An
/// arrival window inside the stored day — every relaxation of a query
/// that stays clear of midnight — composes against a window of `full`;
/// past it, the restriction of the periodic extension is built first
/// (the same bits, [`overlay::ext_window`]).
fn relax(scratch: &mut PwlScratch, t1: &Pwl, full: &Pwl, arrivals: &Arrivals) -> Result<Pwl> {
    if let Some(travel) = compose_travel_window_into(scratch, t1, full, arrivals)? {
        return Ok(travel);
    }
    let t_arc = overlay::ext_window(scratch, full, arrivals.interval())?;
    let travel = compose_travel_into(scratch, t1, &t_arc)?;
    scratch.recycle(t_arc);
    Ok(travel)
}

/// Recycle the label arena and border into the scratch pool.
fn drain(labels: &mut Vec<Label>, scratch: &mut PwlScratch, border: Option<Envelope<usize>>) {
    for l in labels.drain(..) {
        scratch.recycle_ref(l.travel);
    }
    if let Some(b) = border {
        b.recycle_into(scratch);
    }
}

#[cfg(test)]
mod tests {
    use allfp::{EngineConfig, PathfindBackend};
    use pwl::time::hm;
    use pwl::Interval;
    use roadnet::generators::{random_geometric, suffolk_like, MetroConfig};
    use roadnet::workload::distance_buckets;
    use traffic::DayCategory;

    use super::*;
    use crate::overlay::Csr;
    use crate::{HierarchyConfig, HierarchyEngine};

    /// singleFP identifies one route, the first target label popped,
    /// and that route is the answer — over the morning-rush pairs of
    /// `golden_allfp`'s metro-small workload.
    #[test]
    fn singlefp_identifies_the_one_route_it_answers_with() {
        let net = suffolk_like(&MetroConfig::small(0x5EED)).unwrap();
        let config = HierarchyConfig::default();
        let engine = HierarchyEngine::build(&net, EngineConfig::default(), config).unwrap();
        let rush = Interval::of(hm(7, 0), hm(10, 0));
        let buckets = distance_buckets(&net, 4, 2, 0.25, 0x5EED).unwrap();
        let mut session = engine.cache_session();
        for pair in buckets.iter().flat_map(|(_, pairs)| pairs) {
            let q = QuerySpec::new(pair.source, pair.target, rush, DayCategory::WORKDAY);
            let run = engine.overlay_search(&q, true, &mut session, None);
            let run = run.unwrap().expect("the overlay serves a rush query");
            assert!(run.trip.is_none());
            let answer = engine.single_fastest_path(&q).unwrap();
            assert_eq!(run.routes, [answer.path.nodes], "{q:?}");
        }
    }

    /// The bound graph keeps one entry per neighbour; the sweeps over it
    /// leave, on every node of F ∪ D, the bits a sweep over every
    /// enabled arc leaves — on two witness-pruned overlays whose
    /// domination disabled some parallel arcs (metro-small keeps
    /// others), over the three windows of `golden_allfp`, the last of
    /// which wraps the band index past midnight.
    #[test]
    fn bound_graph_sweeps_match_a_sweep_over_every_arc() {
        let windows = [
            (hm(7, 0), hm(10, 0)),
            (hm(16, 0), hm(16, 45)),
            (hm(23, 0), hm(23, 59)),
        ];
        let metro = suffolk_like(&MetroConfig::small(0x5EED)).unwrap();
        let (mut parallel, mut wrapped) = (0usize, 0usize);
        for net in [&random_geometric(30, 1.5, 3, 1).unwrap(), &metro] {
            let config = HierarchyConfig::default();
            let engine = HierarchyEngine::build(net, EngineConfig::default(), config).unwrap();
            assert!(engine.report().n_disabled > 0);
            let overlay = &engine.overlays[0];
            let n = overlay.rank.len() as u32;
            let arcs: Vec<_> = overlay.arcs.iter().filter(|a| !a.disabled).collect();
            let per_arc: Vec<_> = arcs
                .iter()
                .map(|a| Bound::of(0, std::iter::once(*a)).unwrap())
                .collect();
            let entries = |side: &Csr<Bound>| (0..n).map(|v| side.at(v).len()).sum::<usize>();
            let folded = arcs.len() - entries(&overlay.up_bound) - entries(&overlay.down_bound);
            parallel += folded;

            let rank = |v: u32| overlay.rank[v as usize];
            let mut ws = QueryWorkspace::default();
            let sources = (0..n).step_by(1 + n as usize / 40);
            for (i, (lo, hi)) in sources.flat_map(|i| windows.map(|w| (i, w))) {
                let (source, target) = (i, (i * 7 + 3 + lo as u32) % n);
                let interval = Interval::of(lo, hi);
                let q = QuerySpec::new(
                    NodeId(source),
                    NodeId(target),
                    interval,
                    DayCategory::WORKDAY,
                );
                let (lower, u_cap) = bounds(overlay, &mut ws, &q);
                // `(up, down)` of every node under the per-arc weight `w`.
                let reference = |w: &dyn Fn(usize) -> f64| {
                    let mut at = vec![(f64::INFINITY, f64::INFINITY); n as usize];
                    at[target as usize].1 = 0.0;
                    for &x in &ws.d_order {
                        for (k, a) in arcs.iter().enumerate() {
                            if a.to == x && rank(a.from) > rank(x) {
                                at[a.from as usize].1 =
                                    at[a.from as usize].1.min(w(k) + at[x as usize].1);
                            }
                        }
                    }
                    for &v in &ws.f_order {
                        let ups = arcs
                            .iter()
                            .enumerate()
                            .filter(|(_, a)| a.from == v && rank(a.to) > rank(v));
                        let best = ups.map(|(k, a)| w(k) + at[a.to as usize].0);
                        at[v as usize].0 = best.fold(at[v as usize].1, f64::min);
                    }
                    at
                };
                let by_max = reference(&|k| arcs[k].max);
                assert_eq!(
                    u_cap.to_bits(),
                    by_max[source as usize].0.to_bits(),
                    "{q:?}"
                );
                let window = overlay.band_window(lo, hi + u_cap);
                wrapped += usize::from(window.is_some() && hi + u_cap > overlay.day.hi());
                let by_band = reference(&|k| per_arc[k].banded_min(window));
                assert_eq!(
                    lower.to_bits(),
                    by_band[source as usize].0.to_bits(),
                    "{q:?}"
                );
                for &v in ws.f_order.iter().chain(&ws.d_order) {
                    let (state, want) = (&ws.nodes[v as usize], by_band[v as usize]);
                    let got = (state.up.to_bits(), state.down.to_bits());
                    assert_eq!(got, (want.0.to_bits(), want.1.to_bits()), "{q:?} node {v}");
                }
            }
        }
        // Metro-small folds 91 parallel arcs into their neighbours'
        // entries; the 30-node net, whose domination disabled every
        // parallel arc it had, folds none.
        assert!(
            parallel > 80 && wrapped > 20,
            "{parallel} folded, {wrapped} wrapped"
        );
    }

    /// 520 queries alternate between two engines of different node
    /// counts and both query kinds on one thread, so every query runs
    /// on a reused workspace — across the epoch wrap, which `begin`
    /// places 40 queries in under `cfg(test)`. Each answers bit for bit
    /// like a freshly built engine, and no stamp outlives the wrap:
    /// each network's last node is an island only its engine's first
    /// query touches.
    #[test]
    fn reused_workspaces_answer_like_fresh_engines() {
        let net = |n, seed| {
            let mut net = random_geometric(n, 1.5, 3, seed).unwrap();
            net.add_node(9.0, 9.0).unwrap();
            net
        };
        let nets = [net(12, 5), net(19, 6)];
        let build = |which: usize| {
            let config = HierarchyConfig::default();
            HierarchyEngine::build(&nets[which], EngineConfig::default(), config).unwrap()
        };
        let engines = [build(0), build(1)];
        let path = |p: &allfp::FastestPath| (p.nodes.clone(), p.travel.as_ref().clone());
        for i in 0..520u32 {
            let which = i as usize % 2;
            let island = nets[which].n_nodes() as u32 - 1;
            let lo = hm(5, 0) + f64::from(i % 13) * 60.0;
            let q = QuerySpec::new(
                NodeId(if i < 2 { island } else { i * 7 % island }),
                NodeId((i * 11 + 3) % island),
                Interval::of(lo, lo + 90.0),
                DayCategory::WORKDAY,
            );
            let (reused, fresh) = (&engines[which], build(which));
            if i % 4 < 2 {
                let ask = |e: &HierarchyEngine<'_, _>| {
                    let a = e.single_fastest_path(&q).map_err(|e| e.to_string())?;
                    Ok::<_, String>((path(&a.path), a.travel_minutes.to_bits()))
                };
                assert_eq!(ask(reused), ask(&fresh), "query {i}");
            } else {
                let ask = |e: &HierarchyEngine<'_, _>| {
                    let a = e.all_fastest_paths(&q).map_err(|e| e.to_string())?;
                    Ok::<_, String>((a.paths.iter().map(path).collect::<Vec<_>>(), a.partition))
                };
                assert_eq!(ask(reused), ask(&fresh), "query {i}");
            }
        }
        for engine in &engines {
            let pool = engine.workspaces.lock().unwrap();
            assert_eq!(pool.len(), 1, "one thread needs one workspace");
            let ws = &pool[0];
            assert!(ws.epoch < 1000, "260 queries must have wrapped the epoch");
            for (v, state) in ws.nodes.iter().enumerate() {
                assert!(state.stamp <= ws.epoch, "node {v} kept a pre-wrap stamp");
            }
        }
    }
}
