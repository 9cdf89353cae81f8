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
//! Those bounds steer the best-first order and gate each relaxation
//! *before* the expensive PWL composition; `U` additionally prunes
//! labels that are *strictly* worse than some complete route before
//! the first target label is even found. Strictness matters: in a
//! time-independent network every optimal label has `f_min == U`
//! exactly, so a non-strict cap would prune the answer itself.
//!
//! **Approximation-aware admissibility.** Stored overlay functions may
//! be bounded-error *lower* approximations (see `overlay.rs`). Each
//! label therefore brackets its true route function with a **pair** of
//! composed functions: the lower one (composition of the stored arc
//! functions — a pointwise lower bound by FIFO-monotone arrival
//! composition) and an upper one, built by composing each stored arc
//! function at the *upper* arrival and raising the result by that
//! arc's measured gap. FIFO monotonicity of the true arc arrival
//! functions makes the raised composition a pointwise upper bound, so
//! approximation error accumulates through the actual function shapes
//! rather than a worst-case slope product — which keeps the bracket
//! tight enough to prune with. Pruning uses only safe sides: a label's
//! lower function plus its bound against the envelope of merged *upper*
//! functions (pointwise for allFP, and against its max as the stop
//! cap), and dominance tests a new label's lower function against the
//! established label's upper function. A label
//! that has not yet crossed a lossy arc stores no separate upper
//! function (it would be bit-equal to the lower one), so exact
//! corridors — and exact storage entirely — pay nothing extra and
//! degenerate to the plain rules.
//!
//! The search only **selects** winning node sequences. Every returned
//! route is afterwards re-composed edge by edge through the flat
//! engine's own pipeline ([`allfp::Engine::route_travel_fn`]), so the
//! answer functions are bit-identical to the flat engine's — the
//! overlay's label functions never reach the caller. For singleFP the
//! search keeps collecting target candidates until no queued label can
//! beat the best candidate's guaranteed *true* minimum (the minimum of
//! its upper function); the caller then re-selects exactly among the
//! candidates, ties resolved by identification order — at zero error
//! this collapses to "first target pop wins", the exact-storage rule.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use allfp::{AllFpError, CancelToken, DegradedReason, QuerySpec, QueryStats, Result};
use pwl::compose::arrival_interval;
use pwl::{compose_travel_into, Envelope, Pwl, PwlRef, PwlScratch};
use roadnet::NodeId;

use crate::overlay;
use crate::overlay::{unpack_route, Hop, Overlay};

/// Poll cadence for deadline/cancellation, matching the flat engine.
const WATCH_EVERY: u64 = 32;

/// One label of the overlay search: a path `s ⇒ node` over overlay
/// arcs, with its (approximate) travel function and phase flag.
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
    /// Cached `travel.min_value()`.
    travel_min: f64,
    /// The label's travel function over the query interval — a
    /// pointwise lower bound of the true route function.
    travel: PwlRef,
    /// Pointwise **upper** bound of the true route function: the
    /// stored arc functions composed at the upper arrival and raised
    /// by each arc's measured gap. `None` while the path has not
    /// crossed a lossy arc — the upper bound is then bit-equal to
    /// `travel` and is not materialized (exact storage never pays).
    upper: Option<PwlRef>,
}

impl Label {
    /// The safe side for being *beaten*: the upper bracket when the
    /// path crossed a lossy arc, the (then exact) lower one otherwise.
    fn upper_fn(&self) -> &Pwl {
        match &self.upper {
            Some(u) => u.as_pwl(),
            None => self.travel.as_pwl(),
        }
    }

    /// Minimum of [`upper_fn`](Self::upper_fn) — a guaranteed true
    /// travel minimum achievable through this label's route.
    fn upper_min(&self) -> f64 {
        match &self.upper {
            Some(u) => u.min_value(),
            None => self.travel_min,
        }
    }
}

/// Min-heap entry (FIFO on ties, like the flat engine).
struct Entry {
    f_min: f64,
    seq: u64,
    label: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.f_min == other.f_min && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f_min
            .total_cmp(&self.f_min)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

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
    asc: Vec<u32>,
    desc: Vec<u32>,
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
            state.asc.clear();
            state.desc.clear();
        }
        state
    }

    /// One pass of the restricted bounds under the scalar arc weight
    /// `w`; returns `up(source)`. With `w = max` that value caps the
    /// optimal travel at *every* leaving instant (some fixed up–down
    /// arc sequence costs at most its max-sum); with `w =` a valid
    /// lower bound per arc, `up`/`down` lower-bound every completion
    /// whose leaving instants stay inside the band window.
    fn sweep(&mut self, overlay: &Overlay, query: &QuerySpec, w: impl Fn(&Hop) -> f64) -> f64 {
        let nodes = &mut self.nodes;
        for &v in self.f_order.iter().chain(&self.d_order) {
            (nodes[v as usize].up, nodes[v as usize].down) = (f64::INFINITY, f64::INFINITY);
        }
        // Ascending rank: `down` of the visited node is final (down
        // arcs into it leave strictly higher ranks).
        nodes[query.target.index()].down = 0.0;
        for &x in &self.d_order {
            let dist = nodes[x as usize].down;
            for hop in overlay.down_into.at(x) {
                let down = &mut nodes[hop.node as usize].down;
                *down = down.min(w(hop) + dist);
            }
        }
        // Descending rank: `up` of every up-arc head is final.
        for &v in &self.f_order {
            let ups = overlay.up_out.at(v).iter();
            let best = ups.map(|hop| w(hop) + nodes[hop.node as usize].up);
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
        for hop in overlay.up_out.at(v) {
            if std::mem::replace(&mut ws.touch(hop.node).up, 0.0).is_infinite() {
                ws.f_order.push(hop.node);
            }
        }
        f_next += 1;
    }
    while let Some(&x) = ws.d_order.get(d_next) {
        for hop in overlay.down_into.at(x) {
            if std::mem::replace(&mut ws.touch(hop.node).down, 0.0).is_infinite() {
                ws.d_order.push(hop.node);
            }
        }
        d_next += 1;
    }
    let rank = |v: &u32| overlay.rank[*v as usize];
    ws.f_order
        .sort_unstable_by_key(|v| std::cmp::Reverse(rank(v)));
    ws.d_order.sort_unstable_by_key(rank);

    let u_cap = ws.sweep(overlay, query, |hop| hop.max);
    let window = overlay.band_window(query.interval.lo(), query.interval.hi() + u_cap);
    let lower = ws.sweep(overlay, query, |hop| overlay.banded_min(hop, window));
    (lower, u_cap)
}

/// What the overlay search hands back: winning routes (original node
/// sequences, identification order) for exact re-composition.
pub(crate) struct SearchRun {
    /// Deduplicated target routes in identification order. For
    /// singleFP these are the *candidates* — the caller re-selects
    /// exactly (first has priority on ties).
    pub routes: Vec<Vec<NodeId>>,
    /// `Some` when a budget tripped before the termination rule.
    pub trip: Option<DegradedReason>,
    /// Search-effort statistics (expansions here are label
    /// expansions — the speedup metric versus the flat engine).
    pub stats: QueryStats,
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

/// Budget watcher mirroring the flat engine's cadence.
struct Watch<'t> {
    deadline: Option<Instant>,
    max_expansions: usize,
    cancel: Option<&'t CancelToken>,
    pops: u64,
}

impl<'t> Watch<'t> {
    fn new(query: &QuerySpec, engine_cap: usize, cancel: Option<&'t CancelToken>) -> Self {
        let budget = query.budget.unwrap_or_default();
        Watch {
            deadline: budget.max_wall.map(|d| Instant::now() + d),
            max_expansions: budget
                .max_expansions
                .map_or(engine_cap, |b| b.min(engine_cap)),
            cancel,
            pops: 0,
        }
    }

    fn poll(&mut self) -> Result<Option<DegradedReason>> {
        let due = self.pops.is_multiple_of(WATCH_EVERY);
        self.pops += 1;
        if !due {
            return Ok(None);
        }
        self.poll_now()
    }

    fn poll_now(&self) -> Result<Option<DegradedReason>> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(AllFpError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Some(DegradedReason::DeadlineExpired));
        }
        Ok(None)
    }

    fn poll_compound(&self) -> Result<Option<DegradedReason>> {
        if self.cancel.is_none() && self.deadline.is_none() {
            return Ok(None);
        }
        self.poll_now()
    }
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

    // Envelope of the merged target labels' **upper** functions; its
    // max is a cap the true optimum never exceeds anywhere in the
    // interval. (With exact storage the uppers are the labels' travel
    // functions themselves — identical to the plain border rule.)
    let mut border: Option<Envelope<usize>> = None;
    let mut border_cap = f64::INFINITY;
    // `labels.len()` at the last border merge: exactly the labels below
    // it were last tested against an older (higher) border.
    let mut border_seen = 0usize;
    // allFP's pointwise border rule (DESIGN.md §7) on the safe sides
    // of the brackets: a label whose *lower* function plus its phase
    // bound clears the envelope of merged *upper* functions at every
    // leaving instant has no completion that wins anywhere.
    let clears_border = |border: &Option<Envelope<usize>>, lower: &Pwl, est: f64| {
        !single_only
            && border
                .as_ref()
                .is_some_and(|b| lower.dominated_by_offset(est, b.as_pwl()))
    };
    // singleFP stopping rule: the best candidate's guaranteed true
    // minimum (its upper function's minimum).
    let mut single_cap = f64::INFINITY;
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
            travel_min,
            travel: travel.into(),
            upper: None,
        });
        heap.push(Entry {
            f_min: travel_min + lower,
            seq,
            label: 0,
        });
        seq += 1;
        stats.pushed += 1;
    }

    let mut trip: Option<DegradedReason> = None;

    'search: while let Some(entry) = heap.pop() {
        let stop_cap = if single_only { single_cap } else { border_cap };
        if stop_cap.is_finite() && pwl::approx_le(stop_cap, entry.f_min) {
            break;
        }
        let node = labels[entry.label].node;

        if node == target {
            // Identified a target label: record its route (dedup — two
            // distinct arc chains can unpack to one node sequence) and
            // fold its function into the border.
            let chain = arc_chain(labels, entry.label);
            let route = unpack_route(overlay, query.source, &chain);
            if !routes.contains(&route) {
                routes.push(route);
            }
            stats.border_merges += 1;
            match &mut border {
                None => {
                    let lab = &mut labels[entry.label];
                    let f = match &mut lab.upper {
                        Some(u) => u.share(),
                        None => lab.travel.share(),
                    };
                    let b = Envelope::new(f, entry.label);
                    border_cap = b.max_value();
                    border = Some(b);
                }
                Some(b) => {
                    b.merge_min_with(scratch, labels[entry.label].upper_fn(), entry.label)?;
                    border_cap = b.max_value();
                }
            }
            single_cap = single_cap.min(labels[entry.label].upper_min());
            border_seen = labels.len();
            continue;
        }

        if let Some(reason) = watch.poll()? {
            trip = Some(reason);
            break 'search;
        }
        // Re-run the rule against a border that fell since this label
        // was pushed; a label it kills was polled but is no expansion.
        let label = &labels[entry.label];
        let state = &nodes[node as usize];
        let est = if label.desc { state.down } else { state.up };
        if entry.label < border_seen && clears_border(&border, &label.travel, est) {
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

        let ups = match labels[entry.label].desc {
            true => &[][..],
            false => overlay.up_out.at(node),
        };
        let hops = ups.iter().map(|h| (h, false));
        let hops = hops.chain(overlay.down_out.at(node).iter().map(|h| (h, true)));

        let arrivals = arrival_interval(&labels[entry.label].travel)?;
        // The upper bracket arrives later; its window must be covered
        // too before its composition can be formed.
        let arrivals_up = match &labels[entry.label].upper {
            Some(u) => arrival_interval(u)?,
            None => arrivals,
        };
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
            let optimistic = labels[entry.label].travel_min + hop.min + est;
            if border_cap.is_finite() && pwl::approx_le(border_cap, optimistic) {
                stats.pruned_by_border += 1;
                continue;
            }
            if u_cap.is_finite() && pwl::definitely_lt(u_cap, optimistic) {
                stats.pruned_by_border += 1;
                continue;
            }

            if let Some(reason) = watch.poll_compound()? {
                trip = Some(reason);
                break 'search;
            }

            let arc = &overlay.arcs[hop.arc as usize];
            let ext_dom = overlay::ext_domain(&arc.full);
            if !ext_dom.covers(&arrivals) || !ext_dom.covers(&arrivals_up) {
                // Arrival window escapes the periodic extension
                // (multi-day travel): hand the whole query to the flat
                // engine rather than extend on the hot path.
                drain(labels, scratch, border);
                return Ok(None);
            }
            let t_arc = overlay::ext_window(scratch, &arc.full, &arrivals)?;
            let travel = compose_travel_into(scratch, &labels[entry.label].travel, &t_arc)?;
            scratch.recycle(t_arc);
            let np = travel.n_pieces();
            stats.pieces_total += np as u64;
            stats.pieces_max = stats.pieces_max.max(np as u64);
            stats.bytes_allocated += (8 * (np + 1) + 16 * np) as u64;
            let travel_min = travel.min_value();
            let f_min = travel_min + est;

            if border_cap.is_finite() && pwl::approx_le(border_cap, f_min)
                || clears_border(&border, &travel, est)
            {
                stats.pruned_by_border += 1;
                scratch.recycle(travel);
                continue;
            }
            if u_cap.is_finite() && pwl::definitely_lt(u_cap, f_min) {
                stats.pruned_by_border += 1;
                scratch.recycle(travel);
                continue;
            }

            // Phase-aware dominance pruning (see `NodeState::asc`) on
            // the safe sides of the brackets: the new label's lower
            // function must clear the old label's *upper* function —
            // then old-true ≤ old-upper ≤ new-lower ≤ new-true
            // everywhere. With exact uppers this is plain domination.
            let covers = |l: &u32| travel.dominated_by_offset(0.0, labels[*l as usize].upper_fn());
            let mut dominated = nodes[to].asc.iter().any(covers);
            if !dominated && to_desc {
                dominated = nodes[to].desc.iter().any(covers);
            }
            if dominated {
                stats.pruned_dominated += 1;
                scratch.recycle(travel);
                continue;
            }

            // The upper bracket: the stored arc function composed at
            // the upper arrival, raised by the arc's gap (see module
            // docs). Only materialized once the path is actually
            // lossy; until then it is bit-equal to `travel`.
            let upper = if labels[entry.label].upper.is_some() || arc.err > 0.0 {
                let t_up = overlay::ext_window(scratch, &arc.full, &arrivals_up)?;
                let up_prefix = match &labels[entry.label].upper {
                    Some(u) => u.as_pwl(),
                    None => labels[entry.label].travel.as_pwl(),
                };
                let mut up = compose_travel_into(scratch, up_prefix, &t_up)?;
                scratch.recycle(t_up);
                if arc.err > 0.0 {
                    up.add_scalar_in_place(arc.err);
                }
                stats.bytes_allocated += (8 * (up.n_pieces() + 1) + 16 * up.n_pieces()) as u64;
                Some(PwlRef::from(up))
            } else {
                None
            };

            let idx = labels.len();
            let parent = u32::try_from(entry.label)
                .map_err(|_| AllFpError::Internal("overlay label arena outgrew u32 indices"))?;
            labels.push(Label {
                parent: Some(parent),
                node: hop.node,
                arc: Some(hop.arc),
                desc: to_desc,
                travel_min,
                travel: travel.into(),
                upper,
            });
            if to_desc {
                nodes[to].desc.push(idx as u32);
            } else {
                nodes[to].asc.push(idx as u32);
            }
            heap.push(Entry {
                f_min,
                seq,
                label: idx,
            });
            seq += 1;
            stats.pushed += 1;
        }
    }

    if trip.is_some() {
        // Salvage: complete target labels still queued become answer
        // candidates (envelope merges only, no composition work).
        for e in std::mem::take(heap).into_sorted_vec().into_iter().rev() {
            if labels[e.label].node != target {
                continue;
            }
            let chain = arc_chain(labels, e.label);
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

/// Recycle the label arena and border into the scratch pool.
fn drain(labels: &mut Vec<Label>, scratch: &mut PwlScratch, border: Option<Envelope<usize>>) {
    for l in labels.drain(..) {
        scratch.recycle_ref(l.travel);
        if let Some(u) = l.upper {
            scratch.recycle_ref(u);
        }
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
    use roadnet::generators::random_geometric;
    use traffic::DayCategory;

    use super::*;
    use crate::{HierarchyConfig, HierarchyEngine};

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
