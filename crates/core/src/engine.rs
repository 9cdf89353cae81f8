//! The `IntAllFastestPaths` engine (§4): one search routine serves
//! every [`QueryMode`] behind [`PathfindBackend::answer`]; the query
//! surfaces are that trait's provided methods.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use pwl::compose::Arrivals;
use pwl::{Envelope, Interval, Pwl, PwlRef, PwlScratch};
use roadnet::{NetworkSource, NodeId, Point};

use crate::backend::{Answer, PathfindBackend, QueryMode, SearchRun};
use crate::baseline::{astar_at, constant_speed_plan};
use crate::cache::{CacheCounters, CacheSession, TravelFnCache};
use crate::estimator::{EstimatorKind, LowerBoundEstimator, MaxEstimator, MinTimeLb, NaiveLb};
use crate::query::{
    AllFpAnswer, CancelToken, DegradedAnswer, DegradedReason, FastestPath, QuerySpec, QueryStats,
    SingleFpAnswer,
};
use crate::{AllFpError, BoundaryLb, MinEntry, Result};

/// How often (in heap pops) the search polls the wall-clock deadline
/// and the cancellation token. The check runs on pop 0, so a
/// `Duration::ZERO` deadline (or a pre-cancelled token) trips before
/// any expansion work. Expansion caps are checked on **every** pop.
const WATCH_EVERY: u64 = 32;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which lower-bound estimator to use: [`EstimatorKind::MinTime`]
    /// by default, the tightest. `Naive` and `Boundary { grid }` are
    /// the paper's baselines (Figure 9, ablation A-1); the boundary
    /// tables are combined with the naive bound (`max` of both), so
    /// they are never looser than it.
    pub estimator: EstimatorKind,
    /// Per-node dominance pruning: drop a candidate path whose travel
    /// function is pointwise ≥ that of an already-known path to the
    /// same node (any common suffix then preserves the order, by
    /// FIFO). **On by default** — without it, synthetic grid-like
    /// networks with many near-equal parallel routes make the paper's
    /// basic path-expansion scheme enumerate exponentially many
    /// near-optimal paths before the lower-border rule can terminate.
    /// Set to `false` for the paper-faithful basic algorithm (fine on
    /// small networks; measured by ablation A-2). Answers are
    /// identical either way.
    pub prune_dominated: bool,
    /// Safety valve: abort after this many path expansions.
    pub max_expansions: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            estimator: EstimatorKind::MinTime,
            prune_dominated: true,
            max_expansions: 2_000_000,
        }
    }
}

/// A path under consideration, stored as a node in the per-query path
/// arena: a parent pointer into the arena, the path's head node, and
/// its exact travel-time function `T(l)` over the query interval. The
/// prioritized minimum of `T + T_est` lives on the queue entry.
///
/// Expansion appends one arena slot (O(1) beyond the travel function
/// itself), the cycle check walks the parent chain (O(depth), no
/// allocation), and full node sequences are materialized only for the
/// handful of paths that end up in an answer.
struct PathState {
    /// Arena index of the path this one extends; [`NONE`] for the root.
    parent: u32,
    /// Next path of the head node's dominance list (see
    /// [`NodeState::fns_head`]); [`NONE`] at the tail.
    next_at_node: u32,
    /// Last node of the path.
    head: NodeId,
    /// Bloom filter of the nodes on the path (parent's filter plus
    /// `head`'s bit). An unset bit proves the node is *not* on the
    /// path, letting the cycle check skip the parent-chain walk for
    /// most candidates; a set bit still walks the chain, so hash
    /// collisions cost time but never change the answer.
    bloom: u128,
    /// Number of edges in the path (root is 0); pre-sizes
    /// materialization buffers.
    depth: u32,
    /// Cached `travel.min_value()` — the O(pieces) scan is done once
    /// at push time and reused by the early border prune of every
    /// expansion of this path.
    travel_min: f64,
    /// The path's travel function. Owned while the path only lives in
    /// the arena; promoted to shared (`Arc`) the first time an answer
    /// path or border member needs to keep it — every further "copy"
    /// is a refcount bump, and still-owned functions recycle their
    /// buffers into the worker scratch when the arena drains.
    travel: PwlRef,
}

/// "No index": the empty [`SearchWorkspace::slot_of`] entry, the root's
/// [`PathState::parent`] and the end of a dominance list.
const NONE: u32 = u32::MAX;

/// `i` as a `u32` arena index, which must stay below [`NONE`].
fn index32(i: usize, outgrown: &'static str) -> Result<u32> {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NONE)
        .ok_or(AllFpError::Internal(outgrown))
}

/// What one query remembers of a node it has touched: the lower-bound
/// estimate to the target, where the node's outgoing edges sit in the
/// adjacency arena once its record is read, and the paths known to end
/// here.
struct NodeState {
    id: NodeId,
    /// Non-negative; `+∞` when the node cannot reach the target.
    est: f64,
    start: u32,
    len: u32,
    /// The node's dominance list, threaded through the path arena by
    /// [`PathState::next_at_node`] in push order.
    fns_head: u32,
    fns_tail: u32,
    expanded: bool,
}

/// Entries of each arena a parked workspace keeps allocated: room for
/// the typical query. An open session keeps what its searches grew.
const IDLE_CAPACITY: usize = 1024;

/// The whole per-query state of the flat search, checked out of the
/// worker's [`CacheSession`] per query. Node state is a sparse set: a
/// query pays for the nodes it touches, not `n_nodes` (DESIGN.md §10).
#[derive(Default)]
pub(crate) struct SearchWorkspace {
    /// Node index → slot in `nodes`, [`NONE`] until the query touches
    /// the node: the only array as long as the network.
    slot_of: Vec<u32>,
    nodes: Vec<NodeState>,
    /// Outgoing edges of every node in `nodes`, back to back.
    adjacency: Vec<roadnet::Edge>,
    /// Staging buffer for `read_node`, which clears its argument
    /// and so cannot append to `adjacency` directly.
    fetched: Vec<roadnet::Edge>,
    paths: Vec<PathState>,
    heap: BinaryHeap<QueueEntry>,
}

impl SearchWorkspace {
    /// Clean what the previous query left, however it ended, in
    /// O(nodes it read), and cover a source of `n_nodes` nodes.
    pub(crate) fn reset(&mut self, n_nodes: usize, scratch: &mut PwlScratch) {
        for n in self.nodes.drain(..) {
            self.slot_of[n.id.index()] = NONE;
        }
        self.slot_of.resize(self.slot_of.len().max(n_nodes), NONE);
        self.adjacency.clear();
        self.heap.clear();
        for p in self.paths.drain(..) {
            scratch.recycle_ref(p.travel);
        }
    }

    /// Clean, and give back what an idle workspace should not hold.
    pub(crate) fn park(&mut self, scratch: &mut PwlScratch) {
        self.reset(0, scratch);
        self.nodes.shrink_to(IDLE_CAPACITY);
        self.adjacency.shrink_to(IDLE_CAPACITY);
        self.paths.shrink_to(IDLE_CAPACITY);
        self.heap.shrink_to(IDLE_CAPACITY);
    }

    /// Read the record of the node in `slot` from `source`: append its
    /// outgoing edges to the arena, point the slot at them, and return
    /// the node's location.
    fn read_record<S: NetworkSource + ?Sized>(&mut self, slot: usize, source: &S) -> Result<Point> {
        let loc = source.read_node(self.nodes[slot].id, &mut self.fetched)?;
        self.adjacency.extend_from_slice(&self.fetched);
        let end = index32(self.adjacency.len(), "adjacency arena outgrew u32 offsets")?;
        // `fetched` is a suffix of the arena, so its length fits too.
        let len = self.fetched.len() as u32;
        (self.nodes[slot].start, self.nodes[slot].len) = (end - len, len);
        Ok(loc)
    }
}

/// Arena path `idx` as an answer path: its node sequence, root first,
/// and its function promoted to shared storage, so the arena, the
/// answer and its border hold one `Pwl`.
fn arena_path(paths: &mut [PathState], idx: usize) -> FastestPath {
    let mut nodes = Vec::with_capacity(paths[idx].depth as usize + 1);
    let mut cur = idx as u32;
    while cur != NONE {
        nodes.push(paths[cur as usize].head);
        cur = paths[cur as usize].parent;
    }
    nodes.reverse();
    let travel = paths[idx].travel.share();
    FastestPath { nodes, travel }
}

/// The [`PathState::bloom`] bit for `node`.
#[inline]
fn bloom_bit(node: NodeId) -> u128 {
    1u128 << (node.index() & 127)
}

/// Does arena path `idx` visit `node`? (Cycle check for expansion.)
fn visits(paths: &[PathState], idx: usize, node: NodeId) -> bool {
    if paths[idx].bloom & bloom_bit(node) == 0 {
        return false;
    }
    let mut cur = idx as u32;
    while cur != NONE {
        if paths[cur as usize].head == node {
            return true;
        }
        cur = paths[cur as usize].parent;
    }
    false
}

/// The one allFP assembly (§4.6): read the partitioning off `border`,
/// whose tags are the caller's path ids, compact the ids into answer
/// indices by first appearance (`resolve` turns an id into its path)
/// and rebuild the border over those indices in that order. The flat
/// search, its salvage and [`Engine::answer_routes`] all end here, so
/// their boundaries and path order agree bit for bit.
fn assemble_answer(
    border: Envelope<usize>,
    mut resolve: impl FnMut(usize) -> FastestPath,
    stats: QueryStats,
    scratch: &mut PwlScratch,
) -> Result<AllFpAnswer> {
    let raw_partition = border.partition();
    border.recycle_into(scratch);
    let mut ids: Vec<usize> = Vec::new(); // answer index → path id
    let mut paths: Vec<FastestPath> = Vec::new();
    let mut partition = Vec::with_capacity(raw_partition.len());
    for (iv, id) in raw_partition {
        let idx = match ids.iter().position(|&p| p == id) {
            Some(i) => i,
            None => {
                ids.push(id);
                paths.push(resolve(id));
                paths.len() - 1
            }
        };
        partition.push((iv, idx));
    }
    let lower_border = lower_envelope(paths.iter().map(|p| &p.travel), scratch)?.ok_or(
        AllFpError::Internal("lower border partitioned to zero paths"),
    )?;
    Ok(AllFpAnswer {
        paths,
        partition,
        lower_border,
        stats,
    })
}

/// The lower envelope of `fns`, each tagged by its index, merged in
/// index order — the tie-break of every border an answer carries.
/// `None` for no functions.
pub(crate) fn lower_envelope<'f>(
    fns: impl IntoIterator<Item = &'f Arc<Pwl>>,
    scratch: &mut PwlScratch,
) -> Result<Option<Envelope<usize>>> {
    let mut env: Option<Envelope<usize>> = None;
    for (i, f) in fns.into_iter().enumerate() {
        match &mut env {
            None => env = Some(Envelope::new(Arc::clone(f), i)),
            Some(e) => e.merge_min_with(scratch, f, i)?,
        }
    }
    Ok(env)
}

/// The singleFP answer on `path` (§4.5): its minimum is the travel
/// time, and where it is attained the best leaving instants.
fn single_answer(path: FastestPath, stats: QueryStats) -> SingleFpAnswer {
    let m = path.travel.minimum();
    SingleFpAnswer {
        path,
        travel_minutes: m.value,
        best_leaving: m.at,
        stats,
    }
}

/// Queue entry: minimum of `T + T_est`, FIFO among equals, carrying
/// the path's arena index.
type QueueEntry = MinEntry<u64, usize>;

/// The per-search budget watcher: deadline, expansion cap, and
/// cancellation, resolved once at search start. Public so a backend
/// that runs its own search (the contraction hierarchy's) polls with
/// the same cadence and trips with the same reasons.
pub struct Watch<'t> {
    deadline: Option<Instant>,
    /// The query's expansion budget capped by the engine's valve; the
    /// search checks it on **every** pop.
    pub max_expansions: usize,
    cancel: Option<&'t CancelToken>,
    pops: u64,
}

impl<'t> Watch<'t> {
    /// Resolve `query`'s budget against the engine-level expansion
    /// valve `engine_cap`; the wall-clock budget starts now.
    pub fn new(query: &QuerySpec, engine_cap: usize, cancel: Option<&'t CancelToken>) -> Self {
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

    /// Poll the cheap-but-not-free signals (cancellation, wall clock)
    /// every [`WATCH_EVERY`] pops, including the very first. Returns
    /// `Err` on cancellation, `Ok(Some(reason))` on an expired
    /// deadline, `Ok(None)` to keep searching.
    pub fn poll(&mut self) -> Result<Option<DegradedReason>> {
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

    /// Unconditional poll, placed immediately before each target-path
    /// compound ([`CacheSession::extend`]) — the
    /// most expensive single step in the search. Pop-granularity
    /// polling alone lets one heavy expansion (hundreds of compounds on
    /// a dense node over a long interval) overshoot the deadline by the
    /// full expansion cost; this bounds the overshoot to roughly one
    /// compound. No-op (not even a clock read) when neither a deadline
    /// nor a cancel token is set, so unbudgeted queries pay one branch
    /// per compound.
    pub fn poll_compound(&self) -> Result<Option<DegradedReason>> {
        if self.cancel.is_none() && self.deadline.is_none() {
            return Ok(None);
        }
        self.poll_now()
    }
}

/// The query engine: owns a reference to the network source and an
/// estimator, and answers allFP / singleFP queries.
pub struct Engine<'a, S: NetworkSource> {
    source: &'a S,
    estimator: Box<dyn LowerBoundEstimator + 'a>,
    config: EngineConfig,
    cache: std::sync::Arc<TravelFnCache>,
}

impl<'a, S: NetworkSource> Engine<'a, S> {
    /// Build an engine over any source with the configured estimator,
    /// read from the source itself: [`EstimatorKind::MinTime`] (the
    /// default) or `Naive`. The boundary estimator's tables need an
    /// in-memory network, so `Boundary { grid }` fails here with
    /// [`AllFpError::EstimatorNeedsNetwork`]: [`Engine::for_network`]
    /// builds it, and [`Engine::with_estimator`] runs one built by
    /// [`build_estimator`] against any source, a disk-resident one
    /// included.
    pub fn new(source: &'a S, config: EngineConfig) -> Result<Self> {
        let estimator = source_estimator(source, config.estimator)?;
        Ok(Self::with_estimator(source, estimator, config))
    }

    /// Build an engine over any source with an explicit estimator
    /// (e.g. a [`BoundaryLb`] precomputed from the in-memory network,
    /// used against the CCAM store).
    pub fn with_estimator(
        source: &'a S,
        estimator: Box<dyn LowerBoundEstimator + 'a>,
        config: EngineConfig,
    ) -> Self {
        Engine {
            source,
            estimator,
            config,
            cache: Arc::new(TravelFnCache::new()),
        }
    }

    /// Build an engine that **shares** a travel-function cache and an
    /// estimator with other engines — the per-epoch engine shape of
    /// the live-update path ([`crate::epoch`]): every epoch gets its
    /// own network version but all epochs share one cache (exact
    /// across versions because pattern ids are append-only) and, when
    /// the apply rules allow, one estimator.
    pub fn with_shared(
        source: &'a S,
        estimator: std::sync::Arc<dyn LowerBoundEstimator>,
        cache: std::sync::Arc<TravelFnCache>,
        config: EngineConfig,
    ) -> Self {
        Engine {
            source,
            estimator: Box::new(estimator),
            config,
            cache,
        }
    }

    /// The configuration the engine answers under; a backend that runs
    /// its own search over this engine's network (the contraction
    /// hierarchy's) reads its expansion valve here.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Name of the active estimator.
    pub fn estimator_name(&self) -> &'static str {
        self.estimator.name()
    }

    /// Lifetime hit/miss counters of the engine's travel-function
    /// cache, accumulated across every query (on every thread) this
    /// engine has answered.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Open a fresh cache session for a caller that runs many queries
    /// back to back on one thread (the service worker loop, a batch
    /// worker, or a [`crate::backend::PathfindBackend`] wrapper that
    /// shares this engine's travel-function cache).
    pub fn cache_session(&self) -> CacheSession<'_> {
        self.cache.session()
    }

    /// The engine's lower-bound estimator, for backends that run their
    /// own prioritized search over a structure derived from this
    /// engine's network (estimates depend only on `(node, target)`
    /// positions, so they lower-bound travel on any overlay whose arcs
    /// represent real paths).
    pub fn estimator(&self) -> &dyn LowerBoundEstimator {
        self.estimator.as_ref()
    }

    /// Shared read access to the network source this engine answers
    /// queries over.
    pub fn source(&self) -> &'a S {
        self.source
    }

    /// Assemble the degraded answer for a tripped budget: keep the
    /// exact best-so-far, and plan the constant-speed fallback route
    /// (cheap: one time-independent A*), attaching its *exact*
    /// travel-time function under the real patterns so the caller can
    /// still read departure-time trade-offs off the degraded answer.
    fn degraded_answer(
        &self,
        query: &QuerySpec,
        reason: DegradedReason,
        best: Option<AllFpAnswer>,
        stats: QueryStats,
        session: &mut CacheSession<'_>,
    ) -> Result<DegradedAnswer> {
        let (nodes, _) = constant_speed_plan(
            self.source,
            query.source,
            query.target,
            query.interval.lo(),
            query.category,
        )?;
        let travel = Arc::new(self.route_travel_fn(&nodes, query, session)?);
        let fallback_travel_minutes = travel.minimum().value;
        Ok(DegradedAnswer {
            reason,
            best,
            fallback: FastestPath { nodes, travel },
            fallback_travel_minutes,
            stats,
        })
    }

    /// The exact travel-time function of the fixed route `nodes` over
    /// the query interval, composed edge by edge through the session
    /// ([`CacheSession::extend`], the search's own step, on the
    /// session's warm pool) — **bit-identical** to what the search
    /// itself would compute for this node sequence.
    pub fn route_travel_fn(
        &self,
        nodes: &[NodeId],
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
    ) -> Result<Pwl> {
        let mut travel = Pwl::constant(query.interval, 0.0)?;
        for w in nodes.windows(2) {
            let extended = self.route_step(w[0], w[1], &travel, query, session)?;
            let parent = std::mem::replace(&mut travel, extended);
            session.scratch_mut().recycle(parent);
        }
        Ok(travel)
    }

    /// One step of a route fold: `travel` extended over the edge
    /// `from → to`.
    fn route_step(
        &self,
        from: NodeId,
        to: NodeId,
        travel: &Pwl,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
    ) -> Result<Pwl> {
        let edges = self.source.successors(from)?;
        let edge = edges
            .iter()
            .find(|e| e.to == to)
            .ok_or(AllFpError::Unreachable {
                source: from,
                target: to,
            })?;
        let arrivals = Arrivals::of(travel)?;
        let profile = self.source.pattern(edge.pattern)?.profile(query.category)?;
        let (extended, _) = session.extend(
            edge.pattern,
            query.category,
            profile,
            edge.distance,
            &arrivals,
            travel,
        )?;
        Ok(extended)
    }

    /// The ending of a backend that selects its routes by a search of
    /// its own (the contraction hierarchy): the answer re-composed from
    /// `run`'s routes through this engine's steps, bit for bit what the
    /// flat search answers with those paths. singleFP re-composes its
    /// one route ([`Engine::route_travel_fn`]); allFP every route, in
    /// identification order, each from the longest prefix it shares
    /// with an earlier one — routes of one answer share corridors, and
    /// the compositions so saved are [`QueryStats::compositions_saved`]
    /// — and assembles their lower
    /// envelope as the flat search assembles its border; routes that
    /// win nowhere drop out. A tripped budget errors or degrades as
    /// `mode` says; no route at all is [`AllFpError::Unreachable`].
    pub fn answer_routes(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        run: SearchRun,
        session: &mut CacheSession<'_>,
    ) -> Result<Answer> {
        let SearchRun {
            routes,
            trip,
            stats,
        } = run;
        let unreachable = AllFpError::Unreachable {
            source: query.source,
            target: query.target,
        };
        match (trip, mode) {
            (Some(reason), QueryMode::AllFpOrDegraded) => {
                let best = self.compose_routes(routes, query, stats, session)?;
                let degraded = self.degraded_answer(query, reason, best, stats, session)?;
                Ok(Answer::Degraded(degraded))
            }
            (Some(_), _) => Err(AllFpError::BudgetExhausted {
                expansions: stats.expanded_paths,
            }),
            (None, QueryMode::SingleFp) => {
                let nodes = routes.into_iter().next().ok_or(unreachable)?;
                let travel = Arc::new(self.route_travel_fn(&nodes, query, session)?);
                Ok(Answer::SingleFp(single_answer(
                    FastestPath { nodes, travel },
                    stats,
                )))
            }
            (None, _) => self
                .compose_routes(routes, query, stats, session)?
                .map(Answer::AllFp)
                .ok_or(unreachable),
        }
    }

    /// The allFP answer over candidate routes (`None` for none), each
    /// re-composed, then assembled. A route sharing an edge prefix with
    /// one composed before resumes that route's fold after the prefix:
    /// the fold is strictly left to right, so the resumed one performs
    /// the identical operations on identical operands — the same bits,
    /// fewer compositions.
    fn compose_routes(
        &self,
        mut routes: Vec<Vec<NodeId>>,
        query: &QuerySpec,
        mut stats: QueryStats,
        session: &mut CacheSession<'_>,
    ) -> Result<Option<AllFpAnswer>> {
        // Per composed route, its function after each of its edges.
        let mut cums: Vec<Vec<Arc<Pwl>>> = Vec::with_capacity(routes.len());
        let mut fns = Vec::with_capacity(routes.len());
        for route in &routes {
            let mut cum = Vec::with_capacity(route.len().saturating_sub(1));
            cum.extend_from_slice(shared_prefix(&routes, &cums, route));
            let saved = cum.len();
            stats.compositions_saved += saved as u64;
            let mut travel = match cum.last() {
                Some(prefix) => Arc::clone(prefix),
                None => Arc::new(Pwl::constant(query.interval, 0.0)?),
            };
            for w in route.windows(2).skip(saved) {
                travel = Arc::new(self.route_step(w[0], w[1], &travel, query, session)?);
                cum.push(Arc::clone(&travel));
            }
            cums.push(cum);
            fns.push(travel);
        }
        let Some(border) = lower_envelope(&fns, session.scratch_mut())? else {
            return Ok(None);
        };
        let resolve = |i: usize| FastestPath {
            nodes: std::mem::take(&mut routes[i]),
            travel: Arc::clone(&fns[i]),
        };
        assemble_answer(border, resolve, stats, session.scratch_mut()).map(Some)
    }

    /// Answer the **allFP query**: the full partitioning of the query
    /// interval into sub-intervals with their fastest paths. The
    /// inherent spelling of [`PathfindBackend::all_fastest_paths`], for
    /// callers without the trait in scope.
    pub fn all_fastest_paths(&self, query: &QuerySpec) -> Result<AllFpAnswer> {
        PathfindBackend::all_fastest_paths(self, query)
    }

    /// The search proper, over a checked-out (clean) workspace: one
    /// routine for every [`QueryMode`]. singleFP stops at the first
    /// popped target path (§4.5); allFP runs to the paper's termination
    /// rule and assembles the partitioning; a budget that trips first
    /// is an error or — under [`QueryMode::AllFpOrDegraded`] — the
    /// exact best-so-far with the constant-speed plan.
    fn search_in(
        &self,
        ws: &mut SearchWorkspace,
        query: &QuerySpec,
        target_loc: Point,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        mut watch: Watch<'_>,
    ) -> Result<Answer> {
        let single_only = mode == QueryMode::SingleFp;
        let mut stats = QueryStats::default();
        let mut seq = 0u64;
        // First touch of a node (the seed, or a candidate edge's head):
        // file it with its bound. An estimator that reads locations
        // needs the record now, adjacency and location in one read; a
        // location-blind one leaves the read to the node's first
        // expansion, so a node that is only touched is never read.
        // Every later candidate or expansion is served from `ws`.
        // Returns the slot. An id past the source's nodes (a head read
        // from a damaged page, say) is `UnknownNode`, never an index
        // past `slot_of`.
        let n_nodes = self.source.n_nodes();
        let lazy = !self.estimator.reads_location();
        let touch = |ws: &mut SearchWorkspace, node: NodeId| -> Result<usize> {
            if node.index() >= n_nodes {
                return Err(roadnet::NetworkError::UnknownNode(node).into());
            }
            let slot = ws.nodes.len();
            ws.slot_of[node.index()] = index32(slot, "node records outgrew u32 slots")?;
            ws.nodes.push(NodeState {
                id: node,
                est: 0.0,
                start: 0,
                len: 0,
                fns_head: NONE,
                fns_tail: NONE,
                expanded: false,
            });
            // A location-blind bound ignores the point it is given.
            let loc = if lazy {
                target_loc
            } else {
                ws.read_record(slot, self.source)?
            };
            ws.nodes[slot].est =
                self.estimator
                    .travel_lower_bound(node, loc, query.target, target_loc);
            Ok(slot)
        };

        // Lower border over identified target paths. `border_max`
        // mirrors `border.max_value()` so the per-pop and per-edge
        // pruning checks are O(1) instead of an O(pieces) envelope
        // scan; it only changes when a path merges into the border.
        let mut border: Option<Envelope<usize>> = None;
        let mut border_max = f64::INFINITY;
        // `paths.len()` at the last border merge: exactly the paths
        // below it were last tested against an older (higher) border.
        let mut border_seen = 0usize;
        // singleFP: the first popped target path.
        let mut single: Option<usize> = None;

        // Global best-case speed: `distance / max_speed` lower-bounds
        // any edge's travel time, independent of leaving instant.
        let max_speed = self.source.max_speed();

        // Seed: the zero-length path at the source.
        {
            let slot = touch(ws, query.source)?;
            let est = ws.nodes[slot].est;
            if est == f64::INFINITY {
                return Err(AllFpError::Unreachable {
                    source: query.source,
                    target: query.target,
                });
            }
            let travel = Pwl::constant(query.interval, 0.0)?;
            let travel_min = travel.min_value();
            let f_min = travel_min + est;
            ws.paths.push(PathState {
                parent: NONE,
                next_at_node: NONE,
                head: query.source,
                bloom: bloom_bit(query.source),
                depth: 0,
                travel_min,
                travel: travel.into(),
            });
            ws.heap.push(QueueEntry {
                key: f_min,
                tie: seq,
                item: 0,
            });
            seq += 1;
            stats.pushed += 1;
        }

        // Set when a budget trips (deadline, expansion cap) either at a
        // pop boundary or mid-expansion before a compound; the salvage +
        // degraded assembly lives after the loop so both trip sites
        // share it.
        let mut trip: Option<DegradedReason> = None;

        'search: while let Some(entry) = ws.heap.pop() {
            // Termination (§4.6): the next candidate can no longer beat
            // the border anywhere.
            if border_max.is_finite() && pwl::approx_le(border_max, entry.key) {
                break;
            }

            let head = ws.paths[entry.item].head;

            if head == query.target {
                // Identified a target path. Its travel function is
                // promoted to shared storage: the arena and the answer
                // or border hold the same `Arc<Pwl>` — no deep copies.
                if single_only {
                    single = Some(entry.item);
                    break;
                }
                stats.border_merges += 1;
                match &mut border {
                    None => {
                        let b = Envelope::new(ws.paths[entry.item].travel.share(), entry.item);
                        border_max = b.max_value();
                        border = Some(b);
                    }
                    Some(b) => {
                        b.merge_min_with(
                            session.scratch_mut(),
                            &ws.paths[entry.item].travel,
                            entry.item,
                        )?;
                        border_max = b.max_value();
                    }
                }
                border_seen = ws.paths.len();
                continue;
            }

            // Budget checks sit *after* target handling: merging an
            // already-popped target path costs one envelope merge and
            // only improves the (possibly degraded) answer, so the
            // budget never forfeits it. Expansion — the expensive part
            // — is what the caps meter.
            if let Some(reason) = watch.poll()? {
                trip = Some(reason);
                break 'search;
            }
            // Pointwise border rule (DESIGN.md §7), re-run against a
            // border that fell since this path was pushed. A path it
            // kills was polled above but is no expansion.
            let head_slot = ws.slot_of[head.index()] as usize;
            let (travel, est) = (&ws.paths[entry.item].travel, ws.nodes[head_slot].est);
            if entry.item < border_seen
                && border
                    .as_ref()
                    .is_some_and(|b| travel.dominated_by_offset(est, b.as_pwl()))
            {
                stats.pruned_by_border += 1;
                continue;
            }
            if stats.expanded_paths >= watch.max_expansions {
                trip = Some(DegradedReason::ExpansionsExhausted);
                break 'search;
            }

            // Expand, reading the node's record on its first expansion
            // if its first touch did not.
            stats.expanded_paths += 1;
            if lazy && !ws.nodes[head_slot].expanded {
                ws.read_record(head_slot, self.source)?;
            }
            ws.nodes[head_slot].expanded = true;

            // The leaving-time interval at `head` (the paper's Figure 4
            // step) is a property of the path, not the edge.
            let arrivals = Arrivals::of(&ws.paths[entry.item].travel)?;
            // Indexed, not borrowed: a first touch below appends to
            // `adjacency` while this node's slice is being walked.
            let start = ws.nodes[head_slot].start as usize;
            for i in start..start + ws.nodes[head_slot].len as usize {
                let edge = ws.adjacency[i];
                // Cycles can never help under FIFO (positive travel times).
                if visits(&ws.paths, entry.item, edge.to) {
                    continue;
                }

                let slot = match ws.slot_of.get(edge.to.index()) {
                    Some(&slot) if slot != NONE => slot as usize,
                    _ => touch(ws, edge.to)?,
                };
                let est = ws.nodes[slot].est;
                if est == f64::INFINITY {
                    continue; // no completion from `edge.to` exists
                }

                // Early border bound, before the expensive composition:
                // the extended path's travel function is everywhere ≥
                // parent minimum + distance/v_max, so if even that
                // best case cannot beat the border anywhere, skip the
                // travel-function work entirely. Conservative — every
                // path it kills, the exact check below would kill too.
                if border_max.is_finite() {
                    let optimistic =
                        ws.paths[entry.item].travel_min + edge.distance / max_speed + est;
                    if pwl::approx_le(border_max, optimistic) {
                        stats.pruned_by_border += 1;
                        continue;
                    }
                }

                // Deadline/cancel check at compound granularity: the
                // prunes above are O(1), but the travel-function +
                // composition work below is the expensive step, so a
                // heavy expansion must not run all its compounds after
                // the deadline has already passed.
                if let Some(reason) = watch.poll_compound()? {
                    trip = Some(reason);
                    break 'search;
                }

                let profile = self.source.pattern(edge.pattern)?.profile(query.category)?;
                let (travel, hit) = session.extend(
                    edge.pattern,
                    query.category,
                    profile,
                    edge.distance,
                    &arrivals,
                    &ws.paths[entry.item].travel,
                )?;
                stats.cache_lookups += 1;
                if hit {
                    stats.cache_hits += 1;
                } else {
                    stats.cache_misses += 1;
                }
                let n = travel.n_pieces();
                stats.pieces_total += n as u64;
                stats.pieces_max = stats.pieces_max.max(n as u64);
                stats.bytes_allocated += (8 * (n + 1) + 16 * n) as u64;
                let travel_min = travel.min_value();
                let f_min = travel_min + est;

                // Border bound: dead if no completion can get under the
                // border at any instant — `T(l) + est ≥ border(l)` for all
                // `l`; comparing the two sides' extremes is its O(1) case.
                // A survivor is keyed by its best `T(l) + est` over the
                // instants where it still beats the border (the
                // live-instant key, DESIGN.md §7).
                let key = match &border {
                    None => Some(f_min),
                    Some(_) if pwl::approx_le(border_max, f_min) => None,
                    Some(b) => travel.live_min(est, b.as_pwl()).map(|k| k.max(f_min)),
                };
                let Some(key) = key else {
                    stats.pruned_by_border += 1;
                    session.scratch_mut().recycle(travel);
                    continue;
                };

                // Optional per-node dominance pruning (extension): scan
                // the paths known to end at `edge.to`, oldest first.
                if self.config.prune_dominated {
                    let mut p = ws.nodes[slot].fns_head;
                    while p != NONE
                        && !travel.dominated_by_offset(0.0, &ws.paths[p as usize].travel)
                    {
                        p = ws.paths[p as usize].next_at_node;
                    }
                    if p != NONE {
                        stats.pruned_dominated += 1;
                        session.scratch_mut().recycle(travel);
                        continue;
                    }
                }

                let idx = index32(ws.paths.len(), "path arena outgrew u32 indices")?;
                ws.paths.push(PathState {
                    // Arena indices passed this same check when pushed.
                    parent: entry.item as u32,
                    next_at_node: NONE,
                    head: edge.to,
                    bloom: ws.paths[entry.item].bloom | bloom_bit(edge.to),
                    depth: ws.paths[entry.item].depth + 1,
                    travel_min,
                    travel: travel.into(),
                });
                if self.config.prune_dominated {
                    // Append: the scan order above is push order.
                    match std::mem::replace(&mut ws.nodes[slot].fns_tail, idx) {
                        NONE => ws.nodes[slot].fns_head = idx,
                        tail => ws.paths[tail as usize].next_at_node = idx,
                    }
                }
                ws.heap.push(QueueEntry {
                    key,
                    tie: seq,
                    item: idx as usize,
                });
                seq += 1;
                stats.pushed += 1;
            }
        }

        stats.expanded_nodes = ws.nodes.iter().filter(|n| n.expanded).count();
        stats.nodes_read = if lazy {
            stats.expanded_nodes
        } else {
            ws.nodes.len()
        };

        if let Some(reason) = trip {
            if mode != QueryMode::AllFpOrDegraded {
                return Err(AllFpError::BudgetExhausted {
                    expansions: stats.expanded_paths,
                });
            }
            // Salvage before reporting: complete target paths still
            // *queued* (A* pops them only after every optimistic
            // incomplete path is exhausted, i.e. at the very end) merge
            // into the border with envelope merges only — no
            // composition work, so the overrun past the budget is
            // small and bounded. Merge best-first for deterministic
            // tie-breaks.
            while let Some(e) = ws.heap.pop() {
                if ws.paths[e.item].head != query.target {
                    continue;
                }
                stats.border_merges += 1;
                match &mut border {
                    None => border = Some(Envelope::new(ws.paths[e.item].travel.share(), e.item)),
                    Some(b) => {
                        b.merge_min_with(session.scratch_mut(), &ws.paths[e.item].travel, e.item)?;
                    }
                }
            }
            let resolve = |id| arena_path(&mut ws.paths, id);
            let best = border
                .map(|b| assemble_answer(b, resolve, stats, session.scratch_mut()))
                .transpose()?;
            return Ok(Answer::Degraded(
                self.degraded_answer(query, reason, best, stats, session)?,
            ));
        }

        if let Some(path) = single {
            let path = arena_path(&mut ws.paths, path);
            return Ok(Answer::SingleFp(single_answer(path, stats)));
        }

        // No border: the queue ran dry before any path reached the target.
        let border = border.ok_or(AllFpError::Unreachable {
            source: query.source,
            target: query.target,
        })?;
        let resolve = |id| arena_path(&mut ws.paths, id);
        let all = assemble_answer(border, resolve, stats, session.scratch_mut())?;
        Ok(Answer::AllFp(all))
    }

    /// A degenerate (single-instant) interval: the classic special
    /// case, delegated to fixed-instant A\*.
    fn degenerate_instant(&self, query: &QuerySpec, single_only: bool) -> Result<Answer> {
        let l = query.interval.lo();
        let ans = astar_at(
            self.source,
            query.source,
            query.target,
            l,
            query.category,
            self.estimator.as_ref(),
        )?;
        let stats = QueryStats {
            expanded_paths: ans.expanded_nodes,
            expanded_nodes: ans.expanded_nodes,
            ..QueryStats::default()
        };
        let shown = Interval::of(l, l + 1e-3);
        let travel = Arc::new(Pwl::constant(shown, ans.travel_minutes)?);
        let path = FastestPath {
            nodes: ans.nodes,
            travel: Arc::clone(&travel),
        };
        Ok(if single_only {
            Answer::SingleFp(SingleFpAnswer {
                path,
                travel_minutes: ans.travel_minutes,
                best_leaving: Interval::of(l, l),
                stats,
            })
        } else {
            Answer::AllFp(AllFpAnswer {
                paths: vec![path],
                partition: vec![(query.interval, 0)],
                lower_border: Envelope::new(travel, 0),
                stats,
            })
        })
    }
}

impl<'a, S: NetworkSource> PathfindBackend for Engine<'a, S> {
    fn backend_name(&self) -> &'static str {
        "flat"
    }

    fn cache_session(&self) -> CacheSession<'_> {
        Engine::cache_session(self)
    }

    fn cache_counters(&self) -> CacheCounters {
        Engine::cache_counters(self)
    }

    // The caller supplies the session so batch and service workers keep
    // one warm L1, scratch pool and `SearchWorkspace` across every query
    // they process; the one-shot surfaces revive a parked session per
    // query. `cancel` is polled between pops (see `WATCH_EVERY`).
    fn answer(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Answer> {
        // A location-blind estimator never asks where the target is,
        // and the search never expands it: only its id is checked.
        let target_loc = if self.estimator.reads_location() {
            self.source.find_node(query.target)?
        } else if query.target.index() < self.source.n_nodes() {
            Point { x: 0.0, y: 0.0 }
        } else {
            return Err(roadnet::NetworkError::UnknownNode(query.target).into());
        };

        // Degenerate interval → the classic special case (delegated to
        // fixed-instant A*, which is the cheap path: budgets are not
        // consulted there, only cancellation before it starts).
        if query.interval.is_degenerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(AllFpError::Cancelled);
            }
            return self.degenerate_instant(query, mode == QueryMode::SingleFp);
        }

        let watch = Watch::new(query, self.config.max_expansions, cancel);
        session.with_workspace(self.source.n_nodes(), |ws, session| {
            self.search_in(ws, query, target_loc, mode, session, watch)
        })
    }
}

/// The functions, after each edge, of the longest edge prefix `route`
/// shares with one of the routes composed so far (`cums[j]` is route
/// `routes[j]`'s) — empty when none shares even the first edge.
fn shared_prefix<'c>(
    routes: &[Vec<NodeId>],
    cums: &'c [Vec<Arc<Pwl>>],
    route: &[NodeId],
) -> &'c [Arc<Pwl>] {
    let mut best: &[Arc<Pwl>] = &[];
    for (stored, cum) in routes.iter().zip(cums) {
        let edges = stored.windows(2).zip(route.windows(2));
        let k = edges.take_while(|(a, b)| a == b).count();
        if k > best.len() {
            best = &cum[..k];
        }
    }
    best
}

impl<'a> Engine<'a, roadnet::RoadNetwork> {
    /// Build an engine from an in-memory network, performing boundary
    /// precomputation if the config asks for it.
    pub fn for_network(net: &'a roadnet::RoadNetwork, config: EngineConfig) -> Result<Self> {
        let estimator = build_estimator(net, &config)?;
        Ok(Self::with_estimator(net, estimator, config))
    }
}

/// Build the configured estimator for a network. The result can be
/// handed to [`Engine::with_estimator`] over any [`NetworkSource`]
/// that exposes the same node ids (e.g. a CCAM store of this network).
pub fn build_estimator(
    net: &roadnet::RoadNetwork,
    config: &EngineConfig,
) -> Result<Box<dyn LowerBoundEstimator>> {
    match config.estimator {
        EstimatorKind::Boundary { grid } => Ok(Box::new(MaxEstimator::new(
            NaiveLb::new(net.max_speed()),
            BoundaryLb::build(net, grid)?,
            "bdLB",
        ))),
        kind => source_estimator(net, kind),
    }
}

/// The estimator of `kind` over any source: the kinds that need no
/// in-memory network.
fn source_estimator<S: NetworkSource + ?Sized>(
    source: &S,
    kind: EstimatorKind,
) -> Result<Box<dyn LowerBoundEstimator>> {
    Ok(match kind {
        EstimatorKind::Naive => Box::new(NaiveLb::new(source.max_speed())),
        EstimatorKind::MinTime | EstimatorKind::BoundaryPartitioned { .. } => {
            Box::new(MinTimeLb::build(source)?)
        }
        EstimatorKind::Boundary { .. } => return Err(AllFpError::EstimatorNeedsNetwork(kind)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::time::{hm, hms};
    use roadnet::examples::paper_running_example;
    use traffic::DayCategory;

    /// The default engine over a disabled travel-function cache.
    fn uncached(net: &roadnet::RoadNetwork) -> Engine<'_, roadnet::RoadNetwork> {
        let config = EngineConfig::default();
        let estimator = Arc::from(build_estimator(net, &config).unwrap());
        Engine::with_shared(net, estimator, Arc::new(TravelFnCache::disabled()), config)
    }

    fn paper_query() -> QuerySpec {
        let (_, ids) = paper_running_example();
        QuerySpec::new(
            ids.s,
            ids.e,
            Interval::of(hm(6, 50), hm(7, 5)),
            DayCategory::WORKDAY,
        )
    }

    /// A source whose `from` node has one extra edge, to an id past
    /// its nodes — what a damaged page with no checksum could hand the
    /// search.
    struct StrayHead<'a> {
        inner: &'a roadnet::RoadNetwork,
        from: NodeId,
    }

    impl StrayHead<'_> {
        fn stray(&self) -> NodeId {
            NodeId(self.inner.n_nodes() as u32 + 3)
        }
    }

    impl NetworkSource for StrayHead<'_> {
        fn n_nodes(&self) -> usize {
            self.inner.n_nodes()
        }

        fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
            self.inner.find_node(node)
        }

        fn successors(&self, node: NodeId) -> roadnet::Result<Vec<roadnet::Edge>> {
            let mut edges = self.inner.successors(node)?;
            if node == self.from {
                edges.push(roadnet::Edge {
                    to: self.stray(),
                    ..edges[0]
                });
            }
            Ok(edges)
        }

        fn pattern(&self, id: roadnet::PatternId) -> roadnet::Result<&traffic::CapeCodPattern> {
            self.inner.pattern(id)
        }

        fn max_speed(&self) -> f64 {
            self.inner.max_speed()
        }
    }

    #[test]
    fn an_edge_head_past_the_nodes_is_unknown_node_not_a_panic() {
        let (net, ids) = paper_running_example();
        let src = StrayHead {
            inner: &net,
            from: ids.s,
        };
        let naive = EngineConfig {
            estimator: EstimatorKind::Naive,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&src, naive).unwrap();
        let unknown = |r: &Result<()>| {
            matches!(
                r,
                Err(AllFpError::Network(roadnet::NetworkError::UnknownNode(n))) if *n == src.stray()
            )
        };
        let all = engine.all_fastest_paths(&paper_query()).map(drop);
        assert!(unknown(&all), "allFP: {all:?}");
        let single = engine.single_fastest_path(&paper_query()).map(drop);
        assert!(unknown(&single), "singleFP: {single:?}");
        // The min-time bound's build sweeps every record and meets the
        // stray head first: the same class, not an internal error.
        let min_time = Engine::new(&src, EngineConfig::default()).map(drop);
        assert!(unknown(&min_time), "minTimeLB build: {min_time:?}");
    }

    /// A query endpoint past the nodes is `UnknownNode` whether or not
    /// the estimator reads locations: minTimeLB never looks the target
    /// up, so its id is checked on its own.
    #[test]
    fn an_endpoint_past_the_nodes_is_unknown_node_under_every_estimator() {
        let (net, ids) = paper_running_example();
        let stray = NodeId(net.n_nodes() as u32 + 3);
        let unknown = |r: &Result<()>| {
            matches!(
                r,
                Err(AllFpError::Network(roadnet::NetworkError::UnknownNode(n))) if *n == stray
            )
        };
        for estimator in [EstimatorKind::MinTime, EstimatorKind::Naive] {
            let config = EngineConfig {
                estimator,
                ..EngineConfig::default()
            };
            let engine = Engine::new(&net, config).unwrap();
            for (source, target) in [(ids.s, stray), (stray, ids.e)] {
                let q = QuerySpec {
                    source,
                    target,
                    ..paper_query()
                };
                let all = engine.all_fastest_paths(&q).map(drop);
                let single = engine.single_fastest_path(&q).map(drop);
                for got in [all, single] {
                    assert!(unknown(&got), "{estimator:?} {source} -> {target}: {got:?}");
                }
            }
        }
    }

    #[test]
    fn single_fp_matches_section_4_5() {
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let ans = engine.single_fastest_path(&paper_query()).unwrap();
        // "s ⇒ n → e is the result for singleFP. At 7:00 it has the
        // least travel time (5 min)" — optimal leaving [7:00, 7:03].
        assert_eq!(ans.path.nodes, vec![ids.s, ids.n, ids.e]);
        assert!((ans.travel_minutes - 5.0).abs() < 1e-9);
        assert!(pwl::approx_eq(ans.best_leaving.lo(), hm(7, 0)));
        assert!(pwl::approx_eq(ans.best_leaving.hi(), hm(7, 3)));
    }

    #[test]
    fn all_fp_matches_section_4_6() {
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let ans = engine.all_fastest_paths(&paper_query()).unwrap();
        // Paper §4.6:
        //   s → e        on [6:50, 6:58:30)
        //   s → n → e    on [6:58:30, 7:03:26)
        //   s → e        on [7:03:26, 7:05]
        assert_eq!(ans.partition.len(), 3, "{}", ans.describe());
        let p0 = &ans.paths[ans.partition[0].1];
        let p1 = &ans.paths[ans.partition[1].1];
        let p2 = &ans.paths[ans.partition[2].1];
        assert_eq!(p0.nodes, vec![ids.s, ids.e]);
        assert_eq!(p1.nodes, vec![ids.s, ids.n, ids.e]);
        assert_eq!(p2.nodes, vec![ids.s, ids.e]);
        assert!(pwl::approx_eq(ans.partition[0].0.hi(), hms(6, 58, 30)));
        assert!(pwl::approx_eq(
            ans.partition[1].0.hi(),
            hm(7, 6) - 18.0 / 7.0
        ));
        assert!(pwl::approx_eq(ans.partition[2].0.hi(), hm(7, 5)));
        // border covers I exactly
        assert!(ans.lower_border.domain().approx_eq(&paper_query().interval));
        // travel at 7:01 is the 5-minute via-n window
        assert!((ans.travel_at(hm(7, 1)).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_target_errors() {
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = QuerySpec::new(
            ids.e,
            ids.s,
            Interval::of(hm(6, 50), hm(7, 5)),
            DayCategory::WORKDAY,
        );
        assert!(matches!(
            engine.all_fastest_paths(&q),
            Err(AllFpError::Unreachable { .. })
        ));
        assert!(matches!(
            engine.single_fastest_path(&q),
            Err(AllFpError::Unreachable { .. })
        ));
    }

    #[test]
    fn degenerate_interval_degrades_to_astar() {
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = QuerySpec::new(
            ids.s,
            ids.e,
            Interval::of(hm(7, 0), hm(7, 0)),
            DayCategory::WORKDAY,
        );
        let single = engine.single_fastest_path(&q).unwrap();
        assert_eq!(single.path.nodes, vec![ids.s, ids.n, ids.e]);
        assert!((single.travel_minutes - 5.0).abs() < 1e-9);
        let all = engine.all_fastest_paths(&q).unwrap();
        assert_eq!(all.partition.len(), 1);
    }

    #[test]
    fn nonworkday_has_single_constant_answer() {
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = QuerySpec::new(
            ids.s,
            ids.e,
            Interval::of(hm(6, 50), hm(7, 5)),
            DayCategory::NON_WORKDAY,
        );
        // On a non-workday every edge moves at 1 mpm: via-n = 5 miles =
        // 5 minutes beats the 6-mile direct road everywhere.
        let ans = engine.all_fastest_paths(&q).unwrap();
        assert_eq!(ans.partition.len(), 1);
        assert_eq!(
            ans.paths[ans.partition[0].1].nodes,
            vec![ids.s, ids.n, ids.e]
        );
        assert!((ans.travel_at(hm(7, 0)).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_preserves_answers() {
        let (net, _) = paper_running_example();
        let plain = Engine::new(
            &net,
            EngineConfig {
                prune_dominated: false,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let pruned = Engine::new(
            &net,
            EngineConfig {
                prune_dominated: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let q = paper_query();
        let a = plain.all_fastest_paths(&q).unwrap();
        let b = pruned.all_fastest_paths(&q).unwrap();
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
    }

    #[test]
    fn budget_exhaustion_reports() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(
            &net,
            EngineConfig {
                max_expansions: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            engine.all_fastest_paths(&paper_query()),
            Err(AllFpError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn estimator_names_reported() {
        let (net, _) = paper_running_example();
        let default = Engine::new(&net, EngineConfig::default()).unwrap();
        assert_eq!(default.estimator_name(), "minTimeLB");
        let config = |estimator| EngineConfig {
            estimator,
            ..EngineConfig::default()
        };
        let naive = config(EstimatorKind::Naive);
        assert_eq!(
            Engine::new(&net, naive).unwrap().estimator_name(),
            "naiveLB"
        );
        let bd = config(EstimatorKind::Boundary { grid: 2 });
        assert_eq!(
            Engine::for_network(&net, bd.clone())
                .unwrap()
                .estimator_name(),
            "bdLB"
        );
        // `new` builds what it can from any source and refuses the rest.
        assert!(matches!(
            Engine::new(&net, bd),
            Err(AllFpError::EstimatorNeedsNetwork(EstimatorKind::Boundary {
                grid: 2
            }))
        ));
    }

    #[test]
    fn error_displays_are_informative() {
        let e = AllFpError::Unreachable {
            source: NodeId(1),
            target: NodeId(2),
        };
        assert!(e.to_string().contains("no path"));
        let e = AllFpError::BudgetExhausted { expansions: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn stats_are_populated() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let ans = engine.all_fastest_paths(&paper_query()).unwrap();
        assert!(ans.stats.expanded_paths >= 2);
        assert!(ans.stats.expanded_nodes >= 2);
        assert!(ans.stats.pushed >= 3);
        assert_eq!(ans.stats.border_merges, 2);
    }

    #[test]
    fn cache_counters_are_consistent() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = paper_query();
        let a = engine.all_fastest_paths(&q).unwrap();
        assert!(a.stats.cache_lookups > 0);
        assert_eq!(
            a.stats.cache_hits + a.stats.cache_misses,
            a.stats.cache_lookups
        );
        // A second identical query is served entirely from the cache.
        let b = engine.all_fastest_paths(&q).unwrap();
        assert_eq!(b.stats.cache_misses, 0);
        assert_eq!(b.stats.cache_hits, b.stats.cache_lookups);
        // Engine-wide counters add up across the two queries.
        let c = engine.cache_counters();
        assert_eq!(
            (c.hits + c.misses) as usize,
            a.stats.cache_lookups + b.stats.cache_lookups
        );
    }

    #[test]
    fn disabled_cache_counts_every_lookup_as_miss() {
        let (net, _) = paper_running_example();
        let engine = uncached(&net);
        let q = paper_query();
        for _ in 0..2 {
            let a = engine.all_fastest_paths(&q).unwrap();
            assert_eq!(a.stats.cache_hits, 0);
            assert_eq!(a.stats.cache_misses, a.stats.cache_lookups);
        }
    }

    #[test]
    fn cache_toggle_preserves_answers() {
        let (net, _) = paper_running_example();
        let cached = Engine::new(&net, EngineConfig::default()).unwrap();
        let plain = uncached(&net);
        let q = paper_query();
        let a = cached.all_fastest_paths(&q).unwrap();
        let b = plain.all_fastest_paths(&q).unwrap();
        assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(a.paths[x.1].nodes, b.paths[y.1].nodes);
        }
    }

    #[test]
    fn exhausted_query_budget_degrades_with_valid_fallback() {
        use crate::query::{QueryBudget, QueryOutcome};
        let (net, ids) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        // Zero expansions: nothing can reach the target, so best is
        // None and only the constant-speed fallback is available.
        let q = paper_query().with_budget(QueryBudget::default().with_max_expansions(0));
        let out = engine.run_robust(&q).unwrap();
        let QueryOutcome::Degraded(d) = out else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.reason, crate::DegradedReason::ExpansionsExhausted);
        assert!(d.best.is_none());
        assert_eq!(d.fallback.nodes.first(), Some(&ids.s));
        assert_eq!(d.fallback.nodes.last(), Some(&ids.e));
        // the fallback's travel function is exact: driving the route
        // under the real patterns must match it
        for l in [hm(6, 50), hm(6, 57), hm(7, 2)] {
            let driven =
                crate::baseline::evaluate_path(&net, &d.fallback.nodes, l, q.category).unwrap();
            assert!(
                (d.fallback.travel.eval_clamped(l) - driven).abs() < 1e-9,
                "fallback travel fn disagrees with driving at {l}"
            );
        }
        assert!(d.fallback_travel_minutes > 0.0);
        // the legacy API maps the same budget onto the legacy error
        assert!(matches!(
            engine.all_fastest_paths(&q),
            Err(AllFpError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn partial_budget_keeps_best_so_far() {
        use crate::query::{QueryBudget, QueryOutcome};
        // The 3-node paper example merges its target paths only after
        // the last expansion, so a partial border needs a network where
        // expansions continue past the first merge: a grid.
        let net = roadnet::generators::grid(5, 5, 0.3, traffic::RoadClass::LocalOutside).unwrap();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let base = QuerySpec::new(
            NodeId(0),
            NodeId(24),
            Interval::of(hm(6, 50), hm(7, 5)),
            DayCategory::WORKDAY,
        );
        let exact = engine.all_fastest_paths(&base).unwrap();
        let full = exact.stats.expanded_paths;
        assert!(full > 2);
        // Scan caps downward: the first just-under-full cap should trip
        // after at least one target path has merged.
        let mut saw_partial = false;
        for cap in (1..full).rev() {
            let q = base
                .clone()
                .with_budget(QueryBudget::default().with_max_expansions(cap));
            let QueryOutcome::Degraded(d) = engine.run_robust(&q).unwrap() else {
                continue;
            };
            assert_eq!(d.reason, crate::DegradedReason::ExpansionsExhausted);
            assert!(d.stats.expanded_paths <= cap);
            let Some(best) = d.best else { continue };
            saw_partial = true;
            // every best-so-far path is drivable and its travel
            // function exact
            for fp in &best.paths {
                let l = fp.travel.domain().lo();
                let driven =
                    crate::baseline::evaluate_path(&net, &fp.nodes, l, q.category).unwrap();
                assert!((fp.travel.eval_clamped(l) - driven).abs() < 1e-9);
            }
            break;
        }
        assert!(saw_partial, "no cap produced a partial best-so-far");
    }

    #[test]
    fn zero_deadline_degrades_immediately() {
        use crate::query::{QueryBudget, QueryOutcome};
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = paper_query()
            .with_budget(QueryBudget::default().with_deadline(std::time::Duration::ZERO));
        let out = engine.run_robust(&q).unwrap();
        let QueryOutcome::Degraded(d) = out else {
            panic!("expected degraded outcome");
        };
        assert_eq!(d.reason, crate::DegradedReason::DeadlineExpired);
        assert!(!d.fallback.nodes.is_empty());
    }

    #[test]
    fn unbudgeted_robust_outcome_is_exact() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let want = engine.all_fastest_paths(&paper_query()).unwrap();
        let out = engine.run_robust(&paper_query()).unwrap();
        let got = out.exact().expect("no budget → exact");
        assert_eq!(got.partition.len(), want.partition.len());
        for (x, y) in got.partition.iter().zip(want.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(got.paths[x.1].nodes, want.paths[y.1].nodes);
        }
    }

    #[test]
    fn workspace_is_clean_at_checkout_after_every_kind_of_exit() {
        use crate::query::QueryBudget;
        // Two networks of different sizes over one pattern schema; on
        // the large one, node 25 is left but never entered.
        let small = roadnet::generators::grid(3, 3, 0.3, traffic::RoadClass::LocalOutside).unwrap();
        let mut large =
            roadnet::generators::grid(5, 5, 0.3, traffic::RoadClass::LocalOutside).unwrap();
        let island = large.add_node(2.0, 2.0).unwrap();
        large
            .add_class_edge(island, NodeId(24), 2.0, traffic::RoadClass::LocalOutside)
            .unwrap();
        // naiveLB, so the unreachable query searches: the min-time
        // bound proves it before reading a node.
        let naive = EngineConfig {
            estimator: EstimatorKind::Naive,
            ..EngineConfig::default()
        };
        let on_small = Engine::new(&small, naive.clone()).unwrap();
        let on_large = Engine::new(&large, naive).unwrap();

        let iv = Interval::of(hm(6, 50), hm(7, 5));
        let ask = |s, t| QuerySpec::new(NodeId(s), NodeId(t), iv, DayCategory::WORKDAY);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        use QueryMode::{AllFp, AllFpOrDegraded, SingleFp};
        // (engine, query, mode, cancel, how it must end)
        let runs = [
            (&on_large, ask(0, 24), AllFp, None, "done"),
            (&on_small, ask(0, 8), SingleFp, None, "single"),
            (
                &on_large,
                ask(0, 24).with_budget(QueryBudget::default().with_max_expansions(7)),
                AllFpOrDegraded,
                None,
                "degraded",
            ),
            (&on_small, ask(8, 0), AllFp, Some(&cancelled), "cancelled"),
            (&on_large, ask(3, island.0), AllFp, None, "unreachable"),
            (
                &on_large,
                ask(24, 0)
                    .with_budget(QueryBudget::default().with_deadline(std::time::Duration::ZERO)),
                SingleFp,
                None,
                "exhausted",
            ),
            (&on_small, ask(2, 6), AllFp, None, "done"),
        ];

        let mut session = on_large.cache_session();
        let mut ws = SearchWorkspace::default();
        for (engine, q, mode, cancel, want) in runs {
            let n = engine.source.n_nodes();
            ws.reset(n, session.scratch_mut());
            assert!(ws.slot_of.len() >= n && ws.slot_of.iter().all(|&s| s == NONE));
            assert!(ws.nodes.is_empty() && ws.adjacency.is_empty());
            assert!(ws.paths.is_empty() && ws.heap.is_empty());

            let target_loc = engine.source.find_node(q.target).unwrap();
            let watch = Watch::new(&q, engine.config.max_expansions, cancel);
            let yielded = engine.search_in(&mut ws, &q, target_loc, mode, &mut session, watch);
            let (got, stats) = match yielded {
                Ok(Answer::AllFp(a)) => ("done", Some(a.stats)),
                Ok(Answer::SingleFp(s)) => ("single", Some(s.stats)),
                Ok(Answer::Degraded(d)) => ("degraded", Some(d.stats)),
                Err(AllFpError::BudgetExhausted { expansions: 0 }) => ("exhausted", None),
                Err(AllFpError::Cancelled) => ("cancelled", None),
                Err(AllFpError::Unreachable { .. }) => ("unreachable", None),
                Err(e) => panic!("{q:?}: {e}"),
            };
            assert_eq!(got, want, "{q:?}");
            // What the search leaves behind: one record per node read,
            // each where `slot_of` says, and nothing else marked.
            assert!(!ws.nodes.is_empty() && !ws.paths.is_empty());
            if let Some(stats) = stats {
                assert_eq!(ws.nodes.len(), stats.nodes_read, "{q:?}");
            }
            for (slot, node) in ws.nodes.iter().enumerate() {
                assert_eq!(ws.slot_of[node.id.index()] as usize, slot);
            }
            let marked = ws.slot_of.iter().filter(|&&s| s != NONE).count();
            assert_eq!(marked, ws.nodes.len());
        }
        // A parked workspace keeps bounded arenas, whatever a search grew.
        ws.paths.reserve(8 * IDLE_CAPACITY);
        ws.heap.reserve(8 * IDLE_CAPACITY);
        ws.park(session.scratch_mut());
        assert!(ws.nodes.is_empty() && ws.slot_of.iter().all(|&s| s == NONE));
        assert!(ws.paths.capacity() <= IDLE_CAPACITY && ws.heap.capacity() <= IDLE_CAPACITY);
    }

    #[test]
    fn arena_materializes_deep_paths() {
        // A 5-node chain exercises materialization and the
        // parent-chain cycle check beyond depth 2.
        let schema = traffic::PatternSchema::table1().unwrap();
        let mut net = roadnet::RoadNetwork::with_schema(&schema);
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(net.add_node(f64::from(i), 0.0).unwrap());
        }
        for w in ids.windows(2) {
            net.add_bidirectional(w[0], w[1], 1.0, traffic::RoadClass::LocalOutside)
                .unwrap();
        }
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let q = QuerySpec::new(
            ids[0],
            ids[4],
            Interval::of(hm(6, 50), hm(7, 5)),
            DayCategory::WORKDAY,
        );
        let ans = engine.all_fastest_paths(&q).unwrap();
        assert_eq!(ans.paths[ans.partition[0].1].nodes, ids);
        let single = engine.single_fastest_path(&q).unwrap();
        assert_eq!(single.path.nodes, ids);
    }

    /// The ending a route-selecting backend takes, on routes of flat
    /// metro-small answers: every route of an answer re-assembles it
    /// bit for bit; two routes sharing a k-edge prefix save k
    /// compositions and each keeps `route_travel_fn`'s bits; no route is
    /// `Unreachable`, and a tripped run errors with its own count or
    /// degrades with no best-so-far.
    #[test]
    fn answer_routes_ends_like_the_flat_search() {
        use roadnet::generators::{suffolk_like, MetroConfig};
        use DegradedReason::DeadlineExpired;
        use QueryMode::{AllFp, AllFpOrDegraded, SingleFp};
        let net = suffolk_like(&MetroConfig::small(0x5EED)).unwrap();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let pairs = roadnet::workload::distance_buckets(&net, 4, 2, 0.25, 0x5EED).unwrap();
        let (q, want, k) = (pairs.iter().flat_map(|(_, pairs)| pairs))
            .find_map(|pair| {
                let rush = Interval::of(hm(7, 0), hm(10, 0));
                let q = QuerySpec::new(pair.source, pair.target, rush, DayCategory::WORKDAY);
                let want = engine.all_fastest_paths(&q).unwrap();
                let [a, b, ..] = &want.paths[..] else {
                    return None;
                };
                let shared = a.nodes.iter().zip(&b.nodes).take_while(|(x, y)| x == y);
                let k = shared.count() - 1;
                (k > 0).then_some((q, want, k))
            })
            .expect("an answer whose first two paths share an edge");
        let routes: Vec<_> = want.paths.iter().map(|p| p.nodes.clone()).collect();
        let mut session = engine.cache_session();
        let mut end = |routes: &[Vec<NodeId>], trip, mode| {
            let stats = QueryStats {
                expanded_paths: 17,
                ..QueryStats::default()
            };
            let run = SearchRun {
                routes: routes.to_vec(),
                trip,
                stats,
            };
            engine.answer_routes(&q, mode, run, &mut session)
        };

        let Ok(Answer::AllFp(all)) = end(&routes, None, AllFp) else {
            panic!("every route of an answer");
        };
        assert_eq!(all.paths, want.paths);
        assert_eq!(all.partition, want.partition);
        assert_eq!(all.lower_border, want.lower_border);
        let Ok(Answer::AllFp(two)) = end(&routes[..2], None, AllFp) else {
            panic!("two routes of an answer");
        };
        assert_eq!(two.stats.compositions_saved, k as u64);
        for p in &two.paths {
            let alone = engine.route_travel_fn(&p.nodes, &q, &mut engine.cache_session());
            assert_eq!(*p.travel, alone.unwrap());
        }

        for mode in [AllFp, SingleFp] {
            let unreachable = end(&[], None, mode);
            assert!(matches!(unreachable, Err(AllFpError::Unreachable { .. })));
            let tripped = end(&routes, Some(DeadlineExpired), mode);
            assert!(matches!(
                tripped,
                Err(AllFpError::BudgetExhausted { expansions: 17 })
            ));
        }
        let Ok(Answer::Degraded(d)) = end(&[], Some(DeadlineExpired), AllFpOrDegraded) else {
            panic!("a tripped run under AllFpOrDegraded degrades");
        };
        assert!(d.best.is_none() && d.reason == DeadlineExpired);
    }
}
