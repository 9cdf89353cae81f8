//! The `IntAllFastestPaths` engine (§4): one search routine serves
//! every [`QueryMode`] behind [`PathfindBackend::answer`]; the query
//! surfaces are that trait's provided methods.

use std::sync::Arc;

use pwl::compose::Arrivals;
use pwl::{Envelope, Interval, Pwl, PwlScratch};
use roadnet::{NetworkSource, NodeId, Point};

use crate::backend::{Answer, PathfindBackend, QueryMode, SearchRun};
use crate::baseline::{astar_at, constant_speed_plan};
use crate::cache::{CacheCounters, CacheSession, TravelFnCache};
use crate::estimator::{EstimatorKind, LowerBoundEstimator, MinTimeLb, NaiveLb};
use crate::query::{
    AllFpAnswer, CancelToken, DegradedAnswer, DegradedReason, FastestPath, QuerySpec, QueryStats,
    SingleFpAnswer,
};
use crate::search::{self, index32, Bucket, Expand, Frontier, Hop, Label, Run, NONE};
use crate::{AllFpError, Result};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which lower-bound estimator to use: [`EstimatorKind::MinTime`]
    /// by default, the tightest; `Naive` is the paper's baseline
    /// (Figure 9, ablation A-1).
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

/// The flat graph's part of a label: what the cycle check and the
/// answer's node sequence read off the path.
pub(crate) struct Trail {
    /// 128-bit Bloom filter of the nodes on the path (parent's filter
    /// plus the head's bit). An unset bit proves the node is *not* on
    /// the path, letting the cycle check skip the parent-chain walk for
    /// most candidates; a set bit still walks the chain, so hash
    /// collisions cost time but never change the answer. Two words, not
    /// a `u128`, so a label needs no 16-byte alignment.
    bloom: [u64; 2],
    /// Number of edges in the path (root is 0); pre-sizes
    /// materialization buffers.
    depth: u32,
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
    /// The node's dominance list, when the engine prunes dominated
    /// paths.
    fns: Bucket,
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
    table: NodeTable,
    frontier: Frontier<Trail>,
}

/// The nodes one flat search has touched.
#[derive(Default)]
struct NodeTable {
    /// Node index → slot in `nodes`, [`NONE`] until the query touches
    /// the node: the only array as long as the network.
    slot_of: Vec<u32>,
    nodes: Vec<NodeState>,
    /// Outgoing edges of every node in `nodes`, back to back.
    adjacency: Vec<roadnet::Edge>,
    /// Staging buffer for `read_node`, which clears its argument
    /// and so cannot append to `adjacency` directly.
    fetched: Vec<roadnet::Edge>,
}

impl SearchWorkspace {
    /// Clean what the previous query left, however it ended, in
    /// O(nodes it read), and cover a source of `n_nodes` nodes.
    pub(crate) fn reset(&mut self, n_nodes: usize, scratch: &mut PwlScratch) {
        let table = &mut self.table;
        for n in table.nodes.drain(..) {
            table.slot_of[n.id.index()] = NONE;
        }
        table.slot_of.resize(table.slot_of.len().max(n_nodes), NONE);
        table.adjacency.clear();
        self.frontier.clear(scratch);
    }

    /// Clean, and give back what an idle workspace should not hold.
    pub(crate) fn park(&mut self, scratch: &mut PwlScratch) {
        self.reset(0, scratch);
        self.table.nodes.shrink_to(IDLE_CAPACITY);
        self.table.adjacency.shrink_to(IDLE_CAPACITY);
        self.frontier.shrink_to(IDLE_CAPACITY);
    }
}

impl NodeTable {
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
fn arena_path(paths: &mut [Label<Trail>], idx: usize) -> FastestPath {
    let mut nodes = Vec::with_capacity(paths[idx].extra.depth as usize + 1);
    let mut cur = idx as u32;
    while cur != NONE {
        nodes.push(paths[cur as usize].node);
        cur = paths[cur as usize].parent;
    }
    nodes.reverse();
    let travel = paths[idx].travel.share();
    FastestPath { nodes, travel }
}

/// The [`Trail::bloom`] word and bit for `node`.
#[inline]
fn bloom_bit(node: NodeId) -> (usize, u64) {
    let b = node.index() & 127;
    (b >> 6, 1 << (b & 63))
}

/// Does arena path `idx` visit `node`? (Cycle check for expansion.)
fn visits(paths: &[Label<Trail>], idx: usize, node: NodeId) -> bool {
    let (word, bit) = bloom_bit(node);
    if paths[idx].extra.bloom[word] & bit == 0 {
        return false;
    }
    let mut cur = idx as u32;
    while cur != NONE {
        if paths[cur as usize].node == node {
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
    /// read from the source itself by [`build_estimator`].
    pub fn new(source: &'a S, config: EngineConfig) -> Result<Self> {
        let estimator = build_estimator(source, &config)?;
        Ok(Self::with_estimator(source, estimator, config))
    }

    /// Build an engine over any source with an explicit estimator
    /// (e.g. one built over the in-memory network and used against the
    /// CCAM store of the same node ids, or a caller's own bound).
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

    /// The search proper, over a checked-out (clean) workspace: the
    /// one loop ([`search::run`]) over the flat graph, for every
    /// [`QueryMode`]. singleFP answers with the first popped target
    /// path (§4.5); allFP assembles the partitioning; a budget that
    /// trips first is an error or — under [`QueryMode::AllFpOrDegraded`]
    /// — the exact best-so-far with the constant-speed plan.
    fn search_in(
        &self,
        ws: &mut SearchWorkspace,
        query: &QuerySpec,
        target_loc: Point,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Answer> {
        let lazy = !self.estimator.reads_location();
        let mut graph = FlatGraph {
            source: self.source,
            n_nodes: self.source.n_nodes(),
            estimator: self.estimator.as_ref(),
            session: &mut *session,
            table: &mut ws.table,
            query,
            target_loc,
            lazy,
            prune_dominated: self.config.prune_dominated,
            max_speed: self.source.max_speed(),
            start: 0,
        };
        let cap = self.config.max_expansions;
        let run = search::run(&mut graph, &mut ws.frontier, query, mode, cap, cancel)?;
        let Run {
            border,
            single,
            trip,
            mut stats,
        } = run.ok_or(AllFpError::Internal("the flat graph handed its query back"))?;
        stats.expanded_nodes = ws.table.nodes.iter().filter(|n| n.expanded).count();
        stats.nodes_read = if lazy {
            stats.expanded_nodes
        } else {
            ws.table.nodes.len()
        };

        let paths = &mut ws.frontier.labels;
        let unreachable = AllFpError::Unreachable {
            source: query.source,
            target: query.target,
        };
        match (trip, single, border) {
            (Some(_), ..) if mode != QueryMode::AllFpOrDegraded => {
                Err(AllFpError::BudgetExhausted {
                    expansions: stats.expanded_paths,
                })
            }
            (Some(reason), _, border) => {
                let resolve = |id| arena_path(paths, id);
                let best = border
                    .map(|b| assemble_answer(b, resolve, stats, session.scratch_mut()))
                    .transpose()?;
                let degraded = self.degraded_answer(query, reason, best, stats, session)?;
                Ok(Answer::Degraded(degraded))
            }
            (None, Some(path), _) => Ok(Answer::SingleFp(single_answer(
                arena_path(paths, path),
                stats,
            ))),
            // No border: the queue ran dry before any path reached the
            // target.
            (None, None, None) => Err(unreachable),
            (None, None, Some(border)) => {
                let resolve = |id| arena_path(paths, id);
                assemble_answer(border, resolve, stats, session.scratch_mut()).map(Answer::AllFp)
            }
        }
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

        session.with_workspace(self.source.n_nodes(), |ws, session| {
            self.search_in(ws, query, target_loc, mode, session, cancel)
        })
    }
}

/// The original network as [`search::run`] expands it: node records
/// read into the workspace's table on demand, edges composed through
/// the session's travel-function cache.
struct FlatGraph<'q, 'c, S: ?Sized> {
    source: &'q S,
    n_nodes: usize,
    estimator: &'q dyn LowerBoundEstimator,
    session: &'q mut CacheSession<'c>,
    table: &'q mut NodeTable,
    query: &'q QuerySpec,
    target_loc: Point,
    /// The estimator reads no location, so a record is read on its
    /// node's first expansion rather than its first touch.
    lazy: bool,
    prune_dominated: bool,
    /// Global best-case speed: `distance / max_speed` lower-bounds any
    /// edge's travel time, independent of leaving instant.
    max_speed: f64,
    /// Adjacency-arena offset of the node being expanded.
    start: usize,
}

impl<S: NetworkSource + ?Sized> FlatGraph<'_, '_, S> {
    /// First touch of a node (the seed, or a candidate edge's head):
    /// file it with its bound. An estimator that reads locations needs
    /// the record now, adjacency and location in one read; a
    /// location-blind one leaves the read to the node's first
    /// expansion, so a node that is only touched is never read. Every
    /// later candidate or expansion is served from the table. Returns
    /// the slot. An id past the source's nodes (a head read from a
    /// damaged page, say) is `UnknownNode`, never an index past
    /// `slot_of`.
    fn touch(&mut self, node: NodeId) -> Result<usize> {
        if node.index() >= self.n_nodes {
            return Err(roadnet::NetworkError::UnknownNode(node).into());
        }
        let table = &mut *self.table;
        let slot = table.nodes.len();
        table.slot_of[node.index()] = index32(slot, "node records outgrew u32 slots")?;
        table.nodes.push(NodeState {
            id: node,
            est: 0.0,
            start: 0,
            len: 0,
            fns: Bucket::default(),
            expanded: false,
        });
        // A location-blind bound ignores the point it is given.
        let loc = if self.lazy {
            self.target_loc
        } else {
            table.read_record(slot, self.source)?
        };
        table.nodes[slot].est =
            self.estimator
                .travel_lower_bound(node, loc, self.query.target, self.target_loc);
        Ok(slot)
    }
}

impl<S: NetworkSource + ?Sized> Expand for FlatGraph<'_, '_, S> {
    type Extra = Trail;
    /// The edge and its head's slot.
    type Via = (roadnet::Edge, usize);

    #[inline]
    fn scratch(&mut self) -> &mut PwlScratch {
        self.session.scratch_mut()
    }

    fn seed(&mut self) -> Result<(f64, Trail)> {
        let source = self.query.source;
        let slot = self.touch(source)?;
        let est = self.table.nodes[slot].est;
        if est == f64::INFINITY {
            return Err(AllFpError::Unreachable {
                source,
                target: self.query.target,
            });
        }
        let (word, bit) = bloom_bit(source);
        let mut bloom = [0; 2];
        bloom[word] = bit;
        Ok((est, Trail { bloom, depth: 0 }))
    }

    #[inline]
    fn est(&self, label: &Label<Trail>) -> f64 {
        self.table.nodes[self.table.slot_of[label.node.index()] as usize].est
    }

    /// Read the node's record on its first expansion if its first touch
    /// did not.
    #[inline]
    fn expand(&mut self, paths: &[Label<Trail>], item: usize, _: Option<&Pwl>) -> Result<usize> {
        let slot = self.table.slot_of[paths[item].node.index()] as usize;
        if self.lazy && !self.table.nodes[slot].expanded {
            self.table.read_record(slot, self.source)?;
        }
        let node = &mut self.table.nodes[slot];
        node.expanded = true;
        self.start = node.start as usize;
        Ok(node.len as usize)
    }

    #[inline]
    fn hop(
        &mut self,
        paths: &[Label<Trail>],
        item: usize,
        i: usize,
        _: &mut QueryStats,
    ) -> Result<Option<Hop<Self::Via, Trail>>> {
        // Indexed, not borrowed: a first touch below appends to
        // `adjacency` while this node's slice is being walked.
        let edge = self.table.adjacency[self.start + i];
        // Cycles can never help under FIFO (positive travel times).
        if visits(paths, item, edge.to) {
            return Ok(None);
        }
        let slot = match self.table.slot_of.get(edge.to.index()) {
            Some(&slot) if slot != NONE => slot as usize,
            _ => self.touch(edge.to)?,
        };
        let est = self.table.nodes[slot].est;
        if est == f64::INFINITY {
            return Ok(None); // no completion from `edge.to` exists
        }
        let parent = &paths[item].extra;
        let (word, bit) = bloom_bit(edge.to);
        let mut bloom = parent.bloom;
        bloom[word] |= bit;
        Ok(Some(Hop {
            to: edge.to,
            est,
            lb: edge.distance / self.max_speed,
            via: (edge, slot),
            extra: Trail {
                bloom,
                depth: parent.depth + 1,
            },
        }))
    }

    #[inline]
    fn compose(
        &mut self,
        paths: &[Label<Trail>],
        item: usize,
        hop: &Hop<Self::Via, Trail>,
        arrivals: &Arrivals,
        stats: &mut QueryStats,
    ) -> Result<Option<Pwl>> {
        let (edge, category) = (hop.via.0, self.query.category);
        let profile = self.source.pattern(edge.pattern)?.profile(category)?;
        let (travel, hit) = self.session.extend(
            edge.pattern,
            category,
            profile,
            edge.distance,
            arrivals,
            &paths[item].travel,
        )?;
        stats.cache_lookups += 1;
        if hit {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
        Ok(Some(travel))
    }

    /// One bucket per node, when the engine prunes dominated paths.
    #[inline]
    fn buckets(&mut self, hop: &Hop<Self::Via, Trail>) -> ([Bucket; 2], Option<&mut Bucket>) {
        if !self.prune_dominated {
            return (Default::default(), None);
        }
        let fns = &mut self.table.nodes[hop.via.1].fns;
        ([*fns, Bucket::default()], Some(fns))
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
    /// [`Engine::new`] over an in-memory network.
    pub fn for_network(net: &'a roadnet::RoadNetwork, config: EngineConfig) -> Result<Self> {
        Self::new(net, config)
    }
}

/// Build the configured estimator from any source. The result can be
/// handed to [`Engine::with_estimator`] over any [`NetworkSource`]
/// that exposes the same node ids (e.g. a CCAM store of this network).
pub fn build_estimator<S: NetworkSource + ?Sized>(
    source: &S,
    config: &EngineConfig,
) -> Result<Box<dyn LowerBoundEstimator>> {
    Ok(match config.estimator {
        EstimatorKind::Naive => Box::new(NaiveLb::new(source.max_speed())),
        EstimatorKind::MinTime | EstimatorKind::BoundaryPartitioned { .. } => {
            Box::new(MinTimeLb::build(source)?)
        }
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
    fn every_estimator_kind_builds_over_memory_and_disk() {
        let (net, _) = paper_running_example();
        let pages = Arc::new(ccam::MemStore::new(ccam::DEFAULT_PAGE_SIZE));
        let disk =
            ccam::CcamStore::build(&net, pages, ccam::PlacementPolicy::ConnectivityClustered, 8)
                .unwrap();
        // Exhaustive: a new kind must say which estimator it builds.
        let name = |kind| match kind {
            EstimatorKind::Naive => "naiveLB",
            EstimatorKind::MinTime | EstimatorKind::BoundaryPartitioned { .. } => "minTimeLB",
        };
        let kinds = [
            EstimatorKind::Naive,
            EstimatorKind::MinTime,
            EstimatorKind::BoundaryPartitioned { groups: 64 },
        ];
        for estimator in kinds {
            let config = EngineConfig {
                estimator,
                ..EngineConfig::default()
            };
            assert_eq!(
                build_estimator(&net, &config).unwrap().name(),
                name(estimator)
            );
            assert_eq!(
                build_estimator(&disk, &config).unwrap().name(),
                name(estimator)
            );
            assert!(Engine::new(&net, config.clone()).is_ok(), "{estimator:?}");
            assert!(Engine::new(&disk, config).is_ok(), "{estimator:?}");
        }
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
            let table = &ws.table;
            assert!(table.slot_of.len() >= n && table.slot_of.iter().all(|&s| s == NONE));
            assert!(table.nodes.is_empty() && table.adjacency.is_empty());
            assert!(ws.frontier.labels.is_empty() && ws.frontier.heap.is_empty());

            let target_loc = engine.source.find_node(q.target).unwrap();
            let yielded = engine.search_in(&mut ws, &q, target_loc, mode, &mut session, cancel);
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
            let table = &ws.table;
            assert!(!table.nodes.is_empty() && !ws.frontier.labels.is_empty());
            if let Some(stats) = stats {
                assert_eq!(table.nodes.len(), stats.nodes_read, "{q:?}");
            }
            for (slot, node) in table.nodes.iter().enumerate() {
                assert_eq!(table.slot_of[node.id.index()] as usize, slot);
            }
            let marked = table.slot_of.iter().filter(|&&s| s != NONE).count();
            assert_eq!(marked, table.nodes.len());
        }
        // A parked workspace keeps bounded arenas, whatever a search grew.
        ws.frontier.labels.reserve(8 * IDLE_CAPACITY);
        ws.frontier.heap.reserve(8 * IDLE_CAPACITY);
        ws.park(session.scratch_mut());
        let (table, frontier) = (&ws.table, &ws.frontier);
        assert!(table.nodes.is_empty() && table.slot_of.iter().all(|&s| s == NONE));
        assert!(frontier.labels.capacity() <= IDLE_CAPACITY);
        assert!(frontier.heap.capacity() <= IDLE_CAPACITY);
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
