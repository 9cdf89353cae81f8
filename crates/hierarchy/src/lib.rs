//! Time-dependent contraction hierarchy for CapeCod road networks.
//!
//! The flat `allfp` engine answers every query by best-first path
//! expansion over the original network — thousands of expansions per
//! query on a metro-scale graph. This crate trades a one-time
//! preprocessing pass for orders-of-magnitude cheaper queries:
//!
//! 1. **Node ordering** — round-based: every round selects the
//!    independent set of remainder nodes that are strict local minima
//!    of the edge-difference/travel-minimum priority (deterministic
//!    node-id tie-break) and contracts them together, planning in
//!    parallel over a scoped worker pool and applying serially — the
//!    overlay is identical at every thread count by construction.
//! 2. **Contraction** — removing node `v` inserts shortcut arcs
//!    `u → w` whose weights are full piecewise-linear travel-time
//!    functions composed with the same pooled kernels the flat engine
//!    uses ([`pwl::compose_travel_into`]); a bounded **witness search**
//!    (max-weight Dijkstra versus min-of-via) proves most candidate
//!    shortcuts unnecessary, and parallel arcs are deduplicated by
//!    pointwise domination.
//! 3. **Storage** — stored functions are optionally replaced by
//!    bounded-error lower approximations ([`pwl::reduce_lower_with`],
//!    [`HierarchyConfig::overlay_compress`]) with per-arc error and
//!    banded min/max tables for admissible pruning — typically halving
//!    overlay bytes without touching any answer.
//! 4. **Query** — an up–down best-first search over the overlay
//!    selects the winning routes; shortcuts unpack to original edge
//!    sequences; every answer function is then **re-composed through
//!    the flat engine's own pipeline**
//!    ([`allfp::Engine::route_travel_fn`]), so answers are
//!    bit-identical to the flat engine's (the golden suite in
//!    `core/tests/hierarchy_equivalence.rs` pins this — compressed or
//!    not).
//!
//! [`HierarchyEngine`] implements [`allfp::PathfindBackend`], so the
//! admission-controlled `QueryService`, robust batches, deadlines,
//! cancellation and degraded fallbacks all work against it unchanged.
//! Queries the overlay cannot serve exactly (degenerate intervals,
//! day categories that were not preprocessed, leaving windows outside
//! `[0, 1440]`, multi-day arrival windows) transparently fall back to
//! the embedded flat engine — exactness before speed, always.
//!
//! DESIGN.md §12 documents the algebra-closure and witness-soundness
//! arguments; §13 covers parallel-contraction determinism and the
//! approximation-admissibility contract.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::redundant_clone)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod overlay;
mod pool;
mod search;

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use allfp::baseline::constant_speed_plan;
use allfp::{
    AllFpAnswer, AllFpError, BatchStats, CacheCounters, CacheSession, CancelToken, DegradedAnswer,
    Engine, EngineConfig, EngineError, FastestPath, PathfindBackend, QueryOutcome, QuerySpec,
    QueryStats, Result, RouteComposeMemo, SingleFpAnswer,
};
use pwl::time::MINUTES_PER_DAY;
use pwl::{Envelope, Interval, Pwl};
use roadnet::overlay::{BandTable, HierarchySnapshot, OverlaySnapshot, SnapshotArc};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::overlay::{
    build_overlay, finish_overlay, make_arc, reuse_arc, Overlay, OverlayArc, BANDS,
};
use crate::pool::WorkerPool;

/// Preprocessing configuration.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Day categories to contract an overlay for. Queries in other
    /// categories fall back to the flat engine.
    pub categories: Vec<DayCategory>,
    /// Settled-node cap per witness search. Higher caps prove more
    /// shortcuts unnecessary (smaller overlay, slower build); the
    /// answer is exact at any cap.
    pub witness_settle_cap: usize,
    /// Engine-level expansion valve for the overlay search, mirroring
    /// [`EngineConfig::max_expansions`].
    pub max_expansions: usize,
    /// Worker threads for contraction planning, overlay compression
    /// and snapshot restore. `0` means one per available core. The
    /// produced overlay is **identical at every setting** (pinned by
    /// the determinism suite).
    pub threads: usize,
    /// Error band (minutes) for bounded-error overlay storage:
    /// `Some(ε)` stores lower approximations within `ε` of the exact
    /// shortcut functions (answers stay bit-identical — see the crate
    /// docs); `None` stores exact functions. The default `0.1` is
    /// where the `--eps-sweep` tuning curve bends: wider bands keep
    /// shaving pieces, but pruning power falls off a cliff — and the
    /// cliff moves *left* as the network grows, because longer
    /// corridors accumulate more band error (on the full metro,
    /// `0.25` already sends query probes into minutes-long crawls
    /// that `0.1` answers at a 67x expansion saving).
    pub overlay_compress: Option<f64>,
    /// Build a **metric-independent** ("live") topology: witness
    /// pruning and parallel-arc domination are disabled, so every
    /// candidate shortcut of every contraction is inserted and no arc
    /// is disabled by metric comparisons. The structure then stays
    /// exact for *any* speed-pattern assignment on this topology,
    /// which is what [`HierarchyEngine::refreshed`] relies on to swap
    /// travel functions under a traffic delta without re-running
    /// witness proofs. Implies exact overlay storage
    /// (`overlay_compress` is ignored): an incremental refresh
    /// re-composes dirty shortcuts from their vias' *stored*
    /// functions, which must be exact.
    pub live_topology: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            categories: vec![DayCategory::WORKDAY],
            witness_settle_cap: 64,
            max_expansions: 2_000_000,
            threads: 1,
            overlay_compress: Some(0.1),
            live_topology: false,
        }
    }
}

/// What preprocessing cost and produced — the numbers the benchmark
/// report prints next to the query-time speedup.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Wall-clock time of the whole preprocessing pass (all
    /// categories).
    pub build_wall: Duration,
    /// Nodes in the network.
    pub n_nodes: usize,
    /// Original (non-shortcut) arcs, summed over categories.
    pub n_original_arcs: usize,
    /// Shortcut arcs inserted, summed over categories.
    pub n_shortcuts: usize,
    /// Arcs disabled by parallel-arc domination.
    pub n_disabled: usize,
    /// Total *stored* pieces across all overlay travel functions —
    /// one **one-day** function per arc (reduced pieces when
    /// compression is on); periodic extensions are derived on demand
    /// and hold no resident pieces.
    pub overlay_pieces: u64,
    /// Estimated bytes of stored overlay function storage (24 bytes
    /// per piece: one breakpoint + one linear).
    pub bytes_estimate: u64,
    /// Pieces the *baseline* layout would carry: exact functions
    /// before reduction plus the per-arc materialized two-day
    /// periodic extension earlier revisions stored.
    pub exact_pieces: u64,
    /// Byte estimate for the baseline layout — `bytes_estimate /
    /// exact_bytes_estimate` is the storage ratio the benchmark
    /// gates on.
    pub exact_bytes_estimate: u64,
    /// Contraction rounds, summed over categories (0 for restores).
    pub rounds: u32,
    /// Resolved worker-thread count the build ran with.
    pub threads: usize,
    /// Error band the overlays were stored with.
    pub compress_eps: Option<f64>,
}

/// What an incremental refresh ([`HierarchyEngine::refreshed`])
/// rebuilt versus reused — the scoped-invalidation numbers the live
/// benchmark gates on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshReport {
    /// Wall-clock time of the whole refresh pass (all categories).
    pub refresh_wall: Duration,
    /// Base (non-shortcut) arcs across all refreshed overlays.
    pub base_total: usize,
    /// Base arcs whose travel function was rebuilt from the new
    /// network (their edge's pattern changed).
    pub base_rebuilt: usize,
    /// Shortcut arcs across all refreshed overlays.
    pub shortcuts_total: usize,
    /// Shortcut arcs re-composed because their composition cone
    /// touches a changed edge; the rest reuse stored functions
    /// verbatim.
    pub shortcuts_rebuilt: usize,
}

impl RefreshReport {
    /// Fraction of shortcut arcs the refresh had to re-compose —
    /// the scoped-invalidation metric (`0.0` when there are no
    /// shortcuts).
    pub fn invalidation_fraction(&self) -> f64 {
        if self.shortcuts_total == 0 {
            0.0
        } else {
            self.shortcuts_rebuilt as f64 / self.shortcuts_total as f64
        }
    }
}

/// A preprocessing-based [`PathfindBackend`]: answers singleFP/allFP
/// bit-identically to the flat [`Engine`] it embeds, via an up–down
/// search over the contracted overlay. See the crate docs.
pub struct HierarchyEngine<'a, S: NetworkSource> {
    flat: Engine<'a, S>,
    overlays: Vec<Overlay>,
    config: HierarchyConfig,
    report: BuildReport,
    /// Parked search workspaces (the `SessionState` revival pattern of
    /// `allfp`'s cache): a query checks one out and parks it again, so
    /// none allocates per overlay node; one per concurrent query exists.
    workspaces: Mutex<Vec<search::QueryWorkspace>>,
}

impl<'a, S: NetworkSource> HierarchyEngine<'a, S> {
    /// Build the hierarchy over `source` with a default (naive-
    /// estimator) flat engine for fallbacks and recomposition.
    pub fn build(source: &'a S, engine: EngineConfig, config: HierarchyConfig) -> Result<Self> {
        Self::with_flat(Engine::new(source, engine), config)
    }

    /// Build the hierarchy around an existing flat engine (its
    /// estimator still serves fallback queries; the overlay search
    /// itself computes scalar lower bounds per query from the banded
    /// arc minima of its own up–down search space, which dominate any
    /// geometric estimate).
    pub fn with_flat(flat: Engine<'a, S>, config: HierarchyConfig) -> Result<Self> {
        let t0 = Instant::now();
        let pool = WorkerPool::new(config.threads);
        let compress = if config.live_topology {
            None
        } else {
            config.overlay_compress
        };
        let mut overlays = Vec::with_capacity(config.categories.len());
        for &cat in &config.categories {
            overlays.push(build_overlay(
                flat.source(),
                cat,
                config.witness_settle_cap,
                &pool,
                compress,
                config.live_topology,
            )?);
        }
        Ok(Self::assemble(flat, overlays, config, t0, pool.threads()))
    }

    /// The engine around finished overlays, with its report tallied.
    fn assemble(
        flat: Engine<'a, S>,
        overlays: Vec<Overlay>,
        config: HierarchyConfig,
        t0: Instant,
        threads: usize,
    ) -> Self {
        let mut engine = HierarchyEngine {
            flat,
            overlays,
            config,
            report: BuildReport::default(),
            workspaces: Mutex::default(),
        };
        engine.report = engine.tally_report(t0.elapsed(), threads);
        engine
    }

    fn tally_report(&self, build_wall: Duration, threads: usize) -> BuildReport {
        let mut r = BuildReport {
            build_wall,
            n_nodes: self.flat.source().n_nodes(),
            threads,
            compress_eps: self.overlays.iter().find_map(|o| o.compress_eps),
            ..BuildReport::default()
        };
        for o in &self.overlays {
            r.n_original_arcs += o.n_base;
            r.n_shortcuts += o.arcs.len() - o.n_base;
            r.n_disabled += o.n_disabled;
            r.exact_pieces += o.exact_pieces;
            r.rounds += o.rounds;
            for a in &o.arcs {
                r.overlay_pieces += a.full.n_pieces() as u64;
            }
        }
        r.bytes_estimate = r.overlay_pieces * 24;
        r.exact_bytes_estimate = r.exact_pieces * 24;
        r
    }

    /// Preprocessing statistics.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The embedded flat engine (fallbacks, recomposition, cache).
    pub fn flat(&self) -> &Engine<'a, S> {
        &self.flat
    }

    fn overlay_for(&self, category: DayCategory) -> Option<&Overlay> {
        self.overlays.iter().find(|o| o.category == category)
    }

    /// Can the overlay serve this query, or must it go to the flat
    /// engine wholesale?
    fn overlay_query(&self, query: &QuerySpec) -> Option<&Overlay> {
        if query.interval.is_degenerate()
            || query.interval.lo() < 0.0
            || query.interval.hi() > MINUTES_PER_DAY
        {
            return None;
        }
        self.overlay_for(query.category)
    }

    /// Exact singleFP answer: re-compose every candidate route through
    /// the flat pipeline and keep the one with the smallest exact
    /// minimum, earlier candidates winning ties. With exact overlay
    /// storage the search returns a single candidate and this is the
    /// plain re-composition; with compressed storage the candidate
    /// set brackets the optimum and the exact re-selection lands on
    /// the same route a flat search would.
    fn exact_single(
        &self,
        routes: Vec<Vec<NodeId>>,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        stats: QueryStats,
    ) -> Result<SingleFpAnswer> {
        let mut best: Option<(Vec<NodeId>, Arc<Pwl>)> = None;
        let mut best_min = f64::INFINITY;
        for route in routes {
            let travel = Arc::new(self.flat.route_travel_fn(&route, query, session)?);
            let m = travel.minimum().value;
            if best.is_none() || m < best_min {
                best_min = m;
                best = Some((route, travel));
            }
        }
        let (nodes, travel) = best.ok_or(AllFpError::Unreachable {
            source: query.source,
            target: query.target,
        })?;
        let m = travel.minimum();
        Ok(SingleFpAnswer {
            path: FastestPath { nodes, travel },
            travel_minutes: m.value,
            best_leaving: m.at,
            stats,
        })
    }

    /// Exact allFP answer from candidate routes (identification
    /// order): recompute each exactly, merge the lower envelope, read
    /// the partitioning off it, and compact paths by first appearance
    /// — the same assembly the flat engine performs, over the same
    /// functions, so boundaries and path order agree bit for bit.
    /// Candidates that win nowhere simply drop out. Candidate routes
    /// share corridors, so re-composition runs through a per-answer
    /// prefix memo ([`RouteComposeMemo`]) — identical fold, identical
    /// bits, fewer compositions (counted in
    /// [`QueryStats::compositions_saved`]).
    fn exact_all(
        &self,
        routes: &[Vec<NodeId>],
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        mut stats: QueryStats,
    ) -> Result<AllFpAnswer> {
        let mut memo = RouteComposeMemo::new();
        let mut fns: Vec<Arc<Pwl>> = Vec::with_capacity(routes.len());
        for route in routes {
            let (travel, saved) = self
                .flat
                .route_travel_fn_memoized(route, query, session, &mut memo)?;
            stats.compositions_saved += saved;
            fns.push(travel);
        }
        let mut env: Option<Envelope<usize>> = None;
        for (i, f) in fns.iter().enumerate() {
            match &mut env {
                None => env = Some(Envelope::new(Arc::clone(f), i)),
                Some(e) => e.merge_min_with(session.scratch_mut(), f, i)?,
            }
        }
        let env = env.ok_or(AllFpError::Unreachable {
            source: query.source,
            target: query.target,
        })?;
        let raw = env.partition();
        env.recycle_into(session.scratch_mut());
        let mut order: Vec<usize> = Vec::new();
        let mut paths: Vec<FastestPath> = Vec::new();
        let mut partition = Vec::with_capacity(raw.len());
        for (iv, route_id) in raw {
            let idx = match order.iter().position(|&p| p == route_id) {
                Some(i) => i,
                None => {
                    order.push(route_id);
                    paths.push(FastestPath {
                        nodes: routes[route_id].clone(),
                        travel: Arc::clone(&fns[route_id]),
                    });
                    paths.len() - 1
                }
            };
            partition.push((iv, idx));
        }
        let mut border: Option<Envelope<usize>> = None;
        for (i, fp) in paths.iter().enumerate() {
            match &mut border {
                None => border = Some(Envelope::new(Arc::clone(&fp.travel), i)),
                Some(b) => b.merge_min_with(session.scratch_mut(), &fp.travel, i)?,
            }
        }
        let lower_border = border.ok_or(AllFpError::Internal(
            "lower border partitioned to zero paths",
        ))?;
        Ok(AllFpAnswer {
            paths,
            partition,
            lower_border,
            stats,
        })
    }

    /// Run the overlay search for this query. `Ok(None)` means the
    /// overlay cannot serve it exactly — fall back to the flat engine.
    fn overlay_search(
        &self,
        query: &QuerySpec,
        single_only: bool,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<search::SearchRun>> {
        let Some(overlay) = self.overlay_query(query) else {
            return Ok(None);
        };
        // UnknownNode parity with the flat engine; the search itself
        // indexes by node id and never needs coordinates.
        self.flat.source().find_node(query.target)?;
        self.flat.source().find_node(query.source)?;
        // Poison is harmless: workspaces are pushed and popped whole,
        // and one abandoned by a panicking query is never parked.
        let pool = || {
            self.workspaces
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        let mut ws = pool().pop().unwrap_or_default();
        let run = search::run(
            overlay,
            query,
            single_only,
            self.config.max_expansions,
            &mut ws,
            session.scratch_mut(),
            cancel,
        );
        pool().push(ws);
        run
    }

    /// `(lower, U)`: the search's scalar bracket on the optimal travel
    /// over the query interval — its minimum is `≥ lower`, its value
    /// `≤ U` at every leaving instant. `None` for queries the overlay
    /// does not serve. For the soundness tests only.
    #[doc(hidden)]
    pub fn search_bounds(&self, query: &QuerySpec) -> Option<(f64, f64)> {
        let overlay = self.overlay_query(query)?;
        self.flat.source().find_node(query.target).ok()?;
        self.flat.source().find_node(query.source).ok()?;
        Some(search::bounds(overlay, &mut Default::default(), query))
    }

    /// Batch counterpart of [`PathfindBackend::run_robust`] with the
    /// shared work-stealing scheduler, panic isolation and
    /// cancellation — identical semantics to
    /// [`Engine::run_batch_robust`].
    pub fn run_batch_robust(
        &self,
        queries: &[QuerySpec],
        workers: usize,
        cancel: &CancelToken,
    ) -> (
        Vec<std::result::Result<QueryOutcome, EngineError>>,
        BatchStats,
    )
    where
        S: Sync,
    {
        allfp::backend::run_batch_robust(self, queries, workers, cancel)
    }

    /// Serialize the contracted structure (ranks, arc topology, via
    /// pairs) plus the v2 storage metadata: the compression band the
    /// build used (so restores reproduce the stored functions bit for
    /// bit regardless of their own configuration) and the per-arc
    /// scalar/band bound tables. Travel functions are *not* stored;
    /// [`HierarchyEngine::from_snapshot`] rebuilds them by
    /// deterministic re-composition.
    pub fn snapshot(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            overlays: self
                .overlays
                .iter()
                .map(|o| OverlaySnapshot {
                    category: o.category.0,
                    ranks: o.rank.clone(),
                    arcs: o
                        .arcs
                        .iter()
                        .map(|a| SnapshotArc {
                            from: a.from,
                            to: a.to,
                            via: a.via,
                            disabled: a.disabled,
                        })
                        .collect(),
                    compress_eps: o.compress_eps.map(f64::to_bits),
                    bands: Some(BandTable {
                        n_bands: BANDS as u32,
                        arc_min: o.arcs.iter().map(|a| a.min.to_bits()).collect(),
                        arc_max: o.arcs.iter().map(|a| a.max.to_bits()).collect(),
                        arc_err: o.arcs.iter().map(|a| a.err.to_bits()).collect(),
                        arc_slope_max: o.arcs.iter().map(|a| a.slope_max.to_bits()).collect(),
                        band_min: o.band_min.iter().map(|v| v.to_bits()).collect(),
                        band_max: o.band_max.iter().map(|v| v.to_bits()).collect(),
                    }),
                })
                .collect(),
        }
    }

    /// Restore a hierarchy from a snapshot taken over the *same*
    /// network: skips node ordering and witness searches entirely and
    /// rebuilds each arc's travel function by deterministic
    /// re-composition — base arcs from the network, shortcuts from
    /// their via pairs, **level by level in parallel** over the same
    /// worker pool contraction uses (a shortcut's level is one above
    /// the deeper of its two via arcs; within a level compositions are
    /// independent and results apply in arc order, so functions come
    /// back bit-identical to the original build's at any thread
    /// count). The snapshot's stored compression band takes precedence
    /// over [`HierarchyConfig::overlay_compress`], so a restored
    /// engine equals the engine that wrote the snapshot.
    pub fn from_snapshot(
        flat: Engine<'a, S>,
        config: HierarchyConfig,
        snapshot: &HierarchySnapshot,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let pool = WorkerPool::new(config.threads);
        let source = flat.source();
        let n = source.n_nodes();
        let mut overlays = Vec::with_capacity(snapshot.overlays.len());
        for snap in &snapshot.overlays {
            if snap.ranks.len() != n {
                return Err(AllFpError::Internal(
                    "overlay snapshot does not match network size",
                ));
            }
            let category = DayCategory(snap.category);
            let day = Interval::of(0.0, MINUTES_PER_DAY);
            let mut slots: Vec<Option<OverlayArc>> = Vec::with_capacity(snap.arcs.len());
            let n_base_snap = snap.arcs.iter().take_while(|a| a.via.is_none()).count();
            let mut edges: Vec<roadnet::Edge> = Vec::new();
            let mut expect = 0usize;
            for u in 0..n {
                source.successors_into(NodeId(u as u32), &mut edges)?;
                for e in edges.drain(..) {
                    if e.to.index() == u {
                        continue;
                    }
                    let rec = snap
                        .arcs
                        .get(expect)
                        .ok_or(AllFpError::Internal("overlay snapshot missing base arcs"))?;
                    if rec.via.is_some() || rec.from != u as u32 || rec.to != e.to.index() as u32 {
                        return Err(AllFpError::Internal(
                            "overlay snapshot does not match network edges",
                        ));
                    }
                    let profile = source.pattern(e.pattern)?.profile(category)?;
                    let full = traffic::travel::travel_time_fn(profile, e.distance, &day)?;
                    let mut arc = make_arc(rec.from, rec.to, full, None)?;
                    arc.disabled = rec.disabled;
                    slots.push(Some(arc));
                    expect += 1;
                }
            }
            if expect != n_base_snap {
                return Err(AllFpError::Internal(
                    "overlay snapshot base arc count mismatch",
                ));
            }

            // Stratify shortcuts by composition level so each level's
            // re-compositions are independent (a via arc is always at
            // a strictly lower level).
            let mut level = vec![0u32; snap.arcs.len()];
            let mut by_level: Vec<Vec<usize>> = Vec::new();
            for (i, rec) in snap.arcs.iter().enumerate().skip(expect) {
                let Some((a, b)) = rec.via else {
                    return Err(AllFpError::Internal(
                        "overlay snapshot interleaves base arcs after shortcuts",
                    ));
                };
                if a as usize >= i || b as usize >= i {
                    return Err(AllFpError::Internal(
                        "overlay snapshot shortcut references a later arc",
                    ));
                }
                let l = level[a as usize].max(level[b as usize]) + 1;
                level[i] = l;
                let slot = l as usize - 1;
                if by_level.len() <= slot {
                    by_level.resize(slot + 1, Vec::new());
                }
                by_level[slot].push(i);
                slots.push(None);
            }
            for ids in &by_level {
                let rebuilt = pool.map_indexed(
                    ids.len(),
                    || (),
                    |k, _, scratch| -> Result<OverlayArc> {
                        let i = ids[k];
                        let rec = &snap.arcs[i];
                        let (a, b) = rec.via.ok_or(AllFpError::Internal(
                            "overlay snapshot lost a via pair mid-restore",
                        ))?;
                        let (fa, fb) = match (&slots[a as usize], &slots[b as usize]) {
                            (Some(fa), Some(fb)) => (fa, fb),
                            _ => {
                                return Err(AllFpError::Internal(
                                    "overlay snapshot via pair not yet restored",
                                ))
                            }
                        };
                        let full = crate::overlay::recompose(scratch, fa, fb)?;
                        let mut arc = make_arc(rec.from, rec.to, full, rec.via)?;
                        arc.disabled = rec.disabled;
                        Ok(arc)
                    },
                );
                for (k, arc) in rebuilt.into_iter().enumerate() {
                    slots[ids[k]] = Some(arc?);
                }
            }
            let mut arcs: Vec<OverlayArc> = Vec::with_capacity(slots.len());
            for s in slots {
                arcs.push(s.ok_or(AllFpError::Internal(
                    "overlay snapshot restore left an arc slot empty",
                ))?);
            }
            // The stored band the build used wins over the restoring
            // configuration — bit-identical restores, always.
            let eps = snap.compress_eps.map(f64::from_bits);
            overlays.push(finish_overlay(
                category,
                snap.ranks.clone(),
                arcs,
                expect,
                snap.arcs.iter().filter(|a| a.disabled).count(),
                0,
                &pool,
                eps,
            )?);
        }
        Ok(Self::assemble(flat, overlays, config, t0, pool.threads()))
    }

    /// Incrementally refresh this hierarchy for a traffic delta:
    /// rebuild exactly the arcs whose **composition cone** touches a
    /// changed edge, reuse every other arc's stored function verbatim
    /// (`Arc` clone — zero bytes recomputed), and return a new engine
    /// over the delta-applied network plus a [`RefreshReport`] of what
    /// was rebuilt.
    ///
    /// `flat` must be an engine over the **delta-applied** network —
    /// same topology (node ids, edge order) as this hierarchy's, with
    /// only speed patterns repointed — and `changed` the delta's
    /// `(from, to)` endpoint pairs
    /// ([`roadnet::DeltaReport::changed`]).
    ///
    /// Soundness: a base arc's function depends only on its own edge's
    /// pattern, and a shortcut's only on its two via arcs, so marking
    /// changed base arcs dirty and propagating `dirty[i] = dirty[a] ||
    /// dirty[b]` in one index-order pass (via indices are strictly
    /// smaller — the storage is append-only) covers every arc whose
    /// function can differ. Clean arcs re-composed from scratch would
    /// reproduce the identical bits, so reusing them keeps the result
    /// equal to a full [`HierarchyEngine::from_snapshot`] restore over
    /// the new network — pinned bit-for-bit by the refresh suite.
    ///
    /// Requires exact overlay storage (the [`HierarchyConfig::
    /// live_topology`] default): re-composition reads the vias' stored
    /// functions, and under an `ε`-band those are approximations — the
    /// rebuilt arcs would silently diverge from a from-scratch build.
    /// Note the structure itself is refreshed as-is; on a non-live
    /// topology the witness proofs and domination choices baked into
    /// it are only valid for the metric they were built over, so
    /// query-exactness after a delta additionally needs
    /// `live_topology`.
    pub fn refreshed(
        &self,
        flat: Engine<'a, S>,
        changed: &[(u32, u32)],
    ) -> Result<(Self, RefreshReport)> {
        if self.overlays.iter().any(|o| o.compress_eps.is_some()) {
            return Err(AllFpError::Internal(
                "live refresh requires exact overlay storage (overlay_compress = None)",
            ));
        }
        let t0 = Instant::now();
        let pool = WorkerPool::new(self.config.threads);
        let source = flat.source();
        let n = source.n_nodes();
        let changed_set: std::collections::HashSet<(u32, u32)> = changed.iter().copied().collect();
        let mut report = RefreshReport::default();
        let mut overlays = Vec::with_capacity(self.overlays.len());
        for o in &self.overlays {
            if o.rank.len() != n {
                return Err(AllFpError::Internal(
                    "refresh network does not match overlay size",
                ));
            }
            let day = Interval::of(0.0, MINUTES_PER_DAY);
            let mut dirty = vec![false; o.arcs.len()];
            let mut slots: Vec<Option<OverlayArc>> = Vec::with_capacity(o.arcs.len());
            let mut edges: Vec<roadnet::Edge> = Vec::new();
            let mut expect = 0usize;
            for u in 0..n {
                source.successors_into(NodeId(u as u32), &mut edges)?;
                for e in edges.drain(..) {
                    if e.to.index() == u {
                        continue;
                    }
                    let old = o
                        .arcs
                        .get(expect)
                        .ok_or(AllFpError::Internal("refresh network has extra edges"))?;
                    if old.via.is_some() || old.from != u as u32 || old.to != e.to.index() as u32 {
                        return Err(AllFpError::Internal(
                            "refresh network does not match overlay base arcs",
                        ));
                    }
                    if changed_set.contains(&(old.from, old.to)) {
                        dirty[expect] = true;
                        let profile = source.pattern(e.pattern)?.profile(o.category)?;
                        let full = traffic::travel::travel_time_fn(profile, e.distance, &day)?;
                        let mut arc = make_arc(old.from, old.to, full, None)?;
                        arc.disabled = old.disabled;
                        slots.push(Some(arc));
                        report.base_rebuilt += 1;
                    } else {
                        slots.push(Some(reuse_arc(old)));
                    }
                    expect += 1;
                }
            }
            if expect != o.n_base {
                return Err(AllFpError::Internal("refresh base arc count mismatch"));
            }
            report.base_total += expect;

            // Dirty-cone propagation + level stratification of the
            // dirty shortcuts, exactly as in `from_snapshot` but only
            // for arcs whose cone touches a changed edge.
            let mut level = vec![0u32; o.arcs.len()];
            let mut by_level: Vec<Vec<usize>> = Vec::new();
            for (i, old) in o.arcs.iter().enumerate().skip(expect) {
                let Some((a, b)) = old.via else {
                    return Err(AllFpError::Internal(
                        "overlay interleaves base arcs after shortcuts",
                    ));
                };
                if a as usize >= i || b as usize >= i {
                    return Err(AllFpError::Internal(
                        "overlay shortcut references a later arc",
                    ));
                }
                dirty[i] = dirty[a as usize] || dirty[b as usize];
                if dirty[i] {
                    let l = level[a as usize].max(level[b as usize]) + 1;
                    level[i] = l;
                    let slot = l as usize - 1;
                    if by_level.len() <= slot {
                        by_level.resize(slot + 1, Vec::new());
                    }
                    by_level[slot].push(i);
                    slots.push(None);
                    report.shortcuts_rebuilt += 1;
                } else {
                    slots.push(Some(reuse_arc(old)));
                }
            }
            report.shortcuts_total += o.arcs.len() - expect;
            for ids in &by_level {
                let rebuilt = pool.map_indexed(
                    ids.len(),
                    || (),
                    |k, _, scratch| -> Result<OverlayArc> {
                        let i = ids[k];
                        let old = &o.arcs[i];
                        let (a, b) = old
                            .via
                            .ok_or(AllFpError::Internal("refresh lost a via pair mid-pass"))?;
                        let (fa, fb) = match (&slots[a as usize], &slots[b as usize]) {
                            (Some(fa), Some(fb)) => (fa, fb),
                            _ => {
                                return Err(AllFpError::Internal(
                                    "refresh via pair not yet rebuilt",
                                ))
                            }
                        };
                        let full = crate::overlay::recompose(scratch, fa, fb)?;
                        let mut arc = make_arc(old.from, old.to, full, old.via)?;
                        arc.disabled = old.disabled;
                        Ok(arc)
                    },
                );
                for (k, arc) in rebuilt.into_iter().enumerate() {
                    slots[ids[k]] = Some(arc?);
                }
            }
            let mut arcs: Vec<OverlayArc> = Vec::with_capacity(slots.len());
            for s in slots {
                arcs.push(s.ok_or(AllFpError::Internal("refresh left an arc slot empty"))?);
            }
            overlays.push(finish_overlay(
                o.category,
                o.rank.clone(),
                arcs,
                expect,
                o.n_disabled,
                o.rounds,
                &pool,
                None,
            )?);
        }
        report.refresh_wall = t0.elapsed();
        let engine = Self::assemble(flat, overlays, self.config.clone(), t0, pool.threads());
        Ok((engine, report))
    }
}

impl<'a, S: NetworkSource> PathfindBackend for HierarchyEngine<'a, S> {
    fn backend_name(&self) -> &'static str {
        "hierarchy"
    }

    fn cache_session(&self) -> CacheSession<'_> {
        self.flat.cache_session()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.flat.cache_counters()
    }

    fn all_fastest_paths(&self, query: &QuerySpec) -> Result<AllFpAnswer> {
        let mut session = self.flat.cache_session();
        match self.overlay_search(query, false, &mut session, None)? {
            None => self.flat.all_fastest_paths(query),
            Some(run) => {
                if run.trip.is_some() {
                    return Err(AllFpError::BudgetExhausted {
                        expansions: run.stats.expanded_paths,
                    });
                }
                self.exact_all(&run.routes, query, &mut session, run.stats)
            }
        }
    }

    fn single_fastest_path(&self, query: &QuerySpec) -> Result<SingleFpAnswer> {
        let mut session = self.flat.cache_session();
        match self.overlay_search(query, true, &mut session, None)? {
            None => self.flat.single_fastest_path(query),
            Some(run) => {
                if run.trip.is_some() {
                    return Err(AllFpError::BudgetExhausted {
                        expansions: run.stats.expanded_paths,
                    });
                }
                self.exact_single(run.routes, query, &mut session, run.stats)
            }
        }
    }

    fn robust_with_session(
        &self,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> std::result::Result<QueryOutcome, EngineError> {
        let run = match self.overlay_search(query, false, session, cancel) {
            Ok(Some(run)) => run,
            Ok(None) => return self.flat.robust_with_session(query, session, cancel),
            Err(e) => return Err(EngineError::from(e)),
        };
        match run.trip {
            None => {
                if run.routes.is_empty() {
                    return Err(EngineError::Query(AllFpError::Unreachable {
                        source: query.source,
                        target: query.target,
                    }));
                }
                Ok(QueryOutcome::Exact(
                    self.exact_all(&run.routes, query, session, run.stats)
                        .map_err(EngineError::from)?,
                ))
            }
            Some(reason) => {
                let best = if run.routes.is_empty() {
                    None
                } else {
                    Some(
                        self.exact_all(&run.routes, query, session, run.stats)
                            .map_err(EngineError::from)?,
                    )
                };
                let (nodes, _) = constant_speed_plan(
                    self.flat.source(),
                    query.source,
                    query.target,
                    query.interval.lo(),
                    query.category,
                )
                .map_err(EngineError::from)?;
                let travel = Arc::new(
                    self.flat
                        .route_travel_fn(&nodes, query, session)
                        .map_err(EngineError::from)?,
                );
                let fallback_travel_minutes = travel.minimum().value;
                Ok(QueryOutcome::Degraded(DegradedAnswer {
                    reason,
                    best,
                    fallback: FastestPath { nodes, travel },
                    fallback_travel_minutes,
                    stats: run.stats,
                }))
            }
        }
    }
}
