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
//!    node-id tie-break; a dirty priority is scored only as far as the
//!    selection needs) and contracts them together, planning in
//!    parallel over a scoped worker pool and applying serially — the
//!    overlay is identical at every thread count by construction.
//! 2. **Contraction** — removing node `v` inserts shortcut arcs
//!    `u → w` whose weights are full piecewise-linear travel-time
//!    functions composed with the same pooled kernels the flat engine
//!    uses ([`pwl::compose_travel_into`]); a bounded **witness search**
//!    (max-weight Dijkstra versus min-of-via) proves most candidate
//!    shortcuts unnecessary, and parallel arcs are deduplicated by
//!    pointwise domination.
//! 3. **Storage** — every arc keeps its exact one-day travel function;
//!    the periodic extension the search composes against is derived on
//!    demand, and exact `min`/`max` scalars plus banded minima, folded
//!    per neighbour into a bound graph, feed the query's scalar bounds.
//! 4. **Query** — an up–down best-first search over the overlay
//!    selects the winning routes; shortcuts unpack to original edge
//!    sequences; the answer is then **the flat engine's own ending**
//!    ([`allfp::Engine::answer_routes`]), which re-composes every route
//!    through the flat pipeline and assembles it as the flat search
//!    does, so answers are bit-identical to the flat engine's (the
//!    golden suite in `core/tests/hierarchy_equivalence.rs` pins this).
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
//! arguments; §13 covers parallel-contraction determinism, storage and
//! the bounds the search prunes with.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::redundant_clone)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod overlay;
mod pool;
mod search;

use std::collections::HashSet;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use allfp::{
    AllFpError, Answer, CacheCounters, CacheSession, CancelToken, Engine, EngineConfig,
    PathfindBackend, QueryMode, QuerySpec, Result, SearchRun,
};
use pwl::time::MINUTES_PER_DAY;
use pwl::Interval;
use roadnet::overlay::{HierarchySnapshot, OverlaySnapshot, SnapshotArc};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::overlay::{build_overlay, finish_overlay, make_arc, recompose, Overlay, OverlayArc};
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
    /// Worker threads for contraction planning, band minima and
    /// snapshot restore. `0` means one per available core. The
    /// produced overlay is **identical at every setting** (pinned by
    /// the determinism suite).
    pub threads: usize,
    /// Build a **metric-independent** ("live") topology: witness
    /// pruning and parallel-arc domination are disabled, so every
    /// candidate shortcut of every contraction is inserted and no arc
    /// is disabled by metric comparisons. The structure then stays
    /// exact for *any* speed-pattern assignment on this topology,
    /// which is what [`HierarchyEngine::refreshed`] relies on to swap
    /// travel functions under a traffic delta without re-running
    /// witness proofs.
    pub live_topology: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            categories: vec![DayCategory::WORKDAY],
            witness_settle_cap: 64,
            max_expansions: 2_000_000,
            threads: 1,
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
    /// Total pieces of the stored overlay travel functions — one exact
    /// **one-day** function per enabled arc; disabled arcs store none,
    /// and periodic extensions are derived on demand and hold no
    /// resident pieces.
    pub overlay_pieces: u64,
    /// Heap bytes the stored functions' buffers hold, read off their
    /// capacity: 24 per piece (one breakpoint and one linear) plus 8
    /// per function (its last breakpoint), as every function is stored
    /// at exact size.
    pub bytes_estimate: u64,
    /// Contraction rounds, summed over categories (0 for restores).
    pub rounds: u32,
    /// Nodes settled by contraction's witness searches, summed over
    /// categories (0 for restores) — exact, the same at every
    /// `threads`.
    pub witness_settles: u64,
    /// Remainder-graph entries those searches read, likewise.
    pub witness_scans: u64,
    /// Resolved worker-thread count the build ran with.
    pub threads: usize,
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
    /// Build the hierarchy over `source` around a flat engine of
    /// `engine`'s configuration ([`Engine::new`], so `Naive` or
    /// `MinTime`), which serves fallbacks and recomposition;
    /// [`Self::with_flat`] takes any engine, a boundary-estimator one
    /// included.
    pub fn build(source: &'a S, engine: EngineConfig, config: HierarchyConfig) -> Result<Self> {
        Self::with_flat(Engine::new(source, engine)?, config)
    }

    /// Build the hierarchy around an existing flat engine (its
    /// estimator still serves fallback queries; the overlay search
    /// itself computes scalar lower bounds per query from the banded
    /// arc minima of its own up–down search space, which dominate any
    /// geometric estimate).
    pub fn with_flat(flat: Engine<'a, S>, config: HierarchyConfig) -> Result<Self> {
        let t0 = Instant::now();
        let pool = WorkerPool::new(config.threads);
        let mut overlays = Vec::with_capacity(config.categories.len());
        for &cat in &config.categories {
            overlays.push(build_overlay(
                flat.source(),
                cat,
                config.witness_settle_cap,
                &pool,
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
            ..BuildReport::default()
        };
        for o in &self.overlays {
            r.n_original_arcs += o.n_base;
            r.n_shortcuts += o.arcs.len() - o.n_base;
            r.n_disabled += o.n_disabled;
            r.rounds += o.contraction.rounds;
            r.witness_settles += o.contraction.witness_settles;
            r.witness_scans += o.contraction.witness_scans;
            for full in o.arcs.iter().filter_map(|a| a.full.as_deref()) {
                r.overlay_pieces += full.n_pieces() as u64;
                r.bytes_estimate += full.heap_bytes() as u64;
            }
        }
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

    /// Run the overlay search for this query. `Ok(None)` means the
    /// overlay cannot serve it exactly — fall back to the flat engine.
    fn overlay_search(
        &self,
        query: &QuerySpec,
        single_only: bool,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<SearchRun>> {
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

    /// Serialize the contracted structure (ranks, arc topology, via
    /// pairs). Travel functions are *not* stored;
    /// [`HierarchyEngine::from_snapshot`] rebuilds them by
    /// deterministic re-composition.
    pub fn snapshot(&self) -> HierarchySnapshot {
        let record = |a: &OverlayArc| SnapshotArc {
            from: a.from,
            to: a.to,
            via: a.via,
            disabled: a.disabled,
        };
        HierarchySnapshot {
            overlays: self
                .overlays
                .iter()
                .map(|o| OverlaySnapshot {
                    category: o.category.0,
                    ranks: o.rank.clone(),
                    arcs: o.arcs.iter().map(record).collect(),
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
    /// count).
    pub fn from_snapshot(
        flat: Engine<'a, S>,
        config: HierarchyConfig,
        snapshot: &HierarchySnapshot,
    ) -> Result<Self> {
        Ok(Self::rebuild(flat, config, snapshot, None, &[])?.0)
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
    /// the new network — pinned bit-for-bit by the refresh suite. No
    /// shortcut reads a disabled arc, which stores no function.
    ///
    /// Note the structure itself is refreshed as-is; on a non-live
    /// topology the witness proofs and domination choices baked into
    /// it are only valid for the metric they were built over, so
    /// query-exactness after a delta additionally needs
    /// [`HierarchyConfig::live_topology`].
    pub fn refreshed(
        &self,
        flat: Engine<'a, S>,
        changed: &[(u32, u32)],
    ) -> Result<(Self, RefreshReport)> {
        let live = Some(self.overlays.as_slice());
        Self::rebuild(flat, self.config.clone(), &self.snapshot(), live, changed)
    }

    /// The rebuild behind both [`Self::from_snapshot`] and
    /// [`Self::refreshed`]: realise `snapshot`'s structure over
    /// `flat`'s network. With `live` — the overlays the structure was
    /// read off — an arc whose cone holds no `changed` edge is reused;
    /// without, every arc is dirty. Dirty base arcs are rebuilt from
    /// the network, dirty shortcuts stratified by composition level
    /// and re-composed level by level over the worker pool. A
    /// structure whose shortcut reads a disabled arc is rejected.
    fn rebuild(
        flat: Engine<'a, S>,
        config: HierarchyConfig,
        snapshot: &HierarchySnapshot,
        live: Option<&[Overlay]>,
        changed: &[(u32, u32)],
    ) -> Result<(Self, RefreshReport)> {
        let t0 = Instant::now();
        let pool = WorkerPool::new(config.threads);
        let source = flat.source();
        let n = source.n_nodes();
        let day = Interval::of(0.0, MINUTES_PER_DAY);
        let changed: HashSet<(u32, u32)> = changed.iter().copied().collect();
        let mut report = RefreshReport::default();
        let mut overlays = Vec::with_capacity(snapshot.overlays.len());
        for (k, snap) in snapshot.overlays.iter().enumerate() {
            let old = live.map(|overlays| &overlays[k]);
            if snap.ranks.len() != n {
                return Err(AllFpError::Internal(
                    "overlay structure does not match network size",
                ));
            }
            let category = DayCategory(snap.category);
            let mut dirty = vec![false; snap.arcs.len()];
            let mut slots: Vec<Option<OverlayArc>> = Vec::with_capacity(snap.arcs.len());
            let mut edges: Vec<roadnet::Edge> = Vec::new();
            let mut n_base = 0usize;
            for u in 0..n {
                source.successors_into(NodeId(u as u32), &mut edges)?;
                for e in edges.drain(..) {
                    if e.to.index() == u {
                        continue;
                    }
                    let rec = snap.arcs.get(n_base).ok_or(AllFpError::Internal(
                        "overlay structure is missing base arcs",
                    ))?;
                    if rec.via.is_some() || rec.from != u as u32 || rec.to != e.to.index() as u32 {
                        return Err(AllFpError::Internal(
                            "overlay structure does not match network edges",
                        ));
                    }
                    slots.push(Some(match old {
                        Some(o) if !changed.contains(&(rec.from, rec.to)) => o.arcs[n_base].clone(),
                        _ => {
                            dirty[n_base] = true;
                            report.base_rebuilt += 1;
                            let profile = source.pattern(e.pattern)?.profile(category)?;
                            let full = traffic::travel::travel_time_fn(profile, e.distance, &day)?;
                            let mut arc = make_arc(rec.from, rec.to, full, None);
                            arc.disabled = rec.disabled;
                            arc
                        }
                    }));
                    n_base += 1;
                }
            }
            if snap.arcs.iter().take_while(|a| a.via.is_none()).count() != n_base {
                return Err(AllFpError::Internal(
                    "overlay structure base arc count mismatch",
                ));
            }
            report.base_total += n_base;
            report.shortcuts_total += snap.arcs.len() - n_base;

            // Dirty-cone propagation, and stratification of the dirty
            // shortcuts by composition level so each level's
            // re-compositions are independent (a via arc is always at
            // a strictly lower level; a clean one is ready at once).
            let mut level = vec![0u32; snap.arcs.len()];
            let mut by_level: Vec<Vec<usize>> = Vec::new();
            for (i, rec) in snap.arcs.iter().enumerate().skip(n_base) {
                let Some((a, b)) = rec.via else {
                    return Err(AllFpError::Internal(
                        "overlay structure interleaves base arcs after shortcuts",
                    ));
                };
                let (a, b) = (a as usize, b as usize);
                if a >= i || b >= i {
                    return Err(AllFpError::Internal(
                        "overlay structure shortcut references a later arc",
                    ));
                }
                // Contraction disables only arcs no shortcut has read,
                // and a disabled arc stores no function to read.
                if snap.arcs[a].disabled || snap.arcs[b].disabled {
                    return Err(AllFpError::Internal(
                        "overlay structure shortcut reads a disabled arc",
                    ));
                }
                dirty[i] = dirty[a] || dirty[b];
                match old {
                    Some(o) if !dirty[i] => slots.push(Some(o.arcs[i].clone())),
                    _ => {
                        report.shortcuts_rebuilt += 1;
                        level[i] = level[a].max(level[b]) + 1;
                        let slot = level[i] as usize - 1;
                        if by_level.len() <= slot {
                            by_level.resize(slot + 1, Vec::new());
                        }
                        by_level[slot].push(i);
                        slots.push(None);
                    }
                }
            }
            for ids in &by_level {
                let rebuilt = pool.map_indexed(
                    ids.len(),
                    || (),
                    |k, _, scratch| -> Result<OverlayArc> {
                        let rec = &snap.arcs[ids[k]];
                        let (a, b) = rec.via.ok_or(AllFpError::Internal(
                            "overlay rebuild lost a via pair mid-pass",
                        ))?;
                        let (Some(fa), Some(fb)) = (&slots[a as usize], &slots[b as usize]) else {
                            return Err(AllFpError::Internal(
                                "overlay rebuild via pair not yet rebuilt",
                            ));
                        };
                        let full = recompose(scratch, fa, fb)?;
                        let mut arc = make_arc(rec.from, rec.to, full, rec.via);
                        arc.disabled = rec.disabled;
                        Ok(arc)
                    },
                );
                for (k, arc) in rebuilt.into_iter().enumerate() {
                    slots[ids[k]] = Some(arc?);
                }
            }
            let arcs = slots
                .into_iter()
                .collect::<Option<Vec<OverlayArc>>>()
                .ok_or(AllFpError::Internal(
                    "overlay rebuild left an arc slot empty",
                ))?;
            overlays.push(finish_overlay(
                category,
                snap.ranks.clone(),
                arcs,
                n_base,
                snap.arcs.iter().filter(|a| a.disabled).count(),
                old.map(|o| o.contraction).unwrap_or_default(),
                &pool,
            )?);
        }
        report.refresh_wall = t0.elapsed();
        let engine = Self::assemble(flat, overlays, config, t0, pool.threads());
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

    fn answer(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Answer> {
        match self.overlay_search(query, mode == QueryMode::SingleFp, session, cancel)? {
            Some(run) => self.flat.answer_routes(query, mode, run, session),
            None => self.flat.answer(query, mode, session, cancel),
        }
    }
}

#[cfg(test)]
mod tests {
    use roadnet::generators::random_geometric;

    use super::*;

    /// Everything an engine's overlays store — per arc the function's
    /// knots and coefficients (an enabled arc's only: a disabled one
    /// stores none) and `min`/`max`, then the bound graph's rows — as
    /// bits.
    fn stored_bits<S: NetworkSource>(engine: &HierarchyEngine<'_, S>) -> Vec<u64> {
        let mut bits = Vec::new();
        for o in &engine.overlays {
            for a in &o.arcs {
                assert_eq!(a.full.is_none(), a.disabled, "{}→{}", a.from, a.to);
                if let Some(full) = &a.full {
                    bits.extend(full.breakpoints().iter().map(|x| x.to_bits()));
                    let linears = full.linears().iter();
                    bits.extend(linears.flat_map(|l| [l.a.to_bits(), l.b.to_bits()]));
                }
                bits.extend([a.min.to_bits(), a.max.to_bits()]);
            }
            for side in [&o.up_bound, &o.down_bound] {
                let rows = (0..o.rank.len() as u32).flat_map(|v| side.at(v));
                bits.extend(rows.flat_map(|entry| entry.bits()));
            }
        }
        bits
    }

    fn flat(net: &roadnet::RoadNetwork) -> Engine<'_, roadnet::RoadNetwork> {
        Engine::new(net, EngineConfig::default()).unwrap()
    }

    /// The snapshot records structure only, so its equality cannot see
    /// a function: a parallel build and a restore store what the serial
    /// build stores, and a refresh — of a live build, or on seeds 65,
    /// 91 and 269 of the witness-pruned build, whose domination
    /// disabled arcs — what a restore of the same structure over the
    /// delta-applied network stores, bit for bit.
    #[test]
    fn parallel_builds_restores_and_refreshes_store_the_same_bits() {
        for (seed, live_topology) in [(3u64, true), (58, true), (211, true)].into_iter().chain([
            (65, false),
            (91, false),
            (269, false),
        ]) {
            let net = random_geometric(14, 1.5, 3, seed).unwrap();
            let config = |threads, live_topology| HierarchyConfig {
                threads,
                live_topology,
                ..HierarchyConfig::default()
            };
            let serial = HierarchyEngine::with_flat(flat(&net), config(1, false)).unwrap();
            let parallel = HierarchyEngine::with_flat(flat(&net), config(4, false)).unwrap();
            assert_eq!(stored_bits(&parallel), stored_bits(&serial), "seed {seed}");
            let restored =
                HierarchyEngine::from_snapshot(flat(&net), config(2, false), &serial.snapshot());
            assert_eq!(
                stored_bits(&restored.unwrap()),
                stored_bits(&serial),
                "seed {seed}"
            );

            let built = if live_topology {
                HierarchyEngine::with_flat(flat(&net), config(1, true)).unwrap()
            } else {
                assert!(serial.report().n_disabled > 0, "seed {seed}");
                serial
            };
            let delta = net.seeded_delta(seed ^ 0xD17A, 4, 1).unwrap();
            let (net2, report) = net.apply_delta(&delta).unwrap();
            let (refreshed, _) = built.refreshed(flat(&net2), &report.changed).unwrap();
            let scratch = HierarchyEngine::from_snapshot(
                flat(&net2),
                config(1, live_topology),
                &built.snapshot(),
            );
            assert_eq!(
                stored_bits(&refreshed),
                stored_bits(&scratch.unwrap()),
                "seed {seed}"
            );
            assert_ne!(stored_bits(&refreshed), stored_bits(&built), "seed {seed}");
        }
    }

    /// No contraction disables a via, so a snapshot that does is
    /// malformed, and a restore rejects it.
    #[test]
    fn restore_rejects_a_disabled_via() {
        let net = random_geometric(14, 1.5, 3, 58).unwrap();
        let built = HierarchyEngine::with_flat(flat(&net), HierarchyConfig::default()).unwrap();
        let mut snapshot = built.snapshot();
        let arcs = &mut snapshot.overlays[0].arcs;
        let first = arcs.iter().position(|a| a.via.is_some()).unwrap();
        let (a, _) = arcs[first].via.unwrap();
        arcs[a as usize].disabled = true;
        let config = HierarchyConfig::default();
        assert!(matches!(
            HierarchyEngine::from_snapshot(flat(&net), config, &snapshot),
            Err(AllFpError::Internal(
                "overlay structure shortcut reads a disabled arc"
            ))
        ));
    }
}
