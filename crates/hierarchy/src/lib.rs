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
//!    selection needs) and contracts them together, planning every
//!    member against the pre-round graph before applying any.
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
//! admission-controlled `QueryService`, deadlines, cancellation and
//! degraded fallbacks all work against it unchanged.
//! Queries the overlay cannot serve exactly (degenerate intervals,
//! day categories that were not preprocessed, leaving windows outside
//! `[0, 1440]`, multi-day arrival windows) transparently fall back to
//! the embedded flat engine — exactness before speed, always.
//!
//! DESIGN.md §12 documents the algebra-closure and witness-soundness
//! arguments; §13 covers round-based contraction, storage and the
//! bounds the search prunes with.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::redundant_clone)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod overlay;
#[cfg(test)]
mod overlay_digest;
mod search;

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use allfp::{
    Answer, CacheCounters, CacheSession, CancelToken, Engine, EngineConfig, PathfindBackend,
    QueryMode, QuerySpec, Result, SearchRun,
};
use pwl::time::MINUTES_PER_DAY;
use roadnet::NetworkSource;
use traffic::DayCategory;

use crate::overlay::{build_overlay, Overlay, ARC_BUDGET};

/// Preprocessing configuration.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Day categories to contract an overlay for. Queries in other
    /// categories fall back to the flat engine.
    pub categories: Vec<DayCategory>,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            categories: vec![DayCategory::WORKDAY],
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
    /// Contraction rounds, summed over categories.
    pub rounds: u32,
    /// Nodes settled by contraction's witness searches, summed over
    /// categories — exact.
    pub witness_settles: u64,
    /// Remainder-graph entries those searches read, likewise.
    pub witness_scans: u64,
}

/// A preprocessing-based [`PathfindBackend`]: answers singleFP/allFP
/// bit-identically to the flat [`Engine`] it embeds, via an up–down
/// search over the contracted overlay. See the crate docs. The overlay
/// search obeys the embedded engine's expansion valve
/// ([`EngineConfig::max_expansions`]), so a query has one valve.
pub struct HierarchyEngine<'a, S: NetworkSource> {
    flat: Engine<'a, S>,
    overlays: Vec<Overlay>,
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
        let mut overlays = Vec::with_capacity(config.categories.len());
        for &cat in &config.categories {
            overlays.push(build_overlay(flat.source(), cat, ARC_BUDGET)?);
        }
        let mut engine = HierarchyEngine {
            flat,
            overlays,
            report: BuildReport::default(),
            workspaces: Mutex::default(),
        };
        engine.report = engine.tally_report(t0.elapsed());
        Ok(engine)
    }

    fn tally_report(&self, build_wall: Duration) -> BuildReport {
        let mut r = BuildReport {
            build_wall,
            n_nodes: self.flat.source().n_nodes(),
            ..BuildReport::default()
        };
        for o in &self.overlays {
            r.n_original_arcs += o.n_base;
            r.n_shortcuts += o.arcs.len() - o.n_base;
            r.n_disabled += o.n_disabled;
            r.rounds += o.contraction.rounds;
            r.witness_settles += o.contraction.witness_settles;
            r.witness_scans += o.contraction.witness_scans;
            for full in o.arcs.iter().filter_map(|a| a.full.as_ref()) {
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
        mode: QueryMode,
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
            mode,
            self.flat.config().max_expansions,
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
        match self.overlay_search(query, mode, session, cancel)? {
            Some(run) => self.flat.answer_routes(query, mode, run, session),
            None => self.flat.answer(query, mode, session, cancel),
        }
    }
}
