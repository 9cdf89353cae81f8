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
//! admission-controlled `QueryService`, robust batches, deadlines,
//! cancellation and degraded fallbacks all work against it unchanged.
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
mod search;

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use allfp::{
    AllFpError, Answer, CacheCounters, CacheSession, CancelToken, Engine, EngineConfig,
    PathfindBackend, QueryMode, QuerySpec, Result, SearchRun,
};
use pwl::time::MINUTES_PER_DAY;
use pwl::{Interval, PwlScratch};
use roadnet::overlay::{HierarchySnapshot, OverlaySnapshot, SnapshotArc};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::overlay::{
    build_overlay, finish_overlay, make_arc, recompose, Contraction, Overlay, OverlayArc,
    ARC_BUDGET,
};

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
    /// Contraction rounds, summed over categories (0 for restores).
    pub rounds: u32,
    /// Nodes settled by contraction's witness searches, summed over
    /// categories (0 for restores) — exact.
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
        Ok(Self::assemble(flat, overlays, t0))
    }

    /// The engine around finished overlays, with its report tallied.
    fn assemble(flat: Engine<'a, S>, overlays: Vec<Overlay>, t0: Instant) -> Self {
        let mut engine = HierarchyEngine {
            flat,
            overlays,
            report: BuildReport::default(),
            workspaces: Mutex::default(),
        };
        engine.report = engine.tally_report(t0.elapsed());
        engine
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
    /// their via pairs, in arc order (a shortcut reads only earlier
    /// arcs, so both of its via arcs are rebuilt before it), bit for
    /// bit the functions the build composed. A structure that does not
    /// match the network, or whose shortcut reads a later or a disabled
    /// arc, is rejected.
    pub fn from_snapshot(flat: Engine<'a, S>, snapshot: &HierarchySnapshot) -> Result<Self> {
        let t0 = Instant::now();
        let source = flat.source();
        let n = source.n_nodes();
        let day = Interval::of(0.0, MINUTES_PER_DAY);
        let mut scratch = PwlScratch::new();
        let mut overlays = Vec::with_capacity(snapshot.overlays.len());
        for snap in &snapshot.overlays {
            if snap.ranks.len() != n {
                return Err(AllFpError::Internal(
                    "overlay structure does not match network size",
                ));
            }
            let category = DayCategory(snap.category);
            let mut arcs: Vec<OverlayArc> = Vec::with_capacity(snap.arcs.len());
            let mut edges: Vec<roadnet::Edge> = Vec::new();
            for u in 0..n {
                source.successors_into(NodeId(u as u32), &mut edges)?;
                for e in edges.drain(..) {
                    if e.to.index() == u {
                        continue;
                    }
                    let rec = snap.arcs.get(arcs.len()).ok_or(AllFpError::Internal(
                        "overlay structure is missing base arcs",
                    ))?;
                    if rec.via.is_some() || rec.from != u as u32 || rec.to != e.to.index() as u32 {
                        return Err(AllFpError::Internal(
                            "overlay structure does not match network edges",
                        ));
                    }
                    let profile = source.pattern(e.pattern)?.profile(category)?;
                    let full = traffic::travel::travel_time_fn(profile, e.distance, &day)?;
                    let mut arc = make_arc(rec.from, rec.to, full, None);
                    arc.disabled = rec.disabled;
                    arcs.push(arc);
                }
            }
            let n_base = arcs.len();
            if snap.arcs.iter().take_while(|a| a.via.is_none()).count() != n_base {
                return Err(AllFpError::Internal(
                    "overlay structure base arc count mismatch",
                ));
            }
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
                let full = recompose(&mut scratch, &arcs[a], &arcs[b])?;
                let mut arc = make_arc(rec.from, rec.to, full, rec.via);
                arc.disabled = rec.disabled;
                arcs.push(arc);
            }
            overlays.push(finish_overlay(
                category,
                snap.ranks.clone(),
                arcs,
                n_base,
                snap.arcs.iter().filter(|a| a.disabled).count(),
                Contraction::default(),
            )?);
        }
        Ok(Self::assemble(flat, overlays, t0))
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
    /// a function: a restore stores what the build stores, bit for bit,
    /// on six seeds — on 65, 91 and 269 domination disabled arcs, which
    /// store no function.
    #[test]
    fn builds_and_restores_store_the_same_bits() {
        for seed in [3u64, 58, 211, 65, 91, 269] {
            let net = random_geometric(14, 1.5, 3, seed).unwrap();
            let built = HierarchyEngine::with_flat(flat(&net), HierarchyConfig::default()).unwrap();
            if [65, 91, 269].contains(&seed) {
                assert!(built.report().n_disabled > 0, "seed {seed}");
            }
            let restored = HierarchyEngine::from_snapshot(flat(&net), &built.snapshot());
            assert_eq!(
                stored_bits(&restored.unwrap()),
                stored_bits(&built),
                "seed {seed}"
            );
        }
    }

    /// One malformation of a snapshot's overlay.
    type Mutation = fn(&mut OverlaySnapshot);

    /// The index of the first shortcut record, which is the base count.
    fn first_shortcut(o: &OverlaySnapshot) -> usize {
        o.arcs.iter().position(|a| a.via.is_some()).unwrap()
    }

    /// Every check a restore makes on its input, each tripped by one
    /// mutation of a built snapshot and answered with its own error.
    /// Arc-order restore rests on the later-arc check: without it a
    /// shortcut would read an arc not yet rebuilt.
    #[test]
    fn restore_rejects_every_malformed_structure() {
        let net = random_geometric(14, 1.5, 3, 58).unwrap();
        let built = HierarchyEngine::with_flat(flat(&net), HierarchyConfig::default()).unwrap();
        let cases: [(&str, Mutation); 7] = [
            ("overlay structure does not match network size", |o| {
                o.ranks.pop();
            }),
            ("overlay structure is missing base arcs", |o| {
                o.arcs.truncate(1);
            }),
            ("overlay structure does not match network edges", |o| {
                o.arcs[0].to += 1;
            }),
            ("overlay structure base arc count mismatch", |o| {
                let base = o.arcs[0];
                o.arcs.insert(first_shortcut(o), base);
            }),
            (
                "overlay structure interleaves base arcs after shortcuts",
                |o| o.arcs.push(o.arcs[0]),
            ),
            ("overlay structure shortcut references a later arc", |o| {
                let first = first_shortcut(o);
                let (a, _) = o.arcs[first].via.unwrap();
                o.arcs[first].via = Some((a, first as u32));
            }),
            ("overlay structure shortcut reads a disabled arc", |o| {
                let (a, _) = o.arcs[first_shortcut(o)].via.unwrap();
                o.arcs[a as usize].disabled = true;
            }),
        ];
        for (message, mutate) in cases {
            let mut snapshot = built.snapshot();
            mutate(&mut snapshot.overlays[0]);
            match HierarchyEngine::from_snapshot(flat(&net), &snapshot) {
                Err(AllFpError::Internal(m)) => assert_eq!(m, message),
                Err(e) => panic!("{message}: {e}"),
                Ok(_) => panic!("{message}: restored"),
            }
        }
    }
}
