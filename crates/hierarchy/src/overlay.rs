//! Overlay construction: node ordering and time-dependent contraction.
//!
//! Contraction removes nodes round by round and patches the remaining
//! graph with **shortcut arcs** whose weights are full piecewise-linear
//! travel-time functions, so that every fastest path of the original
//! network survives as an *up-then-down* path over the final arc set
//! (ranks ascend, then descend). Shortcut functions are built with the
//! same pooled [`compose_travel_into`] kernel the flat engine uses per
//! expansion, so the algebra is closed: a shortcut's function is a real
//! path's function, bit for bit.
//!
//! **Round-based parallel contraction.** Each round selects the
//! *independent set* of remainder nodes that are strict local minima
//! of `(priority, node id)` among their uncontracted neighbors — a
//! deterministic tie-broken rule with at least one member per round
//! (the global minimum always qualifies) and no two members adjacent.
//! Planning (witness searches and shortcut composition) runs in
//! parallel over the pre-round state, read-only, with per-worker
//! scratch pools; application (domination checks, arc insertion,
//! ranks) is serial in ascending node order. Because members are
//! pairwise non-adjacent, no application in a round touches an arc
//! incident to another member, so the plans stay valid — the overlay
//! is **identical at every thread count by construction** (pinned by
//! `tests/contraction_props.rs`).
//!
//! A candidate shortcut `u → v → w` is **omitted** only on proof: a
//! bounded Dijkstra from `u` over the round's snapshot of the remainder
//! graph ([`snapshot_remainder`]: parallel arcs folded, rows sorted by
//! `max`; without `v` and without the round's other members, so the
//! proof survives the whole round) under per-arc *maximum* travel
//! times finds a witness path whose worst case is no worse than the
//! via pair's best case (`dist_max(w) ≤ min(T_a) + min(T_b)`).
//! Sum-of-max upper-bounds the true travel of any path at every leaving
//! instant (FIFO), and min-of-sums lower-bounds the via travel, so
//! dropped shortcuts can never carry a strictly fastest path. Parallel
//! arcs between the same endpoints are deduplicated by pointwise
//! domination ([`Pwl::dominated_by_offset`]) — the same ε-tolerant rule
//! the flat engine's dominance pruning already applies. A build whose
//! shortcuts would outgrow [`ARC_BUDGET`] is refused before it
//! composes them.
//!
//! **One-day exact storage.** Each arc stores its exact **one-day**
//! function and nothing derived from it but scalars: the periodic
//! extension the search composes against is virtual ([`ext_window`]
//! derives any restriction of it on demand, bit for bit), and the exact
//! `min`/`max` plus time-bucketed **band minima** ride along, folded
//! per neighbour into the bound graph ([`Bound`]) the query's
//! scalar sweeps walk. The search only *selects* corridors;
//! every answer re-composes through the flat engine (see `search.rs`
//! and DESIGN.md §13).

use std::collections::BinaryHeap;
use std::sync::Arc;

use allfp::{AllFpError, MinEntry, Result};
use pwl::compose::arrival_interval;
use pwl::time::MINUTES_PER_DAY;
use pwl::{compose_travel_into, Interval, Pwl, PwlScratch};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::pool::WorkerPool;

/// Buckets of the band minima (over one day period).
const BANDS: usize = 8;

/// Arcs a contraction may store per input edge. A round whose planned
/// shortcuts would grow the storage past it fails with
/// [`AllFpError::ContractionBudget`] before composing any of them: a
/// topology whose shortcuts multiply (a `live_topology` build keeps
/// every parallel arc) is refused in milliseconds instead of growing
/// until memory runs out. Witness-pruned builds of the metro networks
/// end at 2–5×; live builds of 14-node random graphs that finish end
/// anywhere up to ~900×.
const ARC_BUDGET: usize = 1024;

/// One arc of the overlay graph: an original edge or a shortcut.
///
/// Storage is append-only and arcs are referenced by index, so a
/// shortcut's `via` pair stays valid even after the arc it supersedes
/// is disabled by domination (disabled arcs leave the query adjacency
/// but remain unpackable).
///
/// Only the **one-day** function is stored. Its periodic extension is
/// *virtual*: [`ext_window`] derives any restriction of it on demand
/// with the same `shift_x`/`concat` arithmetic a materialized copy
/// would have been built with, bit for bit.
#[derive(Clone)]
pub(crate) struct OverlayArc {
    /// Tail node.
    pub from: u32,
    /// Head node.
    pub to: u32,
    /// The exact travel-time function over one full period `[0, 1440]`
    /// (shared, so cloning an arc copies no pieces).
    pub full: Arc<Pwl>,
    /// `full.min_value()` — lower bound at any leaving instant.
    pub min: f64,
    /// `full.maximum()` — upper bound at any leaving instant.
    pub max: f64,
    /// `Some((a, b))` when this is a shortcut composing arcs `a` then
    /// `b`; `None` for an original edge.
    pub via: Option<(u32, u32)>,
    /// Dominated by a parallel arc: excluded from query adjacency but
    /// kept for unpacking.
    pub disabled: bool,
}

/// The contracted overlay for one day category.
pub(crate) struct Overlay {
    /// Day category the travel functions were built for.
    pub category: DayCategory,
    /// Contraction order: `rank[v]` is the step at which `v` was
    /// contracted (higher = more important).
    pub rank: Vec<u32>,
    /// Append-only arc storage (original edges first, then shortcuts).
    pub arcs: Vec<OverlayArc>,
    /// Enabled arcs `u → v` with `rank[v] > rank[u]`, indexed by `u`.
    pub up_out: Csr<Hop>,
    /// Enabled arcs `u → v` with `rank[v] < rank[u]`, indexed by `u`.
    pub down_out: Csr<Hop>,
    /// The **bound graph** the per-query scalar sweeps walk: the
    /// enabled up arcs by tail (entries name the head) and the enabled
    /// down arcs by *head* (entries name the tail), parallel arcs folded
    /// into one entry per neighbour.
    pub up_bound: Csr<Bound>,
    pub down_bound: Csr<Bound>,
    /// The one day period every arc function spans; the band buckets
    /// divide it evenly.
    pub day: Interval,
    /// Number of original (non-shortcut) arcs.
    pub n_base: usize,
    /// Arcs disabled by parallel-arc domination.
    pub n_disabled: usize,
    /// What the contraction that built the structure did (zero for
    /// snapshot restores).
    pub contraction: Contraction,
}

/// The work of one contraction, as counts: exact and equal at every
/// thread count (each witness search is a pure function of the round's
/// snapshot, and the counts are summed over all of them).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Contraction {
    /// Contraction rounds.
    pub rounds: u32,
    /// Nodes settled by witness searches.
    pub witness_settles: u64,
    /// Remainder-graph entries witness searches read.
    pub witness_scans: u64,
}

impl std::ops::AddAssign for Contraction {
    fn add_assign(&mut self, other: Contraction) {
        self.rounds += other.rounds;
        self.witness_settles += other.witness_settles;
        self.witness_scans += other.witness_scans;
    }
}

impl Overlay {
    /// The band buckets `(first, count)` covering leaving instants in
    /// `[lo, hi]` (absolute minutes; wraps across day periods) —
    /// computed **once per query**, every arc shares the day period.
    /// `None` when the window covers a full period or is unbounded:
    /// only the whole-day minimum applies.
    pub fn band_window(&self, lo: f64, hi: f64) -> Option<(usize, usize)> {
        let w = self.day.len() / BANDS as f64;
        let a = ((lo - self.day.lo()) / w).floor();
        let count = ((hi - self.day.lo()) / w).floor() - a + 1.0;
        // Written to fail on NaN (unbounded window, empty period).
        (count < BANDS as f64).then(|| (a.rem_euclid(BANDS as f64) as usize, count as usize))
    }
}

/// One entry of the bound graph: every enabled arc between a node and
/// one neighbour, as the scalars the sweeps add — each the minimum over
/// those parallel arcs. A sweep takes the cheapest of `w + x` over the
/// arcs, which is `(min w) + x` bit for bit (rounding is monotone), so
/// one entry stands for all of them.
#[derive(Clone, Copy)]
pub(crate) struct Bound {
    /// The neighbour: head in `up_bound`, tail in `down_bound`.
    pub node: u32,
    /// Whole-day minimum and maximum travel.
    pub min: f64,
    pub max: f64,
    /// Minimum travel per bucket of the day period: bucket `k` covers
    /// leaving instants `[k·1440/BANDS, (k+1)·1440/BANDS)`.
    band_min: [f64; BANDS],
}

impl Bound {
    /// The entry to or from `node` that stands for `arcs`, the enabled
    /// arcs between the two.
    pub fn of<'a>(node: u32, arcs: impl Iterator<Item = &'a OverlayArc>) -> Result<Bound> {
        let mut bound = Bound {
            node,
            min: f64::INFINITY,
            max: f64::INFINITY,
            band_min: [f64::INFINITY; BANDS],
        };
        for arc in arcs {
            bound.min = bound.min.min(arc.min);
            bound.max = bound.max.min(arc.max);
            let d = arc.full.domain();
            let w = d.len() / BANDS as f64;
            for (k, band) in bound.band_min.iter_mut().enumerate() {
                let b = Interval::of(d.lo() + k as f64 * w, d.lo() + (k + 1) as f64 * w);
                *band = band.min(arc.full.min_over(&b)?.value);
            }
        }
        Ok(bound)
    }

    /// Tightest stored lower bound on the travel to the neighbour over
    /// the leaving instants of `window` (see [`Overlay::band_window`]).
    pub fn banded_min(&self, window: Option<(usize, usize)>) -> f64 {
        let Some((first, count)) = window else {
            return self.min;
        };
        (first..first + count).fold(f64::INFINITY, |m, k| m.min(self.band_min[k % BANDS]))
    }

    /// Every stored scalar, as bits.
    #[cfg(test)]
    pub fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        let scalars = [f64::from(self.node), self.min, self.max];
        scalars.into_iter().chain(self.band_min).map(f64::to_bits)
    }
}

/// One entry of the expansion adjacency, carrying what the relax gate
/// reads before it composes — so a gated hop never touches an
/// [`OverlayArc`] or the `Arc<Pwl>` in it. (The bound sweeps read
/// [`Bound`]s instead.)
#[derive(Clone, Copy)]
pub(crate) struct Hop {
    /// The arc's head.
    pub node: u32,
    /// Arc id.
    pub arc: u32,
    /// The arc's whole-day minimum travel.
    pub min: f64,
}

/// Compressed-sparse-row adjacency: the entries listed under each node.
pub(crate) struct Csr<T> {
    start: Vec<u32>,
    entries: Vec<T>,
}

impl<T> Csr<T> {
    /// Group `(node, entry)` pairs by node, keeping their order inside.
    fn new(n: usize, mut keyed: Vec<(u32, T)>) -> Csr<T> {
        keyed.sort_by_key(|&(v, _)| v);
        let mut start = vec![0u32; n + 1];
        for &(v, _) in &keyed {
            start[v as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        Csr {
            start,
            entries: keyed.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// The entries listed under node `v`.
    pub fn at(&self, v: u32) -> &[T] {
        &self.entries[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }
}

/// Days of periodic slack the query search assumes every arc covers:
/// leaving any time on day 0, travel may run into day 1. Arrival
/// windows escaping this range fall back to the flat engine.
pub(crate) const EXT_PERIODS: usize = 2;

/// `full` repeated over `periods` consecutive days (periodic
/// extension: `T(l + 1440) = T(l)`). `concat` tolerates the ~ε seam
/// mismatch composed functions accumulate at the period boundary.
pub(crate) fn extend_periodic(full: &Pwl, periods: usize) -> Result<Pwl> {
    let mut ext = full.clone();
    for k in 1..periods.max(2) {
        ext = ext.concat(&full.shift_x(k as f64 * MINUTES_PER_DAY))?;
    }
    Ok(ext)
}

/// Domain the *virtual* [`EXT_PERIODS`]-day periodic extension of
/// `full` covers — what [`extend_periodic`]`(full, EXT_PERIODS)`
/// would report, without materializing it.
pub(crate) fn ext_domain(full: &Pwl) -> Interval {
    let d = full.domain();
    Interval::of(
        d.lo(),
        d.hi() + (EXT_PERIODS as f64 - 1.0) * MINUTES_PER_DAY,
    )
}

/// Restrict the virtual periodic extension of `full` to `to`,
/// bit-identically to `extend_periodic(full, …).restrict_with(…, to)`
/// on a materialized extension covering `to`.
///
/// The fast paths never build the extension: a window inside day 0
/// restricts `full` directly, and a window inside a later repetition
/// restricts one shifted day (`shift_x(k·1440)` is exactly the
/// arithmetic [`extend_periodic`] applies to that day, and `concat`
/// only ever *appends* pieces, so the shifted day's knots and linears
/// are the extension's, bit for bit). Only a window crossing a day
/// seam concatenates the two days it touches, transiently.
pub(crate) fn ext_window(scratch: &mut PwlScratch, full: &Pwl, to: &Interval) -> Result<Pwl> {
    let d = full.domain();
    if d.covers(to) {
        return Ok(full.restrict_with(scratch, to)?);
    }
    // `floor` of the float ratio can land an ulp off at a seam; the
    // exact bound checks below decide, and anything ambiguous takes
    // the concat path (identical to a materialized extension by
    // construction).
    let k = ((to.lo() - d.lo()) / MINUTES_PER_DAY).floor();
    if k >= 1.0
        && to.lo() >= d.lo() + k * MINUTES_PER_DAY
        && to.hi() <= d.hi() + k * MINUTES_PER_DAY
    {
        let day = full.shift_x(k * MINUTES_PER_DAY);
        let out = day.restrict_with(scratch, to)?;
        scratch.recycle(day);
        return Ok(out);
    }
    let periods = ((to.hi() - d.lo()) / MINUTES_PER_DAY).ceil().max(2.0) as usize;
    let ext = extend_periodic(full, periods)?;
    let out = ext.restrict_with(scratch, to)?;
    scratch.recycle(ext);
    Ok(out)
}

/// An arc record around its full-period function.
pub(crate) fn make_arc(from: u32, to: u32, full: Pwl, via: Option<(u32, u32)>) -> OverlayArc {
    OverlayArc {
        from,
        to,
        min: full.min_value(),
        max: full.maximum(),
        full: Arc::new(full),
        via,
        disabled: false,
    }
}

/// Append an arc built from its full-period function, wiring the
/// working in/out adjacency used during contraction.
fn push_arc(
    arcs: &mut Vec<OverlayArc>,
    out: &mut [Vec<u32>],
    inn: &mut [Vec<u32>],
    from: u32,
    to: u32,
    full: Pwl,
    via: Option<(u32, u32)>,
) -> Result<u32> {
    let id = u32::try_from(arcs.len())
        .map_err(|_| AllFpError::Internal("overlay arc storage outgrew u32 indices"))?;
    arcs.push(make_arc(from, to, full, via));
    out[from as usize].push(id);
    inn[to as usize].push(id);
    Ok(id)
}

/// Epoch-stamped distance array for witness searches: reset is O(1),
/// tentative values remain valid path-length upper bounds even when the
/// search stops before settling them. One per worker thread.
pub(crate) struct Witness {
    /// Per node: the tentative distance and the epoch that wrote it,
    /// side by side (one cache line per read).
    slot: Vec<(f64, u32)>,
    epoch: u32,
    /// Keyed by tentative distance, node id on ties.
    heap: BinaryHeap<MinEntry<u32>>,
}

impl Witness {
    pub(crate) fn new(n: usize) -> Self {
        Witness {
            slot: vec![(f64::INFINITY, 0); n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn get(&self, node: u32) -> f64 {
        match self.slot[node as usize] {
            (d, stamp) if stamp == self.epoch => d,
            _ => f64::INFINITY,
        }
    }

    fn set(&mut self, node: u32, d: f64) {
        self.slot[node as usize] = (d, self.epoch);
    }

    /// Bounded Dijkstra from `source` over the round's `remainder`
    /// excluding `skip` (and, when planning a round, every node of the
    /// round's independent set via `in_round`), under per-arc `max`
    /// weights. Stops once the frontier exceeds `bound` or
    /// `settle_cap` nodes were settled; distances recorded up to that
    /// point are exact or tentative — both are valid upper bounds for
    /// the witness test. A row is read up to its first entry that
    /// relaxes past `bound`, and the rows are sorted by `max`, so no
    /// later entry could either: such a distance is never settled
    /// (`d > bound` ends the search) and never proves a witness (every
    /// via minimum is `≤ bound`). Returns the nodes settled and the
    /// entries read.
    fn run(
        &mut self,
        source: u32,
        skip: u32,
        bound: f64,
        settle_cap: usize,
        remainder: &Csr<Reach>,
        in_round: Option<&[bool]>,
    ) -> Contraction {
        self.epoch = self.epoch.wrapping_add(1);
        self.heap.clear();
        self.set(source, 0.0);
        self.heap.push(MinEntry::new(0.0, source));
        let mut work = Contraction::default();
        while let Some(MinEntry {
            key: d, tie: node, ..
        }) = self.heap.pop()
        {
            if d > self.get(node) {
                continue; // stale entry
            }
            if d > bound || work.witness_settles >= settle_cap as u64 {
                break;
            }
            work.witness_settles += 1;
            for reach in remainder.at(node) {
                work.witness_scans += 1;
                let nd = d + reach.max;
                if nd > bound {
                    break;
                }
                if reach.node == skip || in_round.is_some_and(|s| s[reach.node as usize]) {
                    continue;
                }
                if nd < self.get(reach.node) {
                    self.set(reach.node, nd);
                    self.heap.push(MinEntry::new(nd, reach.node));
                }
            }
        }
        work
    }
}

/// Is `id` part of the live remainder graph?
fn alive(arcs: &[OverlayArc], contracted: &[bool], id: u32) -> bool {
    let a = &arcs[id as usize];
    !a.disabled && !contracted[a.from as usize] && !contracted[a.to as usize]
}

/// One entry of the round's [`snapshot_remainder`]: a live head and the
/// smallest `max` over the alive arcs to it.
#[derive(Clone, Copy)]
struct Reach {
    node: u32,
    max: f64,
}

/// The round's snapshot of the live remainder graph, the one graph
/// every witness search of the round walks: under each uncontracted
/// tail, one entry per head of its alive arcs (disabled arcs and
/// contracted heads dropped) holding the smallest `max` over the
/// parallel arcs to it, the entries sorted by that `max`. The fold is
/// exact: a search relaxes `d + max` with a strict `<`, and the
/// cheapest of `d + max` over parallel arcs is `d + (min max)` bit for
/// bit (rounding is monotone).
fn snapshot_remainder(arcs: &[OverlayArc], out: &[Vec<u32>], contracted: &[bool]) -> Csr<Reach> {
    let mut start = Vec::with_capacity(out.len() + 1);
    let mut entries = Vec::new();
    let mut row: Vec<Reach> = Vec::new();
    // The tail whose row last kept an entry for each head.
    let mut kept_by = vec![u32::MAX; out.len()];
    start.push(0);
    for (u, ids) in (0u32..).zip(out) {
        if !contracted[u as usize] {
            let live = ids.iter().filter(|&&id| alive(arcs, contracted, id));
            row.extend(live.map(|&id| {
                let arc = &arcs[id as usize];
                Reach {
                    node: arc.to,
                    max: arc.max,
                }
            }));
            row.sort_unstable_by(|a, b| a.max.total_cmp(&b.max).then(a.node.cmp(&b.node)));
            // A head's first entry holds its smallest `max`.
            row.retain(|r| std::mem::replace(&mut kept_by[r.node as usize], u) != u);
            entries.append(&mut row);
        }
        start.push(entries.len() as u32);
    }
    Csr { start, entries }
}

/// Hand `keep` the shortcut pairs `(in-arc, out-arc)` that contracting
/// `v` *must* add — every (a, b) combination minus the witness-proved
/// ones — and return the work of the witness searches. Read-only
/// against the shared state and the round's `remainder`, so many nodes
/// can be planned concurrently; pass the round's independent set as
/// `in_round` so the witness proofs survive every application of the
/// round.
#[allow(clippy::too_many_arguments)]
fn needed_pairs(
    v: u32,
    arcs: &[OverlayArc],
    out: &[Vec<u32>],
    inn: &[Vec<u32>],
    contracted: &[bool],
    remainder: &Csr<Reach>,
    in_round: Option<&[bool]>,
    witness: &mut Witness,
    settle_cap: usize,
    mut keep: impl FnMut(u32, u32),
) -> Contraction {
    let mut work = Contraction::default();
    let ins: Vec<u32> = inn[v as usize]
        .iter()
        .copied()
        .filter(|&id| alive(arcs, contracted, id))
        .collect();
    let outs: Vec<u32> = out[v as usize]
        .iter()
        .copied()
        .filter(|&id| alive(arcs, contracted, id))
        .collect();
    if ins.is_empty() || outs.is_empty() {
        return work;
    }
    for &a in &ins {
        let u = arcs[a as usize].from;
        let mut bound = f64::NEG_INFINITY;
        let mut any = false;
        for &b in &outs {
            let w = arcs[b as usize].to;
            if w == u {
                continue;
            }
            bound = bound.max(arcs[a as usize].min + arcs[b as usize].min);
            any = true;
        }
        if !any {
            continue;
        }
        work += witness.run(u, v, bound, settle_cap, remainder, in_round);
        for &b in &outs {
            let w = arcs[b as usize].to;
            if w == u {
                continue;
            }
            let via_min = arcs[a as usize].min + arcs[b as usize].min;
            if witness.get(w) <= via_min {
                continue; // proved unnecessary
            }
            keep(a, b);
        }
    }
    work
}

/// Contraction priority: weighted edge difference plus the
/// deleted-neighbors level term, plus a quantized travel-minimum term
/// that contracts short local arcs (residential grids) before long
/// arterials — the time-dependent analogue of the classic
/// distance-based tie-break. Computed from alive-arc degrees only.
fn priority(
    v: u32,
    n_need: usize,
    arcs: &[OverlayArc],
    out: &[Vec<u32>],
    inn: &[Vec<u32>],
    contracted: &[bool],
    deleted: &[u32],
) -> i64 {
    let mut degree = 0usize;
    let mut travel_sum = 0.0;
    for &id in inn[v as usize].iter().chain(out[v as usize].iter()) {
        if alive(arcs, contracted, id) {
            degree += 1;
            travel_sum += arcs[id as usize].min;
        }
    }
    let edge_diff = n_need as i64 - degree as i64;
    let travel_term = if degree == 0 {
        0
    } else {
        (travel_sum / degree as f64 * 4.0) as i64
    };
    16 * edge_diff + 4 * i64::from(deleted[v as usize]) + travel_term
}

/// Compose the shortcut function for the via pair `a` then `b`, over
/// one full period. Deterministic in its inputs — snapshot restore
/// re-runs exactly this to rebuild shortcut functions bit-identically.
pub(crate) fn recompose(scratch: &mut PwlScratch, a: &OverlayArc, b: &OverlayArc) -> Result<Pwl> {
    let arrivals = arrival_interval(&a.full)?;
    // Materialize `b`'s periodic extension transiently — wide enough
    // to cover the arrivals when one period of slack is not enough
    // (multi-day travel through the first arc), never losing
    // exactness.
    let periods = if ext_domain(&b.full).covers(&arrivals) {
        EXT_PERIODS
    } else {
        (arrivals.hi() / MINUTES_PER_DAY).ceil() as usize + 1
    };
    let ext = extend_periodic(&b.full, periods)?;
    let out = compose_travel_into(scratch, &a.full, &ext)?;
    scratch.recycle(ext);
    Ok(out)
}

/// One planned shortcut: the via pair and its exact composed function,
/// produced read-only during a round's parallel planning phase.
struct PlannedShortcut {
    a: u32,
    b: u32,
    full: Pwl,
}

/// Build the contracted overlay for one day category.
///
/// With `live_topology` the structure is made *metric-independent* (in
/// the CCH sense): witness pruning is disabled (`settle_cap` 0 — every
/// candidate shortcut of every contraction is inserted) and
/// parallel-arc domination is skipped, so the up–down search stays
/// exact for **any** speed-pattern assignment on this network's
/// topology — which is what lets a live refresh swap travel functions
/// under a fixed structure without re-running witness proofs.
pub(crate) fn build_overlay<S: NetworkSource>(
    source: &S,
    category: DayCategory,
    witness_settle_cap: usize,
    pool: &WorkerPool,
    live_topology: bool,
) -> Result<Overlay> {
    let witness_settle_cap = if live_topology { 0 } else { witness_settle_cap };
    let n = source.n_nodes();
    let mut arcs: Vec<OverlayArc> = Vec::new();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut inn: Vec<Vec<u32>> = vec![Vec::new(); n];
    let day = Interval::of(0.0, MINUTES_PER_DAY);

    let mut edges: Vec<roadnet::Edge> = Vec::new();
    for u in 0..n {
        let uid = NodeId(u as u32);
        source.successors_into(uid, &mut edges)?;
        for e in edges.drain(..) {
            if e.to.index() == u {
                continue; // self-loops never help (positive travel)
            }
            let profile = source.pattern(e.pattern)?.profile(category)?;
            let full = traffic::travel::travel_time_fn(profile, e.distance, &day)?;
            push_arc(
                &mut arcs,
                &mut out,
                &mut inn,
                u as u32,
                e.to.index() as u32,
                full,
                None,
            )?;
        }
    }
    let n_base = arcs.len();

    let mut contracted = vec![false; n];
    let mut rank = vec![0u32; n];
    let mut deleted = vec![0u32; n];
    let mut prio = vec![0i64; n];
    let mut dirty = vec![true; n];
    let mut in_round = vec![false; n];
    let mut n_disabled = 0usize;

    let mut next_rank = 0u32;
    let mut remaining = n;
    let mut contraction = Contraction::default();

    while remaining > 0 {
        contraction.rounds += 1;
        // Every witness search of the round walks this one snapshot of
        // the pre-round remainder graph.
        let remainder = snapshot_remainder(&arcs, &out, &contracted);

        // Phase 1 — refresh priorities of dirty remainder nodes, in
        // parallel (read-only planning: witness searches only).
        let dirty_nodes: Vec<u32> = (0..n as u32)
            .filter(|&v| !contracted[v as usize] && dirty[v as usize])
            .collect();
        let fresh = pool.map_indexed(
            dirty_nodes.len(),
            || Witness::new(n),
            |i, wit, _scratch| {
                let v = dirty_nodes[i];
                let mut n_need = 0;
                let work = needed_pairs(
                    v,
                    &arcs,
                    &out,
                    &inn,
                    &contracted,
                    &remainder,
                    None,
                    wit,
                    witness_settle_cap,
                    |_, _| n_need += 1,
                );
                let prio = priority(v, n_need, &arcs, &out, &inn, &contracted, &deleted);
                (prio, work)
            },
        );
        for (&v, (p, work)) in dirty_nodes.iter().zip(fresh) {
            prio[v as usize] = p;
            dirty[v as usize] = false;
            contraction += work;
        }

        // Phase 2 — independent set: strict local minima of
        // (priority, id) among uncontracted neighbors. Deterministic,
        // non-adjacent, and never empty (the global minimum wins
        // against every neighbor).
        let mut selected: Vec<u32> = Vec::new();
        'cand: for v in 0..n as u32 {
            if contracted[v as usize] {
                continue;
            }
            let key = (prio[v as usize], v);
            for &id in inn[v as usize].iter().chain(out[v as usize].iter()) {
                if !alive(&arcs, &contracted, id) {
                    continue;
                }
                let a = &arcs[id as usize];
                let u = if a.from == v { a.to } else { a.from };
                if u != v && (prio[u as usize], u) < key {
                    continue 'cand;
                }
            }
            selected.push(v);
        }
        for &v in &selected {
            in_round[v as usize] = true;
        }

        // Phase 3 — plan the selected nodes in parallel: witness
        // searches skip the whole independent set (so omission proofs
        // survive every application of this round), then — inside the
        // arc budget — the needed shortcut functions are composed
        // read-only from pre-round arcs with per-worker scratches. A
        // node's list stops growing past the budget's headroom, so a
        // refused round holds no more pairs than an accepted one.
        let limit = ARC_BUDGET.saturating_mul(n_base);
        let headroom = limit.saturating_sub(arcs.len());
        let needs = pool.map_indexed(
            selected.len(),
            || Witness::new(n),
            |i, wit, _scratch| {
                let (mut need, mut n_need) = (Vec::new(), 0usize);
                let work = needed_pairs(
                    selected[i],
                    &arcs,
                    &out,
                    &inn,
                    &contracted,
                    &remainder,
                    Some(&in_round),
                    wit,
                    witness_settle_cap,
                    |a, b| {
                        n_need += 1;
                        if n_need <= headroom {
                            need.push((a, b));
                        }
                    },
                );
                (work, n_need, need)
            },
        );
        let mut planned = 0usize;
        for (work, n_need, _) in &needs {
            contraction += *work;
            planned += n_need;
        }
        if planned > headroom {
            return Err(AllFpError::ContractionBudget {
                arcs: arcs.len() + planned,
                limit,
            });
        }
        let plans: Vec<Result<Vec<PlannedShortcut>>> = pool.map_indexed(
            selected.len(),
            || (),
            |i, _, scratch| {
                let need = &needs[i].2;
                let mut plan = Vec::with_capacity(need.len());
                for &(a, b) in need {
                    let full = recompose(scratch, &arcs[a as usize], &arcs[b as usize])?;
                    plan.push(PlannedShortcut { a, b, full });
                }
                Ok(plan)
            },
        );

        // Phase 4 — apply serially in ascending node order. Members
        // are pairwise non-adjacent, so nothing applied here touches
        // an arc incident to a later member: every plan stays exactly
        // as valid as when it was computed.
        for (&v, plan) in selected.iter().zip(plans) {
            for planned in plan? {
                let (a, b) = (planned.a, planned.b);
                let (u, w) = (arcs[a as usize].from, arcs[b as usize].to);
                // Parallel-arc domination, both directions — skipped
                // in live topologies (domination is metric-dependent:
                // a dominated arc could become the winner under a
                // future delta, and disabled arcs cannot serve).
                let mut dominated = false;
                let mut to_disable: Vec<u32> = Vec::new();
                for &cid in out[u as usize].iter().filter(|_| !live_topology) {
                    if arcs[cid as usize].to != w || !alive(&arcs, &contracted, cid) {
                        continue;
                    }
                    if planned
                        .full
                        .dominated_by_offset(0.0, &arcs[cid as usize].full)
                    {
                        dominated = true;
                        break;
                    }
                    if arcs[cid as usize]
                        .full
                        .dominated_by_offset(0.0, &planned.full)
                    {
                        to_disable.push(cid);
                    }
                }
                if dominated {
                    continue;
                }
                for cid in to_disable {
                    arcs[cid as usize].disabled = true;
                    n_disabled += 1;
                }
                push_arc(
                    &mut arcs,
                    &mut out,
                    &mut inn,
                    u,
                    w,
                    planned.full,
                    Some((a, b)),
                )?;
            }

            // Retire the node and bump its neighbors' deleted
            // counters; neighbors become dirty for the next round.
            contracted[v as usize] = true;
            rank[v as usize] = next_rank;
            next_rank += 1;
            remaining -= 1;
            let mut neighbors: Vec<u32> = Vec::new();
            for &id in inn[v as usize].iter().chain(out[v as usize].iter()) {
                let a = &arcs[id as usize];
                let x = if a.to == v { a.from } else { a.to };
                if !a.disabled && !contracted[x as usize] {
                    neighbors.push(x);
                }
            }
            neighbors.sort_unstable();
            neighbors.dedup();
            for x in neighbors {
                deleted[x as usize] += 1;
                dirty[x as usize] = true;
                // Lazy adjacency cleanup, amortized over contractions.
                out[x as usize].retain(|&id| alive(&arcs, &contracted, id));
                inn[x as usize].retain(|&id| alive(&arcs, &contracted, id));
            }
        }
        for &v in &selected {
            in_round[v as usize] = false;
        }
    }

    finish_overlay(category, rank, arcs, n_base, n_disabled, contraction, pool)
}

/// The query adjacency, then the bound graph: one entry per slot —
/// (side, node, neighbour), up arcs listed under their tail and down
/// arcs under their head — each folded from the slot's arcs on the
/// worker pool (read-only against the arcs, results applied in slot
/// order — deterministic at any thread count). Returns the completed
/// overlay.
pub(crate) fn finish_overlay(
    category: DayCategory,
    rank: Vec<u32>,
    arcs: Vec<OverlayArc>,
    n_base: usize,
    n_disabled: usize,
    contraction: Contraction,
    pool: &WorkerPool,
) -> Result<Overlay> {
    let n = rank.len();
    let is_up = |arc: &OverlayArc| rank[arc.from as usize] < rank[arc.to as usize];
    let mut enabled: Vec<u32> = (0..arcs.len() as u32).collect();
    enabled.retain(|&id| !arcs[id as usize].disabled);
    let (mut up, mut down) = (Vec::new(), Vec::new());
    for &id in &enabled {
        let arc = &arcs[id as usize];
        let hop = Hop {
            node: arc.to,
            arc: id,
            min: arc.min,
        };
        if is_up(arc) { &mut up } else { &mut down }.push((arc.from, hop));
    }

    let slot = |id: &u32| match &arcs[*id as usize] {
        arc if is_up(arc) => (false, arc.from, arc.to),
        arc => (true, arc.to, arc.from),
    };
    enabled.sort_by_key(slot);
    let slots: Vec<&[u32]> = enabled.chunk_by(|a, b| slot(a) == slot(b)).collect();
    let bounds = pool.map_indexed(
        slots.len(),
        || (),
        |i, _, _scratch| {
            let parallel = slots[i].iter().map(|&id| &arcs[id as usize]);
            Bound::of(slot(&slots[i][0]).2, parallel)
        },
    );
    let (mut up_bound, mut down_bound) = (Vec::new(), Vec::new());
    for (ids, bound) in slots.iter().zip(bounds) {
        match slot(&ids[0]) {
            (false, v, _) => up_bound.push((v, bound?)),
            (true, v, _) => down_bound.push((v, bound?)),
        }
    }
    let whole_day = Interval::of(0.0, MINUTES_PER_DAY);
    Ok(Overlay {
        category,
        rank,
        day: arcs.first().map_or(whole_day, |a| a.full.domain()),
        arcs,
        up_out: Csr::new(n, up),
        down_out: Csr::new(n, down),
        up_bound: Csr::new(n, up_bound),
        down_bound: Csr::new(n, down_bound),
        n_base,
        n_disabled,
        contraction,
    })
}

/// Expand a popped label's top-level arc chain into the original node
/// sequence, recursively unpacking shortcuts (iterative stack — nested
/// shortcut depth is unbounded in adversarial contraction orders).
pub(crate) fn unpack_route(overlay: &Overlay, source: NodeId, arc_ids: &[u32]) -> Vec<NodeId> {
    let mut nodes = vec![source];
    let mut stack: Vec<u32> = Vec::new();
    for &top in arc_ids {
        stack.push(top);
        while let Some(id) = stack.pop() {
            let arc = &overlay.arcs[id as usize];
            match arc.via {
                Some((a, b)) => {
                    stack.push(b);
                    stack.push(a);
                }
                None => nodes.push(NodeId(arc.to)),
            }
        }
    }
    nodes
}
