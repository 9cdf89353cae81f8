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
//! **Round-based contraction.** Each round selects the *independent
//! set* of remainder nodes that are strict local minima of
//! `(priority, node id)` among their uncontracted neighbors — a
//! deterministic tie-broken rule with at least one member per round
//! (the global minimum always qualifies) and no two members adjacent.
//! Every member is planned first (witness searches and shortcut
//! composition) against the pre-round state, read-only; then the plans
//! are applied (domination checks, arc insertion, ranks) in ascending
//! node order. Because members are pairwise non-adjacent, no
//! application in a round touches an arc incident to another member, so
//! every plan stays valid until it is applied.
//!
//! **Lazy selection.** A dirty node is scored one in-arc witness search
//! at a time ([`select`]): its key after `k` searches counts only the
//! pairs those left needed, so it is a lower bound on the full key. The
//! round steps the open node of lowest key, drops a node once a
//! neighbour's exact key is below it, and refines a neighbour of a
//! candidate only while that neighbour's key is below the candidate's.
//! Then every node still partial that no selected node neighbours is
//! scored in full, and the rest stay dirty — Phase 4 dirties them
//! anyway. The selection is the eager rule's exactly: (1) a partial
//! key never exceeds the key, because needed pairs only accumulate;
//! (2) a node is dropped only on a neighbour's exact key; (3) every
//! priority a later round reads is finished on its own round's
//! snapshot. Debug builds also score every dirty node in full and
//! assert both.
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
//! **One-day exact storage.** Each enabled arc stores its exact
//! **one-day** function, at exact size (a composed shortcut is copied
//! out of the build's pooled buffer, which goes back to the pool), and
//! nothing derived from it but scalars; a disabled arc stores none
//! ([`OverlayArc`]). The periodic extension the search composes against
//! is virtual ([`ext_window`] derives any restriction of it on demand,
//! bit for bit), and the exact `min`/`max` plus time-bucketed **band
//! minima** ride along, folded per neighbour into the bound graph
//! ([`Bound`]) the query's scalar sweeps walk. The search only
//! *selects* corridors; every answer re-composes through the flat
//! engine (see `search.rs` and DESIGN.md §13).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use allfp::{AllFpError, MinEntry, Result};
use pwl::compose::arrival_interval;
use pwl::time::MINUTES_PER_DAY;
use pwl::{compose_travel_into, Interval, Pwl, PwlScratch};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

/// Buckets of the band minima (over one day period).
const BANDS: usize = 8;

/// Arcs a contraction may store per input edge, the `arc_budget`
/// every build passes [`build_overlay`]. A round whose planned
/// shortcuts would grow the storage past it fails with
/// [`AllFpError::ContractionBudget`] before composing any of them: a
/// hostile topology whose shortcuts multiply is refused in milliseconds
/// instead of growing until memory runs out. Witness-pruned builds of
/// the metro networks end at 2–5×.
pub(crate) const ARC_BUDGET: usize = 1024;

/// Nodes a witness search settles before it gives up. A higher cap
/// proves more shortcuts unnecessary (a smaller overlay, a slower
/// build); the answer is exact at any cap.
const WITNESS_SETTLE_CAP: usize = 64;

/// One arc of the overlay graph: an original edge or a shortcut.
///
/// Storage is append-only and arcs are referenced by index, so a
/// shortcut's `via` pair stays valid even after the arc it supersedes
/// is disabled by domination (disabled arcs leave the query adjacency
/// but remain unpackable).
///
/// Only the **one-day** function is stored, at exact size, and only
/// while the arc is enabled: a disabled arc keeps its endpoints, via
/// pair and scalars — all that unpacking and the bound graph read —
/// but no query, bound sweep or later contraction round reads its
/// function, so it releases it. Its periodic extension is
/// *virtual*: [`ext_window`] derives any restriction of it on demand
/// with the same `shift_x`/`concat` arithmetic a materialized copy
/// would have been built with, bit for bit.
pub(crate) struct OverlayArc {
    /// Tail node.
    pub from: u32,
    /// Head node.
    pub to: u32,
    /// The exact travel-time function over one full period `[0, 1440]`;
    /// `None` once the arc is disabled.
    pub full: Option<Pwl>,
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

impl OverlayArc {
    /// The stored function; an error on a disabled arc, which stores
    /// none.
    pub fn function(&self) -> Result<&Pwl> {
        self.full
            .as_ref()
            .ok_or(AllFpError::Internal("a disabled overlay arc was read"))
    }

    /// Leave the query adjacency, releasing the function.
    fn disable(&mut self) {
        self.disabled = true;
        self.full = None;
    }
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
    /// What the contraction that built the structure did.
    pub contraction: Contraction,
}

/// The work of one contraction, as counts: exact, because each witness
/// search is a pure function of the round's snapshot and which searches
/// run depends only on priority keys.
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
            let full = arc.function()?;
            let d = full.domain();
            let w = d.len() / BANDS as f64;
            for (k, band) in bound.band_min.iter_mut().enumerate() {
                let b = Interval::of(d.lo() + k as f64 * w, d.lo() + (k + 1) as f64 * w);
                *band = band.min(full.min_over(&b)?.value);
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
}

/// One entry of the expansion adjacency, carrying what the relax gate
/// reads before it composes — so a gated hop never touches an
/// [`OverlayArc`] or the function in it. (The bound sweeps read
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
    /// `entries`, each listed under its node of `nodes`, which run in
    /// non-decreasing order.
    fn new(n: usize, nodes: impl Iterator<Item = u32>, mut entries: Vec<T>) -> Csr<T> {
        let mut start = vec![0u32; n + 1];
        for v in nodes {
            start[v as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        debug_assert_eq!(start[n] as usize, entries.len());
        entries.shrink_to_fit();
        Csr { start, entries }
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

/// An arc record around its full-period function, stored at exact
/// size (a base arc's function comes out of `travel_time_fn` with the
/// capacity of the pieces it simplified away).
fn make_arc(from: u32, to: u32, mut full: Pwl, via: Option<(u32, u32)>) -> OverlayArc {
    full.shrink_to_fit();
    OverlayArc {
        from,
        to,
        min: full.min_value(),
        max: full.maximum(),
        full: Some(full),
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
/// search stops before settling them. One per build.
struct Witness {
    /// Per node: the tentative distance and the epoch that wrote it,
    /// side by side (one cache line per read).
    slot: Vec<(f64, u32)>,
    epoch: u32,
    /// Keyed by tentative distance, node id on ties.
    heap: BinaryHeap<MinEntry<u32>>,
}

impl Witness {
    fn new(n: usize) -> Self {
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
    /// [`WITNESS_SETTLE_CAP`] nodes were settled; distances recorded up
    /// to that point are exact or tentative — both are valid upper
    /// bounds for the witness test. A row is read up to its first entry
    /// that relaxes past `bound`, and the rows are sorted by `max`, so
    /// no later entry could either: such a distance is never settled
    /// (`d > bound` ends the search) and never proves a witness (every
    /// via minimum is `≤ bound`). Returns the nodes settled and the
    /// entries read.
    fn run(
        &mut self,
        source: u32,
        skip: u32,
        bound: f64,
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
            if d > bound || work.witness_settles >= WITNESS_SETTLE_CAP as u64 {
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

/// The state Phases 1–3 of a round read: the arcs and adjacency as the
/// round found them and the round's [`snapshot_remainder`], which every
/// witness search of the round walks. Read-only: Phase 4 writes only
/// after the last read.
struct RoundView<'a> {
    arcs: &'a [OverlayArc],
    out: &'a [Vec<u32>],
    inn: &'a [Vec<u32>],
    contracted: &'a [bool],
    deleted: &'a [u32],
    remainder: Csr<Reach>,
}

/// The candidate shortcuts of contracting `v`: every pair of an alive
/// in-arc and an alive out-arc with different far ends, grouped by
/// in-arc — one witness search each. An in-arc whose every out-arc
/// leads back to its tail holds no candidate and is left out.
struct Candidates {
    v: u32,
    ins: Vec<u32>,
    outs: Vec<u32>,
}

impl RoundView<'_> {
    fn alive(&self, id: u32) -> bool {
        alive(self.arcs, self.contracted, id)
    }

    /// The uncontracted neighbours of `v` over its alive arcs, either
    /// direction (one per arc, so a neighbour may repeat).
    fn neighbours(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let ids = self.inn[v as usize].iter().chain(&self.out[v as usize]);
        ids.filter(|&&id| self.alive(id)).map(move |&id| {
            let a = &self.arcs[id as usize];
            if a.from == v {
                a.to
            } else {
                a.from
            }
        })
    }

    fn candidates(&self, v: u32) -> Candidates {
        let live = |ids: &[u32]| -> Vec<u32> {
            ids.iter().copied().filter(|&id| self.alive(id)).collect()
        };
        let outs = live(&self.out[v as usize]);
        let mut ins = live(&self.inn[v as usize]);
        ins.retain(|&a| {
            let u = self.arcs[a as usize].from;
            outs.iter().any(|&b| self.arcs[b as usize].to != u)
        });
        Candidates { v, ins, outs }
    }

    /// Run the witness search of `c`'s in-arc `k`, hand `keep` the
    /// pairs `(in-arc, out-arc)` it leaves needed — those it does not
    /// prove unnecessary — and return its work. When planning, pass the
    /// round's independent set as `in_round` so the proofs survive
    /// every application of the round.
    fn search(
        &self,
        c: &Candidates,
        k: usize,
        in_round: Option<&[bool]>,
        witness: &mut Witness,
        mut keep: impl FnMut(u32, u32),
    ) -> Contraction {
        let a = c.ins[k];
        let (u, a_min) = (self.arcs[a as usize].from, self.arcs[a as usize].min);
        let pairs = c.outs.iter().map(|&b| (b, &self.arcs[b as usize]));
        let pairs = pairs.filter(|(_, out)| out.to != u);
        let bound = pairs
            .clone()
            .fold(f64::NEG_INFINITY, |m, (_, out)| m.max(a_min + out.min));
        let work = witness.run(u, c.v, bound, &self.remainder, in_round);
        for (b, out) in pairs {
            if witness.get(out.to) <= a_min + out.min {
                continue; // proved unnecessary
            }
            keep(a, b);
        }
        work
    }

    /// Every witness search of `v`'s candidates: hand `keep` the pairs
    /// contracting `v` *must* add and return the searches' work.
    fn needed_pairs(
        &self,
        v: u32,
        in_round: Option<&[bool]>,
        witness: &mut Witness,
        mut keep: impl FnMut(u32, u32),
    ) -> Contraction {
        let c = self.candidates(v);
        let mut work = Contraction::default();
        for k in 0..c.ins.len() {
            work += self.search(&c, k, in_round, witness, &mut keep);
        }
        work
    }

    /// `v`'s contraction priority before its needed shortcuts count
    /// ([`priority`] adds them): minus the weighted alive-arc degree,
    /// plus the deleted-neighbors level term and a quantized
    /// travel-minimum term that contracts short local arcs (residential
    /// grids) before long arterials — the time-dependent analogue of
    /// the classic distance-based tie-break.
    fn base_priority(&self, v: u32) -> i64 {
        let mut degree = 0usize;
        let mut travel_sum = 0.0;
        for &id in self.inn[v as usize].iter().chain(&self.out[v as usize]) {
            if self.alive(id) {
                degree += 1;
                travel_sum += self.arcs[id as usize].min;
            }
        }
        let travel_term = if degree == 0 {
            0
        } else {
            (travel_sum / degree as f64 * 4.0) as i64
        };
        -16 * degree as i64 + 4 * i64::from(self.deleted[v as usize]) + travel_term
    }
}

/// Contraction priority: the weighted edge difference — needed
/// shortcuts minus alive arcs — on top of the rest of `base`
/// ([`RoundView::base_priority`]). Strictly increasing in `n_need`.
fn priority(base: i64, n_need: usize) -> i64 {
    base + 16 * n_need as i64
}

/// Where a remainder node stands in its round's selection.
#[derive(Clone, Copy, PartialEq)]
enum Fate {
    /// Undecided, queued under its key.
    Open,
    /// Selected, or not a strict local minimum.
    Decided,
    /// Neighbours a selected node: Phase 4 dirties it, so its score may
    /// stay partial.
    Beside,
}

/// A dirty node's score so far: its candidates, the in-arc searches run
/// and the pairs they left needed.
struct Score {
    cands: Candidates,
    /// [`RoundView::base_priority`] of the node.
    base: i64,
    searched: usize,
    n_need: usize,
}

/// The scoring state of one round's selection. A node is *exact* when
/// it is not `dirty`; a dirty node's `prio` counts only the pairs its
/// searches so far left needed.
struct Scoring<'r, 'a> {
    view: &'r RoundView<'a>,
    prio: &'r mut [i64],
    dirty: &'r mut [bool],
    witness: &'r mut Witness,
    /// The round's dirty nodes' scores, indexed through `slot`.
    scores: Vec<Score>,
    slot: Vec<u32>,
    /// Per node: the smallest exact key among its neighbours.
    floor: Vec<(i64, u32)>,
    work: Contraction,
}

impl Scoring<'_, '_> {
    fn key(&self, v: u32) -> (i64, u32) {
        (self.prio[v as usize], v)
    }

    /// `v`'s key is exact: it bounds its neighbours' floors.
    fn lower_floors(&mut self, v: u32) {
        let key = self.key(v);
        for x in self.view.neighbours(v) {
            let floor = &mut self.floor[x as usize];
            *floor = (*floor).min(key);
        }
    }

    /// Run dirty `v`'s next in-arc search and raise its key by the
    /// pairs that search leaves needed.
    fn step(&mut self, v: u32) {
        let (view, score) = (self.view, &mut self.scores[self.slot[v as usize] as usize]);
        let mut need = 0;
        self.work += view.search(&score.cands, score.searched, None, self.witness, |_, _| {
            need += 1
        });
        score.searched += 1;
        score.n_need += need;
        self.prio[v as usize] = priority(score.base, score.n_need);
        if score.searched == score.cands.ins.len() {
            self.dirty[v as usize] = false;
            self.lower_floors(v);
        }
    }
}

/// Phases 1–2 of a round: score the dirty remainder nodes and return
/// the round's independent set — the strict local minima of
/// `(priority, id)` among their neighbours, in ascending id — and the
/// witness work it took.
///
/// Lazily: a dirty node's key after some of its in-arc searches is a
/// lower bound on its key, so the round keeps stepping the open node of
/// lowest key. A node goes out as soon as a neighbour's exact key is
/// below its own; an exact node at the head of the queue is below every
/// open key, so it is selected iff every neighbour, refined while its
/// key stays below, ends above it. Then every node still partial that no
/// selected node neighbours is scored in full — a later round reads its
/// priority — and the others stay dirty.
fn select(
    view: &RoundView<'_>,
    prio: &mut [i64],
    dirty: &mut [bool],
    witness: &mut Witness,
) -> (Vec<u32>, Contraction) {
    let n = view.contracted.len();
    let remainder_nodes = (0..n as u32).filter(|&v| !view.contracted[v as usize]);
    let mut s = Scoring {
        view,
        prio,
        dirty,
        witness,
        scores: Vec::new(),
        slot: vec![u32::MAX; n],
        floor: vec![(i64::MAX, u32::MAX); n],
        work: Contraction::default(),
    };
    for v in remainder_nodes.clone() {
        if s.dirty[v as usize] {
            let (cands, base) = (view.candidates(v), view.base_priority(v));
            s.prio[v as usize] = base;
            s.dirty[v as usize] = !cands.ins.is_empty();
            s.slot[v as usize] = s.scores.len() as u32;
            s.scores.push(Score {
                cands,
                base,
                searched: 0,
                n_need: 0,
            });
        }
    }
    for v in remainder_nodes.clone() {
        if !s.dirty[v as usize] {
            s.lower_floors(v);
        }
    }

    let mut queue: BinaryHeap<Reverse<(i64, u32)>> =
        remainder_nodes.clone().map(|v| Reverse(s.key(v))).collect();
    let mut fate = vec![Fate::Open; n];
    let mut selected = Vec::new();
    while let Some(Reverse(key)) = queue.pop() {
        let v = key.1;
        if fate[v as usize] != Fate::Open {
            continue;
        }
        if s.dirty[v as usize] && s.floor[v as usize] > key {
            s.step(v);
            queue.push(Reverse(s.key(v)));
            continue;
        }
        fate[v as usize] = Fate::Decided;
        // An exact key at the head of the queue is below every open key.
        let minimum = s.floor[v as usize] > key
            && view.neighbours(v).all(|u| {
                while s.dirty[u as usize] && s.key(u) < key {
                    s.step(u);
                }
                s.key(u) > key
            });
        if minimum {
            for u in view.neighbours(v) {
                fate[u as usize] = Fate::Beside;
            }
            selected.push(v);
        }
    }
    selected.sort_unstable();

    for i in 0..s.scores.len() {
        let v = s.scores[i].cands.v;
        if fate[v as usize] != Fate::Beside {
            while s.dirty[v as usize] {
                s.step(v);
            }
        }
    }

    // Debug builds score every dirty node in full, as eagerly as the
    // rule reads, and hold the lazy selection to the same set and to
    // the same priority for every node it leaves clean.
    #[cfg(debug_assertions)]
    {
        let mut full = s.prio.to_vec();
        for score in &s.scores {
            let (v, mut n_need) = (score.cands.v, 0);
            view.needed_pairs(v, None, s.witness, |_, _| n_need += 1);
            full[v as usize] = priority(view.base_priority(v), n_need);
        }
        let key = |v: u32| (full[v as usize], v);
        let minimum = |&v: &u32| view.neighbours(v).all(|u| key(u) > key(v));
        let eager: Vec<u32> = remainder_nodes.filter(minimum).collect();
        assert_eq!(
            selected, eager,
            "the lazy selection differs from the eager one"
        );
        for score in &s.scores {
            let v = score.cands.v as usize;
            assert!(
                s.dirty[v] || s.prio[v] == full[v],
                "node {v} keeps priority {} past the round, its full score is {}",
                s.prio[v],
                full[v]
            );
        }
    }
    (selected, s.work)
}

/// Compose the shortcut function for the via pair `a` then `b`, over
/// one full period. Returns an exact-size copy for storage; the
/// kernel's pooled buffers go back to `scratch` for the next
/// composition.
fn recompose(scratch: &mut PwlScratch, a: &OverlayArc, b: &OverlayArc) -> Result<Pwl> {
    let (a, b) = (a.function()?, b.function()?);
    let arrivals = arrival_interval(a)?;
    // Materialize `b`'s periodic extension transiently — wide enough
    // to cover the arrivals when one period of slack is not enough
    // (multi-day travel through the first arc), never losing
    // exactness.
    let periods = if ext_domain(b).covers(&arrivals) {
        EXT_PERIODS
    } else {
        (arrivals.hi() / MINUTES_PER_DAY).ceil() as usize + 1
    };
    let ext = extend_periodic(b, periods)?;
    let pooled = compose_travel_into(scratch, a, &ext)?;
    scratch.recycle(ext);
    // `clone` allocates exactly the knots and pieces.
    let out = pooled.clone();
    scratch.recycle(pooled);
    Ok(out)
}

/// One planned shortcut: the via pair and its exact composed function,
/// composed in a round's planning phase from the pre-round arcs.
struct PlannedShortcut {
    a: u32,
    b: u32,
    full: Pwl,
}

/// Build the contracted overlay for one day category, storing at most
/// `arc_budget` arcs per input edge ([`ARC_BUDGET`] outside tests).
pub(crate) fn build_overlay<S: NetworkSource>(
    source: &S,
    category: DayCategory,
    arc_budget: usize,
) -> Result<Overlay> {
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
    let mut witness = Witness::new(n);
    let mut scratch = PwlScratch::new();
    let mut n_disabled = 0usize;

    let mut next_rank = 0u32;
    let mut remaining = n;
    let mut contraction = Contraction::default();

    while remaining > 0 {
        contraction.rounds += 1;
        // Every witness search of the round walks this one snapshot of
        // the pre-round remainder graph.
        let view = RoundView {
            arcs: &arcs,
            out: &out,
            inn: &inn,
            contracted: &contracted,
            deleted: &deleted,
            remainder: snapshot_remainder(&arcs, &out, &contracted),
        };

        // Phases 1–2 — score the dirty remainder nodes as far as the
        // selection needs and pick the independent set: the strict
        // local minima of (priority, id) among uncontracted neighbors.
        // Deterministic, non-adjacent, and never empty (the global
        // minimum wins against every neighbor).
        let (selected, work) = select(&view, &mut prio, &mut dirty, &mut witness);
        contraction += work;
        for &v in &selected {
            in_round[v as usize] = true;
        }

        // Phase 3 — plan the selected nodes: witness searches skip the
        // whole independent set (so omission proofs survive every
        // application of this round), then — inside the arc budget —
        // the needed shortcut functions are composed from pre-round
        // arcs. The pair lists stop growing past the budget's headroom,
        // so a refused round holds no more pairs than an accepted one.
        let limit = arc_budget.saturating_mul(n_base);
        let headroom = limit.saturating_sub(arcs.len());
        let mut n_planned = 0usize;
        let mut needs = Vec::with_capacity(selected.len());
        for &v in &selected {
            let mut need = Vec::new();
            contraction += view.needed_pairs(v, Some(&in_round), &mut witness, |a, b| {
                n_planned += 1;
                if n_planned <= headroom {
                    need.push((a, b));
                }
            });
            needs.push(need);
        }
        if n_planned > headroom {
            return Err(AllFpError::ContractionBudget {
                arcs: arcs.len() + n_planned,
                limit,
            });
        }
        let mut plans = Vec::with_capacity(selected.len());
        for need in needs {
            let mut plan = Vec::with_capacity(need.len());
            for (a, b) in need {
                let full = recompose(&mut scratch, &arcs[a as usize], &arcs[b as usize])?;
                plan.push(PlannedShortcut { a, b, full });
            }
            plans.push(plan);
        }

        // Phase 4 — apply in ascending node order. Members are pairwise
        // non-adjacent, so nothing applied here touches an arc incident
        // to a later member: every plan stays exactly as valid as when
        // it was computed.
        for (&v, plan) in selected.iter().zip(plans) {
            for planned in plan {
                let (a, b) = (planned.a, planned.b);
                let (u, w) = (arcs[a as usize].from, arcs[b as usize].to);
                // Parallel-arc domination, both directions.
                let mut dominated = false;
                let mut to_disable: Vec<u32> = Vec::new();
                for &cid in &out[u as usize] {
                    if arcs[cid as usize].to != w || !alive(&arcs, &contracted, cid) {
                        continue;
                    }
                    let parallel = arcs[cid as usize].function()?;
                    if planned.full.dominated_by_offset(0.0, parallel) {
                        dominated = true;
                        break;
                    }
                    if parallel.dominated_by_offset(0.0, &planned.full) {
                        to_disable.push(cid);
                    }
                }
                if dominated {
                    continue;
                }
                for cid in to_disable {
                    arcs[cid as usize].disable();
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

    // Released before the query structures are built, which is the
    // build's peak.
    drop((out, inn, witness, scratch));
    finish_overlay(category, rank, arcs, n_base, n_disabled, contraction)
}

/// The query adjacency, then the bound graph: one entry per slot —
/// (side, node, neighbour), up arcs listed under their tail and down
/// arcs under their head — each folded from the slot's arcs. Both are
/// read off one sorted list of the enabled arcs, each row built once at
/// exact size.
/// Returns the completed overlay, its arc storage at exact size.
fn finish_overlay(
    category: DayCategory,
    rank: Vec<u32>,
    mut arcs: Vec<OverlayArc>,
    n_base: usize,
    n_disabled: usize,
    contraction: Contraction,
) -> Result<Overlay> {
    arcs.shrink_to_fit();
    let n = rank.len();
    let is_up = |arc: &OverlayArc| rank[arc.from as usize] < rank[arc.to as usize];
    // An enabled arc's slot: (side, node, neighbour), up arcs listed
    // under their tail and down arcs under their head.
    let slot = |id: &u32| match &arcs[*id as usize] {
        arc if is_up(arc) => (false, arc.from, arc.to),
        arc => (true, arc.to, arc.from),
    };
    let enabled = (0..arcs.len() as u32).filter(|&id| !arcs[id as usize].disabled);
    let mut enabled: Vec<u32> = enabled.collect();

    // The query adjacency: the up arcs, then the down arcs, by tail, in
    // id order (the sorts are stable).
    let tail = |id: &u32| (slot(id).0, arcs[*id as usize].from);
    enabled.sort_by_key(tail);
    let hops = |ids: &[u32]| {
        let hop = |&id: &u32| Hop {
            node: arcs[id as usize].to,
            arc: id,
            min: arcs[id as usize].min,
        };
        Csr::new(
            n,
            ids.iter().map(|id| tail(id).1),
            ids.iter().map(hop).collect(),
        )
    };
    let (up, down) = enabled.split_at(enabled.partition_point(|id| !slot(id).0));
    let (up_out, down_out) = (hops(up), hops(down));

    // The bound graph: one entry per slot, up slots then down slots,
    // each folded from the slot's arcs.
    enabled.sort_by_key(slot);
    let slots: Vec<&[u32]> = enabled.chunk_by(|a, b| slot(a) == slot(b)).collect();
    let bound = |ids: &&[u32]| Bound::of(slot(&ids[0]).2, ids.iter().map(|&id| &arcs[id as usize]));
    let mut up_bound = slots.iter().map(bound).collect::<Result<Vec<Bound>>>()?;
    let (up, down) = slots.split_at(slots.partition_point(|ids| !slot(&ids[0]).0));
    let row = |ids: &&[u32]| slot(&ids[0]).1;
    let down_bound = Csr::new(n, down.iter().map(row), up_bound.split_off(up.len()));
    let up_bound = Csr::new(n, up.iter().map(row), up_bound);
    let whole_day = Interval::of(0.0, MINUTES_PER_DAY);
    let first = arcs.iter().find_map(|a| a.full.as_ref());
    Ok(Overlay {
        category,
        rank,
        day: first.map_or(whole_day, Pwl::domain),
        arcs,
        up_out,
        down_out,
        up_bound,
        down_bound,
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

#[cfg(test)]
mod tests {
    use roadnet::generators::random_geometric;

    use super::*;

    /// A build whose shortcuts would pass the arc budget is refused
    /// before it composes the round that would pass it: at 1× its input
    /// edges a witness-pruned 14-node build, which needs shortcuts,
    /// fails with `ContractionBudget` at a limit of exactly its base
    /// arcs, and at [`ARC_BUDGET`] the same build finishes.
    #[test]
    fn the_arc_budget_refuses_a_build_that_would_pass_it() {
        let net = random_geometric(14, 1.5, 3, 97).unwrap();
        let built = build_overlay(&net, DayCategory::WORKDAY, ARC_BUDGET).unwrap();
        assert!(built.arcs.len() > built.n_base, "no shortcut to refuse");
        match build_overlay(&net, DayCategory::WORKDAY, 1) {
            Err(AllFpError::ContractionBudget { arcs, limit }) => {
                assert_eq!(limit, built.n_base);
                assert!(arcs > limit, "{arcs} arcs within {limit}");
            }
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("a build past its budget finished"),
        }
    }
}
