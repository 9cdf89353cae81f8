//! The one label-setting loop of §4, under both searches: the flat
//! engine's over the original network and the contraction hierarchy's
//! over its overlay.
//!
//! The queue discipline is written here once. Labels (paths `s ⇒ v`,
//! each with its exact travel function over the query interval) are
//! popped best-first by their key, FIFO among equals; a popped target
//! label folds into the lower border; the search stops once the
//! queue's minimum clears the border's maximum (§4.6). A candidate is
//! dropped before composition by the early scalar bound, after it by
//! the O(1) border and cap checks, then by an older label at its node
//! that dominates it, then by the pointwise border rule; a survivor is
//! queued under its live-instant key (DESIGN.md §7).
//!
//! What differs between the two graphs is an [`Expand`]: where a
//! popped label's hops come from and what each one's bound is, how a
//! hop composes, and which dominance buckets a new label meets. The
//! loop is generic over it, so each search is its own monomorphized
//! copy.

use std::collections::BinaryHeap;
use std::time::Instant;

use pwl::compose::Arrivals;
use pwl::{Envelope, Pwl, PwlRef, PwlScratch};
use roadnet::NodeId;

use crate::backend::QueryMode;
use crate::query::{CancelToken, DegradedReason, QuerySpec, QueryStats};
use crate::{AllFpError, MinEntry, Result};

/// How often (in heap pops) the search polls the wall-clock deadline
/// and the cancellation token. The check runs on pop 0, so a
/// `Duration::ZERO` deadline (or a pre-cancelled token) trips before
/// any expansion work. Expansion caps are checked on **every** pop.
const WATCH_EVERY: u64 = 32;

/// "No index": the root label's [`Label::parent`], the end of a
/// dominance bucket, and an empty slot.
pub const NONE: u32 = u32::MAX;

/// `i` as a `u32` arena index, which must stay below [`NONE`].
#[inline]
pub(crate) fn index32(i: usize, outgrown: &'static str) -> Result<u32> {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NONE)
        .ok_or(AllFpError::Internal(outgrown))
}

/// A label under consideration, stored in the per-query arena: a parent
/// pointer, the path's head node and its exact travel function `T(l)`
/// over the query interval. The queue key lives on the queue entry and
/// the bound at the head with the graph ([`Expand::est`]); `X` is what
/// the graph keeps beside.
pub struct Label<X> {
    /// Arena index of the label this one extends; [`NONE`] for the seed.
    pub parent: u32,
    /// Next label of the dominance bucket this one is filed in; [`NONE`]
    /// at the tail.
    next_at_node: u32,
    /// Last node of the path.
    pub node: NodeId,
    /// Cached `travel.min_value()`, read by the early scalar bound of
    /// every hop out of this label.
    travel_min: f64,
    /// The path's travel function. Owned while the label only lives in
    /// the arena; promoted to shared storage the first time a border
    /// keeps it.
    pub travel: PwlRef,
    /// The graph's own part of the label.
    pub extra: X,
}

/// A dominance bucket: labels at one node (and, on the overlay, of one
/// phase) threaded through the arena by [`Label::next_at_node`] in push
/// order.
#[derive(Clone, Copy)]
pub struct Bucket {
    head: u32,
    tail: u32,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            head: NONE,
            tail: NONE,
        }
    }
}

/// Queue entry: the label's key, FIFO among equals, carrying its arena
/// index.
type QueueEntry = MinEntry<u64, usize>;

/// The label arena and the queue, kept across queries by the graph's
/// workspace and cleaned in O(labels).
pub struct Frontier<X> {
    /// The labels of the last search, by arena index.
    pub(crate) labels: Vec<Label<X>>,
    pub(crate) heap: BinaryHeap<QueueEntry>,
}

impl<X> Default for Frontier<X> {
    fn default() -> Self {
        Frontier {
            labels: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl<X> Frontier<X> {
    /// Drop every label, recycling its function into `scratch`.
    pub fn clear(&mut self, scratch: &mut PwlScratch) {
        self.heap.clear();
        for l in self.labels.drain(..) {
            scratch.recycle_ref(l.travel);
        }
    }

    /// Give back all but `capacity` entries of each buffer.
    pub(crate) fn shrink_to(&mut self, capacity: usize) {
        self.labels.shrink_to(capacity);
        self.heap.shrink_to(capacity);
    }
}

/// One candidate extension of the label being expanded, as its graph
/// offers it.
pub struct Hop<V, X> {
    /// The node it reaches.
    pub to: NodeId,
    /// The bound at `to` its label would carry; finite.
    pub est: f64,
    /// A lower bound on the hop's own travel at any instant.
    pub lb: f64,
    /// What the graph needs to compose it and file its label.
    pub via: V,
    /// The new label's [`Label::extra`].
    pub extra: X,
}

/// What one graph supplies to [`run`]. Every method but
/// [`Expand::seed`] works on the label being expanded, `item`, which
/// the loop has just handed to [`Expand::expand`].
pub trait Expand {
    /// The graph's own part of a label.
    type Extra;
    /// What a hop carries from [`Expand::hop`] to its composition.
    type Via;

    /// The pool the loop recycles into and merges borders with.
    fn scratch(&mut self) -> &mut PwlScratch;

    /// The source's bound and label part; an error ends the query.
    fn seed(&mut self) -> Result<(f64, Self::Extra)>;

    /// The bound `label` was queued with.
    fn est(&self, label: &Label<Self::Extra>) -> f64;

    /// A target label was popped (or salvaged) and is about to count.
    fn reached(&mut self, _labels: &[Label<Self::Extra>], _item: usize) {}

    /// Begin expanding `item`; returns how many hops it has. `border`
    /// is the lower border so far.
    fn expand(
        &mut self,
        labels: &[Label<Self::Extra>],
        item: usize,
        border: Option<&Pwl>,
    ) -> Result<usize>;

    /// Hop `i` of `item`, or `None` for one that is no candidate
    /// (tallied here if it counts as a prune).
    fn hop(
        &mut self,
        labels: &[Label<Self::Extra>],
        item: usize,
        i: usize,
        stats: &mut QueryStats,
    ) -> Result<Option<Hop<Self::Via, Self::Extra>>>;

    /// A cap on the optimal travel at every leaving instant: a label
    /// definitely above it is dropped. `∞` for none.
    fn cap(&self) -> f64 {
        f64::INFINITY
    }

    /// Skip `hop` before composing it: only a hop whose composed label
    /// the pointwise border rule would drop.
    fn gate(
        &mut self,
        _labels: &[Label<Self::Extra>],
        _item: usize,
        _hop: &Hop<Self::Via, Self::Extra>,
        _arrivals: &Arrivals,
        _border: Option<&Pwl>,
    ) -> Result<bool> {
        Ok(false)
    }

    /// `item`'s function extended over `hop`, or `None` to hand the
    /// whole query back to the caller.
    fn compose(
        &mut self,
        labels: &[Label<Self::Extra>],
        item: usize,
        hop: &Hop<Self::Via, Self::Extra>,
        arrivals: &Arrivals,
        stats: &mut QueryStats,
    ) -> Result<Option<Pwl>>;

    /// The dominance buckets a new label over `hop` is scanned against,
    /// in order, and the one it is filed in (`None`: not filed).
    fn buckets(&mut self, hop: &Hop<Self::Via, Self::Extra>) -> ([Bucket; 2], Option<&mut Bucket>);
}

/// How the loop ended.
pub struct Run {
    /// The lower border over the target labels merged, tagged by arena
    /// index.
    pub border: Option<Envelope<usize>>,
    /// singleFP: the first target label popped.
    pub single: Option<usize>,
    /// The budget that tripped, if one did.
    pub trip: Option<DegradedReason>,
    /// The loop's counters; the graph adds its own.
    pub stats: QueryStats,
}

/// The per-search budget watcher: deadline, expansion cap, and
/// cancellation, resolved once at search start.
struct Watch<'t> {
    deadline: Option<Instant>,
    /// The query's expansion budget capped by the engine's valve.
    max_expansions: usize,
    cancel: Option<&'t CancelToken>,
    pops: u64,
}

impl<'t> Watch<'t> {
    /// Resolve `query`'s budget against the engine-level expansion
    /// valve `engine_cap`; the wall-clock budget starts now.
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

    /// Poll the cheap-but-not-free signals (cancellation, wall clock)
    /// every [`WATCH_EVERY`] pops, including the very first. Returns
    /// `Err` on cancellation, `Ok(Some(reason))` on an expired
    /// deadline, `Ok(None)` to keep searching.
    #[inline]
    fn poll(&mut self) -> Result<Option<DegradedReason>> {
        let due = self.pops.is_multiple_of(WATCH_EVERY);
        self.pops += 1;
        if !due {
            return Ok(None);
        }
        self.poll_now()
    }

    #[inline]
    fn poll_now(&self) -> Result<Option<DegradedReason>> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(AllFpError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Some(DegradedReason::DeadlineExpired));
        }
        Ok(None)
    }

    /// Unconditional poll, placed immediately before each composition —
    /// the most expensive single step in the search. Pop-granularity
    /// polling alone lets one heavy expansion (hundreds of compounds on
    /// a dense node over a long interval) overshoot the deadline by the
    /// full expansion cost; this bounds the overshoot to roughly one
    /// compound. No-op (not even a clock read) when neither a deadline
    /// nor a cancel token is set.
    #[inline]
    fn poll_compound(&self) -> Result<Option<DegradedReason>> {
        if self.cancel.is_none() && self.deadline.is_none() {
            return Ok(None);
        }
        self.poll_now()
    }
}

/// Merge target label `item` into the border.
fn merge<X>(
    border: &mut Option<Envelope<usize>>,
    labels: &mut [Label<X>],
    item: usize,
    scratch: &mut PwlScratch,
) -> Result<()> {
    match border {
        None => *border = Some(Envelope::new(labels[item].travel.share(), item)),
        Some(b) => b.merge_min_with(scratch, &labels[item].travel, item)?,
    }
    Ok(())
}

/// Run the search over a clean `frontier`: singleFP stops at the first
/// popped target label (§4.5); allFP runs to the termination rule
/// (§4.6); a budget that trips first ends it early, and under
/// [`QueryMode::AllFpOrDegraded`] the target labels still queued are
/// salvaged into the border. `Ok(None)`: the graph handed the query
/// back.
pub fn run<E: Expand>(
    exp: &mut E,
    frontier: &mut Frontier<E::Extra>,
    query: &QuerySpec,
    mode: QueryMode,
    engine_cap: usize,
    cancel: Option<&CancelToken>,
) -> Result<Option<Run>> {
    let mut watch = Watch::new(query, engine_cap, cancel);
    let Frontier { labels, heap } = frontier;
    let mut stats = QueryStats::default();
    let mut seq = 0u64;
    let cap = exp.cap();

    // Lower border over identified target labels. `border_max` mirrors
    // `border.max_value()` so the per-pop and per-hop pruning checks
    // are O(1) instead of an O(pieces) envelope scan.
    let mut border: Option<Envelope<usize>> = None;
    let mut border_max = f64::INFINITY;
    // `labels.len()` at the last border merge: exactly the labels below
    // it were last tested against an older (higher) border.
    let mut border_seen = 0usize;
    let mut single: Option<usize> = None;
    let mut trip: Option<DegradedReason> = None;

    // Seed: the zero-length path at the source.
    let (est, extra) = exp.seed()?;
    let travel = Pwl::constant(query.interval, 0.0)?;
    let travel_min = travel.min_value();
    labels.push(Label {
        parent: NONE,
        next_at_node: NONE,
        node: query.source,
        travel_min,
        travel: travel.into(),
        extra,
    });
    heap.push(QueueEntry {
        key: travel_min + est,
        tie: seq,
        item: 0,
    });
    seq += 1;
    stats.pushed += 1;

    'search: while let Some(entry) = heap.pop() {
        // Termination (§4.6): the next candidate can no longer beat the
        // border anywhere.
        if border_max.is_finite() && pwl::approx_le(border_max, entry.key) {
            break;
        }
        let item = entry.item;

        if labels[item].node == query.target {
            // Identified a target label. Its function is promoted to
            // shared storage: the arena and the border hold one `Pwl`.
            exp.reached(labels, item);
            if mode == QueryMode::SingleFp {
                single = Some(item);
                break;
            }
            stats.border_merges += 1;
            merge(&mut border, labels, item, exp.scratch())?;
            border_max = border.as_ref().map_or(f64::INFINITY, Envelope::max_value);
            border_seen = labels.len();
            continue;
        }

        // Budget checks sit *after* target handling: merging an
        // already-popped target label costs one envelope merge and only
        // improves the (possibly degraded) answer. Expansion — the
        // expensive part — is what the caps meter.
        if let Some(reason) = watch.poll()? {
            trip = Some(reason);
            break 'search;
        }
        // Pointwise border rule (DESIGN.md §7), re-run against a border
        // that fell since this label was pushed. A label it kills was
        // polled above but is no expansion.
        let label = &labels[item];
        if item < border_seen
            && border
                .as_ref()
                .is_some_and(|b| label.travel.dominated_by_offset(exp.est(label), b.as_pwl()))
        {
            stats.pruned_by_border += 1;
            continue;
        }
        if stats.expanded_paths >= watch.max_expansions {
            trip = Some(DegradedReason::ExpansionsExhausted);
            break 'search;
        }

        stats.expanded_paths += 1;
        let n_hops = exp.expand(labels, item, border.as_ref().map(Envelope::as_pwl))?;
        // The leaving-time interval at the head (the paper's Figure 4
        // step) is a property of the label, not the hop.
        let arrivals = Arrivals::of(&labels[item].travel)?;
        for i in 0..n_hops {
            let Some(hop) = exp.hop(labels, item, i, &mut stats)? else {
                continue;
            };

            // Early scalar bound, before the expensive composition: the
            // extended label's function is everywhere ≥ the parent's
            // minimum plus the hop's lower bound, so if even that best
            // case cannot beat the border anywhere — or is definitely
            // above the cap — skip the composition. Conservative: every
            // label it kills, the exact tests below would kill too.
            let optimistic = labels[item].travel_min + hop.lb + hop.est;
            if border_max.is_finite() && pwl::approx_le(border_max, optimistic)
                || cap.is_finite() && pwl::definitely_lt(cap, optimistic)
            {
                stats.pruned_by_border += 1;
                continue;
            }
            let pwl_border = border.as_ref().map(Envelope::as_pwl);
            if exp.gate(labels, item, &hop, &arrivals, pwl_border)? {
                stats.pruned_by_border += 1;
                continue;
            }

            if let Some(reason) = watch.poll_compound()? {
                trip = Some(reason);
                break 'search;
            }
            let Some(travel) = exp.compose(labels, item, &hop, &arrivals, &mut stats)? else {
                if let Some(b) = border {
                    b.recycle_into(exp.scratch());
                }
                return Ok(None);
            };
            let n = travel.n_pieces();
            stats.pieces_total += n as u64;
            stats.pieces_max = stats.pieces_max.max(n as u64);
            stats.bytes_allocated += (8 * (n + 1) + 16 * n) as u64;
            let travel_min = travel.min_value();
            let f_min = travel_min + hop.est;

            // Border bound, O(1) case: dead if even the label's minimum
            // cannot get under the border's maximum, or is definitely
            // above the cap.
            if cap.is_finite() && pwl::definitely_lt(cap, f_min)
                || border.is_some() && pwl::approx_le(border_max, f_min)
            {
                stats.pruned_by_border += 1;
                exp.scratch().recycle(travel);
                continue;
            }

            // Dominance: scan the labels the graph files beside this
            // one, oldest first. It runs before the live-instant key's
            // walk: the survivors of the two tests are the same set in
            // either order, and a dominated label then costs no walk.
            let (scanned, filed) = exp.buckets(&hop);
            let covered = |bucket: &Bucket| {
                let mut l = bucket.head;
                while l != NONE && !travel.dominated_by_offset(0.0, &labels[l as usize].travel) {
                    l = labels[l as usize].next_at_node;
                }
                l != NONE
            };
            if scanned.iter().any(covered) {
                stats.pruned_dominated += 1;
                exp.scratch().recycle(travel);
                continue;
            }

            // The pointwise border rule: dead if no completion can get
            // under the border at any instant — `T(l) + est ≥
            // border(l)` for all `l`. A survivor is keyed by its best
            // `T(l) + est` over the instants where it still beats the
            // border (the live-instant key, DESIGN.md §7); one walk
            // decides both.
            let key = match &border {
                None => Some(f_min),
                Some(b) => travel.live_min(hop.est, b.as_pwl()).map(|k| k.max(f_min)),
            };
            let Some(key) = key else {
                stats.pruned_by_border += 1;
                exp.scratch().recycle(travel);
                continue;
            };

            let idx = index32(labels.len(), "label arena outgrew u32 indices")?;
            labels.push(Label {
                // Arena indices passed this same check when pushed.
                parent: item as u32,
                next_at_node: NONE,
                node: hop.to,
                travel_min,
                travel: travel.into(),
                extra: hop.extra,
            });
            if let Some(bucket) = filed {
                // Append: the scan order above is push order.
                match std::mem::replace(&mut bucket.tail, idx) {
                    NONE => bucket.head = idx,
                    tail => labels[tail as usize].next_at_node = idx,
                }
            }
            heap.push(QueueEntry {
                key,
                tie: seq,
                item: idx as usize,
            });
            seq += 1;
            stats.pushed += 1;
        }
    }

    if trip.is_some() && mode == QueryMode::AllFpOrDegraded {
        // Salvage: target labels still *queued* (A* pops them only after
        // every optimistic incomplete label is exhausted, i.e. at the
        // very end) merge into the border with envelope merges only — no
        // composition work, so the overrun past the budget is small and
        // bounded. Merged best-first for deterministic tie-breaks.
        while let Some(e) = heap.pop() {
            if labels[e.item].node != query.target {
                continue;
            }
            exp.reached(labels, e.item);
            stats.border_merges += 1;
            merge(&mut border, labels, e.item, exp.scratch())?;
        }
    }
    Ok(Some(Run {
        border,
        single,
        trip,
        stats,
    }))
}
