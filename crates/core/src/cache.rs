//! Per-edge travel-time function cache.
//!
//! `travel_time_fn` derives an edge's piecewise-linear travel-time
//! function from its raw piecewise-constant speed profile — an exact
//! but relatively expensive construction (cumulative-distance
//! integration, inversion, composition). The seed engine re-ran it for
//! **every path expansion**, even though the function it produces is
//! fully determined by `(speed pattern, day category, edge length)`
//! and speed profiles are periodic with the 24-hour day.
//!
//! [`TravelFnCache`] exploits both facts, the same way scalable
//! time-dependent engines precompute per-edge travel-time functions
//! (Strasser/Wagner/Zeitz; Nannicini et al.): the first request for a
//! key computes the function **once over a full period** (plus enough
//! lookahead to cover trips that cross midnight), and every subsequent
//! request is served by *restricting* that stored function to the
//! requested leaving interval — shifted by whole periods when the
//! interval lives in a later day.
//!
//! Answers are unchanged: a travel-time function under a periodic
//! profile satisfies `T(l + 1440) = T(l)`, so the restriction of the
//! full-period function to any interval equals the function
//! `travel_time_fn` would have built for that interval directly (up to
//! float rounding well inside `pwl::EPS` — the equivalence golden test
//! in `tests/equivalence.rs` checks this end to end).
//!
//! A stored function is a [`PackedPwl`]: its breakpoints, then its
//! pieces, in one reference-counted allocation that every session
//! shares. The compound reads it in place ([`CacheSession::extend`]),
//! reaching the knots from the map entry in one load where an
//! `Arc<Pwl>` took two; the rare lookup the window cannot serve unpacks
//! it into pooled buffers first.
//!
//! # Concurrency
//!
//! The cache is shared across queries, and across threads wherever a
//! caller answers queries on more than one. It is organised in two
//! levels:
//!
//! * **Shared store.** One `RwLock<HashMap>`: read locks never exclude
//!   each other, and a session reaches the store only on an L1 miss.
//! * **Session L1 ([`CacheSession`]).** Every lookup goes through
//!   a session ([`CacheSession::travel_fn`] is the one lookup, and
//!   [`CacheSession::extend`] — lookup and compound in one, the step
//!   the searches take — composes against the L1's entry in place):
//!   each session, across all the queries it answers, holds a private
//!   lock-free map of recently used full-period functions.
//!   Steady-state lookups are served from the L1 without taking any
//!   lock. This is *exact*, not approximate: the shared store's values
//!   are immutable full-period functions keyed by everything that
//!   determines them, so an L1 copy can never go stale. The tier is
//!   kept because it was measured, with a query at ~1 000 lookups:
//!   sending every lookup straight to the shared store made two
//!   threads over the repo benchmark's 320 `rush_mem` pairs 7 % slower
//!   in 16 of 16 alternating pairs (recorded in CHANGES.md) — a read
//!   lock and a store probe per candidate edge cost more than the
//!   private map does.
//!
//! Hit/miss counters are cache-wide atomics aggregated across
//! sessions: sessions tally locally and flush on drop, so the
//! steady-state lookup path touches no shared cache line either. The
//! counters use `Ordering::Relaxed` — they are monotonic event counts
//! with no ordering obligations to other memory; readers that need a
//! consistent total (the tests, the bench report) read after the
//! querying threads have been joined, and the join edge provides the
//! happens-before.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

use pwl::compose::Arrivals;
use pwl::time::MINUTES_PER_DAY;
use pwl::{compose_travel_into, compose_travel_window_into, Interval, PackedPwl, Pwl, PwlScratch};
use roadnet::PatternId;
use traffic::travel::travel_time_fn;
use traffic::{DayCategory, SpeedProfile};

use crate::engine::SearchWorkspace;
use crate::Result;

/// Entries a [`CacheSession`] L1 holds before it resets itself.
///
/// Distances key the cache by bit pattern, and generated networks
/// perturb edge lengths individually — the key space is close to *one
/// key per edge*, not per `(pattern, category)` pair. The bound must
/// therefore sit above the edge count of a metro-scale network, or the
/// L1 thrashes (clear + reinsert + shared-store round trip) in the
/// middle of every query. An entry is a 16-byte key and a 16-byte
/// [`PackedPwl`] handle, so even full this is ~2 MB per worker; the
/// reset stays as a backstop for truly unbounded key streams.
const L1_CAPACITY: usize = 65_536;

/// Cache key: everything that determines an edge travel-time function.
///
/// Distance is keyed by its bit pattern — edges with the same length
/// (grid networks have many) share one entry; NaN cannot occur because
/// `travel_time_fn` rejects non-finite distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    pattern: PatternId,
    category: DayCategory,
    distance_bits: u64,
}

/// Multiply-xor hasher for the small fixed-width [`Key`]: the L1 is
/// probed once per candidate edge, where SipHash's per-hash setup cost
/// is most of a lookup. Not DoS-resistant — fine for keys derived from
/// the network's own pattern ids and edge lengths, not external input.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(5);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
}

/// `BuildHasher` for [`KeyHasher`]-keyed maps.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHashBuilder;

impl BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

/// The cache's map type: [`Key`]-keyed, cheaply hashed.
type KeyMap<V> = HashMap<Key, V, KeyHashBuilder>;

/// Retired per-worker state — a warm L1, a warm scratch pool and the
/// flat search's workspace — parked between sessions.
///
/// Reviving it is exact for the same reason the L1 itself is: entries
/// are immutable full-period functions fully determined by their key,
/// [`PwlScratch`] carries no state between calls (its contract), and
/// the workspace is cleaned every time it is checked out, so a revived
/// session differs from a fresh one only in how little it allocates.
#[derive(Default)]
struct SessionState {
    l1: KeyMap<PackedPwl>,
    scratch: PwlScratch,
    workspace: SearchWorkspace,
}

/// Retired session states kept for revival; beyond this they are
/// dropped. A single-threaded caller parks one; the bound only caps
/// what many sessions open at once can leave behind. Idle states are
/// bounded (L1 entries are shared handles, scratch pools cap themselves, a
/// workspace is 4 B per network node plus arenas it shrinks when idle),
/// and only as many park here as sessions were ever open at once.
const RETIRED_CAP: usize = 32;

/// Engine-wide cache of full-period edge travel-time functions.
pub struct TravelFnCache {
    enabled: bool,
    store: RwLock<KeyMap<PackedPwl>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserted: AtomicU64,
    retired_entries: AtomicU64,
    /// Warm state of closed sessions, revived by [`Self::session`] so
    /// the one-shot query APIs (which open a session per call) keep
    /// their L1 and scratch pool warm across queries.
    retired: Mutex<Vec<SessionState>>,
}

impl std::fmt::Debug for TravelFnCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TravelFnCache")
            .field("enabled", &self.enabled)
            .field("entries", &self.len())
            .finish_non_exhaustive()
    }
}

/// A snapshot of the cache's lifetime counters.
///
/// Counters are `Ordering::Relaxed` atomics: individually exact and
/// monotonic, but a snapshot taken while querying threads are still
/// running may observe one counter ahead of the other. Snapshots taken
/// after those threads have been joined (how every test and report reads
/// them) are exact totals — the join provides the happens-before edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests served from a stored full-period function (shared
    /// store or a session L1).
    pub hits: u64,
    /// Requests that had to build the full-period function first.
    pub misses: u64,
    /// Entries actually inserted into the shared store (≤ `misses`:
    /// racing builders both count a miss but only the first inserts,
    /// and a disabled cache never inserts).
    pub inserted: u64,
    /// Entries flushed by [`TravelFnCache::retire_patterns`] when the
    /// epoch layer proved their pattern id unreferenced by every live
    /// network version. The reconciliation identity
    /// `resident == inserted − retired` holds at every quiescent
    /// point, across any number of epoch swaps.
    pub retired: u64,
}

impl CacheCounters {
    /// Entries the identity says must be resident right now.
    pub fn expected_resident(&self) -> u64 {
        self.inserted - self.retired
    }
}

impl std::ops::Sub for CacheCounters {
    type Output = CacheCounters;

    /// Per-epoch counter delta: `end − start` of two snapshots of the
    /// same monotone counters (the per-epoch reconciliation the epoch
    /// tests pin). Saturating, so a misordered pair cannot panic.
    fn sub(self, rhs: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            inserted: self.inserted.saturating_sub(rhs.inserted),
            retired: self.retired.saturating_sub(rhs.retired),
        }
    }
}

impl TravelFnCache {
    /// An active cache.
    pub fn new() -> Self {
        TravelFnCache {
            enabled: true,
            store: RwLock::new(KeyMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            retired_entries: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// A disabled cache: every request recomputes from the profile,
    /// byte-for-byte the seed engine's behaviour. The equivalence and
    /// engine tests build their uncached reference engine on it, through
    /// `Engine::with_shared(.., Arc::new(TravelFnCache::disabled()), ..)`.
    pub fn disabled() -> Self {
        TravelFnCache {
            enabled: false,
            ..TravelFnCache::new()
        }
    }

    /// Is the cache serving stored functions?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Lifetime hit/miss counters (shared across queries and threads).
    ///
    /// Includes every lookup made through live [`CacheSession`]s that
    /// have already flushed (sessions flush when dropped).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            retired: self.retired_entries.load(Ordering::Relaxed),
        }
    }

    /// Flush every stored entry whose pattern id `retire` selects —
    /// the epoch layer calls this with the set of pattern ids no live
    /// network version references any more (the append-only pattern
    /// table means entries can never be *stale*, only *unreachable*;
    /// this reclaims their memory and keeps the resident-entry
    /// identity `len == inserted − retired` exact across epochs).
    /// Parked session L1s are purged too; live sessions may briefly
    /// hold handles to retired functions, which is harmless — their
    /// keys can never be requested again.
    ///
    /// Returns the number of shared-store entries flushed.
    pub fn retire_patterns(&self, retire: impl Fn(PatternId) -> bool) -> u64 {
        let flushed = {
            let mut map = write_lock(&self.store);
            let before = map.len();
            map.retain(|k, _| !retire(k.pattern));
            (before - map.len()) as u64
        };
        self.retired_entries.fetch_add(flushed, Ordering::Relaxed);
        for state in lock_retired(&self.retired).iter_mut() {
            state.l1.retain(|k, _| !retire(k.pattern));
        }
        flushed
    }

    /// Entries in the shared store (diagnostics / tests).
    pub fn len(&self) -> usize {
        read_lock(&self.store).len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a session: a private L1 over this cache whose
    /// steady-state lookups take no lock. Counters tallied by the
    /// session are flushed into the cache-wide totals when the session
    /// drops.
    ///
    /// Sessions are *revived*, not built: a closing session parks its
    /// L1 and scratch pool here, and the next `session()` call picks
    /// them up warm. The one-shot query APIs open a session per query,
    /// so without revival every serial query would rebuild its L1 from
    /// the shared store and re-grow its buffer pool from nothing.
    pub fn session(&self) -> CacheSession<'_> {
        let state = lock_retired(&self.retired).pop().unwrap_or_default();
        CacheSession {
            cache: self,
            state,
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch (or build) the full-period function for `key` from the
    /// shared store. Returns the function and whether it was already
    /// present. Does **not** touch the hit/miss counters — callers
    /// tally.
    fn full_fn(
        &self,
        key: Key,
        profile: &SpeedProfile,
        distance: f64,
    ) -> Result<(PackedPwl, bool)> {
        // Take the read guard in its own statement so it is dropped
        // before the miss path asks for the write lock (a match on the
        // guarded lookup would keep it alive across the whole match and
        // self-deadlock).
        let cached = read_lock(&self.store).get(&key).cloned();
        match cached {
            Some(f) => Ok((f, true)),
            None => {
                // Compute outside the write lock; a racing thread doing
                // the same work is harmless (first insert wins, values
                // are identical by construction).
                let built = PackedPwl::from(&full_period_fn(profile, distance)?);
                let mut map = write_lock(&self.store);
                let entry = map.entry(key).or_insert_with(|| {
                    self.inserted.fetch_add(1, Ordering::Relaxed);
                    built
                });
                Ok((entry.clone(), false))
            }
        }
    }
}

impl Default for TravelFnCache {
    fn default() -> Self {
        TravelFnCache::new()
    }
}

/// A private view of a [`TravelFnCache`]: a map of recently used
/// full-period functions in front of the shared store.
///
/// L1 hits take **no lock**. The L1 is exact under
/// the periodic speed model: shared-store values are immutable and
/// fully determined by the key, so a privately held handle can never
/// disagree with the store. Hit/miss tallies accumulate locally and
/// flush into the cache-wide counters on drop.
///
/// The session also owns the worker's [`PwlScratch`] — the buffer pool
/// all pooled PWL kernels on this worker draw from — and the flat
/// search's workspace: the session already lives exactly as long as a
/// worker, so both stay warm across every query the worker processes.
/// When the session drops, L1, scratch and workspace park in the
/// cache's retired pool for the next session to revive.
pub struct CacheSession<'c> {
    cache: &'c TravelFnCache,
    state: SessionState,
    hits: u64,
    misses: u64,
}

impl CacheSession<'_> {
    /// The travel-time function for traversing `distance` miles under
    /// `profile`, for leaving instants in `leaving`, and whether the
    /// request was a cache hit. Lock-free on L1 hits; with the cache
    /// disabled, computes directly and reports a miss. Intervals the
    /// periodic view cannot serve (degenerate, wider than a day,
    /// numerically hairline at the seam) fall back to the direct
    /// construction — rare and still exact.
    pub fn travel_fn(
        &mut self,
        pattern: PatternId,
        category: DayCategory,
        profile: &SpeedProfile,
        distance: f64,
        leaving: &Interval,
    ) -> Result<(Pwl, bool)> {
        if !self.cache.enabled {
            self.misses += 1;
            return Ok((travel_time_fn(profile, distance, leaving)?, false));
        }
        let key = Key {
            pattern,
            category,
            distance_bits: distance.to_bits(),
        };
        let (full, hit) = match self.state.l1.get(&key) {
            Some(f) => (f.clone(), true),
            None => {
                let (f, hit) = self.cache.full_fn(key, profile, distance)?;
                if self.state.l1.len() >= L1_CAPACITY {
                    self.state.l1.clear();
                }
                self.state.l1.insert(key, f.clone());
                (f, hit)
            }
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let scratch = &mut self.state.scratch;
        let day = full.unpack_with(scratch);
        let restricted = restrict_periodic_with(scratch, &day, leaving);
        scratch.recycle(day);
        match restricted {
            Some(f) => Ok((f, hit)),
            None => Ok((travel_time_fn(profile, distance, leaving)?, hit)),
        }
    }

    /// Extend the path whose travel function is `t1` by one edge: the
    /// compound of `t1` with the edge's travel function on `arrivals`
    /// (minted from `t1`), and whether the lookup was a cache hit —
    /// bit for bit and tally for tally what [`Self::travel_fn`] on
    /// `arrivals.interval()` followed by
    /// [`compose_travel_into`](pwl::compose_travel_into) gives.
    ///
    /// A warm lookup never builds the edge's function: the L1 is
    /// probed by reference (no handle is cloned, there being nothing to
    /// keep alive past this call) and the stored full-period function
    /// is composed against through a window
    /// ([`compose_travel_window_into`]). What that declines — an
    /// arrival interval past midnight or in a later day, a degenerate
    /// one — and the first lookup of a key take the materialising
    /// pair.
    pub fn extend(
        &mut self,
        pattern: PatternId,
        category: DayCategory,
        profile: &SpeedProfile,
        distance: f64,
        arrivals: &Arrivals,
        t1: &Pwl,
    ) -> Result<(Pwl, bool)> {
        let key = Key {
            pattern,
            category,
            distance_bits: distance.to_bits(),
        };
        // A whole day is not served from the stored function (see
        // `restrict_periodic_with`), so not through a window either.
        if self.cache.enabled && arrivals.interval().len() < MINUTES_PER_DAY {
            if let Some(full) = self.state.l1.get(&key) {
                let scratch = &mut self.state.scratch;
                if let Some(t) = compose_travel_window_into(scratch, t1, full, arrivals)? {
                    self.hits += 1;
                    return Ok((t, true));
                }
            }
        }
        let (t_edge, hit) =
            self.travel_fn(pattern, category, profile, distance, arrivals.interval())?;
        let t = compose_travel_into(&mut self.state.scratch, t1, &t_edge)?;
        self.state.scratch.recycle(t_edge);
        Ok((t, hit))
    }

    /// The worker's scratch pool, for pooled PWL kernels outside the
    /// cache itself (composition, envelope merges, recycling).
    pub fn scratch_mut(&mut self) -> &mut PwlScratch {
        &mut self.state.scratch
    }

    /// Check the [`SearchWorkspace`] out for one search over a source
    /// of `n_nodes` nodes. It is cleaned here, so nothing the search
    /// before left survives; one that unwound took it along.
    pub(crate) fn with_workspace<R>(
        &mut self,
        n_nodes: usize,
        search: impl FnOnce(&mut SearchWorkspace, &mut Self) -> R,
    ) -> R {
        let mut ws = std::mem::take(&mut self.state.workspace);
        ws.reset(n_nodes, &mut self.state.scratch);
        let yielded = search(&mut ws, self);
        self.state.workspace = ws;
        yielded
    }

    /// Lookups tallied by this session so far (hits, misses) — not yet
    /// visible in [`TravelFnCache::counters`] until the session drops.
    pub fn tallies(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Drop for CacheSession<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.cache.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
        // Park the warm state for the next session to revive.
        self.state.workspace.park(&mut self.state.scratch);
        let state = std::mem::take(&mut self.state);
        let mut retired = lock_retired(&self.cache.retired);
        if retired.len() < RETIRED_CAP {
            retired.push(state);
        }
    }
}

/// Lock the retired-state pool, recovering from poison: states are
/// pushed and popped whole, so the vector is consistent even if a
/// panicking query abandoned the lock mid-call.
fn lock_retired(l: &Mutex<Vec<SessionState>>) -> MutexGuard<'_, Vec<SessionState>> {
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock the shared store, recovering from poison: entries are
/// immutable-once-inserted shared handles and insertions happen fully inside
/// one `entry().or_insert_with` call, so a map abandoned by a panicked
/// thread is always in a consistent state. Recovery keeps one
/// panicking query (caught by its caller) from wedging the cache for
/// every later query.
fn read_lock<'l, K, V, H>(
    l: &'l RwLock<HashMap<K, V, H>>,
) -> std::sync::RwLockReadGuard<'l, HashMap<K, V, H>> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock the shared store with the same poison recovery as
/// [`read_lock`].
fn write_lock<'l, K, V, H>(
    l: &'l RwLock<HashMap<K, V, H>>,
) -> std::sync::RwLockWriteGuard<'l, HashMap<K, V, H>> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Build the edge's travel-time function over one full day.
///
/// The domain is exactly `[0, 1440]`; `travel_time_fn` internally
/// extends its integration window far enough past the end of the day
/// to cover any arrival (slack `distance / v_min`), so the function is
/// exact for every leaving instant in the day even when the traversal
/// crosses midnight.
fn full_period_fn(profile: &SpeedProfile, distance: f64) -> Result<Pwl> {
    let day = Interval::of(0.0, MINUTES_PER_DAY);
    Ok(travel_time_fn(profile, distance, &day)?)
}

/// Restrict the full-period function `full` (domain `[0, 1440]`,
/// periodic semantics) to an arbitrary `leaving` interval, exploiting
/// `T(l + 1440) = T(l)`.
///
/// Returns `None` for requests better served by direct construction:
/// degenerate or near-degenerate intervals and intervals spanning a
/// full day or more.
fn restrict_periodic(full: &Pwl, leaving: &Interval) -> Option<Pwl> {
    if leaving.is_degenerate() || leaving.len() >= MINUTES_PER_DAY {
        return None;
    }
    let period = (leaving.lo() / MINUTES_PER_DAY).floor();
    let shift = period * MINUTES_PER_DAY;
    let lo = leaving.lo() - shift;
    let hi = leaving.hi() - shift;
    if hi <= MINUTES_PER_DAY {
        // Entirely within one period: restrict and shift back.
        let r = full.restrict(&Interval::of(lo, hi)).ok()?;
        return Some(shifted(r, shift));
    }
    // Wraps the day boundary: splice [lo, 1440] with [0, hi - 1440]
    // moved one period later. T(0) == T(1440) under periodicity, so the
    // seam is continuous.
    let left = full.restrict(&Interval::of(lo, MINUTES_PER_DAY)).ok()?;
    let right = full
        .restrict(&Interval::of(0.0, hi - MINUTES_PER_DAY))
        .ok()?;
    let glued = left.concat(&shifted(right, MINUTES_PER_DAY)).ok()?;
    Some(shifted(glued, shift))
}

/// `shift_x` that keeps zero shifts exact (no `+ 0.0` rounding noise).
fn shifted(f: Pwl, dx: f64) -> Pwl {
    if dx == 0.0 {
        f
    } else {
        f.shift_x(dx)
    }
}

/// Pooled twin of [`restrict_periodic`]: the common within-day case
/// builds its restriction into buffers recycled through `scratch` and
/// shifts in place — bit-identical output, no steady-state allocation.
/// Wrap-around requests (interval straddles the day seam) are rare and
/// fall back to the allocating splice.
fn restrict_periodic_with(scratch: &mut PwlScratch, full: &Pwl, leaving: &Interval) -> Option<Pwl> {
    if leaving.is_degenerate() || leaving.len() >= MINUTES_PER_DAY {
        return None;
    }
    let period = (leaving.lo() / MINUTES_PER_DAY).floor();
    let shift = period * MINUTES_PER_DAY;
    let lo = leaving.lo() - shift;
    let hi = leaving.hi() - shift;
    if hi <= MINUTES_PER_DAY {
        let mut r = full.restrict_with(scratch, &Interval::of(lo, hi)).ok()?;
        r.shift_x_in_place(shift);
        return Some(r);
    }
    restrict_periodic(full, leaving)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::time::hm;
    use pwl::{approx_eq, Interval};

    fn rush_profile() -> SpeedProfile {
        SpeedProfile::with_rush_window(1.0, 0.4, hm(7, 0), hm(9, 30)).unwrap()
    }

    fn direct(profile: &SpeedProfile, d: f64, iv: &Interval) -> Pwl {
        travel_time_fn(profile, d, iv).unwrap()
    }

    #[test]
    fn cached_restriction_matches_direct_within_day() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        let iv = Interval::of(hm(6, 30), hm(8, 45));
        let (cached, hit0) = cache
            .session()
            .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 3.0, &iv)
            .unwrap();
        assert!(!hit0, "first request must miss");
        let want = direct(&profile, 3.0, &iv);
        assert!(cached.domain().approx_eq(&want.domain()));
        for k in 0..=96 {
            let l = iv.lo() + iv.len() * (k as f64) / 96.0;
            assert!(
                approx_eq(cached.eval(l), want.eval(l)),
                "l={l}: {} vs {}",
                cached.eval(l),
                want.eval(l)
            );
        }
        let (_, hit1) = cache
            .session()
            .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 3.0, &iv)
            .unwrap();
        assert!(hit1, "second request must hit");
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                inserted: 1,
                retired: 0
            }
        );
    }

    #[test]
    fn cached_restriction_matches_direct_across_midnight() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        // interval straddling midnight, one day out
        let iv = Interval::of(hm(23, 10) + MINUTES_PER_DAY, hm(25, 40) + MINUTES_PER_DAY);
        let (cached, _) = cache
            .session()
            .travel_fn(PatternId(2), DayCategory::WORKDAY, &profile, 5.0, &iv)
            .unwrap();
        let want = direct(&profile, 5.0, &iv);
        for k in 0..=96 {
            let l = iv.lo() + iv.len() * (k as f64) / 96.0;
            assert!(
                approx_eq(cached.eval(l), want.eval(l)),
                "l={l}: {} vs {}",
                cached.eval(l),
                want.eval(l)
            );
        }
    }

    #[test]
    fn keys_distinguish_distance_category_pattern() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        let iv = Interval::of(hm(7, 0), hm(8, 0));
        let p = PatternId(3);
        cache
            .session()
            .travel_fn(p, DayCategory::WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        cache
            .session()
            .travel_fn(p, DayCategory::WORKDAY, &profile, 2.0, &iv)
            .unwrap();
        cache
            .session()
            .travel_fn(p, DayCategory::NON_WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        cache
            .session()
            .travel_fn(PatternId(4), DayCategory::WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 4,
                inserted: 4,
                retired: 0
            }
        );
        assert_eq!(cache.len(), 4);
        cache
            .session()
            .travel_fn(p, DayCategory::WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 4,
                inserted: 4,
                retired: 0
            }
        );
    }

    #[test]
    fn disabled_cache_always_misses_and_matches_direct() {
        let cache = TravelFnCache::disabled();
        assert!(!cache.is_enabled());
        let profile = rush_profile();
        let iv = Interval::of(hm(6, 0), hm(10, 0));
        for _ in 0..3 {
            let (f, hit) = cache
                .session()
                .travel_fn(PatternId(9), DayCategory::WORKDAY, &profile, 2.0, &iv)
                .unwrap();
            assert!(!hit);
            let want = direct(&profile, 2.0, &iv);
            for l in [hm(6, 0), hm(7, 30), hm(9, 59)] {
                assert!(approx_eq(f.eval(l), want.eval(l)));
            }
        }
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 3,
                inserted: 0,
                retired: 0
            }
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn degenerate_and_wide_intervals_fall_back() {
        let profile = rush_profile();
        let full = full_period_fn(&profile, 2.0).unwrap();
        assert!(restrict_periodic(&full, &Interval::of(5.0, 5.0)).is_none());
        assert!(restrict_periodic(&full, &Interval::of(0.0, 2.0 * MINUTES_PER_DAY)).is_none());
        // but the cache still serves them via direct construction
        let cache = TravelFnCache::new();
        let (f, _) = cache
            .session()
            .travel_fn(
                PatternId(5),
                DayCategory::WORKDAY,
                &profile,
                2.0,
                &Interval::of(5.0, 5.0),
            )
            .unwrap();
        assert!(approx_eq(
            f.eval(5.0),
            travel_time_fn(&profile, 2.0, &Interval::of(5.0, 5.0))
                .unwrap()
                .eval(5.0)
        ));
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(TravelFnCache::new());
        let profile = rush_profile();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let profile = profile.clone();
                scope.spawn(move || {
                    for k in 0..8 {
                        let iv = Interval::of(hm(6, k), hm(9, k));
                        cache
                            .session()
                            .travel_fn(PatternId(7), DayCategory::WORKDAY, &profile, 2.5, &iv)
                            .unwrap();
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 32);
        assert!(c.misses >= 1);
        assert!(c.hits >= 28, "at most one build per racing thread: {c:?}");
    }

    #[test]
    fn session_serves_from_l1_and_flushes_on_drop() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        let iv = Interval::of(hm(6, 30), hm(8, 0));
        {
            let mut session = cache.session();
            let (a, hit0) = session
                .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 3.0, &iv)
                .unwrap();
            assert!(!hit0);
            let (b, hit1) = session
                .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 3.0, &iv)
                .unwrap();
            assert!(hit1, "second request served from the session L1");
            for k in 0..=16 {
                let l = iv.lo() + iv.len() * f64::from(k) / 16.0;
                assert!(approx_eq(a.eval(l), b.eval(l)));
            }
            assert_eq!(session.tallies(), (1, 1));
            // hit/miss tallies not yet flushed (inserts are counted at
            // insert time, not session close)
            assert_eq!(
                cache.counters(),
                CacheCounters {
                    inserted: 1,
                    ..CacheCounters::default()
                }
            );
        }
        // flushed on drop
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                inserted: 1,
                retired: 0
            }
        );
        // a fresh session hits the shared store, not its (empty) L1
        {
            let mut session = cache.session();
            let (_, hit) = session
                .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 3.0, &iv)
                .unwrap();
            assert!(hit);
        }
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 2,
                misses: 1,
                inserted: 1,
                retired: 0
            }
        );
    }

    #[test]
    fn session_matches_direct() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        let mut session = cache.session();
        for (d, lo, len) in [(1.0, 390.0, 90.0), (2.5, 1400.0, 90.0), (0.7, 417.3, 33.3)] {
            let iv = Interval::of(lo, lo + len);
            let (s, _) = session
                .travel_fn(PatternId(2), DayCategory::WORKDAY, &profile, d, &iv)
                .unwrap();
            let want = direct(&profile, d, &iv);
            for k in 0..=32 {
                let l = iv.lo() + iv.len() * f64::from(k) / 32.0;
                assert!(approx_eq(s.eval(l), want.eval(l)), "session at {l}");
            }
        }
    }

    #[test]
    fn disabled_session_always_misses() {
        let cache = TravelFnCache::disabled();
        let profile = rush_profile();
        let iv = Interval::of(hm(6, 0), hm(7, 0));
        {
            let mut session = cache.session();
            for _ in 0..3 {
                let (_, hit) = session
                    .travel_fn(PatternId(1), DayCategory::WORKDAY, &profile, 2.0, &iv)
                    .unwrap();
                assert!(!hit);
            }
        }
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 3,
                inserted: 0,
                retired: 0
            }
        );
    }

    #[test]
    fn extend_tallies_like_travel_fn_and_matches_its_bits() {
        let profile = rush_profile();
        let t1 = Pwl::from_points(&[(hm(6, 50), 6.0), (hm(7, 0), 2.0), (hm(7, 5), 2.0)]).unwrap();
        let arrivals = Arrivals::of(&t1).unwrap();
        let (p, c) = (PatternId(1), DayCategory::WORKDAY);
        let extend = |session: &mut CacheSession<'_>| {
            session.extend(p, c, &profile, 3.0, &arrivals, &t1).unwrap()
        };
        // The two-step form `extend` stands for, on a twin cache.
        let two_step = |session: &mut CacheSession<'_>| {
            let (t_edge, hit) = session
                .travel_fn(p, c, &profile, 3.0, arrivals.interval())
                .unwrap();
            let t = compose_travel_into(session.scratch_mut(), &t1, &t_edge).unwrap();
            (t, hit)
        };
        // Function, verdict and tallies agree lookup by lookup.
        let in_step = |session: &mut CacheSession<'_>, twin: &mut CacheSession<'_>| {
            let got = extend(session);
            assert_eq!(got, two_step(twin));
            assert_eq!(session.tallies(), twin.tallies());
            got.1
        };

        let (cache, twin) = (TravelFnCache::new(), TravelFnCache::new());
        {
            let (mut session, mut twin_session) = (cache.session(), twin.session());
            // cold → miss (the materialising pair), then L1 hits (the
            // window)
            for hit in [false, true, true] {
                assert_eq!(in_step(&mut session, &mut twin_session), hit);
            }
            assert_eq!(session.tallies(), (2, 1));
            // a second open session starts on an empty L1 and finds
            // the shared store: a hit
            assert!(in_step(&mut cache.session(), &mut twin.session()));
        }
        assert_eq!(cache.counters(), twin.counters());
        assert_eq!((cache.counters().hits, cache.counters().misses), (3, 1));

        let (off, twin) = (TravelFnCache::disabled(), TravelFnCache::disabled());
        {
            let (mut session, mut twin_session) = (off.session(), twin.session());
            for _ in 0..3 {
                assert!(!in_step(&mut session, &mut twin_session));
            }
        }
        assert_eq!(off.counters(), twin.counters());
        assert_eq!(off.counters().misses, 3);
        assert!(off.is_empty());
    }

    #[test]
    fn retire_patterns_flushes_only_selected_ids() {
        let cache = TravelFnCache::new();
        let profile = rush_profile();
        let iv = Interval::of(hm(7, 0), hm(8, 0));
        for p in 0..4u16 {
            cache
                .session()
                .travel_fn(PatternId(p), DayCategory::WORKDAY, &profile, 1.0, &iv)
                .unwrap();
        }
        assert_eq!(cache.len(), 4);
        let flushed = cache.retire_patterns(|p| p.0 >= 2);
        assert_eq!(flushed, 2);
        assert_eq!(cache.len(), 2);
        let c = cache.counters();
        assert_eq!(c.retired, 2);
        assert_eq!(c.expected_resident(), cache.len() as u64);
        // surviving ids still hit; retired ids rebuild (fresh insert)
        let (_, hit) = cache
            .session()
            .travel_fn(PatternId(0), DayCategory::WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        assert!(hit);
        let (_, hit) = cache
            .session()
            .travel_fn(PatternId(3), DayCategory::WORKDAY, &profile, 1.0, &iv)
            .unwrap();
        assert!(!hit);
        let c = cache.counters();
        assert_eq!(c.inserted, 5);
        assert_eq!(c.expected_resident(), cache.len() as u64);
    }
}
