//! A sharded LRU buffer pool over a [`BlockStore`].
//!
//! The paper's experiments count page accesses through a buffer; the
//! ablation `A-3` reproduces the CCAM-vs-random placement gap as
//! buffer miss counts at various pool sizes.
//!
//! # Safety
//!
//! This module is 100% safe code, and the crate says
//! `#![forbid(unsafe_code)]`, so the claim is compiler-enforced, not
//! an audit note. The pool is the only place a page is cached: every
//! logical read is one hit or one miss, and a miss copies the page
//! through [`BlockStore::read_page`] into a buffer the pool owns.
//!
//! # The spare buffer
//!
//! Each shard keeps one *spare* page buffer, the last evicted frame's.
//! A miss reads into the spare **before** it evicts anything; only a
//! read that succeeded evicts the LRU victim, whose buffer becomes the
//! next spare. So:
//!
//! * a failed read — a transient fault past its retries, a checksum
//!   mismatch — hands the spare back and costs no resident frame
//!   (`a_failed_read_costs_no_resident_frame`);
//! * a recycled buffer is overwritten whole before any reader sees it,
//!   so no page is ever served another page's bytes
//!   (`recycled_buffers_never_leak_another_pages_bytes`);
//! * the pool allocates, zeroes and frees nothing for a miss on a full
//!   shard: a shard allocates only while it is filling up.
//!
//! # Concurrency
//!
//! The pool is split into up to [`MAX_SHARDS`] independent shards, each
//! a `Mutex<HashMap>` with its own LRU clock and its own slice of the
//! frame budget; a page's shard is a hash of its id. Concurrent
//! readers (the batch query driver running over a disk-backed
//! [`NetworkSource`](roadnet::NetworkSource)) therefore serialize only
//! when they touch the same shard at the same moment, not on every
//! page access the way the old single global mutex forced.
//!
//! Sharding only engages when each shard would hold at least
//! [`MIN_FRAMES_PER_SHARD`] frames. Small pools — everything ablation
//! A-3 sweeps — keep the single global LRU and therefore *bit-identical*
//! hit/miss/eviction sequences to the pre-sharding pool; large pools
//! trade exact global LRU order for per-shard LRU (every logical read
//! is still exactly one hit or one miss, so the accounting stays
//! exact — only the eviction victim choice differs).
//!
//! # Fault handling
//!
//! Every physical read and write the pool issues goes through bounded
//! retry-with-backoff ([`IO_ATTEMPTS`]): transient faults — injected
//! by a [`FaultInjectingStore`](crate::FaultInjectingStore) or an
//! OS-interrupted syscall — are absorbed invisibly (counted in
//! [`IoStats::retries`](crate::IoStats::retries)), while permanent
//! failures such as a checksum mismatch
//! ([`CcamError::Corruption`](crate::CcamError::Corruption)) propagate
//! immediately.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::store::BlockStore;
use crate::Result;

/// Hard cap on the number of shards.
pub const MAX_SHARDS: usize = 16;

/// Attempts per physical page I/O (one initial try plus retries)
/// before a transient fault is surfaced to the caller. Transient
/// faults ([`CcamError::is_transient`](crate::CcamError::is_transient))
/// are retried with exponential backoff and tallied in
/// [`IoStats::retries`](crate::IoStats::retries); permanent failures —
/// corruption above all — are never retried.
pub const IO_ATTEMPTS: usize = 4;

/// A shard must be worth at least this many frames, or the pool stays
/// coarser-grained. Keeps per-shard LRU faithful to global LRU for the
/// small pools the paper's experiments sweep (8–512 frames).
pub const MIN_FRAMES_PER_SHARD: usize = 64;

/// Hit/miss counters (monotonic).
///
/// # Thread-safety contract
///
/// All counters are `Ordering::Relaxed` atomics: each increment is
/// individually exact, but a reader racing live writers may see, e.g.,
/// a hit that its paired logical read hasn't "completed" elsewhere.
/// Invariants like `hits + misses == logical reads issued` therefore
/// hold only for *quiescent* reads — after the accessing threads have
/// been joined (thread join provides the happens-before) or otherwise
/// provably stopped. Every test and experiment reads them that way.
#[derive(Debug, Default)]
pub struct BufferStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferStats {
    /// Logical reads served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Logical reads that had to touch the store.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Frames evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total logical reads.
    pub fn logical_reads(&self) -> u64 {
        self.hits() + self.misses()
    }
}

struct Frame {
    data: Vec<u8>,
    stamp: u64,
    dirty: bool,
}

/// Multiply-xor hasher for the frame map's `u64` page ids: a lookup
/// happens on every logical read, where SipHash's set-up is most of
/// its cost. Not DoS-resistant — page ids come from the store's own
/// record directory, not from outside input.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(5);
    }
}

struct Inner {
    frames: HashMap<u64, Frame, BuildHasherDefault<PageIdHasher>>,
    tick: u64,
    /// The buffer of the last evicted frame, kept for the next page
    /// faulted in so that a miss on a full shard allocates nothing
    /// (empty until the first eviction).
    spare: Vec<u8>,
}

impl Inner {
    /// A page-sized buffer for an incoming page: the spare if there is
    /// one, a fresh allocation otherwise. Its contents are whatever
    /// the last owner left; every caller overwrites all of it.
    fn take_buffer(&mut self, page_size: usize) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.spare);
        buf.resize(page_size, 0);
        buf
    }
}

struct Shard {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// A fixed-capacity sharded LRU page cache.
///
/// Eviction scans the shard for the minimum stamp — O(shard frames),
/// which is fine for the pool sizes the experiments use (tens to a few
/// thousand frames); the asymptotically-clean alternative (linked LRU)
/// is not worth the unsafe code or the extra indirection here.
pub struct BufferPool {
    store: Arc<dyn BlockStore>,
    capacity: usize,
    shards: Vec<Shard>,
    /// `shard = hash(id) >> shard_shift`; 64 means "always shard 0".
    shard_shift: u32,
    /// Counter feeding the seeded retry-backoff jitter stream: it
    /// starts at 0 and advances by one per retry, pool-wide.
    retry_noise: AtomicU64,
    stats: BufferStats,
}

impl BufferPool {
    /// Wrap `store` with a pool of `capacity` frames (min 1), sharded
    /// as finely as [`MIN_FRAMES_PER_SHARD`] allows.
    pub fn new(store: Arc<dyn BlockStore>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut shards = 1usize;
        while shards * 2 <= MAX_SHARDS && capacity / (shards * 2) >= MIN_FRAMES_PER_SHARD {
            shards *= 2;
        }
        Self::with_shards(store, capacity, shards)
    }

    /// Wrap `store` with an explicit shard count (rounded to the next
    /// power of two, capped at [`MAX_SHARDS`] and at `capacity`).
    /// `BufferPool::new` picks this automatically; tests and benchmarks
    /// use the explicit form.
    pub fn with_shards(store: Arc<dyn BlockStore>, capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let n = shards
            .next_power_of_two()
            .clamp(1, MAX_SHARDS)
            .min(capacity.next_power_of_two());
        let shards = (0..n)
            .map(|i| Shard {
                inner: Mutex::new(Inner {
                    frames: HashMap::default(),
                    tick: 0,
                    spare: Vec::new(),
                }),
                // Distribute the budget exactly: base share plus one of
                // the remainder frames for the first `capacity % n`.
                capacity: (capacity / n + usize::from(i < capacity % n)).max(1),
            })
            .collect();
        BufferPool {
            store,
            capacity,
            shards,
            shard_shift: 64 - n.trailing_zeros(),
            retry_noise: AtomicU64::new(0),
            stats: BufferStats::default(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.store
    }

    /// Pool capacity in frames (summed across shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards the pool was split into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn shard_of(&self, id: u64) -> &Shard {
        if self.shard_shift >= 64 {
            return &self.shards[0];
        }
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shard_shift;
        &self.shards[h as usize]
    }

    /// Run one physical I/O, absorbing transient faults with up to
    /// [`IO_ATTEMPTS`]` - 1` retries (exponential backoff, starting at
    /// 20µs, plus seeded jitter of up to half the base delay, drawn
    /// from `retry_noise`). Each retry bumps the store's
    /// `retries` counter; a transient fault that survives every
    /// attempt bumps `exhausted` (the health signal a serving layer's
    /// circuit breaker watches) before surfacing; permanent errors
    /// (corruption, bad page ids) pass straight through.
    fn io_with_retry(&self, mut op: impl FnMut() -> Result<()>) -> Result<()> {
        let mut attempt = 0usize;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt + 1 < IO_ATTEMPTS => {
                    attempt += 1;
                    self.store.io_stats().bump_retry();
                    // Jitter decorrelates concurrent workers: during a
                    // fault storm every pool thread trips its retry
                    // loop at once, and pure `base << attempt` backoff
                    // would march them into the store in lockstep,
                    // re-colliding on every round. The jitter stream
                    // is seeded (SplitMix64 over a shared counter), so
                    // a run's delays are reproducible given the seed
                    // and the retry interleaving.
                    let base = 20u64 << attempt;
                    let n = self.retry_noise.fetch_add(1, Ordering::Relaxed);
                    let jitter = crate::fault::splitmix64(n) % (base / 2 + 1);
                    std::thread::sleep(Duration::from_micros(base + jitter));
                }
                Err(e) => {
                    if e.is_transient() {
                        self.store.io_stats().bump_exhausted();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Run `f` over the contents of page `id`, faulting it in if
    /// needed.
    pub fn with_page<R>(&self, id: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.stamp = tick;
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(f(&frame.data));
        }

        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Read before evicting: a failed read must not cost a resident
        // frame, so the page lands in the spare buffer (the previous
        // victim's), never in the next victim's.
        let mut data = inner.take_buffer(self.store.page_size());
        if let Err(e) = self.io_with_retry(|| self.store.read_page(id, &mut data)) {
            inner.spare = data;
            return Err(e);
        }
        self.evict_if_full(shard.capacity, &mut inner)?;
        let frame = Frame {
            data,
            stamp: tick,
            dirty: false,
        };
        let r = f(&frame.data);
        inner.frames.insert(id, frame);
        Ok(r)
    }

    /// Write `data` to page `id` through the pool (write-back on
    /// eviction or [`BufferPool::flush`]).
    pub fn write_page(&self, id: u64, data: &[u8]) -> Result<()> {
        let shard = self.shard_of(id);
        let mut inner = shard.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.data.copy_from_slice(data);
            frame.stamp = tick;
            frame.dirty = true;
            return Ok(());
        }
        self.evict_if_full(shard.capacity, &mut inner)?;
        inner.frames.insert(
            id,
            Frame {
                data: data.to_vec(),
                stamp: tick,
                dirty: true,
            },
        );
        Ok(())
    }

    /// Write all dirty frames back to the store (transient write
    /// faults absorbed by bounded retry).
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            for (id, frame) in inner.frames.iter_mut() {
                if frame.dirty {
                    self.io_with_retry(|| self.store.write_page(*id, &frame.data))?;
                    frame.dirty = false;
                }
            }
        }
        Ok(())
    }

    /// Drop every cached frame (writing dirty ones back) and reset
    /// nothing else; used between experiment runs for cold-cache
    /// measurements.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        for shard in &self.shards {
            shard.inner.lock().frames.clear();
        }
        Ok(())
    }

    fn evict_if_full(&self, capacity: usize, inner: &mut Inner) -> Result<()> {
        while inner.frames.len() >= capacity {
            // Deterministic victim: oldest stamp, page id as the
            // tie-break. Stamps are unique per shard, so this is
            // exactly the seed pool's pure-LRU choice.
            let Some(victim) = inner
                .frames
                .iter()
                .min_by_key(|(id, f)| (f.stamp, **id))
                .map(|(id, _)| *id)
            else {
                break; // unreachable: len >= capacity >= 1
            };
            let Some(frame) = inner.frames.remove(&victim) else {
                break;
            };
            if frame.dirty {
                // Keep the frame on write-back failure: the data is
                // still only in memory, so losing it silently is worse
                // than reporting a full pool.
                if let Err(e) = self.io_with_retry(|| self.store.write_page(victim, &frame.data)) {
                    inner.frames.insert(victim, frame);
                    return Err(e);
                }
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            inner.spare = frame.data;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn store_with_pages(n: usize, page_size: usize) -> Arc<dyn BlockStore> {
        let s = MemStore::new(page_size);
        for i in 0..n {
            let id = s.allocate().unwrap();
            let mut buf = vec![0u8; page_size];
            buf[0] = i as u8;
            s.write_page(id, &buf).unwrap();
        }
        Arc::new(s)
    }

    #[test]
    fn hits_after_first_read() {
        let pool = BufferPool::new(store_with_pages(4, 64), 4);
        for _ in 0..3 {
            let v = pool.with_page(2, |p| p[0]).unwrap();
            assert_eq!(v, 2);
        }
        assert_eq!(pool.stats().misses(), 1);
        assert_eq!(pool.stats().hits(), 2);
    }

    #[test]
    fn lru_evicts_coldest() {
        let store = store_with_pages(3, 64);
        let pool = BufferPool::new(Arc::clone(&store), 2);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        pool.with_page(0, |_| ()).unwrap(); // 0 is now hottest
        pool.with_page(2, |_| ()).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions(), 1);
        let (reads_before, _) = store.io_stats().snapshot();
        pool.with_page(0, |_| ()).unwrap(); // still cached
        let (reads_after, _) = store.io_stats().snapshot();
        assert_eq!(reads_before, reads_after);
        pool.with_page(1, |_| ()).unwrap(); // faulted back in
        assert_eq!(pool.stats().misses(), 4);
    }

    #[test]
    fn write_back_on_flush_and_evict() {
        let store = store_with_pages(3, 64);
        let pool = BufferPool::new(Arc::clone(&store), 1);
        let mut page = vec![0u8; 64];
        page[5] = 99;
        pool.write_page(0, &page).unwrap();
        // writing another page evicts (and persists) page 0
        pool.write_page(1, &page).unwrap();
        let mut out = vec![0u8; 64];
        store.read_page(0, &mut out).unwrap();
        assert_eq!(out[5], 99);
        // flush persists the remaining dirty frame
        pool.flush().unwrap();
        store.read_page(1, &mut out).unwrap();
        assert_eq!(out[5], 99);
    }

    #[test]
    fn clear_resets_cache_not_counters() {
        let pool = BufferPool::new(store_with_pages(2, 64), 2);
        pool.with_page(0, |_| ()).unwrap();
        pool.clear().unwrap();
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses(), 2);
        assert_eq!(pool.stats().hits(), 0);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let pool = BufferPool::new(store_with_pages(2, 64), 0);
        assert_eq!(pool.capacity(), 1);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions(), 1);
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        let store = store_with_pages(2, 64);
        // below the threshold: single shard, seed-identical behaviour
        assert_eq!(BufferPool::new(Arc::clone(&store), 8).n_shards(), 1);
        assert_eq!(BufferPool::new(Arc::clone(&store), 127).n_shards(), 1);
        assert_eq!(BufferPool::new(Arc::clone(&store), 128).n_shards(), 2);
        assert_eq!(BufferPool::new(Arc::clone(&store), 512).n_shards(), 8);
        assert_eq!(BufferPool::new(Arc::clone(&store), 4096).n_shards(), 16);
        // explicit shard count is honoured (rounded to a power of two)
        let p = BufferPool::with_shards(Arc::clone(&store), 64, 5);
        assert_eq!(p.n_shards(), 8);
        // capacity is exactly preserved across shards
        let p = BufferPool::with_shards(store, 67, 4);
        assert_eq!(p.n_shards(), 4);
        assert_eq!(p.capacity(), 67);
    }

    #[test]
    fn sharded_pool_serves_correct_data_and_exact_accounting() {
        let n = 64;
        let pool = BufferPool::with_shards(store_with_pages(n, 64), 32, 8);
        assert_eq!(pool.n_shards(), 8);
        // two passes over every page: second pass may hit or miss
        // depending on per-shard eviction, but accounting stays exact
        let mut logical = 0u64;
        for _ in 0..2 {
            for id in 0..n as u64 {
                let v = pool.with_page(id, |p| p[0]).unwrap();
                assert_eq!(v, id as u8);
                logical += 1;
            }
        }
        let s = pool.stats();
        assert_eq!(s.hits() + s.misses(), logical);
        assert_eq!(s.logical_reads(), logical);
    }

    #[test]
    fn concurrent_readers_exact_accounting() {
        // Many threads hammer a sharded pool with interleaved page
        // sets; after joining, every read must have returned the right
        // bytes and hits + misses must equal the logical reads issued.
        let n_pages = 64usize;
        let n_threads = 8usize;
        let reads_per_thread = 500usize;
        let pool = Arc::new(BufferPool::with_shards(
            store_with_pages(n_pages, 64),
            16,
            8,
        ));
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    // deterministic per-thread LCG walk over the pages
                    let mut x = t as u64 + 1;
                    for _ in 0..reads_per_thread {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let id = x % n_pages as u64;
                        let v = pool.with_page(id, |p| p[0]).unwrap();
                        assert_eq!(v, id as u8);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(
            s.hits() + s.misses(),
            (n_threads * reads_per_thread) as u64,
            "hits {} + misses {} must equal logical reads",
            s.hits(),
            s.misses()
        );
    }

    #[test]
    fn transient_read_faults_are_absorbed_by_retry() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let raw = MemStore::new(64);
        for i in 0..8 {
            let id = raw.allocate().unwrap();
            let mut buf = vec![0u8; 64];
            buf[0] = i as u8;
            raw.write_page(id, &buf).unwrap();
        }
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(raw),
            FaultPlan::quiet(42).with_transient_reads(3),
        ));
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn BlockStore>, 2);
        // small pool => constant demand misses => plenty of scheduled
        // faults, every one absorbed
        for round in 0..10 {
            for id in 0..8u64 {
                let v = pool.with_page(id, |p| p[0]).unwrap();
                assert_eq!(v, id as u8, "round {round}");
            }
        }
        assert!(store.n_faults() > 0, "schedule never fired");
        assert_eq!(
            store.io_stats().retries(),
            store.n_faults() as u64,
            "every injected transient fault cost exactly one retry"
        );
    }

    #[test]
    fn retry_exhaustion_surfaces_the_transient_error() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let raw = MemStore::new(64);
        raw.allocate().unwrap();
        let store = Arc::new(FaultInjectingStore::new(
            Arc::new(raw),
            FaultPlan::quiet(1).with_transient_reads(1), // every read faults
        ));
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn BlockStore>, 2);
        let err = pool.with_page(0, |_| ()).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(store.io_stats().retries(), (IO_ATTEMPTS - 1) as u64);
        assert_eq!(store.n_faults(), IO_ATTEMPTS);
    }

    /// `n` pages of seeded noise (every page different) in a
    /// `MemStore` behind a quiet fault injector, plus their contents.
    fn noisy_store(
        n: usize,
        page_size: usize,
    ) -> (Arc<crate::fault::FaultInjectingStore>, Vec<Vec<u8>>) {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let raw = MemStore::new(page_size);
        let twin = crate::store::noise_pages(n, page_size);
        for page in &twin {
            let id = raw.allocate().unwrap();
            raw.write_page(id, page).unwrap();
        }
        let store = FaultInjectingStore::new(Arc::new(raw), FaultPlan::quiet(7));
        (Arc::new(store), twin)
    }

    #[test]
    fn a_failed_read_costs_no_resident_frame() {
        use crate::fault::FaultPlan;
        let (store, _) = noisy_store(8, 64);
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn BlockStore>, 3);
        for id in 0..3u64 {
            pool.with_page(id, |_| ()).unwrap();
        }
        // the pool is full; now every read fails, through all retries
        store.set_plan(FaultPlan::quiet(7).with_transient_reads(1));
        assert!(pool.with_page(5, |_| ()).unwrap_err().is_transient());
        assert_eq!(pool.stats().evictions(), 0, "nobody paid for the failure");
        let physical = store.io_stats().reads();
        for id in 0..3u64 {
            pool.with_page(id, |_| ()).unwrap(); // still resident: no read to fail
        }
        assert_eq!(pool.stats().hits(), 3);
        assert_eq!(pool.stats().misses(), 4);
        assert_eq!(store.io_stats().reads(), physical);

        // once the store heals, the same fault evicts the LRU victim
        // the failed attempt would have taken — page 0 — and only it
        store.set_plan(FaultPlan::quiet(7));
        pool.with_page(5, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions(), 1);
        pool.with_page(1, |_| ()).unwrap();
        pool.with_page(2, |_| ()).unwrap();
        assert_eq!(pool.stats().hits(), 5);
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses(), 6);
    }

    #[test]
    fn recycled_buffers_never_leak_another_pages_bytes() {
        use crate::fault::{splitmix64, FaultPlan};
        let (store, twin) = noisy_store(16, 64);
        let pool = BufferPool::new(Arc::clone(&store) as Arc<dyn BlockStore>, 3);
        let mut failed = 0;
        for i in 0..4000u64 {
            let id = splitmix64(i ^ 0xB0F) % twin.len() as u64;
            // every 37th access runs against a store whose reads all
            // fail: a miss errors (and hands its buffer back), a hit
            // does not notice
            let sick = i % 37 == 36;
            if sick {
                store.set_plan(FaultPlan::quiet(7).with_transient_reads(1));
            }
            match pool.with_page(id, |p| p.to_vec()) {
                Ok(bytes) => assert_eq!(bytes, twin[id as usize], "access {i} page {id}"),
                Err(e) => {
                    assert!(sick && e.is_transient(), "access {i}: {e:?}");
                    failed += 1;
                }
            }
            store.set_plan(FaultPlan::quiet(7));
        }
        assert!(failed > 50, "only {failed} reads failed");
        assert!(pool.stats().evictions() > 1000);
    }

    #[test]
    fn exhausted_counts_surfaced_transients_only() {
        use crate::fault::{FaultInjectingStore, FaultPlan};
        let raw = MemStore::new(64);
        raw.allocate().unwrap();
        // every 3rd read faults: always absorbed, never exhausted
        let absorbed = Arc::new(FaultInjectingStore::new(
            Arc::new(raw),
            FaultPlan::quiet(9).with_transient_reads(3),
        ));
        let pool = BufferPool::new(Arc::clone(&absorbed) as Arc<dyn BlockStore>, 1);
        for _ in 0..20 {
            pool.clear().unwrap(); // force physical reads
            pool.with_page(0, |_| ()).unwrap();
        }
        assert!(absorbed.n_faults() > 0);
        assert_eq!(absorbed.io_stats().exhausted(), 0);

        // every read faults: each attempt round gives up exactly once
        let raw = MemStore::new(64);
        raw.allocate().unwrap();
        let sick = Arc::new(FaultInjectingStore::new(
            Arc::new(raw),
            FaultPlan::quiet(1).with_transient_reads(1),
        ));
        let pool = BufferPool::new(Arc::clone(&sick) as Arc<dyn BlockStore>, 1);
        for _ in 0..3 {
            pool.with_page(0, |_| ()).unwrap_err();
        }
        assert_eq!(sick.io_stats().exhausted(), 3);
    }

    #[test]
    fn retry_jitter_is_seeded_and_bounded() {
        // The jitter stream itself: reproducible from the seed, and
        // never more than half the base delay (contract documented on
        // io_with_retry). Checked directly on the mixer because sleep
        // timings are not observable deterministically.
        for seed in [0u64, 7, 99] {
            for attempt in 1..IO_ATTEMPTS as u64 {
                let base = 20u64 << attempt;
                let a = crate::fault::splitmix64(seed) % (base / 2 + 1);
                let b = crate::fault::splitmix64(seed) % (base / 2 + 1);
                assert_eq!(a, b);
                assert!(a <= base / 2);
            }
        }
    }

    #[test]
    fn corruption_is_never_retried() {
        use crate::integrity::ChecksummedStore;
        let raw = Arc::new(MemStore::new(64));
        let checked = Arc::new(ChecksummedStore::new(
            Arc::clone(&raw) as Arc<dyn BlockStore>
        ));
        let id = checked.allocate().unwrap();
        // corrupt the raw page under the checksum layer
        let mut full = vec![0u8; 64];
        raw.read_page(id, &mut full).unwrap();
        full[20] ^= 0x10;
        raw.write_page(id, &full).unwrap();
        let pool = BufferPool::new(Arc::clone(&checked) as Arc<dyn BlockStore>, 2);
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(
            matches!(err, crate::CcamError::Corruption { .. }),
            "{err:?}"
        );
        assert_eq!(checked.io_stats().retries(), 0, "corruption must not retry");
        assert_eq!(checked.io_stats().corruptions(), 1);
    }
}
