//! An LRU buffer pool over a [`BlockStore`].
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
//! The pool keeps one *spare* page buffer, the last evicted frame's.
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
//!   pool: it allocates only while it is filling up.
//!
//! # Concurrency
//!
//! One `Mutex` guards the frame map, the LRU clock, the spare and the
//! hit/miss/eviction counters, so the pool is one exact global LRU
//! (the paper's buffer) and a [`BufferPool::stats`] snapshot, taken
//! under the same lock, is always exact. A miss reads the store, and
//! retries a transient fault, while it holds the lock: every benchmark
//! workload and experiment is one client, so no second reader waits.
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
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::store::BlockStore;
use crate::Result;

/// Attempts per physical page I/O (one initial try plus retries)
/// before a transient fault is surfaced to the caller. Transient
/// faults ([`CcamError::is_transient`](crate::CcamError::is_transient))
/// are retried with exponential backoff and tallied in
/// [`IoStats::retries`](crate::IoStats::retries); permanent failures —
/// corruption above all — are never retried.
pub const IO_ATTEMPTS: usize = 4;

/// A snapshot of access statistics: buffer behaviour plus physical
/// store I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Buffer pool hits.
    pub hits: u64,
    /// Buffer pool misses (page faults).
    pub misses: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Pages physically read from the store.
    pub physical_reads: u64,
    /// Pages physically written to the store.
    pub physical_writes: u64,
}

impl StoreStats {
    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
        }
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

#[derive(Default)]
struct Inner {
    frames: HashMap<u64, Frame, BuildHasherDefault<PageIdHasher>>,
    tick: u64,
    /// The buffer of the last evicted frame, kept for the next page
    /// faulted in so that a miss on a full pool allocates nothing
    /// (empty until the first eviction).
    spare: Vec<u8>,
    hits: u64,
    misses: u64,
    evictions: u64,
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

/// A fixed-capacity LRU page cache.
///
/// Eviction scans the pool for the minimum stamp — O(frames), which
/// is fine for the pool sizes the experiments use (tens to a few
/// thousand frames, and the large ones rarely evict); the
/// asymptotically-clean alternative (linked LRU) is not worth the
/// unsafe code or the extra indirection here.
pub struct BufferPool {
    store: Arc<dyn BlockStore>,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Wrap `store` with a pool of `capacity` frames (min 1).
    pub fn new(store: Arc<dyn BlockStore>, capacity: usize) -> Self {
        BufferPool {
            store,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.store
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pool's hit/miss/eviction counters and its store's physical
    /// reads and writes, read under the pool's lock: exact even while
    /// other threads read pages.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let (physical_reads, physical_writes) = self.store.io_stats().snapshot();
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            physical_reads,
            physical_writes,
        }
    }

    /// Run one physical I/O, absorbing transient faults with up to
    /// [`IO_ATTEMPTS`]` - 1` retries (exponential backoff, starting at
    /// 40µs). Each retry bumps the store's `retries` counter; a
    /// transient fault that survives every attempt bumps `exhausted`
    /// before surfacing; permanent errors (corruption, bad page ids)
    /// pass straight through.
    fn io_with_retry(&self, mut op: impl FnMut() -> Result<()>) -> Result<()> {
        let mut attempt = 0usize;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt + 1 < IO_ATTEMPTS => {
                    attempt += 1;
                    self.store.io_stats().bump_retry();
                    std::thread::sleep(Duration::from_micros(20u64 << attempt));
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
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.stamp = tick;
            let r = f(&frame.data);
            inner.hits += 1;
            return Ok(r);
        }

        inner.misses += 1;
        // Read before evicting: a failed read must not cost a resident
        // frame, so the page lands in the spare buffer (the previous
        // victim's), never in the next victim's.
        let mut data = inner.take_buffer(self.store.page_size());
        if let Err(e) = self.io_with_retry(|| self.store.read_page(id, &mut data)) {
            inner.spare = data;
            return Err(e);
        }
        self.evict_if_full(&mut inner)?;
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
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.frames.get_mut(&id) {
            frame.data.copy_from_slice(data);
            frame.stamp = tick;
            frame.dirty = true;
            return Ok(());
        }
        self.evict_if_full(&mut inner)?;
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
        let mut inner = self.inner.lock();
        for (id, frame) in inner.frames.iter_mut() {
            if frame.dirty {
                self.io_with_retry(|| self.store.write_page(*id, &frame.data))?;
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Drop every cached frame (writing dirty ones back) and reset
    /// nothing else; used between experiment runs for cold-cache
    /// measurements.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        self.inner.lock().frames.clear();
        Ok(())
    }

    fn evict_if_full(&self, inner: &mut Inner) -> Result<()> {
        while inner.frames.len() >= self.capacity {
            // Deterministic victim: oldest stamp, page id as the
            // tie-break. Stamps are unique, so this is pure LRU.
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
            inner.evictions += 1;
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
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_coldest() {
        let store = store_with_pages(3, 64);
        let pool = BufferPool::new(Arc::clone(&store), 2);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        pool.with_page(0, |_| ()).unwrap(); // 0 is now hottest
        pool.with_page(2, |_| ()).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        let (reads_before, _) = store.io_stats().snapshot();
        pool.with_page(0, |_| ()).unwrap(); // still cached
        let (reads_after, _) = store.io_stats().snapshot();
        assert_eq!(reads_before, reads_after);
        pool.with_page(1, |_| ()).unwrap(); // faulted back in
        assert_eq!(pool.stats().misses, 4);
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
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let pool = BufferPool::new(store_with_pages(2, 64), 0);
        assert_eq!(pool.capacity(), 1);
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn a_large_pool_evicts_the_globally_least_recent_page() {
        // One LRU over all 128 frames: it fills every frame before it
        // evicts, then evicts the page touched longest ago, whatever
        // its id. (Per-shard LRUs would split the budget by a hash of
        // the id, evict inside a full slice while others had room, and
        // pick the oldest page of one slice only.)
        let frames = 128u64;
        let pool = BufferPool::new(store_with_pages(frames as usize + 1, 64), frames as usize);
        for id in 0..frames {
            pool.with_page(id, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().evictions, 0, "128 pages fit in 128 frames");
        pool.with_page(0, |_| ()).unwrap(); // page 1 is now the coldest
        pool.with_page(frames, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, 1);

        let before = pool.stats();
        for id in (0..=frames).filter(|&id| id != 1) {
            pool.with_page(id, |_| ()).unwrap();
        }
        let resident = pool.stats().since(&before);
        assert_eq!(
            (resident.hits, resident.misses),
            (frames, 0),
            "all but page 1"
        );
        pool.with_page(1, |_| ()).unwrap();
        assert_eq!(
            pool.stats().since(&before).misses,
            1,
            "page 1 was the victim"
        );
    }

    #[test]
    fn concurrent_readers_exact_accounting() {
        // Many threads hammer one small pool with interleaved page
        // sets: every read must return the right bytes, and hits +
        // misses must equal the logical reads issued.
        let n_pages = 64usize;
        let n_threads = 8usize;
        let reads_per_thread = 500usize;
        let pool = Arc::new(BufferPool::new(store_with_pages(n_pages, 64), 16));
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
            s.hits + s.misses,
            (n_threads * reads_per_thread) as u64,
            "hits {} + misses {} must equal logical reads",
            s.hits,
            s.misses
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
        assert_eq!(pool.stats().evictions, 0, "nobody paid for the failure");
        let physical = store.io_stats().reads();
        for id in 0..3u64 {
            pool.with_page(id, |_| ()).unwrap(); // still resident: no read to fail
        }
        assert_eq!(pool.stats().hits, 3);
        assert_eq!(pool.stats().misses, 4);
        assert_eq!(store.io_stats().reads(), physical);

        // once the store heals, the same fault evicts the LRU victim
        // the failed attempt would have taken — page 0 — and only it
        store.set_plan(FaultPlan::quiet(7));
        pool.with_page(5, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, 1);
        pool.with_page(1, |_| ()).unwrap();
        pool.with_page(2, |_| ()).unwrap();
        assert_eq!(pool.stats().hits, 5);
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 6);
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
        assert!(pool.stats().evictions > 1000);
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
