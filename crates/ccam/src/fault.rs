//! Deterministic fault injection: [`FaultInjectingStore`] wraps any
//! [`BlockStore`] and fails (or corrupts) operations on a seeded,
//! fully reproducible schedule, so the retry and corruption-detection
//! paths above it can be exercised under test.
//!
//! # Schedule model
//!
//! Faults are keyed off *operation counters*, not wall-clock or a
//! stateful PRNG: the store counts reads and writes, and a fault of a
//! given kind fires on every `k`-th operation, phase-shifted by a hash
//! of the plan's seed. Two consequences the tests rely on:
//!
//! * **Determinism** — the same plan over the same operation sequence
//!   produces the same [`FaultEvent`] log, byte for byte; replaying a
//!   workload replays its faults.
//! * **Bounded runs** — with `every >= 2`, two consecutive attempts at
//!   the same operation can never both fault, so the buffer pool's
//!   bounded retry always absorbs transient faults. `every == 1`
//!   (every operation faults) deliberately tests retry exhaustion.
//!
//! Kinds ([`FaultKind`]):
//!
//! * `TransientRead` / `TransientWrite` — the operation fails with
//!   [`CcamError::TransientIo`] without touching the inner store; a
//!   retry succeeds.
//! * `TornWrite` — only the first half of the buffer reaches the inner
//!   store, then the operation reports a transient failure. A retry
//!   rewrites the full page; an *unretried* torn write leaves a page
//!   that a [`ChecksummedStore`](crate::ChecksummedStore) stacked above
//!   will reject as corrupt.
//! * `BitFlip` — the read succeeds but one seeded-pseudorandom bit of
//!   the returned buffer is flipped, modelling media corruption below
//!   the checksum layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::store::{BlockStore, IoStats};
use crate::{CcamError, IoOp, Result};

/// What a scheduled fault does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `read_page` fails with [`CcamError::TransientIo`]; retry works.
    TransientRead,
    /// `write_page` fails with [`CcamError::TransientIo`]; retry works.
    TransientWrite,
    /// Half the page is written, then the write reports failure.
    TornWrite,
    /// The read succeeds but one bit of the buffer comes back flipped.
    BitFlip,
}

/// A deterministic fault schedule: per-kind periods (`0` = kind off)
/// plus a seed that phase-shifts each kind and picks bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for phases and bit choices.
    pub seed: u64,
    /// Fail every `k`-th read transiently (0 = off).
    pub transient_read_every: u64,
    /// Fail every `k`-th write transiently (0 = off).
    pub transient_write_every: u64,
    /// Tear every `k`-th write (0 = off).
    pub torn_write_every: u64,
    /// Flip a bit in every `k`-th read (0 = off).
    pub bit_flip_every: u64,
}

impl FaultPlan {
    /// A plan with every fault kind disabled.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_read_every: 0,
            transient_write_every: 0,
            torn_write_every: 0,
            bit_flip_every: 0,
        }
    }

    /// Fail every `k`-th read transiently.
    pub fn with_transient_reads(mut self, every: u64) -> Self {
        self.transient_read_every = every;
        self
    }

    /// Tear every `k`-th write.
    pub fn with_torn_writes(mut self, every: u64) -> Self {
        self.torn_write_every = every;
        self
    }

    /// Flip one bit in every `k`-th read.
    pub fn with_bit_flips(mut self, every: u64) -> Self {
        self.bit_flip_every = every;
        self
    }
}

/// One injected fault, recorded in schedule order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// The page the faulted operation targeted.
    pub page: u64,
    /// 1-based index of the operation (reads and writes counted
    /// separately) the fault hit.
    pub op_index: u64,
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer; used to derive
/// per-kind phases and bit positions from the plan seed (and, in the
/// buffer pool, per-retry backoff jitter).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Does op `n` (1-based) fire a fault with period `every` and phase
/// derived from `salt`?
fn fires(n: u64, every: u64, salt: u64) -> bool {
    every != 0 && n % every == splitmix64(salt) % every
}

/// A [`BlockStore`] wrapper injecting faults per a [`FaultPlan`]; see
/// the module docs for the schedule model. Allocation never faults
/// (builds stay deterministic; faults target steady-state I/O).
pub struct FaultInjectingStore {
    inner: Arc<dyn BlockStore>,
    plan: Mutex<FaultPlan>,
    reads: AtomicU64,
    writes: AtomicU64,
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultInjectingStore {
    /// Wrap `inner` with the given schedule.
    pub fn new(inner: Arc<dyn BlockStore>, plan: FaultPlan) -> Self {
        FaultInjectingStore {
            inner,
            plan: Mutex::new(plan),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The active schedule.
    pub fn plan(&self) -> FaultPlan {
        *self.plan.lock()
    }

    /// Replace the schedule mid-run. Operation counters and the event
    /// log are untouched, so a scripted harness can switch between
    /// quiet windows and fault storms at deterministic points (e.g.
    /// virtual-time boundaries) and the combined run still replays
    /// exactly from the seed.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn BlockStore> {
        &self.inner
    }

    /// Every fault injected so far, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.log.lock().clone()
    }

    /// Number of faults injected so far.
    pub fn n_faults(&self) -> usize {
        self.log.lock().len()
    }

    fn record(&self, kind: FaultKind, page: u64, op_index: u64) {
        self.log.lock().push(FaultEvent {
            kind,
            page,
            op_index,
        });
    }
}

impl BlockStore for FaultInjectingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn n_pages(&self) -> u64 {
        self.inner.n_pages()
    }

    fn allocate(&self) -> Result<u64> {
        self.inner.allocate()
    }

    fn read_page(&self, id: u64, buf: &mut [u8]) -> Result<()> {
        let plan = self.plan();
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if fires(n, plan.transient_read_every, plan.seed ^ 0x7EAD) {
            self.record(FaultKind::TransientRead, id, n);
            return Err(CcamError::TransientIo {
                page: id,
                op: IoOp::Read,
            });
        }
        self.inner.read_page(id, buf)?;
        if fires(n, plan.bit_flip_every, plan.seed ^ 0xF11B) {
            let bit = splitmix64(plan.seed ^ n) % (buf.len() as u64 * 8);
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.record(FaultKind::BitFlip, id, n);
        }
        Ok(())
    }

    fn write_page(&self, id: u64, buf: &[u8]) -> Result<()> {
        let plan = self.plan();
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if fires(n, plan.transient_write_every, plan.seed ^ 0x3717) {
            self.record(FaultKind::TransientWrite, id, n);
            return Err(CcamError::TransientIo {
                page: id,
                op: IoOp::Write,
            });
        }
        if fires(n, plan.torn_write_every, plan.seed ^ 0x70A1) {
            // Land only the first half of the buffer, keeping whatever
            // the page held beyond it, then report a transient failure
            // so a retry rewrites the page whole.
            let half = buf.len() / 2;
            let mut cur = vec![0u8; buf.len()];
            self.inner.read_page(id, &mut cur)?;
            cur[..half].copy_from_slice(&buf[..half]);
            self.inner.write_page(id, &cur)?;
            self.record(FaultKind::TornWrite, id, n);
            return Err(CcamError::TransientIo {
                page: id,
                op: IoOp::Write,
            });
        }
        self.inner.write_page(id, buf)
    }

    fn io_stats(&self) -> &IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::ChecksummedStore;

    fn faulty(plan: FaultPlan) -> FaultInjectingStore {
        let inner = Arc::new(MemStore::new(64));
        let store = FaultInjectingStore::new(inner, plan);
        store.allocate().unwrap();
        store
    }

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let store = faulty(FaultPlan::quiet(1));
        let mut buf = vec![0u8; 64];
        for _ in 0..100 {
            store.read_page(0, &mut buf).unwrap();
            store.write_page(0, &buf).unwrap();
        }
        assert_eq!(store.n_faults(), 0);
    }

    #[test]
    fn transient_reads_fire_on_schedule_and_retry_succeeds() {
        let store = faulty(FaultPlan::quiet(7).with_transient_reads(3));
        let mut buf = vec![0u8; 64];
        let mut failures = 0usize;
        for _ in 0..30 {
            match store.read_page(0, &mut buf) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_transient(), "{e:?}");
                    failures += 1;
                    // the immediate retry must succeed (every = 3 >= 2)
                    store.read_page(0, &mut buf).unwrap();
                }
            }
        }
        // every 3rd op faults, and retries themselves advance the op
        // counter: roughly a third of ~45 total ops
        assert!((10..=20).contains(&failures), "saw {failures} faults");
        assert!(store
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::TransientRead && e.page == 0));
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different_phase() {
        let run = |seed: u64| {
            let store = faulty(FaultPlan::quiet(seed).with_transient_reads(4));
            let mut buf = vec![0u8; 64];
            for _ in 0..40 {
                let _ = store.read_page(0, &mut buf);
            }
            store.events()
        };
        assert_eq!(run(5), run(5), "same seed must replay identically");
        let a: Vec<u64> = run(5).iter().map(|e| e.op_index).collect();
        let b: Vec<u64> = run(6).iter().map(|e| e.op_index).collect();
        assert_ne!(a, b, "different seeds should phase-shift the schedule");
    }

    #[test]
    fn torn_write_is_caught_by_checksums_unless_retried() {
        let raw: Arc<dyn BlockStore> = Arc::new(MemStore::new(128));
        // allocate through a fault-free stack so setup can't tear
        let quiet = ChecksummedStore::new(Arc::clone(&raw));
        let id = quiet.allocate().unwrap();
        let data = vec![0x5Au8; quiet.page_size()];

        let plan = FaultPlan::quiet(11).with_torn_writes(1); // tear everything
        let injected = Arc::new(FaultInjectingStore::new(Arc::clone(&raw), plan));
        let store = ChecksummedStore::new(Arc::clone(&injected) as Arc<dyn BlockStore>);
        // the write tears and reports transiently
        let err = store.write_page(id, &data).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(injected.events()[0].kind, FaultKind::TornWrite);
        // the torn page is detected, never served
        let mut buf = vec![0u8; quiet.page_size()];
        assert!(matches!(
            quiet.read_page(id, &mut buf),
            Err(CcamError::Corruption { .. })
        ));
        // a retry with no tear scheduled lands the page whole
        quiet.write_page(id, &data).unwrap();
        quiet.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn bit_flips_change_exactly_one_bit() {
        let store = faulty(FaultPlan::quiet(3).with_bit_flips(1));
        let mut buf = vec![0u8; 64];
        for _ in 0..10 {
            // the stored page is all zeros, so the returned buffer's
            // population count is exactly the number of flipped bits
            store.read_page(0, &mut buf).unwrap();
            let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 1, "exactly one bit per scheduled flip");
        }
        assert_eq!(store.n_faults(), 10);
    }
}
