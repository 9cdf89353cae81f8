//! A counting global allocator for allocation-gated benchmarks.
//!
//! Every binary, bench and test in this crate runs under
//! [`CountingAlloc`]: a thin wrapper over the system allocator that
//! counts allocation events and requested bytes per thread.
//! [`snapshot`] reads the calling thread's counters; subtracting two
//! snapshots bounds the allocator traffic of the code between them on
//! that thread — this is how `tests/alloc_gates.rs` proves the pooled
//! PWL kernels run the steady-state expansion loop without touching
//! the heap and holds the engine to its per-expansion and per-query
//! budgets.
//!
//! Counting is *events on the calling thread only* — the counters are
//! thread-local, so a measured region is not disturbed by whatever
//! other threads allocate meanwhile (`cargo test` runs sibling tests in
//! parallel). Measured regions in the gates therefore run on the
//! thread that takes the snapshots; work handed to another thread is
//! not seen.
//!
//! Deallocations are deliberately not counted: the gates care about
//! pressure on the allocator's fast path, and every steady-state
//! dealloc has a matching alloc anyway.

// The one place in the workspace that must implement `GlobalAlloc`,
// which is an `unsafe` trait by definition. The implementation adds
// nothing to the system allocator's contract: it forwards every call
// verbatim and only bumps two thread-local cells on the side. Each
// interior unsafe operation still needs its own `unsafe {}` block with
// a per-site SAFETY justification — enforced by the deny below.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor: first use neither allocates
    // nor registers anything, which an allocator hook must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Tally one allocation event of `size` bytes on this thread.
fn count(size: usize) {
    // `try_with`: a thread may still free and allocate while its
    // locals are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// System allocator wrapper that tallies allocation events and bytes.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: defers every allocation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter updates have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unmodified,
        // and the caller's `GlobalAlloc::alloc` obligations (non-zero
        // size) are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `self` (i.e. by `System` —
        // every alloc path above forwards to it) with this same
        // `layout`, which is precisely `System::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc` — the caller's obligations are
        // forwarded verbatim to `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `self`/`System` with `layout`, and
        // `new_size` obligations (non-zero, no overflow when rounded
        // up to `layout.align()`) are the caller's — forwarded
        // verbatim to `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A point-in-time reading of one thread's allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (alloc + alloc_zeroed + realloc) so far.
    pub allocs: u64,
    /// Bytes requested across those events.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas from `earlier` to `self` (saturating, in case the
    /// caller swaps the operands).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Read the calling thread's allocation counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_vec_growth() {
        let before = snapshot();
        let mut v: Vec<u64> = Vec::with_capacity(0);
        for i in 0..1024u64 {
            v.push(i);
        }
        let delta = snapshot().since(&before);
        assert!(delta.allocs >= 1, "vec growth must register: {delta:?}");
        assert!(delta.bytes >= 1024 * 8);
        drop(v);
    }

    #[test]
    fn reused_capacity_is_free() {
        let mut v: Vec<u64> = Vec::with_capacity(4096);
        let before = snapshot();
        for _ in 0..8 {
            v.clear();
            for i in 0..4096u64 {
                v.push(i);
            }
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.allocs, 0, "no growth, no allocations: {delta:?}");
    }
}
