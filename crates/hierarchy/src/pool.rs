//! Scoped worker pool for preprocessing parallelism.
//!
//! Contraction rounds, the band-minimum pass and snapshot restore all
//! fan the same shape of work out: a batch of independent, read-only
//! jobs whose results must come back **in index order** so the
//! produced overlay is identical at every thread count. The pool runs
//! such batches over `std::thread::scope` with one [`PwlScratch`] per
//! worker (the per-thread-calculator idiom): scratches are checked out
//! of a shared pocket at batch start and returned warm at batch end,
//! so repeated rounds stop allocating once the buffers have grown.
//!
//! Determinism contract: the job closure must be a pure function of
//! its index plus read-only captures. The pool then guarantees the
//! result vector is independent of thread count and scheduling — the
//! parallel-vs-serial golden tests in `tests/contraction_props.rs`
//! pin this end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pwl::PwlScratch;

/// A reusable fan-out pool: fixed thread budget plus a pocket of warm
/// per-worker scratches.
pub(crate) struct WorkerPool {
    threads: usize,
    scratches: Mutex<Vec<PwlScratch>>,
}

impl WorkerPool {
    /// A pool running `threads` workers; `0` means one per available
    /// core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        WorkerPool {
            threads,
            scratches: Mutex::new(Vec::new()),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn checkout(&self) -> PwlScratch {
        match self.scratches.lock() {
            Ok(mut pocket) => pocket.pop().unwrap_or_default(),
            Err(_) => PwlScratch::new(),
        }
    }

    fn park(&self, scratch: PwlScratch) {
        if let Ok(mut pocket) = self.scratches.lock() {
            pocket.push(scratch);
        }
    }

    /// Run `f` for every index in `0..n`, returning the results in
    /// index order regardless of how the work was scheduled. Each
    /// worker gets its own scratch and its own `init()`-produced state
    /// (e.g. a witness-search workspace). With one thread (or one
    /// job) everything runs inline on the caller's thread.
    pub fn map_indexed<T, W, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        W: Send,
        I: Fn() -> W + Sync,
        F: Fn(usize, &mut W, &mut PwlScratch) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            let mut scratch = self.checkout();
            let mut state = init();
            let out = (0..n).map(|i| f(i, &mut state, &mut scratch)).collect();
            self.park(scratch);
            return out;
        }
        let next = AtomicUsize::new(0);
        let mut merged: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let mut scratch = self.checkout();
                let (next, init, f) = (&next, &init, &f);
                handles.push(scope.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &mut state, &mut scratch)));
                    }
                    (scratch, local)
                }));
            }
            for h in handles {
                match h.join() {
                    Ok((scratch, local)) => {
                        self.park(scratch);
                        merged.extend(local);
                    }
                    // A worker panic is a bug in the job closure;
                    // resurface it on the caller's thread.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        merged.sort_unstable_by_key(|&(i, _)| i);
        merged.into_iter().map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let out = pool.map_indexed(100, || 0u64, |i, _, _| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_resolves_to_available_cores() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(pool.map_indexed(3, || (), |i, _, _| i), vec![0, 1, 2]);
    }

    #[test]
    fn scratches_are_pooled_between_batches() {
        let pool = WorkerPool::new(2);
        let _ = pool.map_indexed(
            8,
            || (),
            |i, _, s| {
                // touch the scratch so its pool warms up
                let f = pwl::Pwl::constant(pwl::Interval::of(0.0, 1.0), i as f64);
                if let Ok(p) = f {
                    s.recycle(p);
                }
                i
            },
        );
        let pocket = pool.scratches.lock().map(|p| p.len()).unwrap_or(0);
        assert!(pocket >= 1);
    }
}
