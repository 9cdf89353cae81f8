//! Reusable buffers and shared ownership for the PWL hot path.
//!
//! The allFP inner loop composes, restricts, and merges piecewise-linear
//! functions millions of times per workload. [`PwlScratch`] keeps the
//! intermediate knot workspaces and a pool of retired `(xs, fs)` buffer
//! pairs so a warm loop never touches the allocator; [`PwlRef`] lets the
//! engine share a finished function by reference count instead of deep
//! copy.

use std::ops::Deref;
use std::sync::Arc;

use crate::{Linear, Pwl};

/// Retired buffer pairs kept beyond this count are dropped instead of
/// pooled, bounding a scratch's idle footprint.
///
/// Sized to the *query* working set, not the per-expansion one: the
/// engine keeps every stored path's function buffers checked out until
/// the query finishes, so a pool smaller than the surviving-path count
/// forces one fresh allocation per stored path on the next query. A
/// few thousand pairs cover the Fig. 9 workloads; at a typical piece
/// count the idle footprint stays within a few megabytes per worker.
const POOL_CAP: usize = 4096;

/// Reusable workspace for the pooled PWL kernels
/// ([`compose_travel_into`](crate::compose_travel_into),
/// [`Pwl::restrict_with`],
/// [`Envelope::merge_min_with`](crate::Envelope::merge_min_with)).
///
/// # Scratch-reuse contract
///
/// - A `PwlScratch` is a plain buffer pool: it carries **no state**
///   between calls. Every kernel clears the workspace it uses before
///   writing, so a dirty or freshly-created scratch produces
///   bit-identical results — only the allocation count differs.
/// - Kernels *take* output buffers from the pool and return them inside
///   the produced [`Pwl`]. To close the loop, hand finished functions
///   back with [`recycle`](Self::recycle) (or
///   [`recycle_ref`](Self::recycle_ref)) once they are no longer
///   needed; after a few iterations of similarly-sized work the pool is
///   warm and the kernels stop allocating entirely.
/// - A scratch is single-threaded state: give each worker its own
///   (`CacheSession` in `fp-allfp` owns one per batch worker). Sharing
///   one across threads is prevented by `&mut` receivers.
#[derive(Debug, Default)]
pub struct PwlScratch {
    /// Merged-breakpoint workspace (the elementary subdivision).
    pub(crate) knots: Vec<f64>,
    /// Secondary workspace: interior breakpoints / compose preimages.
    pub(crate) aux: Vec<f64>,
    /// Retired `(xs, fs)` buffer pairs, cleared but with capacity kept.
    pool: Vec<(Vec<f64>, Vec<Linear>)>,
}

impl PwlScratch {
    /// A new, cold scratch; the first few kernel calls will allocate
    /// while the pool warms up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared `(xs, fs)` buffer pair, reusing pooled capacity
    /// when available.
    pub(crate) fn take_buffers(&mut self) -> (Vec<f64>, Vec<Linear>) {
        self.pool.pop().unwrap_or_default()
    }

    /// Return a finished function's buffers to the pool so the next
    /// kernel call can reuse their capacity.
    pub fn recycle(&mut self, f: Pwl) {
        let (xs, fs) = f.into_parts();
        self.recycle_buffers(xs, fs);
    }

    /// [`recycle`](Self::recycle) for a [`PwlRef`]: an owned function's
    /// buffers are pooled, a shared one just drops its reference.
    pub fn recycle_ref(&mut self, f: PwlRef) {
        if let PwlRef::Owned(p) = f {
            self.recycle(p);
        }
    }

    /// Pool a raw buffer pair (cleared here; capacity kept).
    pub fn recycle_buffers(&mut self, mut xs: Vec<f64>, mut fs: Vec<Linear>) {
        if self.pool.len() < POOL_CAP {
            xs.clear();
            fs.clear();
            self.pool.push((xs, fs));
        }
    }

    /// Number of pooled buffer pairs currently held (for tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// A travel function that is either uniquely owned or shared behind an
/// [`Arc`] — copy-on-write in the cheap direction only.
///
/// The path arena builds each function once ([`Owned`](PwlRef::Owned)),
/// and the first consumer that needs to keep it alive past the arena
/// (answer path, border member) promotes it to
/// [`Shared`](PwlRef::Shared) via [`share`](PwlRef::share); every
/// further "copy" is a refcount bump. Functions are immutable once
/// built, so sharing cannot change any observable value.
#[derive(Debug, Clone)]
pub enum PwlRef {
    /// Uniquely owned; its buffers can still be recycled into a pool.
    Owned(Pwl),
    /// Shared; cloning bumps the reference count.
    Shared(Arc<Pwl>),
}

impl PwlRef {
    /// Borrow the underlying function.
    #[inline]
    pub fn as_pwl(&self) -> &Pwl {
        match self {
            PwlRef::Owned(p) => p,
            PwlRef::Shared(a) => a,
        }
    }

    /// Promote to shared storage (idempotent) and hand out a reference.
    pub fn share(&mut self) -> Arc<Pwl> {
        if let PwlRef::Owned(_) = self {
            let PwlRef::Owned(p) = std::mem::replace(self, PwlRef::Owned(Pwl::shell())) else {
                unreachable!("just matched Owned");
            };
            *self = PwlRef::Shared(Arc::new(p));
        }
        match self {
            PwlRef::Shared(a) => Arc::clone(a),
            PwlRef::Owned(_) => unreachable!("promoted to Shared above"),
        }
    }
}

impl Deref for PwlRef {
    type Target = Pwl;

    #[inline]
    fn deref(&self) -> &Pwl {
        self.as_pwl()
    }
}

impl From<Pwl> for PwlRef {
    fn from(p: Pwl) -> Self {
        PwlRef::Owned(p)
    }
}

impl From<Arc<Pwl>> for PwlRef {
    fn from(a: Arc<Pwl>) -> Self {
        PwlRef::Shared(a)
    }
}

impl PartialEq for PwlRef {
    /// Compares the underlying functions; `Owned` vs `Shared` storage
    /// of the same function are equal.
    fn eq(&self, other: &Self) -> bool {
        self.as_pwl() == other.as_pwl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    fn sample() -> Pwl {
        Pwl::from_points(&[(0.0, 1.0), (5.0, 3.0), (10.0, 2.0)]).unwrap()
    }

    #[test]
    fn share_is_idempotent_and_preserves_value() {
        let mut r = PwlRef::from(sample());
        assert_eq!(r.as_pwl(), &sample());
        let a1 = r.share();
        let a2 = r.share();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(&*a1, &sample());
        assert_eq!(r.as_pwl(), &sample());
        // deref passthrough
        assert_eq!(r.n_pieces(), 2);
    }

    #[test]
    fn owned_and_shared_compare_equal() {
        let owned = PwlRef::from(sample());
        let shared = PwlRef::from(Arc::new(sample()));
        assert_eq!(owned, shared);
        let other = PwlRef::from(Pwl::constant(Interval::of(0.0, 1.0), 4.0).unwrap());
        assert_ne!(owned, other);
    }

    #[test]
    fn pool_recycles_and_caps() {
        let mut s = PwlScratch::new();
        assert_eq!(s.pooled(), 0);
        s.recycle(sample());
        assert_eq!(s.pooled(), 1);
        let (xs, fs) = s.take_buffers();
        assert_eq!(s.pooled(), 0);
        assert!(xs.is_empty() && fs.is_empty());
        assert!(xs.capacity() >= 3 && fs.capacity() >= 2);
        // shared refs are dropped, not pooled
        let mut r = PwlRef::from(sample());
        r.share();
        s.recycle_ref(r);
        assert_eq!(s.pooled(), 0);
        s.recycle_ref(PwlRef::from(sample()));
        assert_eq!(s.pooled(), 1);
    }
}
