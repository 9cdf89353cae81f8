//! Piecewise-linear functions over a closed interval.

use crate::scratch::PwlScratch;
use crate::{approx_eq, approx_le, definitely_lt, Interval, Linear, PwlError, Result};

/// A piecewise-linear function defined on a closed interval.
///
/// Stored as `n + 1` strictly increasing breakpoints `x₀ < … < xₙ` and
/// `n` linear pieces; piece `i` applies on `[xᵢ, xᵢ₊₁)` (the last piece
/// also covers `xₙ`). Pieces are in absolute coordinates, so the type
/// can represent discontinuous functions (e.g. step functions); the
/// operations that require continuity ([`MonotonePwl`](crate::MonotonePwl),
/// composition) check for it explicitly.
///
/// Travel-time functions in the paper are continuous piecewise-linear
/// functions of the leaving time (§4.1); this type is how every
/// priority-queue entry of `IntAllFastestPaths` carries its
/// `T(l) + T_est` function.
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl {
    xs: Vec<f64>,
    fs: Vec<Linear>,
}

/// The minimum of a [`Pwl`] over an interval, together with the first
/// maximal sub-interval on which it is attained.
///
/// For the singleFP query the paper reports "any time instant in
/// \[7:00–7:03\] is an optimal leaving time" — that interval is `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinResult {
    /// The minimum value.
    pub value: f64,
    /// First maximal interval on which the minimum is attained.
    pub at: Interval,
}

impl Pwl {
    /// Build from breakpoints and pieces.
    ///
    /// Requires `xs.len() == fs.len() + 1 ≥ 2`, strictly increasing
    /// finite breakpoints, and finite coefficients.
    pub fn new(xs: Vec<f64>, fs: Vec<Linear>) -> Result<Self> {
        if xs.len() < 2 {
            return Err(PwlError::BadBreakpoints(format!(
                "need at least 2 breakpoints, got {}",
                xs.len()
            )));
        }
        if xs.len() != fs.len() + 1 {
            return Err(PwlError::PieceCountMismatch {
                breakpoints: xs.len(),
                pieces: fs.len(),
            });
        }
        for &x in &xs {
            if !x.is_finite() {
                return Err(PwlError::NonFinite(format!("breakpoint {x}")));
            }
        }
        for w in xs.windows(2) {
            if w[1] <= w[0] {
                return Err(PwlError::BadBreakpoints(format!(
                    "breakpoints not strictly increasing: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        for f in &fs {
            if !f.a.is_finite() || !f.b.is_finite() {
                return Err(PwlError::NonFinite(format!("piece {f}")));
            }
        }
        Ok(Pwl { xs, fs })
    }

    /// The constant function `y = c` on `domain`.
    pub fn constant(domain: Interval, c: f64) -> Result<Self> {
        Self::linear(domain, Linear::constant(c)?)
    }

    /// A single linear piece on `domain`.
    pub fn linear(domain: Interval, lin: Linear) -> Result<Self> {
        if domain.is_degenerate() {
            return Err(PwlError::BadInterval {
                lo: domain.lo(),
                hi: domain.hi(),
            });
        }
        Self::new(vec![domain.lo(), domain.hi()], vec![lin])
    }

    /// Continuous interpolation through the given points
    /// (`xs` strictly increasing, at least two points).
    pub fn from_points(points: &[(f64, f64)]) -> Result<Self> {
        if points.len() < 2 {
            return Err(PwlError::BadBreakpoints(format!(
                "need at least 2 points, got {}",
                points.len()
            )));
        }
        let mut xs = Vec::with_capacity(points.len());
        let mut fs = Vec::with_capacity(points.len() - 1);
        for w in points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            fs.push(Linear::through(x0, y0, x1, y1)?);
            xs.push(x0);
        }
        xs.push(points[points.len() - 1].0);
        Self::new(xs, fs)
    }

    /// The identity function `y = x` on `domain`.
    pub fn identity(domain: Interval) -> Result<Self> {
        Self::linear(domain, Linear::identity())
    }

    /// Domain `[x₀, xₙ]`.
    #[inline]
    pub fn domain(&self) -> Interval {
        Interval::of(self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Number of linear pieces.
    #[inline]
    pub fn n_pieces(&self) -> usize {
        self.fs.len()
    }

    /// Heap bytes the function's buffers hold, spare capacity included:
    /// `24 · n_pieces + 8` once [`shrink_to_fit`](Self::shrink_to_fit)
    /// has run.
    pub fn heap_bytes(&self) -> usize {
        self.xs.capacity() * size_of::<f64>() + self.fs.capacity() * size_of::<Linear>()
    }

    /// Release the buffers' spare capacity, so they hold exactly the
    /// knots and pieces — for a function kept long after the kernel
    /// that built it. A no-op on an exact-size function.
    pub fn shrink_to_fit(&mut self) {
        self.xs.shrink_to_fit();
        self.fs.shrink_to_fit();
    }

    /// The breakpoints `x₀ … xₙ`.
    #[inline]
    pub fn breakpoints(&self) -> &[f64] {
        &self.xs
    }

    /// The linear pieces, in order.
    #[inline]
    pub fn linears(&self) -> &[Linear] {
        &self.fs
    }

    /// Iterate `(sub-interval, piece)` pairs in order.
    pub fn pieces(&self) -> impl Iterator<Item = (Interval, &Linear)> + '_ {
        self.fs
            .iter()
            .enumerate()
            .map(|(i, f)| (Interval::of(self.xs[i], self.xs[i + 1]), f))
    }

    /// Index of the piece covering `x`; `x` must lie in the domain.
    ///
    /// `x == xₙ` maps to the last piece.
    pub fn piece_index_at(&self, x: f64) -> Result<usize> {
        if !self.domain().contains_approx(x) {
            return Err(PwlError::OutOfDomain {
                x,
                domain: self.domain(),
            });
        }
        // First breakpoint strictly greater than x, minus one.
        let idx = self.xs.partition_point(|&bx| bx <= x);
        Ok(idx.saturating_sub(1).min(self.fs.len() - 1))
    }

    /// Evaluate at `x`; returns `None` outside the domain (with [`EPS`](crate::EPS)
    /// slack at the endpoints, where the value is clamped).
    pub fn try_eval(&self, x: f64) -> Option<f64> {
        let idx = self.piece_index_at(x).ok()?;
        Some(self.fs[idx].eval(x))
    }

    /// Evaluate at `x`.
    ///
    /// # Panics
    /// Panics if `x` lies outside the domain (beyond [`EPS`](crate::EPS) slack).
    #[track_caller]
    pub fn eval(&self, x: f64) -> f64 {
        match self.try_eval(x) {
            Some(v) => v,
            None => panic!("pwl eval at {x} outside domain {}", self.domain()),
        }
    }

    /// Evaluate at `x` clamped into the domain.
    pub fn eval_clamped(&self, x: f64) -> f64 {
        self.eval(self.domain().clamp(x))
    }

    /// Value just left of breakpoint `i` (using piece `i − 1`);
    /// for `i == 0` this is the right value.
    pub fn left_value(&self, i: usize) -> f64 {
        let p = if i == 0 { 0 } else { i - 1 };
        self.fs[p].eval(self.xs[i])
    }

    /// Value just right of breakpoint `i` (using piece `i`);
    /// for `i == n` this is the left value.
    pub fn right_value(&self, i: usize) -> f64 {
        let p = i.min(self.fs.len() - 1);
        self.fs[p].eval(self.xs[i])
    }

    /// `true` if the function is continuous (left and right values agree
    /// within [`EPS`](crate::EPS) at every interior breakpoint).
    pub fn is_continuous(&self) -> bool {
        self.check_continuous().is_ok()
    }

    /// Verify continuity; returns the first offending breakpoint on
    /// failure.
    pub fn check_continuous(&self) -> Result<()> {
        for i in 1..self.xs.len() - 1 {
            let l = self.left_value(i);
            let r = self.right_value(i);
            if !approx_eq(l, r) {
                return Err(PwlError::Discontinuous {
                    at: self.xs[i],
                    left: l,
                    right: r,
                });
            }
        }
        Ok(())
    }

    /// The graph of a continuous function as breakpoint/value pairs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut pts = Vec::with_capacity(self.xs.len());
        pts.push((self.xs[0], self.right_value(0)));
        for i in 1..self.xs.len() {
            pts.push((self.xs[i], self.left_value(i)));
        }
        pts
    }

    /// Minimum and first argmin interval over the whole domain.
    // The domain intersects itself, and the minimum of finite pieces is
    // attained at the knot it was read from.
    #[allow(clippy::expect_used)]
    pub fn minimum(&self) -> MinResult {
        self.min_over(&self.domain())
            .expect("domain is always valid")
    }

    /// Minimum value over the whole domain, without locating the argmin
    /// interval.
    ///
    /// Same fold as the first pass of [`min_over`](Self::min_over) —
    /// bit-identical to `minimum().value` — but a single sweep of the
    /// piece table with no interval intersections. The engine calls
    /// this once per composed candidate path (the priority-queue key),
    /// where the argmin is not needed.
    pub fn min_value(&self) -> f64 {
        let mut min = f64::INFINITY;
        for (i, f) in self.fs.iter().enumerate() {
            min = min.min(f.eval(self.xs[i])).min(f.eval(self.xs[i + 1]));
        }
        min
    }

    /// Maximum value over the whole domain.
    // The domain intersects itself.
    #[allow(clippy::expect_used)]
    pub fn maximum(&self) -> f64 {
        self.max_over(&self.domain())
            .expect("domain is always valid")
    }

    /// Minimum and first argmin interval over `over ∩ domain`.
    pub fn min_over(&self, over: &Interval) -> Result<MinResult> {
        let within = self
            .domain()
            .intersect(over)
            .ok_or(PwlError::DomainMismatch {
                left: self.domain(),
                right: *over,
            })?;

        // Pass 1: minimum value.
        let mut min = f64::INFINITY;
        for (iv, f) in self.pieces() {
            let Some(c) = iv.intersect(&within) else {
                continue;
            };
            min = min.min(f.eval(c.lo())).min(f.eval(c.hi()));
        }

        // Pass 2: first maximal run of x with f(x) ≈ min.
        let mut run: Option<Interval> = None;
        for (iv, f) in self.pieces() {
            let Some(c) = iv.intersect(&within) else {
                continue;
            };
            // Sub-interval of c on which f ≤ min (within tolerance).
            let lo_ok = approx_le(f.eval(c.lo()), min);
            let hi_ok = approx_le(f.eval(c.hi()), min);
            let seg = match (lo_ok, hi_ok) {
                (true, true) => Some(c),
                (true, false) => Some(Interval::of(c.lo(), c.lo())),
                (false, true) => Some(Interval::of(c.hi(), c.hi())),
                (false, false) => None,
            };
            match (run.as_mut(), seg) {
                (None, Some(s)) => run = Some(s),
                (Some(r), Some(s)) if approx_eq(r.hi(), s.lo()) => {
                    *r = Interval::of(r.lo(), s.hi());
                }
                (Some(_), Some(_)) | (Some(_), None) => break, // first run complete
                (None, None) => {}
            }
        }
        Ok(MinResult {
            value: min,
            at: run.ok_or_else(|| PwlError::NonFinite(format!("minimum {min}")))?,
        })
    }

    /// Maximum value over `over ∩ domain`.
    fn max_over(&self, over: &Interval) -> Result<f64> {
        let within = self
            .domain()
            .intersect(over)
            .ok_or(PwlError::DomainMismatch {
                left: self.domain(),
                right: *over,
            })?;
        let mut max = f64::NEG_INFINITY;
        for (iv, f) in self.pieces() {
            let Some(c) = iv.intersect(&within) else {
                continue;
            };
            max = max.max(f.eval(c.lo())).max(f.eval(c.hi()));
        }
        Ok(max)
    }

    /// Pointwise `self + c`.
    pub fn add_scalar(&self, c: f64) -> Pwl {
        Pwl {
            xs: self.xs.clone(),
            fs: self.fs.iter().map(|f| f.add_scalar(c)).collect(),
        }
    }

    /// Pointwise `self + lin` (a full linear function, e.g. the
    /// identity to turn a travel-time function into an arrival
    /// function).
    fn add_linear(&self, lin: &Linear) -> Pwl {
        Pwl {
            xs: self.xs.clone(),
            fs: self.fs.iter().map(|f| f.add(lin)).collect(),
        }
    }

    /// Arrival function `A(l) = l + T(l)` of a travel-time function.
    pub fn add_identity(&self) -> Pwl {
        self.add_linear(&Linear::identity())
    }

    /// `T(l) = A(l) − l`: recover a travel-time function from an
    /// arrival function.
    pub fn sub_identity(&self) -> Pwl {
        self.add_linear(&Linear { a: -1.0, b: 0.0 })
    }

    /// Pointwise sum over the intersection of the two domains.
    pub fn add(&self, other: &Pwl) -> Result<Pwl> {
        let domain = self
            .domain()
            .intersect(&other.domain())
            .filter(|d| !d.is_degenerate())
            .ok_or(PwlError::DomainMismatch {
                left: self.domain(),
                right: other.domain(),
            })?;
        let xs = merged_breakpoints(&[self, other], &domain);
        build_from_breakpoints(xs, |mid| {
            let (i, j) = (self.piece_index_at(mid)?, other.piece_index_at(mid)?);
            Ok(self.fs[i].add(&other.fs[j]))
        })
    }

    /// Restriction to `to ∩ domain` (must be non-degenerate).
    pub fn restrict(&self, to: &Interval) -> Result<Pwl> {
        let domain = self
            .domain()
            .intersect(to)
            .filter(|d| !d.is_degenerate())
            .ok_or(PwlError::DomainMismatch {
                left: self.domain(),
                right: *to,
            })?;
        let xs = merged_breakpoints(&[self], &domain);
        build_from_breakpoints(xs, |mid| Ok(self.fs[self.piece_index_at(mid)?]))
    }

    /// Pooled [`restrict`](Self::restrict): bit-identical result, but
    /// the output buffers come from `scratch`'s pool and the breakpoint
    /// workspace is reused, so a warm scratch makes this allocation-free.
    pub fn restrict_with(&self, scratch: &mut PwlScratch, to: &Interval) -> Result<Pwl> {
        let domain = self
            .domain()
            .intersect(to)
            .filter(|d| !d.is_degenerate())
            .ok_or(PwlError::DomainMismatch {
                left: self.domain(),
                right: *to,
            })?;
        merged_breakpoints_into(scratch, &[self], &domain);
        if scratch.knots.len() < 2 {
            return Err(PwlError::BadBreakpoints(
                "empty elementary subdivision".into(),
            ));
        }
        let (mut xs, mut fs) = scratch.take_buffers();
        xs.extend_from_slice(&scratch.knots);
        // Window midpoints ascend, so an advancing cursor finds the
        // same piece indices `piece_index_at` would.
        let mut i = 0usize;
        for w in scratch.knots.windows(2) {
            let mid = 0.5 * (w[0] + w[1]);
            while i + 1 < self.fs.len() && self.xs[i + 1] <= mid {
                i += 1;
            }
            fs.push(self.fs[i]);
        }
        // The knots are already deduped and strictly increasing; skip
        // the re-validation passes (debug builds still check).
        Ok(Pwl::from_sorted_parts(xs, fs))
    }

    /// Concatenate with `next`, whose domain must begin (within
    /// [`EPS`](crate::EPS)) where this one ends. The result covers both domains;
    /// at the seam the left function's endpoint wins the breakpoint
    /// coordinate. Values are *not* required to agree at the seam
    /// (the type supports discontinuities), but callers gluing
    /// continuous functions — e.g. the periodic travel-function cache
    /// splicing a day boundary — get a continuous result whenever the
    /// inputs agree there.
    pub fn concat(&self, next: &Pwl) -> Result<Pwl> {
        let seam_l = self.domain().hi();
        let seam_r = next.domain().lo();
        if !approx_eq(seam_l, seam_r) {
            return Err(PwlError::DomainMismatch {
                left: self.domain(),
                right: next.domain(),
            });
        }
        let mut xs = Vec::with_capacity(self.xs.len() + next.xs.len() - 1);
        xs.extend_from_slice(&self.xs);
        // re-anchor next's breakpoints after the seam; skip its first
        xs.extend(next.xs.iter().skip(1).copied());
        // guard against a sub-EPS overlap producing a non-increasing pair
        if xs[self.xs.len()] <= seam_l {
            return Err(PwlError::BadBreakpoints(format!(
                "concat seam not increasing: {} then {}",
                seam_l,
                xs[self.xs.len()]
            )));
        }
        let mut fs = Vec::with_capacity(self.fs.len() + next.fs.len());
        fs.extend_from_slice(&self.fs);
        fs.extend_from_slice(&next.fs);
        Pwl::new(xs, fs)
    }

    /// Merge adjacent pieces that represent the same line (within
    /// [`EPS`](crate::EPS)) and are continuous at the joint. Idempotent.
    pub fn simplify(&self) -> Pwl {
        let mut xs = Vec::with_capacity(self.xs.len());
        let mut fs: Vec<Linear> = Vec::with_capacity(self.fs.len());
        xs.push(self.xs[0]);
        for (i, f) in self.fs.iter().enumerate() {
            let span = Interval::of(self.xs[i], self.xs[i + 1]);
            if let Some(last) = fs.last() {
                if last.approx_same_over(f, &span) {
                    continue; // extend previous piece: skip breakpoint
                }
                xs.push(self.xs[i]);
            }
            fs.push(*f);
        }
        xs.push(self.xs[self.xs.len() - 1]);
        Pwl { xs, fs }
    }

    /// Reflect the graph around the vertical line `x = c/2`, i.e.
    /// produce `g(x) = f(c − x)`.
    ///
    /// Used by the arrival-interval query reduction: running time
    /// "backwards" mirrors every function around a fixed instant.
    pub fn reflect_x(&self, c: f64) -> Pwl {
        let n = self.fs.len();
        let mut xs = Vec::with_capacity(self.xs.len());
        let mut fs = Vec::with_capacity(n);
        for x in self.xs.iter().rev() {
            xs.push(c - x);
        }
        for f in self.fs.iter().rev() {
            // g(x) = f(c - x) = -a·x + (a·c + b)
            fs.push(Linear {
                a: -f.a,
                b: f.a * c + f.b,
            });
        }
        Pwl { xs, fs }
    }

    /// Shift the whole graph right by `dx` (i.e. `x ↦ f(x − dx)`).
    pub fn shift_x(&self, dx: f64) -> Pwl {
        Pwl {
            xs: self.xs.iter().map(|x| x + dx).collect(),
            fs: self
                .fs
                .iter()
                .map(|f| Linear {
                    a: f.a,
                    b: f.b - f.a * dx,
                })
                .collect(),
        }
    }

    /// In-place [`shift_x`](Self::shift_x): same arithmetic
    /// (`x + dx`, `b − a·dx`) without allocating new buffers.
    pub fn shift_x_in_place(&mut self, dx: f64) {
        if dx == 0.0 {
            return;
        }
        for x in &mut self.xs {
            *x += dx;
        }
        for f in &mut self.fs {
            f.b -= f.a * dx;
        }
    }

    /// `true` if `self(x) ≥ other(x) − EPS` for all `x` in the
    /// intersection of the domains (i.e. `self` is dominated by
    /// `other`: it can never offer a smaller value).
    pub fn dominated_by(&self, other: &Pwl) -> bool {
        let Some(domain) = self.domain().intersect(&other.domain()) else {
            return false;
        };
        if domain.is_degenerate() {
            let x = domain.lo();
            return approx_le(other.eval_clamped(x), self.eval_clamped(x));
        }
        let xs = merged_breakpoints(&[self, other], &domain);
        // On each elementary interval both functions are linear, so the
        // comparison only needs the endpoints.
        for &x in &xs {
            let a = self.eval_clamped(x);
            let b = other.eval_clamped(x);
            if definitely_lt(a, b) {
                return false;
            }
        }
        true
    }

    /// The comparison kernel: `true` if `self(x) + offset ≥ other(x) −
    /// EPS` for all `x` in the intersection of the domains. `offset = 0`
    /// gives [`dominated_by`](Self::dominated_by)'s verdict at every
    /// input (both searches' dominance test); a path's lower-bound
    /// estimate against the lower border is the pointwise border rule
    /// (DESIGN.md §7).
    ///
    /// It walks the subdivision `dominated_by` materialises without
    /// buffering it, and a failing comparison stops the walk.
    pub fn dominated_by_offset(&self, offset: f64, other: &Pwl) -> bool {
        let Some(domain) = self.domain().intersect(&other.domain()) else {
            return false;
        };
        let (lo, hi) = (domain.lo(), domain.hi());
        if domain.is_degenerate() {
            return approx_le(other.eval_clamped(lo), self.eval_clamped(lo) + offset);
        }
        self.walk_knots(other, lo, hi, |a, b| !definitely_lt(a + offset, b))
    }

    /// The live-instant key: `None` exactly where
    /// [`dominated_by_offset`](Self::dominated_by_offset)`(offset, other)`
    /// is `true`; otherwise a lower bound on `self(x) + offset` over the
    /// instants `x` where it is definitely below `other(x)` — the live
    /// instants, where a path can still beat the border (DESIGN.md §7).
    ///
    /// On each elementary interval of the walk both functions are
    /// linear, so an interval holding a live instant has a live end,
    /// and its minimum sits on an end: the bound is the minimum of
    /// `self + offset` over the kept knots that are live or next to a
    /// live knot. Disjoint domains have no instant to compare, and the
    /// bound is `self`'s minimum plus `offset`.
    pub fn live_min(&self, offset: f64, other: &Pwl) -> Option<f64> {
        let Some(domain) = self.domain().intersect(&other.domain()) else {
            return Some(self.min_value() + offset);
        };
        let (lo, hi) = (domain.lo(), domain.hi());
        if domain.is_degenerate() {
            let v = self.eval_clamped(lo) + offset;
            return (!approx_le(other.eval_clamped(lo), v)).then_some(v);
        }
        // `prev`: the last knot's value and verdict; a live value is
        // finite, so `best` stays `∞` exactly while no knot is live.
        let (mut best, mut prev) = (f64::INFINITY, (f64::INFINITY, false));
        self.walk_knots(other, lo, hi, |a, b| {
            let v = a + offset;
            let live = definitely_lt(v, b);
            if live {
                best = best.min(v).min(prev.0);
            } else if prev.1 {
                best = best.min(v);
            }
            prev = (v, live);
            true
        });
        (best != f64::INFINITY).then_some(best)
    }

    /// The walk under both comparison kernels: `visit(self(x), other(x))`
    /// at each knot of the subdivision `dominated_by` materialises over
    /// the non-degenerate common domain `[lo, hi]` — its ends and the
    /// breakpoints strictly inside it, merged, an [`EPS`](crate::EPS)-close knot
    /// dropped in favour of the last kept one — in order, each value
    /// read on the piece that starts at or before `x`. Two cursors
    /// stream the merge, so nothing is buffered; each holds its
    /// function's next breakpoint inside the domain, and only the one
    /// that advanced seeks again. `visit` returning `false` stops the
    /// walk, and the result says whether it reached `hi`.
    #[inline]
    fn walk_knots(
        &self,
        other: &Pwl,
        lo: f64,
        hi: f64,
        mut visit: impl FnMut(f64, f64) -> bool,
    ) -> bool {
        // Index and value of the first breakpoint from `k` on that lies
        // strictly inside the common domain (`∞` when none is left).
        let seek = |xs: &[f64], mut k: usize| loop {
            match xs.get(k) {
                Some(&x) if x < hi => {
                    if definitely_lt(lo, x) && definitely_lt(x, hi) {
                        return (k, x);
                    }
                    k += 1;
                }
                _ => return (k, f64::INFINITY),
            }
        };
        // `(ka, xa)`, `(kb, xb)`: each function's next breakpoint not
        // yet merged; `i`, `j`: the pieces covering the knot under
        // comparison.
        let a = self.xs.partition_point(|&x| x <= lo);
        let b = other.xs.partition_point(|&x| x <= lo);
        let (mut i, mut j) = (a - 1, b - 1);
        let ((mut ka, mut xa), (mut kb, mut xb)) = (seek(&self.xs, a), seek(&other.xs, b));
        let mut x = lo;
        loop {
            while i + 1 < self.fs.len() && self.xs[i + 1] <= x {
                i += 1;
            }
            while j + 1 < other.fs.len() && other.xs[j + 1] <= x {
                j += 1;
            }
            if !visit(self.fs[i].eval(x), other.fs[j].eval(x)) {
                return false;
            }
            // Advance to the next kept knot; `hi` closes the sweep.
            let last = x;
            while approx_eq(x, last) {
                if x == hi {
                    return true;
                }
                if xa <= xb {
                    x = xa.min(hi);
                    (ka, xa) = seek(&self.xs, ka + 1);
                } else {
                    x = xb;
                    (kb, xb) = seek(&other.xs, kb + 1);
                }
            }
        }
    }

    /// The companion of [`dominated_by_offset`](Self::dominated_by_offset):
    /// the largest `other(x) − self(x)` over the intersection of the
    /// domains (`+∞` when they are disjoint), read once so that many
    /// offsets can be decided against it in O(1):
    /// `definitely_lt(self.gap(other), c)` implies
    /// `self.dominated_by_offset(c, other)`.
    ///
    /// For continuous functions the maximum sits on a breakpoint. Two
    /// cursors visit the domain's ends and **every** breakpoint of
    /// either function between them, each evaluated on the piece
    /// `dominated_by_offset` evaluates it on — a superset of the knots
    /// that kernel keeps, which can only raise the maximum, so the
    /// implication has no exception; the converse is not claimed.
    pub fn gap(&self, other: &Pwl) -> f64 {
        let Some(domain) = self.domain().intersect(&other.domain()) else {
            return f64::INFINITY;
        };
        let (lo, hi) = (domain.lo(), domain.hi());
        if domain.is_degenerate() {
            return other.eval_clamped(lo) - self.eval_clamped(lo);
        }
        // `i`, `j`: the pieces covering `x`, the right one at a knot.
        let mut i = self.xs.partition_point(|&x| x <= lo) - 1;
        let mut j = other.xs.partition_point(|&x| x <= lo) - 1;
        let (mut x, mut gap) = (lo, f64::NEG_INFINITY);
        loop {
            while i + 1 < self.fs.len() && self.xs[i + 1] <= x {
                i += 1;
            }
            while j + 1 < other.fs.len() && other.xs[j + 1] <= x {
                j += 1;
            }
            gap = gap.max(other.fs[j].eval(x) - self.fs[i].eval(x));
            if x == hi {
                return gap;
            }
            // Both pieces end past `x` (a last piece ends at `hi` or
            // later): the next breakpoint of either, `hi` at the latest.
            x = self.xs[i + 1].min(other.xs[j + 1]).min(hi);
        }
    }

    /// An empty placeholder `Pwl` used only as a transient value while
    /// moving a function out of a [`PwlRef`](crate::PwlRef); it violates
    /// the ≥ 2 breakpoints invariant and must never be observed.
    pub(crate) fn shell() -> Pwl {
        Pwl {
            xs: Vec::new(),
            fs: Vec::new(),
        }
    }

    /// Decompose into the raw breakpoint and piece buffers so their
    /// capacity can be recycled through a [`PwlScratch`] pool.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<Linear>) {
        (self.xs, self.fs)
    }

    /// Construct from buffers the pooled kernels built themselves:
    /// breakpoints already strictly increasing (they come out of
    /// [`dedupe_eps`] or a coalescing append) and coefficients finite
    /// by construction. Skips the [`Pwl::new`] validation passes in
    /// release builds; debug builds (and thus the test suite) still
    /// verify every invariant.
    pub(crate) fn from_sorted_parts(xs: Vec<f64>, fs: Vec<Linear>) -> Pwl {
        debug_assert!(xs.len() >= 2, "need at least 2 breakpoints");
        debug_assert_eq!(xs.len(), fs.len() + 1, "piece count mismatch");
        debug_assert!(
            xs.windows(2).all(|w| w[0] < w[1]),
            "breakpoints not strictly increasing"
        );
        debug_assert!(
            xs.iter().all(|x| x.is_finite())
                && fs.iter().all(|f| f.a.is_finite() && f.b.is_finite()),
            "non-finite breakpoint or coefficient"
        );
        Pwl { xs, fs }
    }
}

/// Collect, sort and dedupe ([`EPS`](crate::EPS)-aware) the breakpoints of several
/// functions clipped to `domain`, always including the domain
/// endpoints.
pub(crate) fn merged_breakpoints(fns: &[&Pwl], domain: &Interval) -> Vec<f64> {
    let mut xs = Vec::with_capacity(fns.iter().map(|f| f.xs.len()).sum::<usize>() + 2);
    xs.push(domain.lo());
    xs.push(domain.hi());
    for f in fns {
        for &x in &f.xs {
            if definitely_lt(domain.lo(), x) && definitely_lt(x, domain.hi()) {
                xs.push(x);
            }
        }
    }
    sort_dedupe(&mut xs);
    xs
}

/// Sort and remove near-duplicate breakpoints in place.
pub(crate) fn sort_dedupe(xs: &mut Vec<f64>) {
    xs.sort_by(f64::total_cmp);
    dedupe_eps(xs);
}

/// Remove near-duplicate breakpoints from a sorted list in place,
/// keeping the earlier (smaller) of each [`EPS`](crate::EPS)-close pair. This is
/// the dedupe half of [`sort_dedupe`], shared with the pooled kernels
/// that produce their knots already sorted.
pub(crate) fn dedupe_eps(xs: &mut Vec<f64>) {
    // `a` is removed when true; keep the earlier (smaller) value.
    xs.dedup_by(|a, b| approx_eq(*a, *b));
}

/// Pooled [`merged_breakpoints`]: fill `scratch.knots` with the same
/// sorted, deduped elementary breakpoints without allocating once the
/// scratch buffers are warm. Supports at most two functions.
///
/// Equivalence to the sorting version: each function's qualifying
/// breakpoints already form an ascending run (`f.xs` is strictly
/// increasing), `domain.lo()` is strictly below and `domain.hi()`
/// strictly above every qualifying point (`definitely_lt` filter), and
/// a stable two-run merge that prefers the first run on exact ties
/// produces exactly the permutation a stable sort of
/// `[lo, hi, run₀…, run₁…]` would. The dedupe pass is shared.
pub(crate) fn merged_breakpoints_into(scratch: &mut PwlScratch, fns: &[&Pwl], domain: &Interval) {
    debug_assert!(fns.len() <= 2, "pooled merge supports at most two fns");
    scratch.aux.clear();
    let mut split = 0;
    for (k, f) in fns.iter().enumerate() {
        // Candidates outside (lo, hi) can never pass the filter
        // (`definitely_lt(lo, x)` needs `x > lo`, and symmetrically at
        // `hi`), so binary-search the candidate window first instead of
        // running the two epsilon comparisons on every breakpoint —
        // restriction of a full-period function to a narrow leaving
        // window skips almost the whole table this way.
        let i0 = f.xs.partition_point(|&x| x <= domain.lo());
        let i1 = f.xs.partition_point(|&x| x < domain.hi());
        for &x in &f.xs[i0..i1] {
            if definitely_lt(domain.lo(), x) && definitely_lt(x, domain.hi()) {
                scratch.aux.push(x);
            }
        }
        if k == 0 {
            split = scratch.aux.len();
        }
    }
    let (a, b) = scratch.aux.split_at(split);
    let knots = &mut scratch.knots;
    knots.clear();
    knots.push(domain.lo());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            knots.push(a[i]);
            i += 1;
        } else {
            knots.push(b[j]);
            j += 1;
        }
    }
    knots.extend_from_slice(&a[i..]);
    knots.extend_from_slice(&b[j..]);
    knots.push(domain.hi());
    dedupe_eps(knots);
}

/// Build a [`Pwl`] from elementary breakpoints by asking `pick` for the
/// linear piece at each sub-interval midpoint.
pub(crate) fn build_from_breakpoints(
    xs: Vec<f64>,
    mut pick: impl FnMut(f64) -> Result<Linear>,
) -> Result<Pwl> {
    if xs.len() < 2 {
        return Err(PwlError::BadBreakpoints(
            "empty elementary subdivision".into(),
        ));
    }
    let mut fs = Vec::with_capacity(xs.len() - 1);
    for w in xs.windows(2) {
        fs.push(pick(0.5 * (w[0] + w[1]))?);
    }
    Pwl::new(xs, fs)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::EPS;

    /// The materialising sweep [`Pwl::dominated_by_offset`] replaced,
    /// given the offset: fill `scratch.knots` with the merged, deduped
    /// subdivision first, then compare at every knot. Kept as the
    /// streaming kernel's oracle.
    fn materialised(f: &Pwl, scratch: &mut PwlScratch, offset: f64, g: &Pwl) -> bool {
        let Some(domain) = f.domain().intersect(&g.domain()) else {
            return false;
        };
        if domain.is_degenerate() {
            let x = domain.lo();
            return approx_le(g.eval_clamped(x), f.eval_clamped(x) + offset);
        }
        merged_breakpoints_into(scratch, &[f, g], &domain);
        let (fdom, gdom) = (f.domain(), g.domain());
        let (mut i, mut j) = (0usize, 0usize);
        for &x in &scratch.knots {
            let fx = fdom.clamp(x);
            while i + 1 < f.fs.len() && f.xs[i + 1] <= fx {
                i += 1;
            }
            let gx = gdom.clamp(x);
            while j + 1 < g.fs.len() && g.xs[j + 1] <= gx {
                j += 1;
            }
            if definitely_lt(f.fs[i].eval(fx) + offset, g.fs[j].eval(gx)) {
                return false;
            }
        }
        true
    }

    /// A random function from `x0`: 1 to 7 pieces, a third of the gaps
    /// far below [`EPS`](crate::EPS) or just around it (which [`Linear::through`]
    /// would refuse), now and then a jump.
    fn random_fn(rng: &mut StdRng, x0: f64) -> Pwl {
        let n = rng.gen_range(1usize..=7);
        let (mut xs, mut fs) = (vec![x0], Vec::with_capacity(n));
        let mut y = rng.gen_range(0.0..10.0);
        for _ in 0..n {
            let x = xs[xs.len() - 1];
            let dx = match rng.gen_range(0u32..6) {
                0 => 1e-9,
                1 => rng.gen_range(0.5e-7..4e-6),
                _ => rng.gen_range(0.1..5.0),
            };
            if rng.gen_bool(0.1) {
                y += rng.gen_range(-1.0..1.0);
            }
            let a = rng.gen_range(-2.0..2.0);
            fs.push(Linear { a, b: y - a * x });
            xs.push(x + dx);
            y += a * dx;
        }
        Pwl::new(xs, fs).unwrap()
    }

    /// `f` with every knot moved by at most a few [`EPS`](crate::EPS) and every
    /// value by nothing, a sub-tolerance amount or a clear one — the
    /// pairs whose verdict hangs on the tolerance.
    fn jittered(rng: &mut StdRng, f: &Pwl) -> Pwl {
        let mut pick = |choices: &[f64]| choices[rng.gen_range(0..choices.len())];
        let mut pts: Vec<(f64, f64)> = f
            .points()
            .iter()
            .map(|&(x, y)| {
                let dx = pick(&[0.0, 0.0, 1e-9, -1e-9, 2e-7, -2e-7, 3e-6]);
                let dy = pick(&[0.0, 0.0, 4e-8, -4e-8, 2e-6, -2e-6, 0.5, -0.5]);
                (x + dx, y + dy)
            })
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts.dedup_by(|a, b| a.0 == b.0);
        if pts.len() < 2 {
            return f.clone();
        }
        let fs = pts.windows(2).map(chord).collect();
        Pwl::new(pts.iter().map(|p| p.0).collect(), fs).unwrap()
    }

    /// The line through two points, however close their abscissae.
    fn chord(w: &[(f64, f64)]) -> Linear {
        let a = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
        Linear {
            a,
            b: w[0].1 - a * w[0].0,
        }
    }

    #[test]
    fn streaming_kernel_matches_the_materialising_oracle() {
        let mut rng = StdRng::seed_from_u64(0xB02DE2);
        let mut scratch = PwlScratch::new();
        let offsets = [0.0, EPS / 2.0, -EPS / 2.0, 1.0, -1.0, 1e300, -1e300];
        let mut verdicts = [0usize; 2];
        for case in 0..10_000 {
            let x0 = rng.gen_range(0.0..20.0);
            let f = random_fn(&mut rng, x0);
            let (flo, fhi) = (f.domain().lo(), f.domain().hi());
            let near = rng.gen_range(flo - 5.0..fhi);
            let g = match case % 6 {
                // independent: partial overlap, containment, or none
                0 => random_fn(&mut rng, 20.0 - x0),
                1 => random_fn(&mut rng, near),
                // knots and values within tolerance of `f`'s
                2 | 3 => jittered(&mut rng, &f),
                // common domain: the single point where `f` ends
                4 => random_fn(&mut rng, fhi),
                // one piece covering `f`, and disjoint from it
                _ if rng.gen_bool(0.5) => {
                    let dom = Interval::of(flo - 1.0, fhi + 1.0);
                    Pwl::constant(dom, f.min_value() + rng.gen_range(-0.5..0.5)).unwrap()
                }
                _ => random_fn(&mut rng, fhi + 100.0),
            };
            for (a, b) in [(&f, &g), (&g, &f)] {
                assert_eq!(
                    a.dominated_by_offset(0.0, b),
                    a.dominated_by(b),
                    "case {case}: offset 0 vs dominated_by\n{a:?}\n{b:?}"
                );
                for offset in offsets {
                    let got = a.dominated_by_offset(offset, b);
                    let want = materialised(a, &mut scratch, offset, b);
                    assert_eq!(got, want, "case {case} offset {offset}\n{a:?}\n{b:?}");
                    verdicts[usize::from(got)] += 1;
                }
            }
        }
        // Both verdicts are exercised, neither marginally.
        assert!(verdicts[0] > 20_000 && verdicts[1] > 20_000, "{verdicts:?}");
    }

    /// A continuous function on exactly `[lo, hi]`: one, a few or 60
    /// pieces with slopes in `[-1, 1]` from uniform cuts, `close` adding
    /// to some cuts a twin far below [`EPS`](crate::EPS) or just around it.
    fn continuous_fn(rng: &mut StdRng, lo: f64, hi: f64, close: bool) -> Pwl {
        let n = [1, 60, rng.gen_range(2..8usize)][rng.gen_range(0..3usize)];
        let mut xs = vec![lo];
        for _ in 1..n {
            let x = rng.gen_range(lo..hi);
            xs.push(x);
            if close && rng.gen_bool(0.3) {
                xs.push(x + [1e-9, 2e-7, 3e-6][rng.gen_range(0..3usize)]);
            }
        }
        xs.retain(|&x| x < hi);
        xs.push(hi);
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut y = rng.gen_range(0.0..10.0);
        let mut fs = Vec::with_capacity(xs.len() - 1);
        for w in xs.windows(2) {
            let a = rng.gen_range(-1.0..1.0);
            fs.push(Linear { a, b: y - a * w[0] });
            y += a * (w[1] - w[0]);
        }
        Pwl::new(xs, fs).unwrap()
    }

    /// `gap`'s definition, the slow way: the maximum of `g − f` over the
    /// ends of the common domain and every breakpoint strictly between.
    fn brute_gap(f: &Pwl, g: &Pwl) -> f64 {
        let Some(domain) = f.domain().intersect(&g.domain()) else {
            return f64::INFINITY;
        };
        let (lo, hi) = (domain.lo(), domain.hi());
        let mut knots = vec![lo, hi];
        knots.extend(f.xs.iter().chain(&g.xs).filter(|&&x| lo < x && x < hi));
        let right_piece = |h: &Pwl, x: f64| {
            let i = (h.xs.partition_point(|&k| k <= x) - 1).min(h.fs.len() - 1);
            h.fs[i].eval(x)
        };
        let at = |&x: &f64| right_piece(g, x) - right_piece(f, x);
        knots.iter().map(at).fold(f64::NEG_INFINITY, f64::max)
    }

    #[test]
    fn gap_decides_offsets_the_way_the_comparison_kernel_does() {
        let mut rng = StdRng::seed_from_u64(0x6A9);
        // Gate verdicts (open, shut) and tightness checks that applied.
        let (mut gate, mut tight) = ([0usize; 2], 0usize);
        for case in 0..12_000 {
            let lo = rng.gen_range(0.0..20.0);
            let hi = lo + rng.gen_range(0.5..20.0);
            let close = case % 2 == 0;
            let f = continuous_fn(&mut rng, lo, hi, close);
            let inside = |rng: &mut StdRng| rng.gen_range(lo..hi);
            let (glo, ghi) = match case % 8 {
                0..=2 => (lo, hi),
                // nested either way, partial overlap, one shared point
                3 => (lo - 1.0, hi + 1.0),
                4 => (inside(&mut rng), hi),
                5 => (inside(&mut rng), hi + rng.gen_range(0.0..9.0)),
                6 => (hi, hi + 3.0),
                _ => (hi + 1.0, hi + 3.0),
            };
            let g = match case % 3 {
                // `f`'s graph through other knots, lifted: touching at
                // a knot or along pieces, or apart by a known amount
                0 if ghi > glo + 1e-3 => {
                    let lift = [0.0, 1e-8, 0.5, -0.5][rng.gen_range(0..4usize)];
                    let shape = continuous_fn(&mut rng, glo, ghi, close);
                    let pts: Vec<(f64, f64)> = shape
                        .xs
                        .iter()
                        .map(|&x| (x, f.eval_clamped(x) + lift))
                        .collect();
                    Pwl::new(shape.xs.clone(), pts.windows(2).map(chord).collect()).unwrap()
                }
                // independent: crossing graphs
                _ => continuous_fn(&mut rng, glo, ghi, close),
            };
            for (t, b) in [(&f, &g), (&g, &f)] {
                let gap = t.gap(b);
                assert_eq!(gap.to_bits(), brute_gap(t, b).to_bits(), "case {case}");
                if gap.is_infinite() {
                    assert!(!t.dominated_by_offset(1e300, b), "case {case}: disjoint");
                    continue;
                }
                // The tolerance at the largest knot or value in play: a
                // knot the comparison drops as EPS-close to its
                // neighbour moves a value by at most a slope of that.
                let tol = |c: f64| {
                    let top = |h: &Pwl| h.maximum().abs().max(h.min_value().abs());
                    let reach = t.domain().hi().max(b.domain().hi());
                    EPS * (1.0 + (top(t) + c.abs()).max(top(b)).max(reach))
                };
                let near = EPS * (1.0 + gap.abs());
                for d in [
                    0.0, 0.5, -0.5, 1.01, -1.01, 3.0, -3.0, 30.0, -30.0, 1e7, -1e7,
                ] {
                    let c = gap + d * near;
                    let shut = definitely_lt(gap, c);
                    gate[usize::from(shut)] += 1;
                    let dominated = t.dominated_by_offset(c, b);
                    assert!(!shut || dominated, "case {case} c {c}\n{t:?}\n{b:?}");
                    if c < gap - 10.0 * tol(c) {
                        tight += 1;
                        assert!(!dominated, "case {case} c {c} gap {gap}\n{t:?}\n{b:?}");
                    }
                }
            }
        }
        assert!(
            gate.iter().all(|&n| n > 1_000) && tight > 1_000,
            "{gate:?} {tight}"
        );
    }

    /// The comparison kernels as they were before the walk kept its
    /// cursors' next knots and the tolerance became a compare-and-select:
    /// both cursors seek again at every step, and the tolerance is
    /// `f64::max`'s. Kept as the reference of the two.
    mod reference {
        use super::*;

        fn tol(a: f64, b: f64) -> f64 {
            EPS * (1.0 + a.abs().max(b.abs()))
        }
        fn approx_eq(a: f64, b: f64) -> bool {
            (a - b).abs() <= tol(a, b)
        }
        fn approx_le(a: f64, b: f64) -> bool {
            a <= b + tol(a, b)
        }
        fn definitely_lt(a: f64, b: f64) -> bool {
            a + tol(a, b) < b
        }

        /// Index and value of the first breakpoint from `k` on strictly
        /// inside `(lo, hi)`, `∞` when none is left.
        fn next_inside(xs: &[f64], mut k: usize, lo: f64, hi: f64) -> (usize, f64) {
            loop {
                match xs.get(k) {
                    Some(&x) if x < hi => {
                        if definitely_lt(lo, x) && definitely_lt(x, hi) {
                            return (k, x);
                        }
                        k += 1;
                    }
                    _ => return (k, f64::INFINITY),
                }
            }
        }

        pub(super) fn walk(
            f: &Pwl,
            g: &Pwl,
            lo: f64,
            hi: f64,
            mut visit: impl FnMut(f64, f64) -> bool,
        ) -> bool {
            let mut a = f.xs.partition_point(|&x| x <= lo);
            let mut b = g.xs.partition_point(|&x| x <= lo);
            let (mut i, mut j) = (a - 1, b - 1);
            let mut x = lo;
            loop {
                while i + 1 < f.fs.len() && f.xs[i + 1] <= x {
                    i += 1;
                }
                while j + 1 < g.fs.len() && g.xs[j + 1] <= x {
                    j += 1;
                }
                if !visit(f.fs[i].eval(x), g.fs[j].eval(x)) {
                    return false;
                }
                let last = x;
                while approx_eq(x, last) {
                    if x == hi {
                        return true;
                    }
                    let (ka, xa) = next_inside(&f.xs, a, lo, hi);
                    let (kb, xb) = next_inside(&g.xs, b, lo, hi);
                    (a, b, x) = if xa <= xb {
                        (ka + 1, kb, xa.min(hi))
                    } else {
                        (ka, kb + 1, xb)
                    };
                }
            }
        }

        pub(super) fn dominated_by_offset(f: &Pwl, offset: f64, g: &Pwl) -> bool {
            let Some(domain) = f.domain().intersect(&g.domain()) else {
                return false;
            };
            let (lo, hi) = (domain.lo(), domain.hi());
            if domain.is_degenerate() {
                return approx_le(g.eval_clamped(lo), f.eval_clamped(lo) + offset);
            }
            walk(f, g, lo, hi, |a, b| !definitely_lt(a + offset, b))
        }

        pub(super) fn live_min(f: &Pwl, offset: f64, g: &Pwl) -> Option<f64> {
            let Some(domain) = f.domain().intersect(&g.domain()) else {
                return Some(f.min_value() + offset);
            };
            let (lo, hi) = (domain.lo(), domain.hi());
            if domain.is_degenerate() {
                let v = f.eval_clamped(lo) + offset;
                return (!approx_le(g.eval_clamped(lo), v)).then_some(v);
            }
            let (mut best, mut prev) = (f64::INFINITY, (f64::INFINITY, false));
            walk(f, g, lo, hi, |a, b| {
                let v = a + offset;
                let live = definitely_lt(v, b);
                if live {
                    best = best.min(v).min(prev.0);
                } else if prev.1 {
                    best = best.min(v);
                }
                prev = (v, live);
                true
            });
            (best != f64::INFINITY).then_some(best)
        }
    }

    /// A partner for `f`: EPS-jittered, overlapping, touching at one
    /// end (a degenerate common domain), disjoint, or one piece.
    fn partner(rng: &mut StdRng, f: &Pwl) -> Pwl {
        let (flo, fhi) = (f.domain().lo(), f.domain().hi());
        match rng.gen_range(0u32..6) {
            0 | 1 => jittered(rng, f),
            2 => {
                let x0 = rng.gen_range(flo - 5.0..fhi);
                random_fn(rng, x0)
            }
            3 => random_fn(rng, fhi),
            4 => random_fn(rng, fhi + 100.0),
            _ => {
                let dom = Interval::of(flo - 1.0, fhi + 1.0);
                Pwl::constant(dom, f.min_value() + rng.gen_range(-0.5..0.5)).unwrap()
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

        /// Knot for knot, verdict for verdict and bit for bit, the walk
        /// and both kernels answer as the reference does, offsets of
        /// every class included.
        #[test]
        fn kernels_answer_as_the_reference_walk(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x0 = rng.gen_range(0.0..1400.0);
            let f = random_fn(&mut rng, x0);
            let g = partner(&mut rng, &f);
            let offsets = [
                0.0,
                -0.0,
                EPS / 2.0,
                -EPS / 2.0,
                1.0,
                -1.0,
                5e-324,
                -5e-324,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                rng.gen_range(-3.0..3.0),
            ];
            for (a, b) in [(&f, &g), (&g, &f)] {
                if let Some(d) = a.domain().intersect(&b.domain()) {
                    if !d.is_degenerate() {
                        let (mut new, mut old) = (Vec::new(), Vec::new());
                        let stop = rng.gen_range(1usize..20);
                        let got = a.walk_knots(b, d.lo(), d.hi(), |x, y| {
                            new.push((x.to_bits(), y.to_bits()));
                            new.len() < stop
                        });
                        let want = reference::walk(a, b, d.lo(), d.hi(), |x, y| {
                            old.push((x.to_bits(), y.to_bits()));
                            old.len() < stop
                        });
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(new, old);
                    }
                }
                for offset in offsets {
                    prop_assert_eq!(
                        a.dominated_by_offset(offset, b),
                        reference::dominated_by_offset(a, offset, b)
                    );
                    let (got, want) = (a.live_min(offset, b), reference::live_min(a, offset, b));
                    prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn a_function_on_the_border_is_covered() {
        // The envelope's "first identified keeps its sub-interval" rule
        // makes a tie a loss for the later function: one lying exactly
        // on the border, or touching it at one knot, can win nowhere.
        let border = vee();
        assert!(border.clone().dominated_by_offset(0.0, &border));
        // the same graph through other knots, 2 below, estimate 2
        let low = Pwl::from_points(&[(0.0, 8.0), (4.0, 4.0), (10.0, -2.0), (20.0, 8.0)]).unwrap();
        assert!(low.dominated_by_offset(2.0, &border));
        assert!(!low.dominated_by_offset(2.0 - 1e-3, &border));
        // above the border except for a tie at the knot x = 10
        let touch = Pwl::from_points(&[(0.0, 12.0), (10.0, 0.0), (20.0, 11.0)]).unwrap();
        assert!(touch.dominated_by_offset(0.0, &border));
        let dips = Pwl::from_points(&[(0.0, 12.0), (10.0, -1e-3), (20.0, 11.0)]).unwrap();
        assert!(!dips.dominated_by_offset(0.0, &border));
    }

    #[test]
    fn a_straddling_path_is_keyed_where_it_is_live() {
        // Minutes of the day: lowest at 07:00, where the border lies
        // below it, tied with the border at 09:45 and below it after.
        let travel = Pwl::from_points(&[(420.0, 10.0), (585.0, 20.0), (600.0, 25.0)]).unwrap();
        let border = Pwl::from_points(&[(420.0, 8.0), (585.0, 20.0), (600.0, 40.0)]).unwrap();
        assert!(!travel.dominated_by_offset(0.0, &border));
        // Its 09:45 value, not its 07:00 minimum.
        assert_eq!(travel.live_min(0.0, &border), Some(20.0));
        assert_eq!(travel.live_min(3.0, &border), Some(23.0));
        // Dominated everywhere: the pointwise prune.
        assert_eq!(travel.live_min(15.0, &border), None);
        assert!(travel.dominated_by_offset(15.0, &border));
        // A border it beats everywhere keys it by its minimum.
        let high = Pwl::constant(travel.domain(), 100.0).unwrap();
        assert_eq!(travel.live_min(0.0, &high), Some(10.0));
    }

    fn vee() -> Pwl {
        // V shape: 10 - x on [0,10], x - 10 on [10, 20]
        Pwl::from_points(&[(0.0, 10.0), (10.0, 0.0), (20.0, 10.0)]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Pwl::new(vec![0.0], vec![]).is_err());
        assert!(Pwl::new(vec![0.0, 1.0], vec![]).is_err());
        assert!(Pwl::new(vec![1.0, 0.0], vec![Linear::identity()]).is_err());
        assert!(Pwl::new(vec![0.0, 0.0], vec![Linear::identity()]).is_err());
        assert!(Pwl::new(vec![0.0, 1.0], vec![Linear::identity()]).is_ok());
    }

    #[test]
    fn eval_and_piece_lookup() {
        let f = vee();
        assert_eq!(f.n_pieces(), 2);
        assert!(approx_eq(f.eval(0.0), 10.0));
        assert!(approx_eq(f.eval(5.0), 5.0));
        assert!(approx_eq(f.eval(10.0), 0.0));
        assert!(approx_eq(f.eval(20.0), 10.0)); // right endpoint uses last piece
        assert_eq!(f.try_eval(20.1), None);
        assert_eq!(f.try_eval(-0.1), None);
        // EPS slack at the endpoints
        assert!(f.try_eval(20.0 + 1e-9).is_some());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn eval_panics_outside() {
        vee().eval(25.0);
    }

    #[test]
    fn from_points_roundtrip() {
        let f = vee();
        assert_eq!(f.points(), vec![(0.0, 10.0), (10.0, 0.0), (20.0, 10.0)]);
        assert!(f.is_continuous());
    }

    #[test]
    fn minimum_at_kink() {
        let f = vee();
        let m = f.minimum();
        assert!(approx_eq(m.value, 0.0));
        assert!(m.at.approx_eq(&Interval::of(10.0, 10.0)));
        assert!(approx_eq(f.maximum(), 10.0));
    }

    #[test]
    fn minimum_on_flat_region() {
        // plateau at 5 on [2, 6]
        let f = Pwl::from_points(&[(0.0, 7.0), (2.0, 5.0), (6.0, 5.0), (8.0, 9.0)]).unwrap();
        let m = f.minimum();
        assert!(approx_eq(m.value, 5.0));
        assert!(m.at.approx_eq(&Interval::of(2.0, 6.0)));
    }

    #[test]
    fn minimum_first_of_two_runs() {
        // two separate plateaus at the same minimum; the first is reported
        let f = Pwl::from_points(&[
            (0.0, 1.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 1.0),
            (4.0, 0.0),
            (5.0, 0.0),
            (6.0, 1.0),
        ])
        .unwrap();
        let m = f.minimum();
        assert!(approx_eq(m.value, 0.0));
        assert!(m.at.approx_eq(&Interval::of(1.0, 2.0)));
    }

    #[test]
    fn min_over_subinterval() {
        let f = vee();
        let m = f.min_over(&Interval::of(0.0, 4.0)).unwrap();
        assert!(approx_eq(m.value, 6.0));
        assert!(m.at.approx_eq(&Interval::of(4.0, 4.0)));
        let m = f.min_over(&Interval::of(12.0, 30.0)).unwrap();
        assert!(approx_eq(m.value, 2.0));
        assert!(m.at.approx_eq(&Interval::of(12.0, 12.0)));
        assert!(f.min_over(&Interval::of(30.0, 40.0)).is_err());
        assert!(approx_eq(
            f.max_over(&Interval::of(5.0, 12.0)).unwrap(),
            5.0
        ));
    }

    #[test]
    fn add_scalar_and_linear() {
        let f = vee().add_scalar(3.0);
        assert!(approx_eq(f.eval(10.0), 3.0));
        let a = vee().add_identity();
        assert!(approx_eq(a.eval(10.0), 10.0));
        assert!(approx_eq(a.eval(0.0), 10.0));
        let back = a.sub_identity();
        assert!(approx_eq(back.eval(5.0), vee().eval(5.0)));
    }

    #[test]
    fn add_merges_breakpoints() {
        let f = vee(); // breaks at 10
        let g = Pwl::from_points(&[(5.0, 0.0), (15.0, 20.0)]).unwrap();
        let s = f.add(&g).unwrap();
        assert!(s.domain().approx_eq(&Interval::of(5.0, 15.0)));
        assert_eq!(s.n_pieces(), 2); // elementary: [5,10], [10,15]
        for x in [5.0, 7.3, 10.0, 12.9, 15.0] {
            assert!(approx_eq(s.eval(x), f.eval(x) + g.eval(x)));
        }
        // disjoint domains fail
        let h = Pwl::constant(Interval::of(100.0, 200.0), 1.0).unwrap();
        assert!(f.add(&h).is_err());
    }

    #[test]
    fn restrict_clips() {
        let f = vee();
        let r = f.restrict(&Interval::of(5.0, 12.0)).unwrap();
        assert!(r.domain().approx_eq(&Interval::of(5.0, 12.0)));
        assert_eq!(r.n_pieces(), 2);
        for x in [5.0, 9.9, 10.0, 12.0] {
            assert!(approx_eq(r.eval(x), f.eval(x)));
        }
        assert!(f.restrict(&Interval::of(30.0, 40.0)).is_err());
        // degenerate restriction fails
        assert!(f.restrict(&Interval::of(20.0, 25.0)).is_err());
    }

    #[test]
    fn simplify_merges_collinear() {
        let f = Pwl::new(
            vec![0.0, 5.0, 10.0, 20.0],
            vec![
                Linear::constant(3.0).unwrap(),
                Linear::constant(3.0).unwrap(),
                Linear::identity(),
            ],
        )
        .unwrap();
        let s = f.simplify();
        assert_eq!(s.n_pieces(), 2);
        assert_eq!(s.breakpoints(), &[0.0, 10.0, 20.0]);
        for x in [0.0, 4.0, 9.0, 15.0, 20.0] {
            assert!(approx_eq(s.eval(x), f.eval(x)));
        }
        assert_eq!(s.simplify(), s);
    }

    #[test]
    fn concat_glues_adjacent_functions() {
        let left = Pwl::from_points(&[(0.0, 1.0), (5.0, 3.0)]).unwrap();
        let right = Pwl::from_points(&[(5.0, 3.0), (8.0, 0.0), (10.0, 2.0)]).unwrap();
        let glued = left.concat(&right).unwrap();
        assert!(glued.domain().approx_eq(&Interval::of(0.0, 10.0)));
        assert_eq!(glued.n_pieces(), 3);
        assert!(glued.is_continuous());
        for x in [0.0, 2.5, 5.0 + 1e-9, 6.5, 8.0, 10.0] {
            let want = if x <= 5.0 {
                left.eval(x)
            } else {
                right.eval(x)
            };
            assert!(approx_eq(glued.eval(x), want), "x={x}");
        }
        // disjoint domains are rejected
        let far = Pwl::constant(Interval::of(50.0, 60.0), 1.0).unwrap();
        assert!(left.concat(&far).is_err());
        // order matters: right.concat(left) seams at 10 vs 0
        assert!(right.concat(&left).is_err());
    }

    #[test]
    fn reflect_x_mirrors_graph() {
        let f = vee(); // min at x=10 on [0,20]
        let g = f.reflect_x(30.0); // g(x) = f(30 − x), domain [10, 30]
        assert!(g.domain().approx_eq(&Interval::of(10.0, 30.0)));
        for x in [10.0, 14.5, 20.0, 25.0, 30.0] {
            assert!(approx_eq(g.eval(x), f.eval(30.0 - x)), "x={x}");
        }
        assert!(g.is_continuous());
        // minimum moves to the mirrored position
        let m = g.minimum();
        assert!(approx_eq(m.at.lo(), 20.0));
        // involution up to domain arithmetic
        let back = g.reflect_x(30.0);
        assert!(back.domain().approx_eq(&f.domain()));
        for x in [0.0, 7.0, 20.0] {
            assert!(approx_eq(back.eval(x), f.eval(x)));
        }
    }

    #[test]
    fn shift_x_moves_graph() {
        let f = vee().shift_x(100.0);
        assert!(f.domain().approx_eq(&Interval::of(100.0, 120.0)));
        assert!(approx_eq(f.eval(110.0), 0.0));
        assert!(approx_eq(f.eval(100.0), 10.0));
    }

    #[test]
    fn dominated_by_detects_pointwise_order() {
        let low = Pwl::constant(Interval::of(0.0, 10.0), 1.0).unwrap();
        let high = Pwl::constant(Interval::of(0.0, 10.0), 2.0).unwrap();
        assert!(high.dominated_by(&low));
        assert!(!low.dominated_by(&high));
        // crossing functions dominate neither way
        let up = Pwl::from_points(&[(0.0, 0.0), (10.0, 3.0)]).unwrap();
        assert!(!up.dominated_by(&low));
        assert!(!low.dominated_by(&up));
        // equal functions dominate each other (ties allowed)
        assert!(low.dominated_by(&low.clone()));
    }

    #[test]
    fn sort_dedupe_merges_near_duplicates() {
        let mut xs = vec![3.0, 1.0, 1.0 + 1e-12, 2.0, 3.0 - 1e-12];
        sort_dedupe(&mut xs);
        assert_eq!(xs.len(), 3);
        assert!(approx_eq(xs[0], 1.0));
        assert!(approx_eq(xs[1], 2.0));
        assert!(approx_eq(xs[2], 3.0));
    }
}
