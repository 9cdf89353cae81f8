//! Continuous, strictly increasing piecewise-linear functions.
//!
//! Two functions in this workspace are monotone by construction:
//!
//! * the **cumulative distance** `D(t) = ∫₀ᵗ v(τ) dτ` of a road
//!   segment with positive piecewise-constant speed `v`, and
//! * the **arrival function** `A(l) = l + T(l)` of a path, whose slope
//!   is positive exactly because the Flow Speed Model preserves the
//!   FIFO property (Sung et al., 2000).
//!
//! Strict monotonicity is what makes the paper's "135° line"
//! construction (§4.4) well defined: the leaving time at `s` whose
//! arrival at the intermediate node hits a breakpoint `t` of the next
//! edge's function is the unique `A⁻¹(t)`.

use crate::{Interval, Linear, Pwl, PwlError, Result, EPS};

/// A continuous, strictly increasing [`Pwl`] with an exact inverse.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotonePwl {
    inner: Pwl,
}

impl MonotonePwl {
    /// Wrap a [`Pwl`], verifying continuity and strictly positive piece
    /// slopes.
    pub fn new(pwl: Pwl) -> Result<Self> {
        pwl.check_continuous()?;
        for (iv, f) in pwl.pieces() {
            if f.a <= EPS {
                return Err(PwlError::NotIncreasing { at: iv.lo() });
            }
        }
        Ok(MonotonePwl { inner: pwl })
    }

    /// The identity on `domain`.
    pub fn identity(domain: Interval) -> Result<Self> {
        Self::new(Pwl::identity(domain)?)
    }

    /// Build the arrival function `A(l) = l + T(l)` from a travel-time
    /// function; fails if FIFO is violated (some slope of `A` ≤ 0,
    /// i.e. some slope of `T` ≤ −1).
    pub fn arrival_from_travel(travel: &Pwl) -> Result<Self> {
        Self::new(travel.add_identity())
    }

    /// Borrow the underlying [`Pwl`].
    #[inline]
    pub fn as_pwl(&self) -> &Pwl {
        &self.inner
    }

    /// Domain of the function.
    #[inline]
    pub fn domain(&self) -> Interval {
        self.inner.domain()
    }

    /// Range `[f(lo), f(hi)]` — an interval because the function is
    /// increasing and continuous.
    pub fn range(&self) -> Interval {
        let d = self.inner.domain();
        Interval::of(self.inner.eval(d.lo()), self.inner.eval(d.hi()))
    }

    /// Evaluate at `x` (panics outside the domain, like
    /// [`Pwl::eval`]).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.inner.eval(x)
    }

    /// Evaluate the inverse at `y`; `None` if `y` is outside the range.
    /// Allocation-free: a binary search over the piece table, no
    /// intermediate point list.
    ///
    /// This is the paper's 135°-line construction: for an arrival
    /// function `A` and a breakpoint `t` of the next edge's travel-time
    /// function, `inverse_at(t)` is the leaving time at the source that
    /// reaches the intermediate node exactly at `t`.
    pub fn inverse_at(&self, y: f64) -> Option<f64> {
        if !self.range().contains_approx(y) {
            return None;
        }
        // Binary search on breakpoint values (strictly increasing, since
        // the function is continuous with positive slopes): find the
        // first breakpoint whose value exceeds `y` — the same partition
        // point `points().partition_point(|(_, v)| v <= y)` used to
        // compute via a materialized point list.
        let n = self.inner.breakpoints().len();
        let value = |i: usize| {
            if i == 0 {
                self.inner.right_value(0)
            } else {
                self.inner.left_value(i)
            }
        };
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if value(mid) <= y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let piece = lo.saturating_sub(1).min(self.inner.n_pieces() - 1);
        let f = &self.inner.linears()[piece];
        let x = (y - f.b) / f.a;
        Some(self.domain().clamp(x))
    }

    /// The full inverse function, as a [`MonotonePwl`] on the range.
    /// Fails only if rounding ties two knot values of a very flat
    /// piece.
    pub fn inverse(&self) -> Result<MonotonePwl> {
        let pts = self.inner.points();
        let mut xs = Vec::with_capacity(pts.len());
        let mut fs = Vec::with_capacity(pts.len() - 1);
        for (i, f) in self.inner.linears().iter().enumerate() {
            xs.push(pts[i].1);
            fs.push(Linear {
                a: 1.0 / f.a,
                b: -f.b / f.a,
            });
        }
        xs.push(pts[pts.len() - 1].1);
        // Slopes 1/a are positive and the graph mirrors a continuous
        // function; `new` still checks the knots increase.
        Ok(MonotonePwl {
            inner: Pwl::new(xs, fs)?,
        })
    }

    /// Composition `self ∘ inner`, i.e. `x ↦ self(inner(x))`.
    ///
    /// `inner`'s range must be covered by `self`'s domain (within
    /// [`EPS`]).
    pub fn compose(&self, inner: &MonotonePwl) -> Result<MonotonePwl> {
        let irange = inner.range();
        if !self.domain().covers(&irange) {
            return Err(PwlError::DomainMismatch {
                left: self.domain(),
                right: irange,
            });
        }
        // Breakpoints: inner's, plus preimages of self's interior
        // breakpoints under inner.
        let mut xs: Vec<f64> = inner.inner.breakpoints().to_vec();
        for &bx in self.inner.breakpoints() {
            if let Some(px) = inner.inverse_at(bx) {
                if crate::definitely_lt(inner.domain().lo(), px)
                    && crate::definitely_lt(px, inner.domain().hi())
                {
                    xs.push(px);
                }
            }
        }
        crate::pwl::sort_dedupe(&mut xs);
        let composed = crate::pwl::build_from_breakpoints(xs, |mid| {
            let g = inner.inner.linears()[inner.inner.piece_index_at(mid)?];
            let y = g.eval(mid);
            let f = self.inner.linears()[self.inner.piece_index_at(self.domain().clamp(y))?];
            Ok(f.compose(&g))
        })?;
        MonotonePwl::new(composed)
    }

    /// Pointwise `self + c` (still monotone).
    pub fn add_scalar(&self, c: f64) -> MonotonePwl {
        MonotonePwl {
            inner: self.inner.add_scalar(c),
        }
    }

    /// Restrict to `to ∩ domain`.
    pub fn restrict(&self, to: &Interval) -> Result<MonotonePwl> {
        Ok(MonotonePwl {
            inner: self.inner.restrict(to)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn ramp() -> MonotonePwl {
        // slope 1 on [0,10], slope 3 on [10,20]
        MonotonePwl::new(Pwl::from_points(&[(0.0, 0.0), (10.0, 10.0), (20.0, 40.0)]).unwrap())
            .unwrap()
    }

    #[test]
    fn rejects_flat_and_decreasing() {
        let flat = Pwl::constant(Interval::of(0.0, 1.0), 2.0).unwrap();
        assert!(matches!(
            MonotonePwl::new(flat),
            Err(PwlError::NotIncreasing { .. })
        ));
        let dec = Pwl::from_points(&[(0.0, 5.0), (1.0, 4.0)]).unwrap();
        assert!(MonotonePwl::new(dec).is_err());
        let jump = Pwl::new(
            vec![0.0, 1.0, 2.0],
            vec![Linear::identity(), Linear { a: 1.0, b: 10.0 }],
        )
        .unwrap();
        assert!(matches!(
            MonotonePwl::new(jump),
            Err(PwlError::Discontinuous { .. })
        ));
    }

    #[test]
    fn range_and_inverse_at() {
        let f = ramp();
        assert!(f.range().approx_eq(&Interval::of(0.0, 40.0)));
        assert!(approx_eq(f.inverse_at(5.0).unwrap(), 5.0));
        assert!(approx_eq(f.inverse_at(10.0).unwrap(), 10.0));
        assert!(approx_eq(f.inverse_at(25.0).unwrap(), 15.0));
        assert!(approx_eq(f.inverse_at(40.0).unwrap(), 20.0));
        assert_eq!(f.inverse_at(41.0), None);
        assert_eq!(f.inverse_at(-1.0), None);
    }

    #[test]
    fn inverse_roundtrips() {
        let f = ramp();
        let inv = f.inverse().unwrap();
        assert!(inv.domain().approx_eq(&Interval::of(0.0, 40.0)));
        for x in [0.0, 3.7, 10.0, 14.2, 20.0] {
            assert!(approx_eq(inv.eval(f.eval(x)), x));
        }
        for y in [0.0, 9.0, 10.0, 33.0, 40.0] {
            assert!(approx_eq(f.eval(inv.eval(y)), y));
        }
    }

    #[test]
    fn arrival_from_travel_enforces_fifo() {
        // FIFO-safe: slope −2/3 > −1 (the paper's s→n function shape)
        let t = Pwl::from_points(&[(0.0, 6.0), (6.0, 2.0), (10.0, 2.0)]).unwrap();
        let a = MonotonePwl::arrival_from_travel(&t).unwrap();
        assert!(approx_eq(a.eval(0.0), 6.0));
        assert!(approx_eq(a.eval(10.0), 12.0));
        // FIFO-violating: slope −2 < −1
        let bad = Pwl::from_points(&[(0.0, 10.0), (5.0, 0.0)]).unwrap();
        assert!(MonotonePwl::arrival_from_travel(&bad).is_err());
    }

    #[test]
    fn compose_matches_pointwise() {
        let g = ramp(); // [0,20] -> [0,40]
        let f = MonotonePwl::new(
            Pwl::from_points(&[(0.0, 100.0), (25.0, 150.0), (40.0, 240.0)]).unwrap(),
        )
        .unwrap();
        let h = f.compose(&g).unwrap();
        assert!(h.domain().approx_eq(&Interval::of(0.0, 20.0)));
        for x in [0.0, 2.0, 9.99, 10.0, 12.5, 15.0, 17.3, 20.0] {
            assert!(
                approx_eq(h.eval(x), f.eval(g.eval(x))),
                "mismatch at {x}: {} vs {}",
                h.eval(x),
                f.eval(g.eval(x))
            );
        }
        // the interior breakpoint of f at y=25 shows up at x = g⁻¹(25) = 15
        assert!(h.as_pwl().breakpoints().iter().any(|&b| approx_eq(b, 15.0)));
    }

    #[test]
    fn compose_requires_domain_cover() {
        let g = ramp(); // range [0, 40]
        let f = MonotonePwl::identity(Interval::of(0.0, 30.0)).unwrap();
        assert!(f.compose(&g).is_err());
    }

    #[test]
    fn restrict_keeps_monotone() {
        let f = ramp().restrict(&Interval::of(5.0, 15.0)).unwrap();
        assert!(f.domain().approx_eq(&Interval::of(5.0, 15.0)));
        assert!(approx_eq(f.eval(15.0), 25.0));
    }
}
