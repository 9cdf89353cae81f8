//! Closed intervals `[lo, hi]` on the real line.

use crate::{approx_eq, PwlError, Result, EPS};

/// A closed interval `[lo, hi]` with `lo ≤ hi` and finite endpoints.
///
/// Used both for time-of-day query intervals ("leaving between 7:00 and
/// 9:00") and for the sub-intervals of an allFP answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Create `[lo, hi]`; fails if `lo > hi` or either endpoint is not
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(PwlError::BadInterval { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// Create `[lo, hi]`, panicking on invalid input.
    ///
    /// Convenient in tests and for literals known to be valid.
    // The panicking constructor by contract: its callers pass finite,
    // ordered endpoints; `new` is the fallible one.
    #[allow(clippy::expect_used)]
    #[track_caller]
    pub fn of(lo: f64, hi: f64) -> Self {
        Self::new(lo, hi).expect("invalid interval literal")
    }

    /// A degenerate single-point interval `[x, x]`.
    pub fn point(x: f64) -> Result<Self> {
        Self::new(x, x)
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Length `hi − lo`.
    #[inline]
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// `true` if the interval is a single point (within [`EPS`]).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.len() <= EPS * (1.0 + self.lo.abs().max(self.hi.abs()))
    }

    /// Midpoint `(lo + hi) / 2`.
    #[inline]
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// `true` if `x ∈ [lo, hi]` exactly.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` if `x ∈ [lo, hi]` within [`EPS`] slack at both ends.
    #[inline]
    pub fn contains_approx(&self, x: f64) -> bool {
        crate::approx_le(self.lo, x) && crate::approx_le(x, self.hi)
    }

    /// `true` if `other ⊆ self` within [`EPS`] slack.
    pub fn covers(&self, other: &Interval) -> bool {
        crate::approx_le(self.lo, other.lo) && crate::approx_le(other.hi, self.hi)
    }

    /// Intersection with `other`, or `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Smallest interval containing both `self` and `other`.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Shift both endpoints by `dx`.
    pub fn shift(&self, dx: f64) -> Interval {
        Interval {
            lo: self.lo + dx,
            hi: self.hi + dx,
        }
    }

    /// Clamp `x` into the interval.
    #[inline]
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }

    /// `true` if the two intervals are equal within [`EPS`].
    pub fn approx_eq(&self, other: &Interval) -> bool {
        approx_eq(self.lo, other.lo) && approx_eq(self.hi, other.hi)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Interval::new(1.0, 0.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        assert!(Interval::new(0.0, f64::INFINITY).is_err());
        assert!(Interval::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn basic_queries() {
        let i = Interval::of(2.0, 6.0);
        assert_eq!(i.len(), 4.0);
        assert_eq!(i.mid(), 4.0);
        assert!(i.contains(2.0));
        assert!(i.contains(6.0));
        assert!(!i.contains(6.0001));
        assert!(!i.is_degenerate());
        assert!(Interval::point(3.0).unwrap().is_degenerate());
    }

    #[test]
    fn intersect_and_hull() {
        let a = Interval::of(0.0, 5.0);
        let b = Interval::of(3.0, 8.0);
        assert_eq!(a.intersect(&b), Some(Interval::of(3.0, 5.0)));
        assert_eq!(a.hull(&b), Interval::of(0.0, 8.0));
        let c = Interval::of(6.0, 7.0);
        assert_eq!(a.intersect(&c), None);
        // touching intervals intersect in a point
        let d = Interval::of(5.0, 9.0);
        assert_eq!(a.intersect(&d), Some(Interval::of(5.0, 5.0)));
    }

    #[test]
    fn covers_and_shift() {
        let a = Interval::of(0.0, 10.0);
        assert!(a.covers(&Interval::of(2.0, 3.0)));
        assert!(a.covers(&Interval::of(0.0, 10.0)));
        assert!(!a.covers(&Interval::of(-1.0, 3.0)));
        assert_eq!(a.shift(5.0), Interval::of(5.0, 15.0));
    }

    #[test]
    fn clamp_works() {
        let a = Interval::of(1.0, 2.0);
        assert_eq!(a.clamp(0.0), 1.0);
        assert_eq!(a.clamp(1.5), 1.5);
        assert_eq!(a.clamp(9.0), 2.0);
    }
}
