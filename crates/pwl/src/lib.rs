//! Piecewise-linear function algebra for time-dependent fastest paths.
//!
//! This crate is the mathematical substrate of the ICDE 2006 paper
//! *Finding Fastest Paths on A Road Network with Speed Patterns*
//! (Kanoulas, Du, Xia, Zhang). Everything the paper does with
//! travel-time functions lives here:
//!
//! * [`Linear`] — a single linear piece `y = a·x + b`.
//! * [`Pwl`] — a piecewise-linear function over a closed interval,
//!   with evaluation, restriction, addition, minima/maxima and argmin
//!   intervals.
//! * [`MonotonePwl`] — a continuous, strictly-increasing
//!   piecewise-linear function with an **exact inverse**. Arrival
//!   functions `A(l) = l + T(l)` and cumulative-distance functions
//!   `D(t) = ∫ v` are monotone; the paper's "135° line" trick for
//!   finding expansion breakpoints is precisely `A⁻¹` evaluated at a
//!   breakpoint of the next edge's travel-time function.
//! * [`compose_travel`] — the *compound* operation of §4.4:
//!   given the travel-time function `T₁` of a path `s ⇒ n` and the
//!   travel-time function `T₂` of an edge `n → n_j`, produce
//!   `T(l) = T₁(l) + T₂(l + T₁(l))`, the travel-time function of the
//!   expanded path `s ⇒ n → n_j`.
//! * [`Envelope`] — a *tagged lower envelope*; the paper's
//!   **lower border function** (§4.6) is an `Envelope<PathId>`, and the
//!   allFP answer — the partitioning of the query interval into
//!   sub-intervals each owning a fastest path — falls out of it by a
//!   linear scan.
//!
//! # Conventions
//!
//! The crate is unit-agnostic, but the rest of the workspace uses
//! **minutes since local midnight** on the x-axis and **minutes of
//! travel** (or miles, for distance functions) on the y-axis.
//! Domains are closed intervals `[lo, hi]`; pieces are half-open
//! `[xᵢ, xᵢ₊₁)` except the last, which is closed.
//!
//! # Numerical model
//!
//! All arithmetic is `f64`. Comparisons use the crate-wide tolerance
//! [`EPS`] through [`approx_eq`] / [`approx_le`]; quantities in this
//! workspace are minutes-of-day (≤ 10⁴), where `f64` leaves ~10⁻¹⁰
//! of slack, so `EPS = 1e-7` is conservative and stable.
//!
//! # Hot-path variants
//!
//! The kernels the allFP engine runs per edge expansion have pooled
//! twins that produce bit-identical results without steady-state
//! allocations: [`compose_travel_into`], [`Pwl::restrict_with`] and
//! [`Envelope::merge_min_with`], all fed from a per-worker
//! [`PwlScratch`]; the comparison kernel [`Pwl::dominated_by_offset`]
//! streams and needs no workspace, and [`Pwl::gap`] reads once the
//! offset it turns at. [`compose_travel_window_into`]
//! is the compound against a restriction that is never built: it
//! reads the stored function through a window. [`PwlRef`] shares finished
//! functions by reference count instead of deep copy.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::redundant_clone)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod envelope;
mod interval;
mod linear;
mod monotone;
mod packed;
mod pwl;
mod scratch;

pub mod compose;
pub mod time;

pub use envelope::{Envelope, EnvelopePiece};
pub use interval::Interval;
pub use linear::Linear;
pub use monotone::MonotonePwl;
pub use packed::PackedPwl;
pub use pwl::{MinResult, Pwl};
pub use scratch::{PwlRef, PwlScratch};

pub use compose::{compose_travel, compose_travel_into, compose_travel_window_into, Knots};

/// Crate-wide absolute tolerance for breakpoint and value comparisons.
///
/// Chosen for x-values the size of minutes-of-day (≤ ~10⁴) where `f64`
/// carries ~16 significant digits.
pub const EPS: f64 = 1e-7;

/// The tolerance the comparisons below allow between `a` and `b`:
/// [`EPS`] scaled by the larger magnitude.
///
/// A plain compare-and-select instead of the NaN-aware `f64::max`:
/// the two agree on every pair without a NaN, and where either operand
/// is NaN every caller's final comparison is false whatever the
/// tolerance, so the helpers answer exactly as with `max`.
#[inline]
fn tolerance(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    EPS * (1.0 + if a > b { a } else { b })
}

/// `true` if `a` and `b` are equal within [`EPS`] (scaled by magnitude).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= tolerance(a, b)
}

/// `true` if `a ≤ b` within [`EPS`] (scaled by magnitude).
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + tolerance(a, b)
}

/// `true` if `a < b` by clearly more than [`EPS`] (scaled by magnitude).
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a + tolerance(a, b) < b
}

/// Errors produced when constructing or combining piecewise-linear
/// functions.
#[derive(Debug, Clone, PartialEq)]
pub enum PwlError {
    /// Breakpoints were empty, unordered, or too close together.
    BadBreakpoints(String),
    /// Number of pieces did not match number of breakpoints.
    PieceCountMismatch {
        /// Number of breakpoints supplied.
        breakpoints: usize,
        /// Number of linear pieces supplied.
        pieces: usize,
    },
    /// A coefficient or value was NaN or infinite.
    NonFinite(String),
    /// An operation needed overlapping domains but got disjoint ones.
    DomainMismatch {
        /// Domain of the left operand.
        left: Interval,
        /// Domain of the right operand.
        right: Interval,
    },
    /// A point lay outside the function's domain.
    OutOfDomain {
        /// The offending point.
        x: f64,
        /// The function's domain.
        domain: Interval,
    },
    /// The function was expected to be continuous but is not.
    Discontinuous {
        /// Breakpoint where the jump occurs.
        at: f64,
        /// Value approached from the left.
        left: f64,
        /// Value approached from the right.
        right: f64,
    },
    /// The function was expected to be strictly increasing but is not.
    NotIncreasing {
        /// Breakpoint where monotonicity fails.
        at: f64,
    },
    /// An interval had `lo > hi` or non-finite endpoints.
    BadInterval {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
}

impl std::fmt::Display for PwlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PwlError::BadBreakpoints(msg) => write!(f, "bad breakpoints: {msg}"),
            PwlError::PieceCountMismatch {
                breakpoints,
                pieces,
            } => write!(
                f,
                "piece count mismatch: {breakpoints} breakpoints need {} pieces, got {pieces}",
                breakpoints.saturating_sub(1)
            ),
            PwlError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
            PwlError::DomainMismatch { left, right } => {
                write!(f, "domain mismatch: {left} vs {right}")
            }
            PwlError::OutOfDomain { x, domain } => {
                write!(f, "point {x} outside domain {domain}")
            }
            PwlError::Discontinuous { at, left, right } => {
                write!(f, "discontinuity at {at}: {left} vs {right}")
            }
            PwlError::NotIncreasing { at } => {
                write!(f, "function not strictly increasing at {at}")
            }
            PwlError::BadInterval { lo, hi } => write!(f, "bad interval [{lo}, {hi}]"),
        }
    }
}

impl std::error::Error for PwlError {}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, PwlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_helpers_behave() {
        assert!(approx_eq(1.0, 1.0 + 1e-9));
        assert!(!approx_eq(1.0, 1.001));
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0, 2.0));
        assert!(!approx_le(2.0, 1.0));
        assert!(definitely_lt(1.0, 2.0));
        assert!(!definitely_lt(1.0, 1.0 + 1e-9));
    }

    /// The helpers as they were written with `f64::max`, kept as the
    /// compare-and-select tolerance's reference.
    fn with_max(a: f64, b: f64) -> [bool; 3] {
        let tol = EPS * (1.0 + a.abs().max(b.abs()));
        [(a - b).abs() <= tol, a <= b + tol, a + tol < b]
    }

    fn helpers(a: f64, b: f64) -> [bool; 3] {
        [approx_eq(a, b), approx_le(a, b), definitely_lt(a, b)]
    }

    #[test]
    fn tolerance_answers_as_max_did_on_the_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            f64::MAX,
            f64::MIN,
            EPS,
            -EPS,
            1.0,
            1.0 + EPS,
            1.0 - EPS,
            1440.0,
            1440.0 + 1440.0 * EPS,
        ];
        for &a in &specials {
            for &b in &specials {
                assert_eq!(helpers(a, b), with_max(a, b), "({a:e}, {b:e})");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn tolerance_answers_as_max_did(
            bits in (0u64..u64::MAX, 0u64..u64::MAX),
            x in -2000.0f64..2000.0,
            near in -4.0f64..4.0,
        ) {
            // Any two bit patterns: subnormals, infinities and NaNs of
            // either sign among them.
            let (a, b) = (f64::from_bits(bits.0), f64::from_bits(bits.1));
            prop_assert_eq!(helpers(a, b), with_max(a, b));
            // Minutes-of-day apart by a few tolerances, where the
            // verdicts turn.
            let y = x + near * EPS * (1.0 + x.abs());
            prop_assert_eq!(helpers(x, y), with_max(x, y));
            prop_assert_eq!(helpers(y, x), with_max(y, x));
        }
    }

    #[test]
    fn errors_display() {
        let e = PwlError::OutOfDomain {
            x: 5.0,
            domain: Interval::new(0.0, 1.0).unwrap(),
        };
        assert!(e.to_string().contains("outside domain"));
        let e = PwlError::PieceCountMismatch {
            breakpoints: 3,
            pieces: 1,
        };
        assert!(e.to_string().contains("2 pieces"));
    }
}
