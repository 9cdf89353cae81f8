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
mod pwl;
mod scratch;

pub mod compose;
pub mod time;

pub use envelope::{Envelope, EnvelopePiece};
pub use interval::Interval;
pub use linear::Linear;
pub use monotone::MonotonePwl;
pub use pwl::{MinResult, Pwl};
pub use scratch::{PwlRef, PwlScratch};

pub use compose::{compose_travel, compose_travel_into, compose_travel_window_into};

/// Crate-wide absolute tolerance for breakpoint and value comparisons.
///
/// Chosen for x-values the size of minutes-of-day (≤ ~10⁴) where `f64`
/// carries ~16 significant digits.
pub const EPS: f64 = 1e-7;

/// `true` if `a` and `b` are equal within [`EPS`] (scaled by magnitude).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * (1.0 + a.abs().max(b.abs()))
}

/// `true` if `a ≤ b` within [`EPS`] (scaled by magnitude).
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS * (1.0 + a.abs().max(b.abs()))
}

/// `true` if `a < b` by clearly more than [`EPS`] (scaled by magnitude).
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a + EPS * (1.0 + a.abs().max(b.abs())) < b
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
