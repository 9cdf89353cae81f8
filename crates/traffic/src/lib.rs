//! CapeCod speed patterns (§2.1 of the ICDE 2006 paper).
//!
//! A **CapeCod** (CAtegorized PiecewisE COnstant speeD) pattern gives
//! each road segment one *daily speed profile per day category*
//! (Definition 2). Days are partitioned into categories — e.g.
//! *workday* / *non-workday* (Definition 1) — and within a category the
//! speed on a segment is a piecewise-constant function of the time of
//! day, extended periodically past midnight.
//!
//! The crate provides:
//!
//! * [`DayCategory`] — Definition 1;
//! * [`SpeedProfile`] — one day's piecewise-constant speeds, with the
//!   cumulative-distance function `D(t) = ∫ v` as a
//!   [`pwl::MonotonePwl`];
//! * [`CapeCodPattern`] — Definition 2: a profile per category;
//! * [`travel::travel_time_fn`] — the exact conversion from a speed
//!   profile to the piecewise-linear travel-time function of §4.1,
//!   generalized from the paper's two-speed Equation (1) to any number
//!   of speed pieces via `T(l) = D⁻¹(D(l) + d) − l`;
//! * [`RoadClass`] / [`PatternSchema`] — the Table 1 experiment schema
//!   (inbound/outbound highways, local roads in/outside Boston, with
//!   rush-hour slowdowns on workdays).
//!
//! The Flow Speed Model underlying CapeCod preserves FIFO (Sung et
//! al. 2000): an object leaving later never arrives earlier. This crate
//! produces arrival functions with strictly positive slope by
//! construction, which is what lets the query engine invert them.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod category;
mod delta;
mod pattern;
mod profile;
mod schema;

pub mod travel;

pub use category::DayCategory;
pub use delta::{PatternUpdate, TrafficDelta};
pub use pattern::CapeCodPattern;
pub use profile::{ProfilePiece, SpeedProfile};
pub use schema::{PatternSchema, RoadClass};

/// Errors from pattern construction and travel-time conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// A speed was zero, negative, or non-finite.
    BadSpeed(f64),
    /// Profile piece boundaries were invalid (unsorted, out of range,
    /// or not starting at midnight).
    BadPieces(String),
    /// A pattern was asked for a category it does not define.
    UnknownCategory(DayCategory),
    /// A distance was zero, negative, or non-finite.
    BadDistance(f64),
    /// Propagated error from the pwl layer.
    Pwl(pwl::PwlError),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::BadSpeed(v) => write!(f, "bad speed {v} (must be finite and > 0)"),
            TrafficError::BadPieces(msg) => write!(f, "bad profile pieces: {msg}"),
            TrafficError::UnknownCategory(c) => write!(f, "pattern has no profile for {c}"),
            TrafficError::BadDistance(d) => write!(f, "bad distance {d}"),
            TrafficError::Pwl(e) => write!(f, "pwl error: {e}"),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Pwl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pwl::PwlError> for TrafficError {
    fn from(e: pwl::PwlError) -> Self {
        TrafficError::Pwl(e)
    }
}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, TrafficError>;
