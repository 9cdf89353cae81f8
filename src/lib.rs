//! Façade crate for the *Finding Fastest Paths on A Road Network with
//! Speed Patterns* (ICDE 2006) reproduction.
//!
//! Re-exports the public API of every workspace crate under one roof,
//! so examples and downstream users can depend on a single crate:
//!
//! * [`pwl`] — piecewise-linear travel-time function algebra,
//! * [`traffic`] — CapeCod speed patterns and day categories,
//! * [`roadnet`] — the road-network model and synthetic generators,
//! * [`ccam`] — the Connectivity-Clustered Access Method disk substrate,
//! * [`allfp`] — the `IntAllFastestPaths` engine, estimators, and
//!   baselines,
//! * [`hierarchy`] — the time-dependent contraction hierarchy
//!   (preprocessing-based [`allfp::PathfindBackend`] with bit-identical
//!   answers).
//!
//! # Quickstart
//!
//! The paper's §4.3 running example, end to end:
//!
//! ```
//! use fastest_paths::prelude::*;
//!
//! let (net, ids) = fastest_paths::roadnet::examples::paper_running_example();
//! let query = QuerySpec::new(
//!     ids.s,
//!     ids.e,
//!     Interval::of(hm(6, 50), hm(7, 5)),
//!     DayCategory::WORKDAY,
//! );
//! let engine = Engine::new(&net, EngineConfig::default()).unwrap();
//!
//! // singleFP: leave between 7:00 and 7:03 and arrive in 5 minutes.
//! let single = engine.single_fastest_path(&query).unwrap();
//! assert!((single.travel_minutes - 5.0).abs() < 1e-9);
//!
//! // allFP: the interval splits into three sub-intervals
//! // (s→e, then s→n→e, then s→e again).
//! let all = engine.all_fastest_paths(&query).unwrap();
//! assert_eq!(all.partition.len(), 3);
//! ```

pub use allfp;
pub use ccam;
pub use hierarchy;
pub use pwl;
pub use roadnet;
pub use traffic;

/// The most common imports, bundled.
pub mod prelude {
    pub use allfp::{
        AllFpAnswer, Engine, EngineConfig, EstimatorKind, FastestPath, PathfindBackend, QuerySpec,
        QueryStats, SingleFpAnswer,
    };
    pub use hierarchy::{HierarchyConfig, HierarchyEngine};
    pub use pwl::time::{fmt_duration, fmt_minutes, hm, hms};
    pub use pwl::{Interval, Pwl};
    pub use roadnet::{NetworkSource, NodeId, RoadNetwork};
    pub use traffic::{CapeCodPattern, DayCategory, PatternSchema, RoadClass, SpeedProfile};
}
