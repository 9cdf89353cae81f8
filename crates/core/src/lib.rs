//! `IntAllFastestPaths` — time-interval fastest-path queries on
//! CapeCod road networks (the core contribution of the ICDE 2006
//! paper).
//!
//! Given a source `s`, an end node `e`, a **leaving-time interval**
//! `I`, and a day category, the engine answers:
//!
//! * the **allFP query** (Definition 4): a full partitioning of `I`
//!   into sub-intervals, each associated with the fastest path for
//!   every leaving instant in it — adjacent sub-intervals have
//!   *different* fastest paths;
//! * the **singleFP query**: the single best leaving instant (in fact,
//!   interval of instants) in `I` and its fastest path.
//!
//! # Algorithm (§4)
//!
//! The engine extends A\*: the priority queue holds *paths*, each
//! carrying its full travel-time function `T(l) + T_est` as a
//! piecewise-linear function of the leaving time `l ∈ I`, prioritized
//! by the function's minimum. Expanding a path `s ⇒ n` by an edge
//! `n → n_j` uses the compound operation of `fp-pwl`
//! ([`pwl::compose_travel`]); paths reaching `e` fold into the **lower
//! border** ([`pwl::Envelope`]); the search stops when the smallest
//! queue minimum is no less than the border's maximum. The first path
//! to reach `e` answers singleFP.
//!
//! # Estimators (§4–5)
//!
//! * [`NaiveLb`]: Euclidean distance over the network's maximum speed;
//! * [`MinTimeLb`] (extension, the default): the exact bound the
//!   paper's two approximate — the shortest path over per-edge
//!   best-case travel times, grown backward from the query target on
//!   demand, with nothing precomputed.
//!
//! The paper's boundary-node estimator (bdLB) is `fpbench::boundary`,
//! next to Figure 9 and ablation A-1, its only runs: any
//! [`LowerBoundEstimator`] plugs in through [`Engine::with_estimator`].
//!
//! # Baselines (§3, §6.3)
//!
//! [`baseline`] implements the classic fixed-instant A\* (the
//! "degraded" special case), the **discrete-time model** (one A\* per
//! time instant), and the **constant-speed** commercial-navigation
//! model, all used by the experiment harness.
//!
//! # Robustness (extension)
//!
//! Queries can carry a [`QueryBudget`] (wall-clock deadline and/or an
//! expansion cap); [`PathfindBackend::run_robust`] and
//! [`PathfindBackend::robust_with_session`] answer such queries with a
//! [`QueryOutcome`] that **degrades instead of erroring** when the
//! budget trips — best-so-far exact paths plus a constant-speed
//! fallback route ([`DegradedAnswer`]). `robust_with_session` also
//! polls a cooperative [`CancelToken`]. Every surface fails with the
//! one [`AllFpError`]; a storage fault is its
//! `Network(NetworkError::Storage { kind, .. })`.
//! See `DESIGN.md` §9 for the full fault model.
//!
//! # Service (extension)
//!
//! [`service::QueryService`] wraps the engine behind one bounded FIFO
//! admission queue for long-running deployments: deadline-aware load
//! shedding with a typed [`service::Overloaded`] rejection, a storage
//! circuit breaker that routes queries to a constant-speed fallback
//! while the CCAM layer is unhealthy, and a
//! [`service::ServiceStats`] roll-up whose counters reconcile exactly.
//! See `DESIGN.md` §11.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::redundant_clone)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod engine;
mod estimator;
mod heap;
mod query;

pub mod arrival;
pub mod backend;
pub mod baseline;
pub mod epoch;
pub mod search;
pub mod service;

pub use arrival::{ArrivalAllFpAnswer, ArrivalPlanner, ArrivalQuerySpec, ArrivalSingleFpAnswer};
pub use backend::{Answer, PathfindBackend, QueryMode, SearchRun};
pub use cache::{CacheCounters, CacheSession, TravelFnCache};
pub use engine::{build_estimator, Engine, EngineConfig};
pub use epoch::{ApplyReport, Epoch, EpochId, EpochManager, EpochStats, LiveBackend, SweepReport};
pub use estimator::{EstimatorKind, LowerBoundEstimator, MinTimeLb, NaiveLb, ZeroLb};
pub use heap::MinEntry;
pub use query::{
    AllFpAnswer, CancelToken, DegradedAnswer, DegradedReason, FastestPath, QueryBudget,
    QueryOutcome, QuerySpec, QueryStats, SingleFpAnswer,
};

/// Errors from query evaluation.
#[derive(Debug)]
pub enum AllFpError {
    /// No path exists from source to target (for any leaving time).
    Unreachable {
        /// The query source.
        source: roadnet::NodeId,
        /// The query target.
        target: roadnet::NodeId,
    },
    /// The expansion budget was exhausted before termination.
    BudgetExhausted {
        /// Paths expanded before giving up.
        expansions: usize,
    },
    /// The search was cancelled through a [`CancelToken`].
    Cancelled,
    /// The query was pinned to a network epoch that has already been
    /// retired (its last pin dropped before this query ran). Failing
    /// is mandatory: answering from a different epoch would silently
    /// violate the pin-at-admission consistency contract.
    EpochRetired {
        /// The unavailable epoch's id.
        epoch: u64,
    },
    /// Contraction would store more overlay arcs than its budget, a
    /// fixed multiple of the network's edges: the topology's shortcuts
    /// multiply. Refused before the round that would cross the budget
    /// composes any shortcut.
    ContractionBudget {
        /// Arcs the overlay would hold after the round.
        arcs: usize,
        /// The budget.
        limit: usize,
    },
    /// An internal invariant failed — a bug in this crate, reported as
    /// an error rather than a panic so one bad query cannot take down
    /// a batch.
    Internal(&'static str),
    /// Propagated network error.
    Network(roadnet::NetworkError),
    /// Propagated traffic error.
    Traffic(traffic::TrafficError),
    /// Propagated function-algebra error.
    Pwl(pwl::PwlError),
}

impl std::fmt::Display for AllFpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllFpError::Unreachable { source, target } => {
                write!(f, "no path from {source} to {target}")
            }
            AllFpError::BudgetExhausted { expansions } => {
                write!(f, "expansion budget exhausted after {expansions} paths")
            }
            AllFpError::Cancelled => write!(f, "query cancelled"),
            AllFpError::EpochRetired { epoch } => {
                write!(f, "pinned network epoch {epoch} already retired")
            }
            AllFpError::ContractionBudget { arcs, limit } => write!(
                f,
                "contraction would grow the overlay to {arcs} arcs, past its budget of {limit}"
            ),
            AllFpError::Internal(what) => write!(f, "internal invariant violated: {what}"),
            AllFpError::Network(e) => write!(f, "network error: {e}"),
            AllFpError::Traffic(e) => write!(f, "traffic error: {e}"),
            AllFpError::Pwl(e) => write!(f, "pwl error: {e}"),
        }
    }
}

impl std::error::Error for AllFpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllFpError::Network(e) => Some(e),
            AllFpError::Traffic(e) => Some(e),
            AllFpError::Pwl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roadnet::NetworkError> for AllFpError {
    fn from(e: roadnet::NetworkError) -> Self {
        AllFpError::Network(e)
    }
}

impl From<traffic::TrafficError> for AllFpError {
    fn from(e: traffic::TrafficError) -> Self {
        AllFpError::Traffic(e)
    }
}

impl From<pwl::PwlError> for AllFpError {
    fn from(e: pwl::PwlError) -> Self {
        AllFpError::Pwl(e)
    }
}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, AllFpError>;
