//! Query specifications, answers, and search statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pwl::{Envelope, Interval, Pwl};
use roadnet::NodeId;
use traffic::DayCategory;

/// A time-interval fastest-path query: source, end node, leaving-time
/// interval, and the day category the trip happens on.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The source node `s`.
    pub source: NodeId,
    /// The end node `e`.
    pub target: NodeId,
    /// The leaving-time interval `I` (minutes since midnight).
    pub interval: Interval,
    /// The day category (e.g. workday).
    pub category: DayCategory,
    /// Optional per-query budget. `None` leaves only the engine-level
    /// safety valve ([`EngineConfig::max_expansions`]) in force.
    ///
    /// [`EngineConfig::max_expansions`]: crate::EngineConfig::max_expansions
    pub budget: Option<QueryBudget>,
    /// The network epoch this query is pinned to (live-update
    /// deployments only — see [`crate::epoch`]). `None` means "the
    /// current epoch"; the [`crate::service::QueryService`] stamps
    /// the current epoch id here at admission, so an answer computed
    /// later (after more deltas were published) is still computed
    /// against exactly the network version the caller submitted under.
    pub epoch: Option<crate::epoch::EpochId>,
}

impl QuerySpec {
    /// Convenience constructor (no per-query budget).
    pub fn new(source: NodeId, target: NodeId, interval: Interval, category: DayCategory) -> Self {
        QuerySpec {
            source,
            target,
            interval,
            category,
            budget: None,
            epoch: None,
        }
    }

    /// This query with a per-query budget attached.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// This query pinned to a specific network epoch.
    pub fn with_epoch(mut self, epoch: crate::epoch::EpochId) -> Self {
        self.epoch = Some(epoch);
        self
    }
}

/// A per-query resource budget.
///
/// When either limit trips mid-search, [`run_robust`] returns
/// a [`QueryOutcome::Degraded`] answer (best paths found so far plus a
/// constant-speed fallback route) instead of an error; the legacy
/// `Result<AllFpAnswer>` entry points map the same event to
/// [`AllFpError::BudgetExhausted`].
///
/// [`run_robust`]: crate::PathfindBackend::run_robust
/// [`AllFpError::BudgetExhausted`]: crate::AllFpError::BudgetExhausted
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock deadline measured from the start of the search.
    pub max_wall: Option<Duration>,
    /// Maximum path expansions (combined with the engine-level valve
    /// by `min`).
    pub max_expansions: Option<usize>,
}

impl QueryBudget {
    /// An unlimited budget (both limits off).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// This budget with a wall-clock deadline.
    pub fn with_deadline(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }

    /// This budget with an expansion cap.
    pub fn with_max_expansions(mut self, max_expansions: usize) -> Self {
        self.max_expansions = Some(max_expansions);
        self
    }
}

/// A cooperative cancellation flag shared between a batch caller and
/// the engine's workers.
///
/// Cloning shares the flag. The engine polls it between path pops, so
/// cancellation takes effect within a bounded number of expansions —
/// it never interrupts a composition mid-flight.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: every search polling this token stops at
    /// its next check and reports [`AllFpError::Cancelled`].
    ///
    /// [`AllFpError::Cancelled`]: crate::AllFpError::Cancelled
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a query degraded instead of completing exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The [`QueryBudget::max_wall`] deadline expired.
    DeadlineExpired,
    /// The expansion cap (per-query or engine-level) was reached.
    ExpansionsExhausted,
    /// The storage layer was unhealthy (the service's circuit breaker
    /// was open, or the query itself hit a storage fault) and the
    /// answer was served from the constant-speed fallback instead of
    /// the exact search. Produced only by the [`crate::service`]
    /// layer, never by the engine itself.
    StorageUnavailable,
}

/// The answer a budget-limited query returns when its budget runs out:
/// everything exact the search had already proven, plus an always-valid
/// fallback route.
///
/// `best` carries the *exact* partitioning over every complete
/// source-to-target path the search had discovered when the budget
/// tripped — popped from the queue **or still queued** (queued target
/// paths are salvaged with cheap envelope merges, no further search
/// work). Each path's travel-time function is exact; the partitioning
/// is an **upper bound** on the true lower border, since an unexplored
/// path might still have beaten it somewhere. `None` if no complete
/// path had been discovered yet. `fallback` is the
/// commercial-navigation (constant speed-limit) route with its exact
/// travel-time function over the query interval — always a drivable
/// plan, never optimal by construction.
#[derive(Debug, Clone)]
pub struct DegradedAnswer {
    /// What tripped.
    pub reason: DegradedReason,
    /// Best-so-far exact answer over the paths that had reached the
    /// target (an upper bound on the true lower border).
    pub best: Option<AllFpAnswer>,
    /// The constant-speed fallback route with its exact travel-time
    /// function under the real speed patterns.
    pub fallback: FastestPath,
    /// Minimum of the fallback's travel-time function, minutes.
    pub fallback_travel_minutes: f64,
    /// Search statistics up to the point the budget tripped.
    pub stats: QueryStats,
}

/// Outcome of a budget-aware query: exact, or degraded-but-usable.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The search terminated by the paper's rule: the full exact
    /// partitioning.
    Exact(AllFpAnswer),
    /// The budget tripped first: best-so-far plus a fallback route.
    Degraded(DegradedAnswer),
}

impl QueryOutcome {
    /// The exact answer, if this outcome is one.
    pub fn exact(&self) -> Option<&AllFpAnswer> {
        match self {
            QueryOutcome::Exact(a) => Some(a),
            QueryOutcome::Degraded(_) => None,
        }
    }

    /// The search statistics, whichever way the query ended.
    pub fn stats(&self) -> &QueryStats {
        match self {
            QueryOutcome::Exact(a) => &a.stats,
            QueryOutcome::Degraded(d) => &d.stats,
        }
    }
}

/// One concrete path with its exact travel-time function over (a
/// sub-interval of) the query interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FastestPath {
    /// The node sequence, starting at the source and ending at the
    /// target.
    pub nodes: Vec<NodeId>,
    /// The travel-time function `T(l)` of this path over the query
    /// interval (minutes of travel as a function of leaving minute).
    ///
    /// Shared storage: the same immutable function is typically also
    /// referenced by the answer's lower border (and, for singleFP, the
    /// single answer), so cloning a `FastestPath` bumps a refcount
    /// instead of deep-copying the piece tables.
    pub travel: Arc<Pwl>,
}

impl FastestPath {
    /// Number of edges on the path.
    pub fn n_edges(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Search-effort counters (the paper reports *expanded nodes* as its
/// machine-independent cost metric, §6.2).
///
/// # Thread-safety contract
///
/// `QueryStats` is plain data, not atomics: each query accumulates its
/// own instance on the thread that runs it, and the values only cross
/// threads inside a returned answer — `std::thread::scope`'s join edge
/// makes them visible to the reader without any ordering subtleties.
/// Engine-wide counters that *are* shared across live threads (the
/// travel-function cache, the buffer pool) use relaxed atomics and
/// document their own read contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Paths popped from the priority queue and expanded.
    pub expanded_paths: usize,
    /// Distinct nodes that appeared at the head of an expanded path.
    pub expanded_nodes: usize,
    /// Paths pushed into the priority queue.
    pub pushed: usize,
    /// Paths discarded by the lower-border rule, scalar or pointwise
    /// (DESIGN.md §7): candidates dropped before or after composition,
    /// and queued paths dropped at their pop because the border fell
    /// under them meanwhile (those are not counted in
    /// `expanded_paths`).
    pub pruned_by_border: usize,
    /// Candidate paths discarded by per-node dominance (only when the
    /// optional pruning extension is enabled).
    pub pruned_dominated: usize,
    /// Paths that reached the target and were merged into the lower
    /// border.
    pub border_merges: usize,
    /// Edge travel-function requests during this query.
    pub cache_lookups: usize,
    /// Requests served from the engine's travel-function cache.
    pub cache_hits: usize,
    /// Requests that computed the function from the speed profile
    /// (always equal to `cache_lookups` when the cache is disabled).
    pub cache_misses: usize,
    /// Pieces across every composed travel function this query built
    /// (one compose per surviving candidate edge expansion).
    pub pieces_total: u64,
    /// Pieces of the largest single composed travel function.
    pub pieces_max: u64,
    /// Payload bytes of the composed travel functions: `8` per
    /// breakpoint plus `16` per linear piece. A deterministic proxy for
    /// the allocation pressure the composition work *would* exert
    /// without buffer pooling — actual allocator traffic in the steady
    /// state is near zero (measured by the bench's counting allocator),
    /// precisely because these bytes land in recycled buffers.
    pub bytes_allocated: u64,
    /// Edge compositions skipped by prefix memoization when an answer
    /// assembles several candidate routes sharing corridors (the
    /// hierarchy backend's allFP re-composition). Zero on the flat
    /// search path, which never recomputes a route it already built.
    pub compositions_saved: u64,
    /// Node records the flat search read from its
    /// [`NetworkSource`](roadnet::NetworkSource), each at most once
    /// however often its node was expanded: one per expanded node
    /// under an estimator that reads no location
    /// ([`LowerBoundEstimator::reads_location`](crate::LowerBoundEstimator::reads_location)),
    /// else one per node touched (the seed and every candidate edge
    /// head past the cycle check). Zero for backends that do not run
    /// the flat search.
    pub nodes_read: usize,
}

/// Answer to a singleFP query.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleFpAnswer {
    /// The fastest path.
    pub path: FastestPath,
    /// The minimal travel time, minutes.
    pub travel_minutes: f64,
    /// The (first maximal) interval of optimal leaving instants.
    pub best_leaving: Interval,
    /// Search statistics.
    pub stats: QueryStats,
}

/// Answer to an allFP query: the partitioning of the query interval
/// plus the distinct fastest paths it references.
#[derive(Debug, Clone)]
pub struct AllFpAnswer {
    /// The distinct fastest paths discovered, indexed by the partition.
    pub paths: Vec<FastestPath>,
    /// The partitioning of `I`: consecutive sub-intervals, each with an
    /// index into [`AllFpAnswer::paths`]; adjacent entries reference
    /// different paths.
    pub partition: Vec<(Interval, usize)>,
    /// The lower-border function (travel time of the best path at every
    /// leaving instant), tagged with path indices.
    pub lower_border: Envelope<usize>,
    /// Search statistics.
    pub stats: QueryStats,
}

impl AllFpAnswer {
    /// The fastest path for leaving instant `l`.
    pub fn path_at(&self, l: f64) -> Option<&FastestPath> {
        let (_, idx) = self
            .partition
            .iter()
            .find(|(iv, _)| iv.contains_approx(l))?;
        self.paths.get(*idx)
    }

    /// Travel time when leaving at `l` (on the best path).
    pub fn travel_at(&self, l: f64) -> Option<f64> {
        self.lower_border.as_pwl().try_eval(l)
    }

    /// Render the partitioning like the paper's §4.6 result listing.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (iv, idx) in &self.partition {
            let path = &self.paths[*idx];
            let names: Vec<String> = path.nodes.iter().map(|n| n.to_string()).collect();
            let _ = writeln!(
                out,
                "[{} - {}]  {}",
                pwl::time::fmt_minutes(iv.lo()),
                pwl::time::fmt_minutes(iv.hi()),
                names.join(" -> ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::Linear;

    fn dummy_answer() -> AllFpAnswer {
        let i1 = Interval::of(0.0, 5.0);
        let i2 = Interval::of(5.0, 10.0);
        let p0 = FastestPath {
            nodes: vec![NodeId(0), NodeId(2)],
            travel: Arc::new(Pwl::constant(Interval::of(0.0, 10.0), 6.0).unwrap()),
        };
        let p1 = FastestPath {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            travel: Arc::new(Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap()),
        };
        let mut env = Envelope::new(
            Pwl::linear(Interval::of(0.0, 10.0), Linear { a: 0.2, b: 4.0 }).unwrap(),
            0usize,
        );
        env.merge_min(&Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap(), 1)
            .unwrap();
        AllFpAnswer {
            paths: vec![p0, p1],
            partition: vec![(i1, 0), (i2, 1)],
            lower_border: env,
            stats: QueryStats::default(),
        }
    }

    #[test]
    fn path_lookup_by_instant() {
        let a = dummy_answer();
        assert_eq!(a.path_at(2.0).unwrap().nodes.len(), 2);
        assert_eq!(a.path_at(7.0).unwrap().nodes.len(), 3);
        assert!(a.path_at(11.0).is_none());
        assert!((a.travel_at(0.0).unwrap() - 4.0).abs() < 1e-9);
        assert!((a.travel_at(9.0).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn describe_lists_partitions() {
        let text = dummy_answer().describe();
        assert!(text.contains("n0 -> n2"));
        assert!(text.contains("n0 -> n1 -> n2"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn fastest_path_edge_count() {
        let p = FastestPath {
            nodes: vec![NodeId(0)],
            travel: Arc::new(Pwl::constant(Interval::of(0.0, 1.0), 0.0).unwrap()),
        };
        assert_eq!(p.n_edges(), 0);
    }
}
