//! The [`PathfindBackend`] abstraction: one query contract, many
//! search strategies.
//!
//! The flat [`crate::Engine`] answers every query with a best-first
//! search over the original network. Preprocessing-based backends (the
//! time-dependent contraction hierarchy in `fp-hierarchy`) answer the
//! same queries over a derived structure — but everything *around* the
//! search (the admission-controlled [`crate::service::QueryService`],
//! deadlines, cancellation, the degraded fallback) must not care which
//! strategy produced an answer. This trait is that seam.
//!
//! # Contract
//!
//! A backend implements **one** search method,
//! [`PathfindBackend::answer`]: the paper has one algorithm — singleFP
//! is allFP stopped at the first target path popped (§4.5), a tripped
//! budget is the same search stopped early — so the [`QueryMode`] is an
//! argument, not a method. The four query surfaces
//! ([`PathfindBackend::all_fastest_paths`], [`PathfindBackend::
//! single_fastest_path`], [`PathfindBackend::robust_with_session`],
//! [`PathfindBackend::run_robust`]) are written once, here, on top of
//! it, and they fail with the one [`AllFpError`].
//!
//! Implementations must be **answer-equivalent** to the flat engine:
//! bit-for-bit the same answers (`core/tests/hierarchy_equivalence.rs`,
//! `tests/backend_contract.rs`), the same kind of ending for a tripped
//! budget (an error, or a degraded answer with a usable constant-speed
//! plan, as the mode says), and [`AllFpError::Cancelled`] at the next
//! cooperative poll of a fired [`CancelToken`].
//!
//! Sessions come from the backend's own [`PathfindBackend::
//! cache_session`]; a caller that serves many queries on one thread
//! (the service's `step_with_session`) opens one session and keeps it
//! warm across all of them.

use crate::cache::{CacheCounters, CacheSession};
use crate::query::{
    AllFpAnswer, CancelToken, DegradedAnswer, DegradedReason, QueryOutcome, QuerySpec, QueryStats,
    SingleFpAnswer,
};
use crate::{AllFpError, Result};

/// What a query asks of [`PathfindBackend::answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// The full allFP partitioning; a tripped budget is
    /// [`AllFpError::BudgetExhausted`].
    AllFp,
    /// Stop at the first target path popped (§4.5); a tripped budget
    /// is [`AllFpError::BudgetExhausted`].
    SingleFp,
    /// allFP, but a tripped budget degrades: the exact best-so-far
    /// plus the constant-speed plan ([`Answer::Degraded`]).
    AllFpOrDegraded,
}

/// How one search ended.
#[derive(Debug, Clone)]
pub enum Answer {
    /// allFP terminated by the paper's rule — the answer is exact.
    AllFp(AllFpAnswer),
    /// singleFP popped its first target path.
    SingleFp(SingleFpAnswer),
    /// A budget tripped under [`QueryMode::AllFpOrDegraded`].
    Degraded(DegradedAnswer),
}

/// A backend answered in a shape its [`QueryMode`] does not have.
const WRONG_SHAPE: AllFpError = AllFpError::Internal("backend answered another mode's query");

/// A query-answering strategy interchangeable with the flat
/// [`crate::Engine`]: same queries, same answers, same
/// budget/cancellation semantics. See the module docs for the contract.
///
/// The trait is object-safe, so experiment harnesses can hold a
/// `Box<dyn PathfindBackend + '_>` chosen by a CLI flag.
pub trait PathfindBackend {
    /// Short name for reports and benchmark output (`"flat"`,
    /// `"hierarchy"`, …).
    fn backend_name(&self) -> &'static str;

    /// Open a session: the worker-lifetime state a query runs on — a
    /// travel-function L1, a PWL buffer pool and the flat search's
    /// workspace (4 B per network node plus arenas bounded when idle).
    /// Callers that run many queries back to back on one thread keep
    /// one session warm across all of them.
    fn cache_session(&self) -> CacheSession<'_>;

    /// Lifetime hit/miss counters of the backend's travel-function
    /// cache.
    fn cache_counters(&self) -> CacheCounters;

    /// Run the search for `query` in `mode` on `session`, polling
    /// `cancel` cooperatively. The only method that searches; every
    /// surface below is this one with a mode.
    fn answer(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Answer>;

    /// Answer the **allFP query**: the full partitioning of the query
    /// interval into sub-intervals with their fastest paths.
    fn all_fastest_paths(&self, query: &QuerySpec) -> Result<AllFpAnswer> {
        match self.answer(query, QueryMode::AllFp, &mut self.cache_session(), None)? {
            Answer::AllFp(all) => Ok(all),
            _ => Err(WRONG_SHAPE),
        }
    }

    /// Answer the **singleFP query**: the best leaving instant(s) in
    /// the interval and the corresponding fastest path.
    fn single_fastest_path(&self, query: &QuerySpec) -> Result<SingleFpAnswer> {
        match self.answer(query, QueryMode::SingleFp, &mut self.cache_session(), None)? {
            Answer::SingleFp(single) => Ok(single),
            _ => Err(WRONG_SHAPE),
        }
    }

    /// One budget-aware query on an existing session: exact if the
    /// search finishes within [`QuerySpec::budget`], a degraded answer
    /// (best-so-far plus constant-speed fallback) if a budget trips, an
    /// error only for non-degradable failures.
    fn robust_with_session(
        &self,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutcome> {
        match self.answer(query, QueryMode::AllFpOrDegraded, session, cancel)? {
            Answer::AllFp(all) => Ok(QueryOutcome::Exact(all)),
            Answer::Degraded(degraded) => Ok(QueryOutcome::Degraded(degraded)),
            Answer::SingleFp(_) => Err(WRONG_SHAPE),
        }
    }

    /// [`PathfindBackend::robust_with_session`] on a fresh session.
    fn run_robust(&self, query: &QuerySpec) -> Result<QueryOutcome> {
        self.robust_with_session(query, &mut self.cache_session(), None)
    }
}

/// What a backend that selects its routes by a search of its own (the
/// contraction hierarchy's overlay search) hands to
/// [`crate::Engine::answer_routes`], the flat engine's ending, which
/// re-composes them into the answer.
#[derive(Debug)]
pub struct SearchRun {
    /// Distinct target routes (original node sequences) in
    /// identification order; singleFP identifies one.
    pub routes: Vec<Vec<roadnet::NodeId>>,
    /// `Some` when a budget tripped before the termination rule.
    pub trip: Option<DegradedReason>,
    /// The search's own effort statistics.
    pub stats: QueryStats,
}
