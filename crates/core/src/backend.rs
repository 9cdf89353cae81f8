//! The [`PathfindBackend`] abstraction: one query contract, many
//! search strategies.
//!
//! The flat [`Engine`] answers every query with a best-first search
//! over the original network. Preprocessing-based backends (the
//! time-dependent contraction hierarchy in `fp-hierarchy`) answer the
//! same queries over a derived structure, orders of magnitude faster —
//! but everything *around* the search (the admission-controlled
//! [`crate::service::QueryService`], robust batches, deadlines,
//! cancellation, the degraded-fallback machinery) must not care which
//! strategy produced an answer. This trait is that seam.
//!
//! # Contract
//!
//! Implementations must be **answer-equivalent** to the flat engine:
//! for any query, `single_fastest_path` / `all_fastest_paths` /
//! `robust_with_session` return the same answers the flat engine
//! would (bit-for-bit for singleFP — see the golden equivalence suite
//! in `core/tests/hierarchy_equivalence.rs`). Budgets, cancellation
//! and degradation must behave identically in kind: a tripped budget
//! yields [`QueryOutcome::Degraded`] with a usable constant-speed
//! fallback plan, a fired [`CancelToken`] yields
//! [`EngineError::Cancelled`] at the next cooperative poll.
//!
//! Sessions come from the backend's own [`PathfindBackend::
//! cache_session`]; callers that serve many queries on one thread
//! (service workers, batch workers) open one session and keep it warm
//! across all of them, exactly as they did against the flat engine.

use std::panic::{catch_unwind, AssertUnwindSafe};

use roadnet::NetworkSource;

use crate::cache::{CacheCounters, CacheSession};
use crate::engine::{drive_batch, Engine};
use crate::query::{AllFpAnswer, BatchStats, CancelToken, QueryOutcome, QuerySpec, SingleFpAnswer};
use crate::{EngineError, Result};

/// A query-answering strategy interchangeable with the flat
/// [`Engine`]: same queries, same answers, same budget/cancellation
/// semantics. See the module docs for the exact contract.
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

    /// Answer the allFP query exactly (or error — budget exhaustion
    /// is an error on this legacy surface, as on the flat engine).
    fn all_fastest_paths(&self, query: &QuerySpec) -> Result<AllFpAnswer>;

    /// Answer the singleFP query exactly (or error).
    fn single_fastest_path(&self, query: &QuerySpec) -> Result<SingleFpAnswer>;

    /// One budget-aware query on an existing session: exact if the
    /// search finishes within budget, a degraded answer (best-so-far
    /// plus constant-speed fallback) if a budget trips, an error only
    /// for non-degradable failures. `cancel` is polled cooperatively.
    fn robust_with_session(
        &self,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> std::result::Result<QueryOutcome, EngineError>;

    /// [`PathfindBackend::robust_with_session`] on a fresh session.
    fn run_robust(&self, query: &QuerySpec) -> std::result::Result<QueryOutcome, EngineError> {
        let mut session = self.cache_session();
        self.robust_with_session(query, &mut session, None)
    }
}

impl<'a, S: NetworkSource> PathfindBackend for Engine<'a, S> {
    fn backend_name(&self) -> &'static str {
        "flat"
    }

    fn cache_session(&self) -> CacheSession<'_> {
        Engine::cache_session(self)
    }

    fn cache_counters(&self) -> CacheCounters {
        Engine::cache_counters(self)
    }

    fn all_fastest_paths(&self, query: &QuerySpec) -> Result<AllFpAnswer> {
        Engine::all_fastest_paths(self, query)
    }

    fn single_fastest_path(&self, query: &QuerySpec) -> Result<SingleFpAnswer> {
        Engine::single_fastest_path(self, query)
    }

    fn robust_with_session(
        &self,
        query: &QuerySpec,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> std::result::Result<QueryOutcome, EngineError> {
        Engine::robust_with_session(self, query, session, cancel)
    }

    fn run_robust(&self, query: &QuerySpec) -> std::result::Result<QueryOutcome, EngineError> {
        Engine::run_robust(self, query)
    }
}

/// Robust batch execution over any backend: the same work-stealing
/// scheduler, panic isolation and cooperative cancellation as
/// [`Engine::run_batch_robust`], generic over the search strategy.
/// Results come back in input order, one slot per query.
pub fn run_batch_robust<B: PathfindBackend + Sync + ?Sized>(
    backend: &B,
    queries: &[QuerySpec],
    workers: usize,
    cancel: &CancelToken,
) -> (
    Vec<std::result::Result<QueryOutcome, EngineError>>,
    BatchStats,
) {
    let (slots, stats) = drive_batch(
        || backend.cache_session(),
        queries,
        workers,
        |q, session| {
            // AssertUnwindSafe: the session (plain maps + tallies; an
            // unwinding search drops the workspace it checked out)
            // and the shared cache (poison-recovering locks over
            // immutable-once-inserted values) are both valid after
            // an interrupted query.
            catch_unwind(AssertUnwindSafe(|| {
                backend.robust_with_session(q, session, Some(cancel))
            }))
            .unwrap_or_else(|payload| {
                Err(EngineError::Panicked(crate::engine::panic_message(payload)))
            })
        },
        |r| r.as_ref().ok().map(|o| *o.stats()),
    );
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(EngineError::Panicked(
                    "batch worker died before reporting this query".to_string(),
                ))
            })
        })
        .collect();
    (results, stats)
}
