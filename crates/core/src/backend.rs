//! The [`PathfindBackend`] abstraction: one query contract, many
//! search strategies — and [`run_batch`], the one way to run many
//! queries over any of them.
//!
//! The flat [`crate::Engine`] answers every query with a best-first
//! search over the original network. Preprocessing-based backends (the
//! time-dependent contraction hierarchy in `fp-hierarchy`) answer the
//! same queries over a derived structure — but everything *around* the
//! search (the admission-controlled [`crate::service::QueryService`],
//! batches, deadlines, cancellation, the degraded fallback) must not
//! care which strategy produced an answer. This trait is that seam.
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
//! it, and they — like every [`run_batch`] slot — fail with the one
//! [`AllFpError`].
//!
//! Implementations must be **answer-equivalent** to the flat engine:
//! bit-for-bit the same answers (`core/tests/hierarchy_equivalence.rs`,
//! `tests/backend_contract.rs`), the same kind of ending for a tripped
//! budget (an error, or a degraded answer with a usable constant-speed
//! plan, as the mode says), and [`AllFpError::Cancelled`] at the next
//! cooperative poll of a fired [`CancelToken`].
//!
//! Sessions come from the backend's own [`PathfindBackend::
//! cache_session`]; callers that serve many queries on one thread
//! (service workers, batch workers) open one session and keep it warm
//! across all of them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// One slot of a batch: what [`PathfindBackend::robust_with_session`]
/// returned for that query.
type BatchResult = Result<QueryOutcome>;

/// Answer a batch of queries over any backend on `workers` threads
/// (clamped to `1..=queries.len()`; pass
/// `std::thread::available_parallelism()` for every core). Results
/// come back in input order, one slot per query, so a failing query
/// doesn't poison its batch-mates; callers that want exact-or-error
/// match on [`QueryOutcome::Exact`].
///
/// * **Scheduling** — every worker runs one loop: claim the next
///   unanswered index from a shared cursor, answer it, repeat until the
///   cursor passes the end. A worker stuck on an expensive query simply
///   claims nothing else, so skewed per-query costs cannot leave the
///   others idle. The calling thread is worker 0 and `workers − 1`
///   helpers are spawned, so a width of 1 spawns no thread.
/// * **Sharing** — workers share the backend immutably, each holding
///   one warm [`CacheSession`] across all its queries: a miss filled by
///   one worker is a hit for every other, and steady-state lookups take
///   no lock.
/// * **Cancellation** — `cancel` is polled cooperatively by every
///   in-flight search; cancelled queries report
///   [`AllFpError::Cancelled`] in their own slots.
/// * **Panic isolation** — each query runs under `catch_unwind`, so a
///   poisoned query becomes [`AllFpError::Panicked`] in its own slot
///   while its batch-mates complete normally. A worker reports its
///   answers only when its loop returns, so one that dies outside a
///   query (the caller's own loop included, e.g. in its session's flush)
///   loses every slot it claimed; those become [`AllFpError::Panicked`]
///   too, and nothing unwinds into the caller.
pub fn run_batch<B: PathfindBackend + Sync + ?Sized>(
    backend: &B,
    queries: &[QuerySpec],
    workers: usize,
    cancel: &CancelToken,
) -> Vec<BatchResult> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut session = backend.cache_session();
        let mut answered = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(query) = queries.get(i) else {
                return answered;
            };
            answered.push((i, answer_isolated(backend, query, &mut session, cancel)));
        }
    };
    let mut slots: Vec<Option<BatchResult>> = (0..queries.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(queries.len()))
            .map(|_| scope.spawn(work))
            .collect();
        // The caller is worker 0. A worker that died (a panic outside
        // any query) loses every slot it claimed but cannot kill the
        // batch; AssertUnwindSafe as in `answer_isolated`.
        let own = catch_unwind(AssertUnwindSafe(work));
        for answered in std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())) {
            for (i, r) in answered.into_iter().flatten() {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(AllFpError::Panicked(
                    "batch worker died before reporting this query".to_string(),
                ))
            })
        })
        .collect()
}

/// Render a caught panic payload for error reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    // Take `String` payloads by value instead of cloning them out of
    // the box.
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_string(),
            |s| (*s).to_string(),
        ),
    }
}

/// One query of a batch, its panic caught into its own result.
fn answer_isolated<B: PathfindBackend + ?Sized>(
    backend: &B,
    query: &QuerySpec,
    session: &mut CacheSession<'_>,
    cancel: &CancelToken,
) -> BatchResult {
    // AssertUnwindSafe: the session (plain maps + tallies; an unwinding
    // search drops the workspace it checked out) and the shared cache
    // (poison-recovering locks over immutable-once-inserted values) are
    // both valid after an interrupted query.
    catch_unwind(AssertUnwindSafe(|| {
        backend.robust_with_session(query, session, Some(cancel))
    }))
    .unwrap_or_else(|payload| Err(AllFpError::Panicked(panic_message(payload))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use pwl::time::hm;
    use pwl::Interval;
    use roadnet::examples::paper_running_example;
    use traffic::DayCategory;

    /// `n` paper-example queries over sliding windows (`k % wrap`
    /// minutes late), `s → e` or the unreachable `e → s`.
    fn windows(n: u32, wrap: u32, reachable: bool) -> Vec<QuerySpec> {
        let (_, ids) = paper_running_example();
        let (from, to) = if reachable {
            (ids.s, ids.e)
        } else {
            (ids.e, ids.s)
        };
        (0..n)
            .map(|k| {
                QuerySpec::new(
                    from,
                    to,
                    Interval::of(hm(6, 40 + k % wrap), hm(7, 1 + k % wrap)),
                    DayCategory::WORKDAY,
                )
            })
            .collect()
    }

    fn assert_same_partition(got: &AllFpAnswer, want: &AllFpAnswer) {
        assert_eq!(got.partition.len(), want.partition.len());
        for (x, y) in got.partition.iter().zip(want.partition.iter()) {
            assert!(x.0.approx_eq(&y.0));
            assert_eq!(got.paths[x.1].nodes, want.paths[y.1].nodes);
        }
    }

    #[test]
    fn batch_matches_serial() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let mut queries = windows(9, 9, true);
        // one unreachable query mixed in: it must fail alone
        queries.extend(windows(1, 1, false));
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let batch = run_batch(&engine, &queries, workers, &CancelToken::new());
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(batch.iter()) {
            match engine.all_fastest_paths(q) {
                Ok(want) => {
                    let got = got.as_ref().expect("batch result matches serial");
                    assert_same_partition(got.exact().expect("unbudgeted → exact"), &want);
                }
                Err(_) => assert!(got.is_err()),
            }
        }
    }

    #[test]
    fn batch_covers_every_query_at_any_width() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let queries = windows(7, 7, true);
        let cancel = CancelToken::new();
        let serial = run_batch(&engine, &queries, 1, &cancel);
        assert_eq!(serial.len(), queries.len());
        // every thread width (including more workers than queries) must
        // produce the serial answers in input order
        for workers in [2usize, 3, 4, 16] {
            let got = run_batch(&engine, &queries, workers, &cancel);
            assert_eq!(got.len(), serial.len());
            for (g, s) in got.iter().zip(serial.iter()) {
                let (g, s) = (g.as_ref().unwrap(), s.as_ref().unwrap());
                assert_same_partition(g.exact().unwrap(), s.exact().unwrap());
                // per-query stats survive the batch: lookups were
                // tallied and split exactly into hits and misses
                let stats = g.stats();
                assert!(stats.cache_lookups > 0);
                assert_eq!(stats.cache_lookups, stats.cache_hits + stats.cache_misses);
            }
        }
    }

    #[test]
    fn batch_empty_and_error_handling() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let cancel = CancelToken::new();
        assert!(run_batch(&engine, &[], 4, &cancel).is_empty());
        // a batch of only unreachable queries still returns one error
        // per query
        let results = run_batch(&engine, &windows(4, 4, false), 2, &cancel);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_err()));
    }

    /// The paper-example engine with one scripted hitch: no worker can
    /// open a session, or query `stuck` waits until every other query
    /// of its batch has answered (10 s at most, then it fails).
    struct Hitched<'a> {
        engine: Engine<'a, roadnet::RoadNetwork>,
        no_session: bool,
        stuck: Option<Interval>,
        others: usize,
        answered: AtomicUsize,
    }

    impl<'a> Hitched<'a> {
        fn new(net: &'a roadnet::RoadNetwork, batch: &[QuerySpec]) -> Self {
            Hitched {
                engine: Engine::new(net, EngineConfig::default()).unwrap(),
                no_session: false,
                stuck: None,
                others: batch.len() - 1,
                answered: AtomicUsize::new(0),
            }
        }
    }

    impl PathfindBackend for Hitched<'_> {
        fn backend_name(&self) -> &'static str {
            "hitched"
        }

        fn cache_session(&self) -> CacheSession<'_> {
            assert!(!self.no_session, "no session today");
            self.engine.cache_session()
        }

        fn cache_counters(&self) -> CacheCounters {
            self.engine.cache_counters()
        }

        fn answer(
            &self,
            query: &QuerySpec,
            mode: QueryMode,
            session: &mut CacheSession<'_>,
            cancel: Option<&CancelToken>,
        ) -> Result<Answer> {
            if self.stuck != Some(query.interval) {
                let answer = self.engine.answer(query, mode, session, cancel);
                self.answered.fetch_add(1, Ordering::SeqCst);
                return answer;
            }
            let start = std::time::Instant::now();
            while self.answered.load(Ordering::SeqCst) < self.others {
                if start.elapsed().as_secs() >= 10 {
                    return Err(AllFpError::Internal("the rest of the batch never ran"));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            self.engine.answer(query, mode, session, cancel)
        }
    }

    #[test]
    fn a_stuck_query_leaves_the_rest_of_the_batch_to_the_other_worker() {
        // Query 0 cannot finish until every other query has, so any
        // split fixed before the batch starts deadlocks its worker's
        // share behind it; claiming as the batch runs does not.
        let (net, _) = paper_running_example();
        let queries = windows(8, 8, true);
        let backend = Hitched {
            stuck: Some(queries[0].interval),
            ..Hitched::new(&net, &queries)
        };
        let results = run_batch(&backend, &queries, 2, &CancelToken::new());
        assert_eq!(results.len(), queries.len());
        for (i, r) in results.iter().enumerate() {
            assert!(matches!(r, Ok(QueryOutcome::Exact(_))), "slot {i}: {r:?}");
        }
    }

    #[test]
    fn a_dead_worker_errors_its_slots_and_never_unwinds_into_the_caller() {
        let (net, _) = paper_running_example();
        let queries = windows(4, 4, true);
        let backend = Hitched {
            no_session: true,
            ..Hitched::new(&net, &queries)
        };
        // width 1: the calling thread's own loop is the one that dies
        for workers in [1, 3] {
            let results = run_batch(&backend, &queries, workers, &CancelToken::new());
            assert_eq!(results.len(), queries.len());
            for r in results {
                assert!(matches!(r, Err(AllFpError::Panicked(_))), "width {workers}");
            }
        }
    }

    #[test]
    fn cancelled_token_cancels_every_slot() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let queries = windows(6, 1, true);
        let cancel = CancelToken::new();
        cancel.cancel();
        for workers in [1, 3] {
            let results = run_batch(&engine, &queries, workers, &cancel);
            assert_eq!(results.len(), queries.len());
            for r in results {
                assert!(matches!(r, Err(AllFpError::Cancelled)), "width {workers}");
            }
        }
    }
}
