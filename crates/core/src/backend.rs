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

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::cache::{CacheCounters, CacheSession};
use crate::query::{
    AllFpAnswer, BatchStats, CancelToken, DegradedAnswer, DegradedReason, QueryOutcome, QuerySpec,
    QueryStats, SingleFpAnswer,
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

/// Answer a batch of queries over any backend on exactly `workers`
/// threads (clamped to `1..=queries.len()`; pass
/// `std::thread::available_parallelism()` for every core). Results
/// come back in input order, one slot per query, so a failing query
/// doesn't poison its batch-mates; callers that want exact-or-error
/// match on [`QueryOutcome::Exact`].
///
/// * **Scheduling** — the batch is split into contiguous per-worker
///   chunks, one double-ended queue per worker. A worker pops its own
///   queue from the front; when it runs dry it **steals the back half**
///   of the first non-empty victim queue, so skewed per-query costs
///   cannot leave workers idle. Work is fixed up front, so "every queue
///   empty" is a stable termination condition.
/// * **Sharing** — workers share the backend immutably, each holding
///   one warm [`CacheSession`] across all its queries: a miss filled by
///   one worker is a hit for every other, and steady-state lookups take
///   no lock.
/// * **Cancellation** — `cancel` is polled cooperatively by every
///   in-flight search; cancelled queries report
///   [`AllFpError::Cancelled`] in their own slots.
/// * **Panic isolation** — each query runs under `catch_unwind`, so a
///   poisoned query becomes [`AllFpError::Panicked`] in its own slot
///   while its batch-mates complete normally.
pub fn run_batch<B: PathfindBackend + Sync + ?Sized>(
    backend: &B,
    queries: &[QuerySpec],
    workers: usize,
    cancel: &CancelToken,
) -> (Vec<BatchResult>, BatchStats) {
    let (slots, stats) = drive_batch(backend, queries, workers, cancel);
    // A `None` slot means its worker thread died before reporting (a
    // panic that escaped a query). Error those slots instead of
    // panicking the caller.
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(AllFpError::Panicked(
                    "batch worker died before reporting this query".to_string(),
                ))
            })
        })
        .collect();
    (results, stats)
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Every structure behind these locks (work queues) is valid after any
/// interrupted operation — a lost entry at worst — so poison recovery
/// keeps one panicked query from wedging its whole batch.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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

/// The work-stealing scheduler behind [`run_batch`]: answers every
/// query once (each worker holding one session across all its queries)
/// and returns the results in input order. A slot is `None` only if its
/// worker thread died before reporting.
fn drive_batch<B: PathfindBackend + Sync + ?Sized>(
    backend: &B,
    queries: &[QuerySpec],
    workers: usize,
    cancel: &CancelToken,
) -> (Vec<Option<BatchResult>>, BatchStats) {
    let workers = workers.max(1).min(queries.len());
    if queries.is_empty() {
        return (Vec::new(), BatchStats::default());
    }
    // Queries that failed carry no statistics.
    let stats_of = |r: &BatchResult| r.as_ref().ok().map(|o| *o.stats());
    if workers <= 1 {
        let mut session = backend.cache_session();
        let mut stats = BatchStats::new(1);
        let results = queries
            .iter()
            .map(|q| {
                let r = answer_isolated(backend, q, &mut session, cancel);
                stats.record(0, stats_of(&r).as_ref());
                Some(r)
            })
            .collect();
        return (results, stats);
    }

    // One deque of query indices per worker, seeded with contiguous
    // chunks (preserves whatever locality the caller's ordering
    // has). `Mutex<VecDeque>` per worker: the owner and an
    // occasional thief are the only contenders.
    let chunk = queries.len().div_ceil(workers);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(queries.len());
            Mutex::new((lo..hi.max(lo)).collect())
        })
        .collect();
    let steals = AtomicU64::new(0);

    type Yield = (Vec<(usize, BatchResult)>, usize, QueryStats);
    let per_worker: Vec<std::thread::Result<Yield>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = &queues;
            let steals = &steals;
            handles.push(scope.spawn(move || {
                let mut session = backend.cache_session();
                let mut out: Vec<(usize, BatchResult)> = Vec::new();
                let mut processed = 0usize;
                let mut cache_stats = QueryStats::default();
                loop {
                    let next = lock(&queues[w]).pop_front();
                    let i = match next {
                        Some(i) => i,
                        None => match steal_into(queues, w, steals) {
                            Some(i) => i,
                            None => break,
                        },
                    };
                    let r = answer_isolated(backend, &queries[i], &mut session, cancel);
                    if let Some(qs) = stats_of(&r) {
                        cache_stats.cache_lookups += qs.cache_lookups;
                        cache_stats.cache_hits += qs.cache_hits;
                        cache_stats.cache_misses += qs.cache_misses;
                    }
                    processed += 1;
                    out.push((i, r));
                }
                (out, processed, cache_stats)
            }));
        }
        // Collect join *results*: a worker that died (panic that
        // escaped a query) loses its slots but cannot kill the batch.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut stats = BatchStats::new(workers);
    stats.steals = steals.load(Ordering::Relaxed);
    let mut results: Vec<Option<BatchResult>> = (0..queries.len()).map(|_| None).collect();
    for (w, yielded) in per_worker.into_iter().enumerate() {
        let Ok((rs, processed, cache_stats)) = yielded else {
            continue; // dead worker: its unreported slots stay None
        };
        stats.queries_per_worker[w] = processed;
        stats.cache_lookups += cache_stats.cache_lookups;
        stats.cache_hits += cache_stats.cache_hits;
        stats.cache_misses += cache_stats.cache_misses;
        for (i, r) in rs {
            results[i] = Some(r);
        }
    }
    (results, stats)
}

/// Steal the back half of the first non-empty victim queue into worker
/// `w`'s own queue, returning one stolen index to run immediately.
/// Returns `None` when every queue is empty (batch drained).
///
/// Locks are taken one at a time (victim released before the thief's
/// own queue is touched), so there is no lock-ordering hazard. Stealing
/// from the *back* keeps the victim's front — the indices it is about
/// to pop — intact, minimizing contention on the hot end.
fn steal_into(queues: &[Mutex<VecDeque<usize>>], w: usize, steals: &AtomicU64) -> Option<usize> {
    let n = queues.len();
    for off in 1..n {
        let v = (w + off) % n;
        let mut victim = lock(&queues[v]);
        let len = victim.len();
        if len == 0 {
            continue;
        }
        let take = len.div_ceil(2);
        let mut grabbed: Vec<usize> = Vec::with_capacity(take);
        while grabbed.len() < take {
            match victim.pop_back() {
                Some(i) => grabbed.push(i),
                None => break,
            }
        }
        drop(victim);
        steals.fetch_add(1, Ordering::Relaxed);
        // Popped back-to-front, so reverse to run in input order.
        grabbed.reverse();
        let mut it = grabbed.into_iter();
        let first = it.next();
        let mut own = lock(&queues[w]);
        own.extend(it);
        return first;
    }
    None
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
        let (batch, _) = run_batch(&engine, &queries, workers, &CancelToken::new());
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
        let (serial, serial_stats) = run_batch(&engine, &queries, 1, &cancel);
        assert_eq!(serial_stats.workers, 1);
        assert_eq!(serial_stats.total_queries(), queries.len());
        assert_eq!(serial_stats.steals, 0);
        // every thread width (including more workers than queries) must
        // produce the serial answers in input order
        for workers in [2usize, 3, 4, 16] {
            let (got, stats) = run_batch(&engine, &queries, workers, &cancel);
            assert_eq!(stats.workers, workers.min(queries.len()));
            assert_eq!(stats.total_queries(), queries.len());
            assert_eq!(stats.queries_per_worker.len(), stats.workers);
            assert_eq!(got.len(), serial.len());
            for (g, s) in got.iter().zip(serial.iter()) {
                let (g, s) = (g.as_ref().unwrap(), s.as_ref().unwrap());
                assert_same_partition(g.exact().unwrap(), s.exact().unwrap());
            }
            // per-query stats survive the roll-up: lookups were tallied
            // and split exactly into hits and misses
            assert_eq!(stats.cache_lookups, stats.cache_hits + stats.cache_misses);
            assert!(stats.cache_lookups > 0);
            let rate = stats.cache_hit_rate();
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn batch_empty_and_error_handling() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let cancel = CancelToken::new();
        let (results, stats) = run_batch(&engine, &[], 4, &cancel);
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());
        // a batch of only unreachable queries still returns one error
        // per query and exact per-worker accounting
        let (results, stats) = run_batch(&engine, &windows(4, 4, false), 2, &cancel);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_err()));
        assert_eq!(stats.total_queries(), 4);
        // errors carry no stats, so the cache roll-up stays empty
        assert_eq!(stats.cache_lookups, 0);
        assert_eq!(stats.cache_hit_rate(), 0.0);
    }

    #[test]
    fn steal_takes_back_half_and_preserves_order() {
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..3)
            .map(|w| {
                Mutex::new(if w == 1 {
                    (10..15).collect() // victim: 10 11 12 13 14
                } else {
                    VecDeque::new()
                })
            })
            .collect();
        let steals = AtomicU64::new(0);
        // worker 0 steals ceil(5/2)=3 from the back: 12 13 14
        let first = steal_into(&queues, 0, &steals);
        assert_eq!(first, Some(12));
        let own: Vec<usize> = queues[0].lock().unwrap().iter().copied().collect();
        assert_eq!(own, vec![13, 14], "remainder queued in input order");
        let victim: Vec<usize> = queues[1].lock().unwrap().iter().copied().collect();
        assert_eq!(victim, vec![10, 11], "victim keeps its front");
        assert_eq!(steals.load(Ordering::Relaxed), 1);
        // worker 2 scans victims in ring order starting after itself,
        // so it hits worker 0 first and takes ceil(2/2)=1 off the back
        assert_eq!(steal_into(&queues, 2, &steals), Some(14));
        // worker 0's queue still counts as its own, never as its victim
        queues[0].lock().unwrap().clear();
        queues[1].lock().unwrap().clear();
        assert_eq!(steal_into(&queues, 0, &steals), None);
        assert_eq!(steals.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn work_stealing_rebalances_a_skewed_batch() {
        // Even 3-query chunks per worker; a steal happens whenever one
        // worker drains its chunk while another still holds work, which
        // needs real interleaving — so the assertion is gated on the
        // host actually having more than one core.
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let queries = windows(12, 8, true);
        let mut saw_steal = false;
        for _ in 0..20 {
            let (_, stats) = run_batch(&engine, &queries, 4, &CancelToken::new());
            assert_eq!(stats.total_queries(), queries.len());
            if stats.steals > 0 {
                saw_steal = true;
                break;
            }
        }
        // On a single-core host the first worker may legitimately drain
        // everything before the others get scheduled, so only assert
        // when the host can actually interleave workers.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            assert!(saw_steal, "4 workers never stole from a 12-query batch");
        }
    }

    #[test]
    fn cancelled_token_cancels_every_slot() {
        let (net, _) = paper_running_example();
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let queries = windows(6, 1, true);
        let cancel = CancelToken::new();
        cancel.cancel();
        let (results, stats) = run_batch(&engine, &queries, 3, &cancel);
        assert_eq!(results.len(), queries.len());
        assert_eq!(stats.total_queries(), queries.len());
        for r in results {
            assert!(matches!(r, Err(AllFpError::Cancelled)));
        }
    }
}
