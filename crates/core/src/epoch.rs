//! Epoch-versioned live traffic updates (DESIGN.md §14).
//!
//! A live deployment receives [`TrafficDelta`] batches while queries
//! are in flight. The correctness contract is **pin-at-admission**:
//! every query is answered against exactly one *epoch* — one immutable
//! network version — chosen when the query is admitted, no matter how
//! many deltas are published before it actually runs. There are no
//! torn reads by construction, because nothing a query can reach is
//! ever mutated:
//!
//! * An [`Epoch`] owns an `Arc<RoadNetwork>` and an estimator; both
//!   are built before the epoch is published and never touched after.
//! * Applying a delta builds a **new** network via
//!   [`RoadNetwork::apply_delta`], whose pattern table is strictly
//!   append-only: pattern ids already observed by a pinned query keep
//!   their meaning forever. That single property is what lets all
//!   epochs share one [`TravelFnCache`] (keyed by pattern id) with no
//!   invalidation protocol on the hot path — a cached travel function
//!   is exact in every epoch that can look it up.
//! * Publishing is an atomic swap of the manager's current
//!   `Arc<Epoch>` under a short lock that queries only take at
//!   admission, never during search.
//!
//! Retirement is reference-counted: a query pins its epoch by holding
//! a clone of the `Arc` (the [`crate::service::QueryService`] stores
//! it in the ticket), and an old epoch is freed only when its last pin
//! drops. [`EpochManager::sweep`] then reclaims the *derived* state:
//! travel-function cache entries whose pattern id is no longer
//! referenced by any live epoch are flushed
//! ([`TravelFnCache::retire_patterns`]) — scoped invalidation, not a
//! cache wipe.
//!
//! Estimator reuse follows the invalidation cone of a delta: `NaiveLb`
//! is one scalar (`v_max`), rebuilt every epoch (free); `MinTimeLb`
//! depends on the network only through its edges' best-case speeds, so
//! the same `Arc` is republished unless the delta moved one of them
//! ([`DeltaReport::best_time_weights_changed`]), and then it is rebuilt
//! by [`build_estimator`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use roadnet::{DeltaReport, RoadNetwork};
use traffic::TrafficDelta;

use crate::backend::{Answer, PathfindBackend, QueryMode};
use crate::cache::{CacheCounters, CacheSession, TravelFnCache};
use crate::engine::{build_estimator, Engine, EngineConfig};
use crate::estimator::{EstimatorKind, LowerBoundEstimator};
use crate::query::{CancelToken, QuerySpec};
use crate::{AllFpError, Result};

/// Lock with poison recovery (same rationale as the service lock: the
/// manager state is valid after any interrupted mutation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Identifies one published network version. Ids are dense and
/// monotone: the seed epoch is 0 and every applied delta increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// One immutable network version: the network, its estimator, and the
/// delta report that produced it. Everything reachable from an epoch
/// is frozen at publish time; queries pin an epoch by holding its
/// `Arc` and can therefore never observe a torn update.
pub struct Epoch {
    id: EpochId,
    net: Arc<RoadNetwork>,
    estimator: Arc<dyn LowerBoundEstimator>,
    /// The report of the delta that produced this epoch (`None` for
    /// the seed epoch).
    produced_by: Option<DeltaReport>,
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch")
            .field("id", &self.id)
            .field("estimator", &self.estimator.name())
            .field("produced_by", &self.produced_by)
            .finish()
    }
}

impl Epoch {
    /// This epoch's id.
    pub fn id(&self) -> EpochId {
        self.id
    }

    /// The frozen network version.
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The frozen estimator.
    pub fn estimator(&self) -> &Arc<dyn LowerBoundEstimator> {
        &self.estimator
    }

    /// The report of the delta that produced this epoch (`None` for
    /// the seed epoch).
    pub fn produced_by(&self) -> Option<&DeltaReport> {
        self.produced_by.as_ref()
    }
}

/// What one [`EpochManager::apply_delta`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyReport {
    /// Id of the newly published epoch.
    pub epoch: EpochId,
    /// The network layer's apply report (edges changed, patterns
    /// interned, …).
    pub delta: DeltaReport,
    /// The predecessor's estimator was republished verbatim.
    pub estimator_reused: bool,
    /// Retirement work done by the sweep that ran after publishing.
    pub sweep: SweepReport,
}

/// What one [`EpochManager::sweep`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepReport {
    /// Epochs whose last pin had dropped; now counted retired.
    pub epochs_retired: u64,
    /// Travel-function cache entries flushed because their pattern id
    /// is referenced by no live epoch.
    pub cache_entries_flushed: u64,
    /// Published non-current epochs still alive (pinned) after the
    /// sweep — the retire lag.
    pub epoch_retire_lag: u64,
}

/// Live-update counters. Every snapshot satisfies
/// [`EpochStats::reconciles`]; the update-storm chaos harness asserts
/// it after every scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// Epochs ever published (the seed epoch counts).
    pub epochs_published: u64,
    /// Deltas applied ([`EpochManager::apply_delta`] successes).
    pub updates_applied: u64,
    /// Old epochs whose last pin dropped and that a sweep has counted.
    pub epochs_retired: u64,
    /// Published non-current epochs still pinned at the snapshot.
    pub epoch_retire_lag: u64,
    /// Travel-function cache entries flushed by retirement sweeps.
    pub cache_entries_flushed: u64,
}

impl EpochStats {
    /// The exact accounting identities every snapshot satisfies:
    /// `epochs_published = updates_applied + 1` (the seed epoch plus
    /// one per delta) and
    /// `epochs_retired + epoch_retire_lag = updates_applied` (every
    /// superseded epoch is either retired or still pinned).
    pub fn reconciles(&self) -> bool {
        self.epochs_published == self.updates_applied + 1
            && self.epochs_retired + self.epoch_retire_lag == self.updates_applied
    }
}

/// Manager state behind one short-lived lock (taken at admission and
/// publish time only — never during a search).
struct ManagerState {
    current: Arc<Epoch>,
    /// Every superseded epoch not yet counted retired, weakly held so
    /// the manager itself never keeps an epoch alive.
    history: Vec<(EpochId, Weak<Epoch>)>,
}

/// Publishes immutable [`Epoch`]s and retires them when their last
/// pinned query drains. See the module docs for the full model.
pub struct EpochManager {
    config: EngineConfig,
    /// One cache shared by every epoch — exact across versions because
    /// pattern ids are append-only.
    cache: Arc<TravelFnCache>,
    state: Mutex<ManagerState>,
    epochs_published: AtomicU64,
    updates_applied: AtomicU64,
    epochs_retired: AtomicU64,
    cache_entries_flushed: AtomicU64,
}

impl EpochManager {
    /// Publish the seed epoch (id 0) over `net`, building the
    /// configured estimator.
    pub fn new(net: RoadNetwork, config: EngineConfig) -> Result<EpochManager> {
        let net = Arc::new(net);
        let estimator = Arc::from(build_estimator(net.as_ref(), &config)?);
        let cache = Arc::new(TravelFnCache::new());
        Ok(EpochManager {
            config,
            cache,
            state: Mutex::new(ManagerState {
                current: Arc::new(Epoch {
                    id: EpochId(0),
                    net,
                    estimator,
                    produced_by: None,
                }),
                history: Vec::new(),
            }),
            epochs_published: AtomicU64::new(1),
            updates_applied: AtomicU64::new(0),
            epochs_retired: AtomicU64::new(0),
            cache_entries_flushed: AtomicU64::new(0),
        })
    }

    /// Pin the current epoch (clone its `Arc`): the caller's handle
    /// keeps the epoch alive until dropped.
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(&lock(&self.state).current)
    }

    /// Id of the current epoch.
    pub fn current_id(&self) -> EpochId {
        lock(&self.state).current.id
    }

    /// Pin a specific epoch: `None` pins the current one; `Some(id)`
    /// resolves the current epoch or a still-alive superseded one.
    /// Returns `None` when the epoch has already been retired (its
    /// last pin dropped) — the caller must fail the query rather than
    /// silently answer against a different network version.
    pub fn pin(&self, id: Option<EpochId>) -> Option<Arc<Epoch>> {
        let st = lock(&self.state);
        match id {
            None => Some(Arc::clone(&st.current)),
            Some(id) if st.current.id == id => Some(Arc::clone(&st.current)),
            Some(id) => st
                .history
                .iter()
                .find(|(h, _)| *h == id)
                .and_then(|(_, w)| w.upgrade()),
        }
    }

    /// The shared travel-function cache.
    pub fn cache(&self) -> &Arc<TravelFnCache> {
        &self.cache
    }

    /// The engine configuration every epoch's queries run under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Apply one delta: build the successor network (append-only
    /// pattern table), reuse or rebuild the estimator along the
    /// delta's invalidation cone, publish the new epoch atomically,
    /// and sweep retirements. Queries admitted before the publish keep
    /// their pinned epoch; queries admitted after see only the new one.
    pub fn apply_delta(&self, delta: &TrafficDelta) -> Result<ApplyReport> {
        let mut st = lock(&self.state);
        let old = Arc::clone(&st.current);
        let (new_net, report) = old.net.apply_delta(delta)?;
        let net = Arc::new(new_net);

        let reused =
            self.config.estimator != EstimatorKind::Naive && !report.best_time_weights_changed;
        let estimator = if reused {
            Arc::clone(&old.estimator)
        } else {
            Arc::from(build_estimator(net.as_ref(), &self.config)?)
        };

        let id = EpochId(old.id.0 + 1);
        st.history.push((old.id, Arc::downgrade(&old)));
        st.current = Arc::new(Epoch {
            id,
            net,
            estimator,
            produced_by: Some(report.clone()),
        });
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
        self.updates_applied.fetch_add(1, Ordering::Relaxed);
        // Drop the local pin before sweeping so an already-unpinned
        // predecessor retires in the same call.
        drop(old);
        let sweep = self.sweep_locked(&mut st);
        Ok(ApplyReport {
            epoch: id,
            delta: report,
            estimator_reused: reused,
            sweep,
        })
    }

    /// Retire epochs whose last pin has dropped and flush cache
    /// entries whose pattern id no live epoch references. Safe to call
    /// at any time; [`EpochManager::apply_delta`] and
    /// [`EpochManager::stats`] call it implicitly.
    pub fn sweep(&self) -> SweepReport {
        let mut st = lock(&self.state);
        self.sweep_locked(&mut st)
    }

    fn sweep_locked(&self, st: &mut ManagerState) -> SweepReport {
        let mut retired = 0u64;
        st.history.retain(|(_, w)| {
            if w.strong_count() == 0 {
                retired += 1;
                false
            } else {
                true
            }
        });
        let mut flushed = 0u64;
        if retired > 0 {
            // Union of pattern ids referenced by any live epoch; cache
            // entries outside it can never be looked up again.
            let mut referenced = st.current.net.referenced_patterns();
            for (_, w) in &st.history {
                if let Some(e) = w.upgrade() {
                    let r = e.net.referenced_patterns();
                    if r.len() > referenced.len() {
                        referenced.resize(r.len(), false);
                    }
                    for (i, live) in r.iter().enumerate() {
                        referenced[i] = referenced[i] || *live;
                    }
                }
            }
            flushed = self
                .cache
                .retire_patterns(|p| !referenced.get(p.0 as usize).copied().unwrap_or(false));
            self.epochs_retired.fetch_add(retired, Ordering::Relaxed);
            self.cache_entries_flushed
                .fetch_add(flushed, Ordering::Relaxed);
        }
        SweepReport {
            epochs_retired: retired,
            cache_entries_flushed: flushed,
            epoch_retire_lag: st.history.len() as u64,
        }
    }

    /// Counter snapshot. Runs a sweep first so the snapshot's
    /// retire/lag split is exact ([`EpochStats::reconciles`]).
    pub fn stats(&self) -> EpochStats {
        let lag = self.sweep().epoch_retire_lag;
        EpochStats {
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            epochs_retired: self.epochs_retired.load(Ordering::Relaxed),
            epoch_retire_lag: lag,
            cache_entries_flushed: self.cache_entries_flushed.load(Ordering::Relaxed),
        }
    }
}

/// A [`PathfindBackend`] that answers every query against its pinned
/// epoch: the query's [`QuerySpec::epoch`] stamp (or the current epoch
/// when unstamped) selects the network version; a cheap flat
/// [`Engine`] is assembled over the epoch's frozen parts per query.
/// All epochs share the manager's travel-function cache.
pub struct LiveBackend<'m> {
    manager: &'m EpochManager,
}

impl<'m> LiveBackend<'m> {
    /// A backend over `manager`.
    pub fn new(manager: &'m EpochManager) -> Self {
        LiveBackend { manager }
    }

    /// The manager this backend answers from.
    pub fn manager(&self) -> &'m EpochManager {
        self.manager
    }
}

impl<'m> PathfindBackend for LiveBackend<'m> {
    fn backend_name(&self) -> &'static str {
        "live"
    }

    fn cache_session(&self) -> CacheSession<'_> {
        self.manager.cache.session()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.manager.cache.counters()
    }

    fn answer(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> Result<Answer> {
        let epoch = self
            .manager
            .pin(query.epoch)
            .ok_or(AllFpError::EpochRetired {
                epoch: query.epoch.map_or(0, |e| e.0),
            })?;
        let engine = Engine::with_shared(
            epoch.net.as_ref(),
            Arc::clone(&epoch.estimator),
            Arc::clone(&self.manager.cache),
            self.manager.config.clone(),
        );
        engine.answer(query, mode, session, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::Interval;
    use roadnet::generators::grid;
    use roadnet::NodeId;
    use traffic::{DayCategory, RoadClass};

    fn small_net() -> RoadNetwork {
        grid(5, 5, 0.3, RoadClass::LocalOutside).unwrap()
    }

    fn spec() -> QuerySpec {
        QuerySpec::new(
            NodeId(0),
            NodeId(24),
            Interval::new(420.0, 480.0).unwrap(),
            DayCategory::WORKDAY,
        )
    }

    #[test]
    fn pinned_queries_see_their_epoch_not_later_ones() {
        let mgr = EpochManager::new(small_net(), EngineConfig::default()).unwrap();
        let live = LiveBackend::new(&mgr);
        let before = live.single_fastest_path(&spec()).unwrap();
        let pinned = spec().with_epoch(mgr.current_id());
        let pin = mgr.current();

        // Halve every speed on a corridor of edges.
        let delta = mgr.current().network().seeded_delta(7, 6, 1).unwrap();
        let report = mgr.apply_delta(&delta).unwrap();
        assert_eq!(report.epoch, EpochId(1));
        assert!(report.delta.edges_changed > 0);

        // The pinned query still answers bit-identically to the old
        // epoch; an unpinned query sees the new one.
        let after_pinned = live.single_fastest_path(&pinned).unwrap();
        assert_eq!(
            before.travel_minutes.to_bits(),
            after_pinned.travel_minutes.to_bits()
        );
        assert_eq!(before.path.nodes, after_pinned.path.nodes);
        drop(pin);
        assert_eq!(mgr.current_id(), EpochId(1));
    }

    #[test]
    fn retired_epochs_reject_instead_of_misanswering() {
        let mgr = EpochManager::new(small_net(), EngineConfig::default()).unwrap();
        let live = LiveBackend::new(&mgr);
        let pinned = spec().with_epoch(EpochId(0));
        let delta = mgr.current().network().seeded_delta(3, 4, 1).unwrap();
        mgr.apply_delta(&delta).unwrap();
        // Nothing pinned epoch 0: it is retired, and a query pinned to
        // it must fail rather than silently run on epoch 1.
        let err = live.single_fastest_path(&pinned).unwrap_err();
        assert!(matches!(err, AllFpError::EpochRetired { epoch: 0 }));
    }

    #[test]
    fn counters_reconcile_through_apply_and_retire() {
        let mgr = EpochManager::new(small_net(), EngineConfig::default()).unwrap();
        let pin = mgr.current();
        for seq in 1..=3u64 {
            let delta = mgr.current().network().seeded_delta(seq, 3, seq).unwrap();
            mgr.apply_delta(&delta).unwrap();
        }
        let st = mgr.stats();
        assert!(st.reconciles(), "{st:?}");
        assert_eq!(st.epochs_published, 4);
        assert_eq!(st.updates_applied, 3);
        // Epoch 0 is still pinned; epochs 1 and 2 retired on the spot.
        assert_eq!(st.epoch_retire_lag, 1);
        assert_eq!(st.epochs_retired, 2);
        drop(pin);
        let st = mgr.stats();
        assert!(st.reconciles(), "{st:?}");
        assert_eq!(st.epochs_retired, 3);
        assert_eq!(st.epoch_retire_lag, 0);
    }

    #[test]
    fn shared_cache_stays_exact_and_flushes_on_retire() {
        let mgr = EpochManager::new(small_net(), EngineConfig::default()).unwrap();
        let live = LiveBackend::new(&mgr);
        live.single_fastest_path(&spec()).unwrap();
        let seeded = mgr.cache().counters().inserted;
        assert!(seeded > 0);

        // Delta 1 replaces 8 edges' patterns with freshly interned
        // ones; a query then caches travel functions for them.
        let d1 = mgr.current().network().seeded_delta(5, 8, 1).unwrap();
        let r1 = mgr.apply_delta(&d1).unwrap();
        assert_eq!(r1.sweep.epochs_retired, 1);
        live.single_fastest_path(&spec()).unwrap();

        // Delta 2 (same seed → same edges) replaces them again, so
        // delta 1's patterns lose their last referencing edge; once
        // epoch 1 retires, their cache entries are flushed.
        let d2 = mgr.current().network().seeded_delta(5, 8, 2).unwrap();
        let r2 = mgr.apply_delta(&d2).unwrap();
        assert_eq!(r2.sweep.epochs_retired, 1);
        assert!(
            r2.sweep.cache_entries_flushed > 0,
            "delta-1 patterns should flush: {r2:?}"
        );
        let counters = mgr.cache().counters();
        assert!(counters.retired > 0);
        assert_eq!(
            counters.expected_resident(),
            counters.inserted - counters.retired
        );

        // Queries on the new epoch still share (and refill) the cache.
        live.single_fastest_path(&spec()).unwrap();
        assert!(mgr.cache().counters().inserted >= seeded);
    }
}
