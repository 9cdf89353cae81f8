//! One simulated cluster node: a full `QueryService` stack whose
//! engine reaches non-resident shards through the virtual bus.
//!
//! # How bit-exactness survives the network
//!
//! The data plane is replicated: every node's [`EpochManager`] holds a
//! complete copy of the network, advanced through the identical delta
//! chain, so all nodes (and the single-node oracle) build byte-equal
//! epochs and estimators. What the cluster adds is an *availability*
//! plane: a node may only read graph data of a shard it hosts, or of a
//! shard it has fetched this query over RPC. The fetch can fail (peer
//! crashed, network partitioned, breaker open past retries) or merely
//! cost virtual latency — it never changes a byte of the answer. So a
//! query either completes bit-identically to the flat pipeline or
//! degrades; there is no third state, which is exactly the Theorem 1
//! boundary-interface contract restated as a distributed system.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use allfp::service::{
    BreakerConfig, CircuitBreaker, LatencyHistogram, ManualClock, Route, ServiceClock,
};
use allfp::{
    Answer, CacheCounters, CacheSession, CancelToken, Engine, EpochManager, PathfindBackend,
    QueryMode, QuerySpec,
};
use roadnet::{
    Edge, NetworkError, NetworkSource, NodeId, PatternId, Point, RoadNetwork, StorageFaultKind,
};
use traffic::CapeCodPattern;

use crate::bus::{splitmix64, RpcOutcome, VirtualBus};
use crate::shard::ShardMap;

/// Client-side RPC retry tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt of one `(peer, fetch)`.
    pub max_retries: u32,
    /// Base backoff delay; attempt `k` waits `backoff_base << k` plus
    /// seeded jitter (the same `splitmix64 % (base/2 + 1)` shape the
    /// buffer pool uses), so retrying clients de-lockstep.
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: 4,
        }
    }
}

/// Per-node RPC accounting, summed across service incarnations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcCounters {
    /// Individual RPC attempts put on the bus.
    pub attempts: u64,
    /// Re-attempts after a timeout, with backoff.
    pub retries: u64,
    /// Attempts that burned the full timeout.
    pub timeouts: u64,
    /// Attempts refused fast because the peer was crashed.
    pub peer_down: u64,
    /// Attempts dropped by an active network partition.
    pub partition_drops: u64,
    /// Candidate hosts skipped because their circuit breaker was open.
    pub breaker_skips: u64,
    /// Shard fetches served by a replica after the preferred host
    /// failed (the failover path).
    pub failovers: u64,
    /// Shard fetches that succeeded (on any host).
    pub shard_fetches: u64,
    /// Shard fetches that exhausted every host and degraded the query.
    pub shard_unreachable: u64,
}

/// Breakers and counters behind one `RefCell`, so a borrow is always
/// scoped to a single decision.
#[derive(Debug)]
struct RpcState {
    /// One breaker per peer node, indexed by simulated node id.
    breakers: Vec<CircuitBreaker>,
    counters: RpcCounters,
}

/// One simulated cluster node's engine-side state. The query engine
/// itself is built per query (borrowing the pinned epoch), exactly as
/// [`allfp::LiveBackend`] does; this struct owns everything that
/// outlives a query: the epoch chain, the shard map, the bus
/// endpoint, per-peer breakers, and the node's virtual clock.
pub struct NodeBackend {
    id: usize,
    manager: EpochManager,
    shards: Arc<ShardMap>,
    bus: Rc<VirtualBus>,
    clock: Rc<ManualClock>,
    breaker_cfg: BreakerConfig,
    retry: RetryPolicy,
    rpc: RefCell<RpcState>,
    /// Virtual units spent on RPC during queries since the driver
    /// last collected them (the driver folds these into the node's
    /// clock advance after each step).
    accrued: Cell<u64>,
    /// Wasted-work latency of every failover, shared fleet-wide.
    failover_hist: Rc<RefCell<LatencyHistogram>>,
}

impl NodeBackend {
    /// A node with the given identity and cluster wiring.
    /// `breaker_cfg` should carry a per-node `probe_seed` so
    /// half-open probes across the fleet de-lockstep.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        manager: EpochManager,
        shards: Arc<ShardMap>,
        bus: Rc<VirtualBus>,
        clock: Rc<ManualClock>,
        breaker_cfg: BreakerConfig,
        retry: RetryPolicy,
        failover_hist: Rc<RefCell<LatencyHistogram>>,
    ) -> Self {
        let n = shards.n_sim_nodes();
        NodeBackend {
            id,
            manager,
            shards,
            bus,
            clock,
            breaker_cfg,
            retry,
            rpc: RefCell::new(RpcState {
                breakers: (0..n).map(|_| CircuitBreaker::new()).collect(),
                counters: RpcCounters::default(),
            }),
            accrued: Cell::new(0),
            failover_hist,
        }
    }

    /// This node's simulated id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's epoch manager (for `QueryService::with_epochs` and
    /// delta application).
    pub fn manager(&self) -> &EpochManager {
        &self.manager
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &ManualClock {
        &self.clock
    }

    /// The shard map this node routes by.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// Snapshot of the node's RPC counters.
    pub fn rpc_counters(&self) -> RpcCounters {
        self.rpc.borrow().counters
    }

    /// Total circuit-breaker trips across all peers.
    pub fn breaker_trips(&self) -> u64 {
        self.rpc.borrow().breakers.iter().map(|b| b.trips()).sum()
    }

    /// Drain the RPC latency accrued since the last call — the driver
    /// adds this to the node's clock after each service step, so RPC
    /// waiting consumes real (virtual) capacity.
    pub fn take_accrued(&self) -> u64 {
        self.accrued.replace(0)
    }

    /// Forget learned peer health (fresh breakers) — called on node
    /// restart: a rebooted process has no memory of who was flaky.
    /// Counters survive; they account the node, not the incarnation.
    pub fn reset_peers(&self) {
        let mut st = self.rpc.borrow_mut();
        let n = st.breakers.len();
        st.breakers = (0..n).map(|_| CircuitBreaker::new()).collect();
    }

    /// The node's view of `now`: its clock plus RPC latency already
    /// accrued inside the current query.
    fn now_plus(&self, accrued: u64) -> u64 {
        self.clock.now() + self.accrued.get() + accrued
    }

    /// Fetch `shard`'s data over the bus: try each host in the shard
    /// map's deterministic order (primary first), gate each through
    /// its circuit breaker, retry timeouts with seeded backoff, fail
    /// over to the next replica on exhaustion. Returns the virtual
    /// latency the fetch cost, or a transient storage error once every
    /// host is exhausted (which the service degrades gracefully).
    fn fetch_shard(&self, shard: u32, accrued: &Cell<u64>) -> Result<(), NetworkError> {
        let start = accrued.get();
        for (rank, host) in self.shards.hosts(shard).enumerate() {
            if host == self.id {
                // Residency is checked before fetching, so this arm is
                // unreachable; skip rather than self-RPC if it ever isn't.
                continue;
            }
            let route = {
                let mut st = self.rpc.borrow_mut();
                st.breakers[host].route(self.now_plus(accrued.get()), &self.breaker_cfg)
            };
            if route == Route::Fallback {
                self.rpc.borrow_mut().counters.breaker_skips += 1;
                continue;
            }
            let probe = route == Route::Probe;
            let delivered = self.call_with_retries(host, accrued);
            {
                let mut st = self.rpc.borrow_mut();
                let now = self.clock.now() + self.accrued.get() + accrued.get();
                if probe {
                    st.breakers[host].on_probe(now, !delivered, &self.breaker_cfg);
                } else {
                    st.breakers[host].on_primary(now, !delivered, &self.breaker_cfg);
                }
            }
            if delivered {
                let mut st = self.rpc.borrow_mut();
                st.counters.shard_fetches += 1;
                if rank > 0 {
                    st.counters.failovers += 1;
                    self.failover_hist
                        .borrow_mut()
                        .record(accrued.get() - start);
                }
                return Ok(());
            }
        }
        let mut st = self.rpc.borrow_mut();
        st.counters.shard_unreachable += 1;
        Err(NetworkError::Storage {
            kind: StorageFaultKind::Transient,
            message: format!("shard {shard} unreachable from node {}", self.id),
        })
    }

    /// One host: first attempt plus up to `max_retries` timeout
    /// retries with seeded exponential backoff. Peer-down and
    /// partition outcomes fail the host immediately (retrying a
    /// crashed peer inside one query wastes budget; the breaker and
    /// the next replica handle it).
    fn call_with_retries(&self, host: usize, accrued: &Cell<u64>) -> bool {
        let cfg = self.bus.config().clone();
        for attempt in 0..=self.retry.max_retries {
            self.rpc.borrow_mut().counters.attempts += 1;
            let outcome = self.bus.call(self.id, host, self.now_plus(accrued.get()));
            match outcome {
                RpcOutcome::Delivered { latency } => {
                    accrued.set(accrued.get() + latency);
                    return true;
                }
                RpcOutcome::TimedOut => {
                    accrued.set(accrued.get() + cfg.timeout);
                    let mut st = self.rpc.borrow_mut();
                    st.counters.timeouts += 1;
                    if attempt < self.retry.max_retries {
                        st.counters.retries += 1;
                        drop(st);
                        let base = self.retry.backoff_base << attempt;
                        let jitter = splitmix64(
                            (self.id as u64) << 32
                                | (host as u64) << 16
                                | self.rpc.borrow().counters.retries,
                        ) % (self.retry.backoff_base / 2 + 1);
                        accrued.set(accrued.get() + base + jitter);
                    }
                }
                RpcOutcome::PeerDown => {
                    // Connection refused is fast: one base latency.
                    accrued.set(accrued.get() + cfg.base_latency);
                    self.rpc.borrow_mut().counters.peer_down += 1;
                    return false;
                }
                RpcOutcome::Partitioned => {
                    // Indistinguishable from a dead-slow peer: burn
                    // the timeout, but don't retry into the void.
                    accrued.set(accrued.get() + cfg.timeout);
                    self.rpc.borrow_mut().counters.partition_drops += 1;
                    return false;
                }
            }
        }
        false
    }
}

/// The per-query [`NetworkSource`] a node's engine searches over:
/// resident shards read directly, non-resident shards require one
/// successful simulated fetch per query (a session granule — real
/// systems batch boundary data per request, not per edge read).
/// Pattern-table and global-metadata reads are never gated: the
/// pattern table is tiny, replicated everywhere by construction.
pub struct ClusterSource<'a> {
    backend: &'a NodeBackend,
    net: &'a RoadNetwork,
    fetched: RefCell<HashSet<u32>>,
    accrued: Cell<u64>,
}

impl<'a> ClusterSource<'a> {
    /// A query-scoped source for `backend` over the pinned epoch's
    /// network.
    pub fn new(backend: &'a NodeBackend, net: &'a RoadNetwork) -> Self {
        ClusterSource {
            backend,
            net,
            fetched: RefCell::new(HashSet::new()),
            accrued: Cell::new(0),
        }
    }

    /// Virtual RPC latency this query accrued so far.
    pub fn accrued(&self) -> u64 {
        self.accrued.get()
    }

    /// Gate one node access: resident or already fetched is free;
    /// otherwise fetch the whole shard once over the bus.
    fn ensure(&self, node: NodeId) -> Result<(), NetworkError> {
        if node.index() >= self.net.n_nodes() {
            return Err(NetworkError::UnknownNode(node));
        }
        let shard = self.backend.shards.shard_of(node);
        if self.backend.shards.is_resident(self.backend.id, shard)
            || self.fetched.borrow().contains(&shard)
        {
            return Ok(());
        }
        self.backend.fetch_shard(shard, &self.accrued)?;
        self.fetched.borrow_mut().insert(shard);
        Ok(())
    }
}

impl NetworkSource for ClusterSource<'_> {
    fn n_nodes(&self) -> usize {
        self.net.n_nodes()
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
        self.ensure(node)?;
        self.net.find_node(node)
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
        self.ensure(node)?;
        self.net.successors(node)
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
        self.ensure(node)?;
        self.net.successors_into(node, buf)
    }

    fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
        self.net.pattern(id)
    }

    fn max_speed(&self) -> f64 {
        self.net.max_speed()
    }
}

impl PathfindBackend for NodeBackend {
    fn backend_name(&self) -> &'static str {
        "cluster-node"
    }

    fn cache_session(&self) -> CacheSession<'_> {
        self.manager.cache().session()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.manager.cache().counters()
    }

    fn answer(
        &self,
        query: &QuerySpec,
        mode: QueryMode,
        session: &mut CacheSession<'_>,
        cancel: Option<&CancelToken>,
    ) -> allfp::Result<Answer> {
        let epoch = self
            .manager
            .pin(query.epoch)
            .ok_or(allfp::AllFpError::EpochRetired {
                epoch: query.epoch.map_or(0, |e| e.0),
            })?;
        let source = ClusterSource::new(self, epoch.network().as_ref());
        let engine = Engine::with_shared(
            &source,
            Arc::clone(epoch.estimator()),
            Arc::clone(self.manager.cache()),
            self.manager.config().clone(),
        );
        let out = engine.answer(query, mode, session, cancel);
        self.accrued.set(self.accrued.get() + source.accrued());
        out
    }
}
