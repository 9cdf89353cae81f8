//! Partition-sharded cluster serving in deterministic simulation.
//!
//! This crate scales the serving tier *out* the way `fp-ccam` scaled
//! storage *down*: the road network is partitioned by the
//! connectivity clustering CCAM packs pages by
//! ([`ccam::partition_assignment`]), each shard is owned (with
//! replicas) by a simulated cluster node running a full
//! [`allfp::service::QueryService`] stack, and queries route to shard
//! owners over a seeded virtual message bus — all inside one process,
//! in virtual time, bit-replayable from a single seed.
//!
//! The pieces:
//!
//! * [`ShardMap`] ([`shard`]) — graph node → shard → hosting nodes,
//!   derived deterministically so every node agrees without
//!   coordination;
//! * [`VirtualBus`] ([`bus`]) — seeded RPC delivery with latency
//!   jitter, congestion spikes, timeouts, and an injected fault plan
//!   of node crashes and network partitions;
//! * [`NodeBackend`] ([`node`]) — one node's engine stack: an epoch
//!   manager over the replicated network, per-peer circuit breakers
//!   (the service layer's three-state machine with seeded half-open
//!   probe jitter), bounded retry with backoff, and replica failover
//!   for fetching non-resident shards;
//! * [`run_cluster_sim`] ([`sim`]) — the single-threaded virtual-time
//!   driver: overload arrivals, crash/restart/delta events, min-clock
//!   scheduling, and fleet-wide accounting that reconciles exactly.
//!
//! The load-bearing property, chaos-tested in
//! `tests/cluster_chaos.rs` and `tests/cluster_equivalence.rs`: a
//! query that survives (is `Answered`) is **bit-identical** to the
//! flat single-node pipeline's answer on the same epoch — node loss,
//! partitions, retries, and failovers can delay or degrade a query
//! but can never change a byte of an exact answer.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod node;
pub mod shard;
pub mod sim;

pub use bus::{
    BusConfig, BusStats, ClusterFaultPlan, CrashWindow, PartitionWindow, RpcOutcome, VirtualBus,
};
pub use node::{ClusterSource, NodeBackend, RetryPolicy, RpcCounters};
pub use shard::ShardMap;
pub use sim::{
    run_cluster_sim, AnsweredRecord, ClusterScenario, ClusterSimResult, ClusterStats, NodeTotals,
};

/// Errors from the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// Invalid scenario or cluster configuration.
    Config(String),
    /// Storage/partitioner failure.
    Storage(ccam::CcamError),
    /// Network-model failure.
    Network(roadnet::NetworkError),
    /// Engine or epoch-layer failure.
    Engine(allfp::AllFpError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(msg) => write!(f, "cluster configuration error: {msg}"),
            ClusterError::Storage(e) => write!(f, "cluster storage error: {e}"),
            ClusterError::Network(e) => write!(f, "cluster network error: {e}"),
            ClusterError::Engine(e) => write!(f, "cluster engine error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Config(_) => None,
            ClusterError::Storage(e) => Some(e),
            ClusterError::Network(e) => Some(e),
            ClusterError::Engine(e) => Some(e),
        }
    }
}

impl From<ccam::CcamError> for ClusterError {
    fn from(e: ccam::CcamError) -> Self {
        ClusterError::Storage(e)
    }
}

impl From<roadnet::NetworkError> for ClusterError {
    fn from(e: roadnet::NetworkError) -> Self {
        ClusterError::Network(e)
    }
}

impl From<allfp::AllFpError> for ClusterError {
    fn from(e: allfp::AllFpError) -> Self {
        ClusterError::Engine(e)
    }
}
