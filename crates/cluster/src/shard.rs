//! Shard map: which simulated node owns which graph partition.
//!
//! The map is derived from [`ccam::partition_assignment`] — the
//! connectivity clustering CCAM packs pages by — so shards are
//! contiguous road regions. Every cluster node computes
//! the map independently from the same network and, because the
//! partitioner is byte-deterministic (property-tested in
//! `crates/ccam/tests/partition_props.rs`), they all agree without any
//! coordination traffic.

use roadnet::{NodeId, RoadNetwork};

use crate::ClusterError;

/// The cluster's routing table: graph node → shard, shard → hosting
/// simulated nodes (primary first, then replicas in deterministic
/// rotation order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Shard id of every graph node, indexed by `NodeId::index()`.
    shard_of: Vec<u32>,
    /// Number of shards (dense ids `0..n_shards`).
    n_shards: usize,
    /// Number of simulated cluster nodes.
    n_sim_nodes: usize,
    /// Copies of each shard (primary + replicas), clamped to the
    /// cluster size.
    replication: usize,
}

impl ShardMap {
    /// Partition `net` into about `target_shards` shards and assign
    /// each shard to `replication` of the `n_sim_nodes` simulated
    /// nodes by deterministic rotation.
    pub fn build(
        net: &RoadNetwork,
        target_shards: usize,
        n_sim_nodes: usize,
        replication: usize,
    ) -> Result<ShardMap, ClusterError> {
        if n_sim_nodes == 0 {
            return Err(ClusterError::Config(
                "cluster needs at least one node".into(),
            ));
        }
        let (shard_of, n_shards) = ccam::partition_assignment(net, target_shards)?;
        Ok(ShardMap {
            shard_of,
            n_shards,
            n_sim_nodes,
            replication: replication.clamp(1, n_sim_nodes),
        })
    }

    /// Shard owning graph node `n`.
    pub fn shard_of(&self, n: NodeId) -> u32 {
        self.shard_of[n.index()]
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of simulated cluster nodes.
    pub fn n_sim_nodes(&self) -> usize {
        self.n_sim_nodes
    }

    /// Effective replication factor (clamped to the cluster size).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The simulated nodes hosting `shard`, primary first. The k-th
    /// copy of shard `s` lives on node `(s + k) mod n_sim_nodes` —
    /// a rotation, so load spreads and any two nodes share some
    /// shards but not all.
    pub fn hosts(&self, shard: u32) -> impl Iterator<Item = usize> + '_ {
        let s = shard as usize;
        let n = self.n_sim_nodes;
        (0..self.replication).map(move |k| (s + k) % n)
    }

    /// Primary owner of `shard`.
    pub fn primary(&self, shard: u32) -> usize {
        shard as usize % self.n_sim_nodes
    }

    /// Does simulated node `sim_node` hold a local copy of `shard`?
    pub fn is_resident(&self, sim_node: usize, shard: u32) -> bool {
        self.hosts(shard).any(|h| h == sim_node)
    }

    /// The raw assignment vector (shard id per graph node) — what a
    /// real deployment would serialize into its routing envelopes.
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }
}
