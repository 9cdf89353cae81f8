//! Deterministic cluster-chaos harness for the report; its gates are
//! this module's tests.
//!
//! Drives the `fp-cluster` simulator's canned scenarios — the full
//! chaos composition (2× overload, a node crash and restart, a
//! partition storm, latency spikes, live traffic deltas) and the
//! sustained node-loss run — and folds the outcome into report-ready
//! numbers. Like [`crate::overload`], every scenario is a pure
//! function of its seed and [`run_chaos`] / [`run_node_loss`] execute
//! it twice to certify bit-exact replay (the `deterministic` field —
//! a CI gate, not an aspiration).

use cluster::{run_cluster_sim, ClusterScenario, ClusterSimResult, RpcCounters};

use crate::report::{float, Field, Table};

/// What one cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Which canned scenario ran (`"chaos"` or `"node-loss"`).
    pub scenario: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Simulated nodes in the fleet.
    pub sim_nodes: usize,
    /// The run: outcomes, fleet accounting, goodput.
    pub result: ClusterSimResult,
    /// Fleet-wide RPC counters, folded over every node.
    pub rpc: RpcCounters,
    /// Did a second run of the same seed reproduce the run bit for
    /// bit — every outcome, counter, and answer signature?
    pub deterministic: bool,
}

impl ClusterReport {
    /// The report's fields, in table order. `rejected`
    /// counts typed admission rejections plus unroutable arrivals.
    pub fn fields(&self) -> Vec<Field> {
        let (s, rpc) = (&self.result.stats, &self.rpc);
        vec![
            ("scenario", self.scenario.into()),
            ("seed", self.seed.into()),
            ("sim_nodes", self.sim_nodes.into()),
            ("shards", self.result.n_shards.into()),
            ("submissions", self.result.n_submissions.into()),
            ("admitted", s.admitted.into()),
            ("rejected", (s.rejected + s.unroutable).into()),
            ("answered", s.answered.into()),
            ("degraded", s.degraded.into()),
            ("failed", s.failed.into()),
            ("cancelled", s.cancelled.into()),
            ("unroutable", s.unroutable.into()),
            ("crashes", s.crashes.into()),
            ("restarts", s.restarts.into()),
            ("rpc_attempts", rpc.attempts.into()),
            ("rpc_retries", rpc.retries.into()),
            ("rpc_timeouts", rpc.timeouts.into()),
            ("rpc_peer_down", rpc.peer_down.into()),
            ("breaker_skips", rpc.breaker_skips.into()),
            ("replica_failovers", rpc.failovers.into()),
            ("routed_failovers", s.routed_failovers.into()),
            ("failover_latency_mean", float(s.failover_latency.mean(), 1)),
            ("failover_latency_max", s.failover_latency.max().into()),
            ("goodput", float(self.result.goodput(), 4)),
            ("reconciled", s.reconciles().into()),
            ("deterministic", self.deterministic.into()),
        ]
    }
}

/// Fold the per-node RPC counters into one fleet-wide total.
fn fold_rpc(result: &ClusterSimResult) -> RpcCounters {
    result
        .stats
        .nodes
        .iter()
        .fold(RpcCounters::default(), |mut acc, n| {
            acc.attempts += n.rpc.attempts;
            acc.retries += n.rpc.retries;
            acc.timeouts += n.rpc.timeouts;
            acc.peer_down += n.rpc.peer_down;
            acc.partition_drops += n.rpc.partition_drops;
            acc.breaker_skips += n.rpc.breaker_skips;
            acc.failovers += n.rpc.failovers;
            acc.shard_fetches += n.rpc.shard_fetches;
            acc.shard_unreachable += n.rpc.shard_unreachable;
            acc
        })
}

fn run_scenario(label: &'static str, sc: &ClusterScenario) -> ClusterReport {
    let result = run_cluster_sim(sc).expect("cluster scenario builds");
    let deterministic = result == run_cluster_sim(sc).expect("cluster scenario builds");
    ClusterReport {
        scenario: label,
        seed: sc.seed,
        sim_nodes: sc.n_sim_nodes,
        rpc: fold_rpc(&result),
        result,
        deterministic,
    }
}

/// Run the full chaos composition (twice, to certify determinism) and
/// fold it into a [`ClusterReport`].
pub fn run_chaos(seed: u64) -> ClusterReport {
    run_scenario("chaos", &ClusterScenario::chaos(seed))
}

/// Run the sustained node-loss scenario (twice): one shard owner down
/// for most of the run, replication keeping every shard reachable.
pub fn run_node_loss(seed: u64) -> ClusterReport {
    run_scenario("node-loss", &ClusterScenario::node_loss(seed))
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &ClusterReport) -> Table {
    let title = format!(
        "Cluster twin - seeded {} scenario over {} nodes / {} shards in virtual time",
        r.scenario, r.sim_nodes, r.result.n_shards
    );
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chaos seed, kept equal to `CHAOS_SEED` of
    /// `crates/cluster/tests/cluster_chaos.rs`: one whose crash instant
    /// finds queued tickets on the dying node.
    const CHAOS_SEED: u64 = 3;

    /// The node-loss seed, kept equal to `NODE_LOSS_SEED` of
    /// `crates/cluster/tests/cluster_chaos.rs`: the scenario's clock is
    /// `expanded_paths`, and this seed's goodput keeps its margin over
    /// the 0.5 floor whatever the estimator makes queries cost.
    const NODE_LOSS_SEED: u64 = 2;

    #[test]
    fn chaos_run_is_reconciled_deterministic_and_robust() {
        let r = run_chaos(CHAOS_SEED);
        let s = &r.result.stats;
        assert!(s.reconciles(), "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert_eq!(s.crashes, 1, "{r:?}");
        assert_eq!(s.restarts, 1, "{r:?}");
        assert!(s.answered > 0, "{r:?}");
        assert!(r.rpc.retries > 0, "spikes must force retries: {r:?}");
        assert!(r.rpc.failovers > 0, "node loss must force failovers: {r:?}");
        assert_eq!(
            s.admitted + s.rejected + s.unroutable,
            r.result.n_submissions as u64,
            "every arrival accounted for: {r:?}"
        );
    }

    #[test]
    fn node_loss_goodput_holds_above_half() {
        let r = run_node_loss(NODE_LOSS_SEED);
        let s = &r.result.stats;
        assert!(s.reconciles(), "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert_eq!(s.crashes, 1, "{r:?}");
        assert_eq!(s.restarts, 0, "{r:?}");
        let goodput = r.result.goodput();
        assert!(
            (0.5..=1.0).contains(&goodput),
            "goodput {goodput:.3} outside [0.5, 1.0]: {r:?}"
        );
    }
}
