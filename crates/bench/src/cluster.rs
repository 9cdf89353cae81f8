//! Deterministic cluster-chaos harness for the report and smoke gates.
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

use crate::report::Table;

/// What one cluster run produced, in report-ready form.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Which canned scenario ran (`"chaos"` or `"node-loss"`).
    pub scenario: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Simulated nodes in the fleet.
    pub sim_nodes: usize,
    /// Realized shard count.
    pub shards: usize,
    /// Arrivals offered to the fleet.
    pub submissions: usize,
    /// Admission-accepted submissions, fleet-wide.
    pub admitted: u64,
    /// Typed admission rejections plus unroutable arrivals.
    pub rejected: u64,
    /// Exact answers delivered.
    pub answered: u64,
    /// Degraded answers delivered.
    pub degraded: u64,
    /// Failed queries.
    pub failed: u64,
    /// Cancelled admissions (crash drains and deadline sheds).
    pub cancelled: u64,
    /// Arrivals with no live host (every replica down).
    pub unroutable: u64,
    /// Injected node crashes.
    pub crashes: u64,
    /// Node restarts (fresh incarnation, peers reset).
    pub restarts: u64,
    /// Fleet-wide RPC counters, folded over every node.
    pub rpc: RpcCounters,
    /// Arrivals routed past a dead primary at admission.
    pub routed_failovers: u64,
    /// Mean extra virtual latency of a replica failover.
    pub failover_latency_mean: f64,
    /// Worst-case failover latency observed.
    pub failover_latency_max: u64,
    /// `executed_units / (elapsed × nodes)`: useful work as a fraction
    /// of fleet capacity.
    pub goodput: f64,
    /// Did `ClusterStats::reconciles` hold, per node and fleet-wide?
    pub reconciled: bool,
    /// Did a second run of the same seed reproduce the run bit for
    /// bit — every outcome, counter, and answer signature?
    pub deterministic: bool,
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
    let a = run_cluster_sim(sc).expect("cluster scenario builds");
    let b = run_cluster_sim(sc).expect("cluster scenario builds");
    let deterministic = a == b;
    let s = &a.stats;
    ClusterReport {
        scenario: label,
        seed: sc.seed,
        sim_nodes: sc.n_sim_nodes,
        shards: a.n_shards,
        submissions: a.n_submissions,
        admitted: s.admitted,
        rejected: s.rejected + s.unroutable,
        answered: s.answered,
        degraded: s.degraded,
        failed: s.failed,
        cancelled: s.cancelled,
        unroutable: s.unroutable,
        crashes: s.crashes,
        restarts: s.restarts,
        rpc: fold_rpc(&a),
        routed_failovers: s.routed_failovers,
        failover_latency_mean: s.failover_latency.mean(),
        failover_latency_max: s.failover_latency.max(),
        goodput: a.goodput(),
        reconciled: s.reconciles(),
        deterministic,
    }
}

/// The chaos seed of the bench smoke and report, kept equal to
/// `CHAOS_SEED` of `crates/cluster/tests/cluster_chaos.rs`: one whose
/// crash instant finds queued tickets on the dying node.
pub const CHAOS_SEED: u64 = 3;

/// The node-loss seed of the bench smoke and report, kept equal to
/// `NODE_LOSS_SEED` of `crates/cluster/tests/cluster_chaos.rs`: the
/// scenario's clock is `expanded_paths`, and this seed's goodput keeps
/// its margin over the 0.5 floor whatever the estimator makes queries
/// cost.
pub const NODE_LOSS_SEED: u64 = 2;

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
    let mut t = Table::new(
        format!(
            "Cluster twin - seeded {} scenario over {} nodes / {} shards in virtual time",
            r.scenario, r.sim_nodes, r.shards
        ),
        &["metric", "value"],
    );
    let rows: [(&str, String); 20] = [
        ("submissions", r.submissions.to_string()),
        ("admitted", r.admitted.to_string()),
        ("rejected", r.rejected.to_string()),
        ("answered", r.answered.to_string()),
        ("degraded", r.degraded.to_string()),
        ("failed", r.failed.to_string()),
        ("cancelled", r.cancelled.to_string()),
        ("unroutable", r.unroutable.to_string()),
        (
            "crashes / restarts",
            format!("{} / {}", r.crashes, r.restarts),
        ),
        ("rpc attempts", r.rpc.attempts.to_string()),
        ("rpc retries", r.rpc.retries.to_string()),
        ("rpc timeouts", r.rpc.timeouts.to_string()),
        ("rpc peer-down fast-fails", r.rpc.peer_down.to_string()),
        ("breaker skips", r.rpc.breaker_skips.to_string()),
        ("replica failovers", r.rpc.failovers.to_string()),
        ("routed failovers", r.routed_failovers.to_string()),
        (
            "failover latency mean / max",
            format!(
                "{:.1} / {}",
                r.failover_latency_mean, r.failover_latency_max
            ),
        ),
        ("goodput", format!("{:.4}", r.goodput)),
        ("reconciled", r.reconciled.to_string()),
        ("deterministic replay", r.deterministic.to_string()),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.to_string(), v]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_is_reconciled_deterministic_and_robust() {
        let r = run_chaos(CHAOS_SEED);
        assert!(r.reconciled, "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert_eq!(r.crashes, 1, "{r:?}");
        assert_eq!(r.restarts, 1, "{r:?}");
        assert!(r.answered > 0, "{r:?}");
        assert!(r.rpc.retries > 0, "spikes must force retries: {r:?}");
        assert!(r.rpc.failovers > 0, "node loss must force failovers: {r:?}");
        assert_eq!(
            r.admitted + r.rejected,
            r.submissions as u64,
            "every arrival accounted for: {r:?}"
        );
    }

    #[test]
    fn node_loss_goodput_holds_above_half() {
        let r = run_node_loss(NODE_LOSS_SEED);
        assert!(r.reconciled, "{r:?}");
        assert!(r.deterministic, "{r:?}");
        assert_eq!(r.crashes, 1, "{r:?}");
        assert_eq!(r.restarts, 0, "{r:?}");
        assert!(
            (0.5..=1.0).contains(&r.goodput),
            "goodput {:.3} outside [0.5, 1.0]: {r:?}",
            r.goodput
        );
    }
}
