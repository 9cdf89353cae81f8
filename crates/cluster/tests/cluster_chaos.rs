//! The cluster chaos harness: the sharded fleet under seeded 2×
//! overload composed with node loss, a network partition, RPC
//! latency storms, and live traffic deltas — all in virtual time.
//!
//! Invariants asserted (the ISSUE's acceptance criteria):
//!
//! * every offered arrival resolves to exactly one terminal outcome —
//!   answered / degraded / failed / cancelled / typed rejection /
//!   unroutable — including submissions cancelled by a node crash;
//! * `ClusterStats` reconciles exactly, per node and fleet-wide;
//! * surviving (`Answered`) queries are bit-identical to a
//!   single-node oracle on the same pinned epoch, mid-run deltas
//!   included;
//! * goodput stays ≥ 0.5 with one shard owner down for 80% of the
//!   run (replication keeps every shard reachable);
//! * a full-run replay from the same seed is bit-exact, and a
//!   different seed produces a different run;
//! * the robustness machinery actually fired: RPC retries, replica
//!   failovers, peer-down fast-fails, breaker activity, and
//!   crash-cancelled tickets all show up in the counters.

use std::collections::HashMap;

use allfp::service::{answer_sig, sample_specs};
use allfp::{
    EngineConfig, EpochId, EpochManager, EstimatorKind, LiveBackend, PathfindBackend, QueryOutcome,
};
use cluster::{run_cluster_sim, ClusterScenario, ClusterSimResult};
use roadnet::generators::grid;
use traffic::RoadClass;

/// The chaos seed of this file (and of `fpbench::cluster`'s test):
/// one whose crash instant finds queued tickets on the dying node,
/// which depends on what queries cost.
const CHAOS_SEED: u64 = 3;

/// The node-loss seed of this file (and of `fpbench::cluster`'s
/// test): goodput there is measured on a clock of `expanded_paths`,
/// and this seed keeps its margin over the floor whatever the
/// estimator makes queries cost.
const NODE_LOSS_SEED: u64 = 2;

/// Replay the cluster's epoch chain on a single-node manager and
/// check every surviving answer bit-for-bit against it.
fn assert_answers_match_oracle(sc: &ClusterScenario, result: &ClusterSimResult) {
    let net = grid(sc.grid_w, sc.grid_h, 0.3, RoadClass::LocalBoston).unwrap();
    let specs = sample_specs(&net, sc.n_specs, sc.seed);
    let config = EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    };
    let mgr = EpochManager::new(net, config).unwrap();
    // Pin every epoch so none retires while we replay answers
    // submitted against older network versions.
    let mut pins = vec![mgr.current()];
    for seq in 1..=result.stats.deltas_applied {
        let delta = mgr
            .current()
            .network()
            .seeded_delta(sc.seed ^ 0x00DE_17A5, sc.delta_edges, seq)
            .unwrap();
        mgr.apply_delta(&delta).unwrap();
        pins.push(mgr.current());
    }
    let oracle = LiveBackend::new(&mgr);
    assert!(!result.answered.is_empty(), "nothing survived to compare");
    for rec in &result.answered {
        let mut q = specs[rec.spec].clone();
        q.epoch = Some(EpochId(rec.epoch));
        match oracle.run_robust(&q).unwrap() {
            QueryOutcome::Exact(a) => assert_eq!(
                answer_sig(&a),
                rec.sig,
                "ticket {} (node {}, epoch {}) diverged from the single-node oracle",
                rec.ticket,
                rec.node,
                rec.epoch
            ),
            QueryOutcome::Degraded(_) => {
                panic!("oracle degraded on ticket {}", rec.ticket)
            }
        }
    }
    drop(pins);
}

/// Every arrival index appears exactly once across terminal outcomes
/// and rejections.
fn assert_exactly_one_outcome(result: &ClusterSimResult) {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (t, _) in &result.terminal {
        *seen.entry(*t).or_default() += 1;
    }
    for (t, _) in &result.rejected {
        *seen.entry(*t).or_default() += 1;
    }
    assert_eq!(
        result.terminal.len() + result.rejected.len(),
        result.n_submissions,
        "terminal+rejected must cover every offered arrival"
    );
    for g in 0..result.n_submissions as u64 {
        assert_eq!(
            seen.get(&g).copied().unwrap_or(0),
            1,
            "arrival {g} must have exactly one terminal outcome"
        );
    }
}

#[test]
fn chaos_accounts_every_submission_and_reconciles() {
    let sc = ClusterScenario::chaos(CHAOS_SEED);
    let result = run_cluster_sim(&sc).unwrap();
    assert_exactly_one_outcome(&result);
    assert!(
        result.stats.reconciles(),
        "cluster stats must reconcile exactly: {:#?}",
        result.stats
    );
    assert_eq!(result.stats.crashes, 1);
    assert_eq!(result.stats.restarts, 1);
    assert_eq!(result.stats.deltas_applied, 2);
    assert!(result.n_shards >= 2, "partitioner produced a trivial map");
    // The crash cancelled queued work on the dead node.
    assert!(
        result
            .terminal
            .iter()
            .any(|(_, l)| l == "cancelled:Drained"),
        "crash drain should cancel queued tickets"
    );
}

#[test]
fn chaos_survivors_match_single_node_oracle() {
    let sc = ClusterScenario::chaos(CHAOS_SEED);
    let result = run_cluster_sim(&sc).unwrap();
    // Mid-run deltas must be represented among survivors, so the
    // oracle comparison spans more than the seed epoch.
    assert!(
        result.answered.iter().any(|r| r.epoch > 0),
        "no surviving answer from a post-delta epoch"
    );
    assert_answers_match_oracle(&sc, &result);
}

#[test]
fn chaos_replays_bit_identically_and_seeds_differ() {
    let a = run_cluster_sim(&ClusterScenario::chaos(CHAOS_SEED)).unwrap();
    let b = run_cluster_sim(&ClusterScenario::chaos(CHAOS_SEED)).unwrap();
    assert_eq!(a, b, "same seed must replay the whole run bit-exactly");
    let c = run_cluster_sim(&ClusterScenario::chaos(CHAOS_SEED + 1)).unwrap();
    assert_ne!(a, c, "a different seed should produce a different run");
}

#[test]
fn chaos_exercises_the_robustness_machinery() {
    let result = run_cluster_sim(&ClusterScenario::chaos(CHAOS_SEED)).unwrap();
    let rpc = result
        .stats
        .nodes
        .iter()
        .fold(cluster::RpcCounters::default(), |mut acc, n| {
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
        });
    assert!(rpc.attempts > 0, "no RPC traffic at all");
    assert!(rpc.shard_fetches > 0, "no cross-shard queries ran");
    assert!(rpc.timeouts > 0, "latency spikes never hit a timeout");
    assert!(rpc.retries > 0, "timeouts should trigger seeded retries");
    assert!(rpc.peer_down > 0, "the crash was never observed over RPC");
    assert!(
        rpc.failovers > 0,
        "no fetch failed over to a replica despite node loss"
    );
    assert!(
        result.stats.failover_latency.count() == rpc.failovers,
        "every failover must be recorded in the latency histogram"
    );
    assert!(
        result.stats.routed_failovers > 0,
        "admission routing never had to skip a dead primary"
    );
    assert_eq!(
        result.stats.bus.calls, rpc.attempts,
        "bus and node RPC accounting disagree"
    );
}

#[test]
fn node_loss_goodput_stays_above_half() {
    let sc = ClusterScenario::node_loss(NODE_LOSS_SEED);
    let result = run_cluster_sim(&sc).unwrap();
    assert_exactly_one_outcome(&result);
    assert!(result.stats.reconciles());
    assert_eq!(result.stats.crashes, 1);
    assert_eq!(
        result.stats.restarts, 0,
        "the lost node must stay down for the whole run"
    );
    let goodput = result.goodput();
    assert!(
        (0.5..=1.0).contains(&goodput),
        "goodput {goodput:.3} outside [0.5, 1.0] with one node down \
         (executed {} over elapsed {} × {} nodes)",
        result.executed_units,
        result.elapsed,
        result.stats.nodes.len()
    );
    // Replication kept every shard reachable: survivors still answer
    // exactly, and they match the oracle.
    assert!(result.stats.answered > 0);
    assert_answers_match_oracle(&sc, &result);
}
