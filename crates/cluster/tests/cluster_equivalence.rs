//! Golden cross-partition equivalence suite (the style of
//! `core/tests/hierarchy_equivalence.rs`): answers served by the
//! sharded cluster must be bit-identical to the flat single-node
//! pipeline and consistent with the hierarchy backend on the same
//! pinned epoch.
//!
//! Three layers of the claim:
//!
//! * the raw [`cluster::NodeBackend`] (no service in between), whose
//!   engine reads non-resident shards through simulated RPC, returns
//!   bit-identical allFP and singleFP answers to a manager-built flat
//!   backend over the same network;
//! * a calm (fault-free) cluster run serves *every* admitted query
//!   exactly — no degradation from sharding alone — and every answer
//!   matches the flat oracle;
//! * the hierarchy backend agrees with the cluster on singleFP answer
//!   values (travel time and best-leaving bits; path identity among
//!   co-optimal ties is per-backend), tying the distributed contract
//!   back to the PR-4 equivalence chain.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use allfp::service::{answer_sig, sample_specs, BreakerConfig, LatencyHistogram, ManualClock};
use allfp::{
    Engine, EngineConfig, EpochId, EpochManager, EstimatorKind, LiveBackend, PathfindBackend,
    QueryOutcome, SingleFpAnswer,
};
use cluster::{
    run_cluster_sim, BusConfig, ClusterFaultPlan, ClusterScenario, NodeBackend, RetryPolicy,
    ShardMap, VirtualBus,
};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use roadnet::generators::grid;
use roadnet::RoadNetwork;
use traffic::RoadClass;

const SEED: u64 = 7;

fn test_net() -> RoadNetwork {
    grid(8, 8, 0.3, RoadClass::LocalBoston).unwrap()
}

fn min_time_config() -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    }
}

/// A fault-free cluster node over `net` with two of three shard
/// copies elsewhere, so cross-shard fetches genuinely happen.
fn make_node(net: &RoadNetwork, target_shards: usize, config: EngineConfig) -> NodeBackend {
    let manager = EpochManager::new(net.clone(), config).unwrap();
    let shards = Arc::new(ShardMap::build(net, target_shards, 3, 1).unwrap());
    let bus = Rc::new(VirtualBus::new(
        SEED,
        BusConfig::default(),
        ClusterFaultPlan::default(),
    ));
    NodeBackend::new(
        0,
        manager,
        shards,
        bus,
        Rc::new(ManualClock::new()),
        BreakerConfig::default(),
        RetryPolicy::default(),
        Rc::new(RefCell::new(LatencyHistogram::default())),
    )
}

/// Bit-exact signature of a singleFP answer.
fn single_sig(a: &SingleFpAnswer) -> (Vec<usize>, u64, u64, u64) {
    (
        a.path.nodes.iter().map(|n| n.index()).collect(),
        a.travel_minutes.to_bits(),
        a.best_leaving.lo().to_bits(),
        a.best_leaving.hi().to_bits(),
    )
}

#[test]
fn node_backend_matches_flat_backend_bit_for_bit() {
    let net = test_net();
    let specs = sample_specs(&net, 24, SEED);
    let node = make_node(&net, 6, min_time_config());
    let flat_mgr = EpochManager::new(net.clone(), min_time_config()).unwrap();
    let flat = LiveBackend::new(&flat_mgr);
    for (i, q) in specs.iter().enumerate() {
        let got = node.all_fastest_paths(q).unwrap();
        let want = flat.all_fastest_paths(q).unwrap();
        assert_eq!(
            answer_sig(&got),
            answer_sig(&want),
            "allFP answer {i} diverged between cluster node and flat backend"
        );
        let got1 = node.single_fastest_path(q).unwrap();
        let want1 = flat.single_fastest_path(q).unwrap();
        assert_eq!(
            single_sig(&got1),
            single_sig(&want1),
            "singleFP answer {i} diverged between cluster node and flat backend"
        );
    }
    // The comparison only means something if remote shards were read.
    let rpc = node.rpc_counters();
    assert!(
        rpc.shard_fetches > 0,
        "no cross-partition traffic — the equivalence was vacuous"
    );
    assert_eq!(rpc.shard_unreachable, 0, "fault-free bus lost a shard");
}

#[test]
fn node_backend_matches_flat_and_hierarchy_on_singlefp() {
    let net = test_net();
    let specs = sample_specs(&net, 12, SEED ^ 0x5EED);
    // Tie-breaking in expansion order follows the estimator, so the
    // node runs the same default config the oracles were built with.
    let node = make_node(&net, 6, EngineConfig::default());
    let flat = Engine::new(&net, EngineConfig::default()).unwrap();
    let hier =
        HierarchyEngine::build(&net, EngineConfig::default(), HierarchyConfig::default()).unwrap();
    for (i, q) in specs.iter().enumerate() {
        let got = node.single_fastest_path(q).unwrap();
        // Against the flat engine the contract is bit-for-bit,
        // including the chosen path among co-optimal ties.
        let fs = flat.single_fastest_path(q).unwrap();
        assert_eq!(
            single_sig(&got),
            single_sig(&fs),
            "singleFP answer {i} diverged between cluster node and flat engine"
        );
        // The hierarchy may break a tie between equally fast paths
        // differently (its expansion runs over the overlay), so across
        // backends the guarantee is on the answer values: identical
        // travel time and best-leaving interval, bit for bit.
        let hs = hier.single_fastest_path(q).unwrap();
        assert_eq!(
            got.travel_minutes.to_bits(),
            hs.travel_minutes.to_bits(),
            "singleFP travel time {i} diverged between cluster node and hierarchy"
        );
        assert_eq!(
            (
                got.best_leaving.lo().to_bits(),
                got.best_leaving.hi().to_bits()
            ),
            (
                hs.best_leaving.lo().to_bits(),
                hs.best_leaving.hi().to_bits()
            ),
            "singleFP best-leaving interval {i} diverged between cluster node and hierarchy"
        );
    }
}

#[test]
fn calm_cluster_serves_everything_exactly_and_matches_oracle() {
    let sc = ClusterScenario::calm(SEED);
    let result = run_cluster_sim(&sc).unwrap();
    assert!(result.stats.reconciles());
    assert_eq!(result.stats.unroutable, 0);
    assert_eq!(result.stats.failed, 0);
    assert_eq!(
        result.stats.degraded, 0,
        "sharding alone must never degrade an answer on a healthy bus"
    );
    assert_eq!(result.stats.answered, result.stats.admitted);
    assert!(result.stats.answered > 0);

    // Every answer bit-identical to the flat single-node oracle.
    let net = test_net();
    let specs = sample_specs(&net, sc.n_specs, sc.seed);
    let mgr = EpochManager::new(net, min_time_config()).unwrap();
    let oracle = LiveBackend::new(&mgr);
    for rec in &result.answered {
        let mut q = specs[rec.spec].clone();
        q.epoch = Some(EpochId(rec.epoch));
        match oracle.run_robust(&q).unwrap() {
            QueryOutcome::Exact(a) => assert_eq!(
                answer_sig(&a),
                rec.sig,
                "calm-cluster ticket {} diverged from oracle",
                rec.ticket
            ),
            QueryOutcome::Degraded(_) => panic!("oracle degraded on ticket {}", rec.ticket),
        }
    }

    // And the calm run replays bit-exactly too.
    let again = run_cluster_sim(&sc).unwrap();
    assert_eq!(result, again);
}
