//! Property tests for the live-update path: across seeded delta
//! *sequences*, the incrementally maintained state — the delta-applied
//! network, the reused/refreshed estimator tables, and the shared
//! travel-function cache surviving every swap — is bit-for-bit
//! indistinguishable from a from-scratch build of the current epoch.

use std::sync::Arc;

use allfp::{
    build_estimator, BoundaryLb, Engine, EngineConfig, EpochManager, EstimatorKind, LiveBackend,
    LowerBoundEstimator, MinTimeLb, PathfindBackend, QuerySpec,
};
use proptest::prelude::*;
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::random_geometric;
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, PatternUpdate, TrafficDelta};

fn config_with(estimator: EstimatorKind) -> EngineConfig {
    EngineConfig {
        estimator,
        ..EngineConfig::default()
    }
}

/// A delta that re-times the edges out of the first four nodes —
/// every pattern mirrored in time — and so moves no maximum speed.
fn retiming_delta(net: &RoadNetwork, seq: u64) -> TrafficDelta {
    let updates = net
        .node_ids()
        .take(4)
        .flat_map(|u| {
            net.neighbors(u)
                .unwrap()
                .iter()
                .map(move |e| PatternUpdate {
                    from: u.0,
                    to: e.to.0,
                    pattern: net.pattern(e.pattern).unwrap().time_mirrored(),
                })
        })
        .collect();
    TrafficDelta::new(seq, updates)
}

/// Fold `k` seeded deltas over `net`, returning every intermediate
/// network (index 0 is the seed network itself).
fn delta_chain(net: RoadNetwork, seeds: &[u64]) -> Vec<Arc<RoadNetwork>> {
    let mut nets = vec![Arc::new(net)];
    for (i, &s) in seeds.iter().enumerate() {
        let cur = nets.last().unwrap();
        let delta = cur.seeded_delta(s, 5, i as u64 + 1).unwrap();
        let (next, _) = cur.apply_delta(&delta).unwrap();
        nets.push(Arc::new(next));
    }
    nets
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Delta application is a pure function: replaying the same seeded
    /// sequence from the same base network reproduces every epoch's
    /// travel behavior bit for bit (answers probed through a fresh
    /// engine per epoch, travel functions compared as raw bits).
    #[test]
    fn delta_sequences_replay_bit_for_bit(
        seed in 0u64..400,
        d1 in 0u64..1000,
        d2 in 0u64..1000,
        d3 in 0u64..1000,
    ) {
        const N: usize = 12;
        let seeds = [d1, d2, d3];
        let a = delta_chain(random_geometric(N, 1.5, 3, seed).unwrap(), &seeds);
        let b = delta_chain(random_geometric(N, 1.5, 3, seed).unwrap(), &seeds);
        let interval = Interval::of(hm(7, 0), hm(8, 30));
        for (na, nb) in a.iter().zip(b.iter()) {
            let ea = Engine::new(na.as_ref(), EngineConfig::default()).unwrap();
            let eb = Engine::new(nb.as_ref(), EngineConfig::default()).unwrap();
            for (s, t) in [(0u32, N as u32 - 1), (3, 7), (9, 2)] {
                let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY);
                let fa = ea.all_fastest_paths(&q).unwrap();
                let fb = eb.all_fastest_paths(&q).unwrap();
                prop_assert_eq!(fa.partition.len(), fb.partition.len());
                for (f, h) in fa.paths.iter().zip(fb.paths.iter()) {
                    prop_assert_eq!(&f.nodes, &h.nodes);
                    prop_assert_eq!(f.travel.breakpoints(), h.travel.breakpoints());
                    prop_assert_eq!(f.travel.linears(), h.travel.linears());
                }
            }
        }
    }

    /// Estimator tables across a delta chain: the distance-mode
    /// boundary tables depend only on edge lengths, so the table built
    /// over the seed network answers every pair — in miles, `f64` bit
    /// for bit — like the one built over any delta-applied successor;
    /// only the `v_max` scalar may move, and where it has not the two
    /// are equal field for field (`BoundaryLb` derives `PartialEq`),
    /// which is what lets the manager republish the same estimator.
    #[test]
    fn boundary_tables_survive_delta_chains_bit_for_bit(
        seed in 0u64..400,
        d1 in 0u64..1000,
        d2 in 0u64..1000,
    ) {
        const N: usize = 12;
        let nets = delta_chain(random_geometric(N, 1.5, 3, seed).unwrap(), &[d1, d2]);
        let base = BoundaryLb::build(nets[0].as_ref(), 3).unwrap();
        for net in &nets[1..] {
            let rebuilt = BoundaryLb::build(net.as_ref(), 3).unwrap();
            for (a, b) in (0..N as u32).flat_map(|a| (0..N as u32).map(move |b| (a, b))) {
                prop_assert_eq!(
                    base.raw_estimate(NodeId(a), NodeId(b)).to_bits(),
                    rebuilt.raw_estimate(NodeId(a), NodeId(b)).to_bits()
                );
            }
            if net.max_speed() == nets[0].max_speed() {
                prop_assert_eq!(&base, &rebuilt);
            }
        }
    }

    /// The min-time estimator across a delta chain that alternates
    /// speed-rescaling deltas with re-timing ones: the manager
    /// republishes the same `Arc` exactly when no edge's maximum speed
    /// moved, and either way its estimator answers every pair like
    /// tables built from scratch over that epoch's network — which the
    /// republished tables also equal array for array.
    #[test]
    fn min_time_estimator_follows_delta_chains(
        seed in 0u64..400,
        d1 in 0u64..1000,
        d2 in 0u64..1000,
    ) {
        const N: usize = 12;
        let net = random_geometric(N, 1.5, 3, seed).unwrap();
        let mgr = EpochManager::new(net, config_with(EstimatorKind::MinTime)).unwrap();
        let mut held = MinTimeLb::build(mgr.current().network().as_ref()).unwrap();
        let mut reuses = 0;
        for seq in 1..=4u64 {
            let before = mgr.current();
            let delta = match seq {
                1 => before.network().seeded_delta(d1, 5, seq).unwrap(),
                3 => before.network().seeded_delta(d2, 5, seq).unwrap(),
                _ => retiming_delta(before.network(), seq),
            };
            let report = mgr.apply_delta(&delta).unwrap();
            let after = mgr.current();
            let kept = !report.delta.best_time_weights_changed;
            reuses += usize::from(kept);
            prop_assert_eq!(report.estimator_reused, kept);
            prop_assert_eq!(
                std::ptr::addr_eq(Arc::as_ptr(before.estimator()), Arc::as_ptr(after.estimator())),
                kept
            );
            let net = after.network();
            let rebuilt = MinTimeLb::build(net.as_ref()).unwrap();
            if kept {
                prop_assert_eq!(&held, &rebuilt);
            }
            for s in net.node_ids() {
                for t in net.node_ids() {
                    let (ps, pt) = (*net.point(s).unwrap(), *net.point(t).unwrap());
                    prop_assert_eq!(
                        after.estimator().travel_lower_bound(s, ps, t, pt).to_bits(),
                        rebuilt.travel_lower_bound(s, ps, t, pt).to_bits()
                    );
                }
            }
            held = rebuilt;
        }
        prop_assert!(reuses >= 2, "the re-timing deltas must keep every weight");
    }

    /// The live backend — shared cache and reused estimator surviving
    /// every epoch swap — answers each epoch's queries bit-identically
    /// to a from-scratch engine (fresh cache, estimator rebuilt via
    /// `build_estimator`) over that epoch's network. This is the
    /// per-epoch cache-exactness identity: stale entries can never
    /// leak across a swap because pattern ids are append-only.
    #[test]
    fn live_backend_equals_from_scratch_engine_per_epoch(
        seed in 0u64..400,
        d1 in 0u64..1000,
        d2 in 0u64..1000,
        d3 in 0u64..1000,
    ) {
        const N: usize = 12;
        for kind in [EstimatorKind::Boundary { grid: 3 }, EstimatorKind::MinTime] {
            let net = random_geometric(N, 1.5, 3, seed).unwrap();
            let mgr = EpochManager::new(net, config_with(kind)).unwrap();
            let live = LiveBackend::new(&mgr);
            let interval = Interval::of(hm(6, 45), hm(8, 15));
            let probes = [(0u32, N as u32 - 1), (2, 9), (7, 4), (11, 1)];
            for (i, d) in [d1, d2, d3].into_iter().enumerate() {
                // Query the current epoch (warming the shared cache), then
                // swap and re-check: answers on the *new* epoch must match
                // a fresh engine even though the cache carries entries
                // from every previous epoch.
                let delta = mgr
                    .current()
                    .network()
                    .seeded_delta(d, 5, i as u64 + 1)
                    .unwrap();
                mgr.apply_delta(&delta).unwrap();
                let epoch = mgr.current();
                let fresh_net = Arc::clone(epoch.network());
                let config = config_with(kind);
                let estimator = build_estimator(fresh_net.as_ref(), &config).unwrap();
                let fresh = Engine::with_estimator(fresh_net.as_ref(), estimator, config);
                for (s, t) in probes {
                    let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY)
                        .with_epoch(epoch.id());
                    let a = live.single_fastest_path(&q).unwrap();
                    let b = fresh.single_fastest_path(&q).unwrap();
                    prop_assert_eq!(&a.path.nodes, &b.path.nodes);
                    prop_assert_eq!(a.travel_minutes.to_bits(), b.travel_minutes.to_bits());
                    prop_assert_eq!(a.path.travel.breakpoints(), b.path.travel.breakpoints());
                    prop_assert_eq!(a.path.travel.linears(), b.path.travel.linears());
                }
            }
            let stats = mgr.stats();
            prop_assert!(stats.reconciles(), "epoch stats do not reconcile: {:?}", stats);
        }
    }
}
