//! Property tests for the live-update path: metric-independent
//! ("live") topologies stay exact under traffic deltas, and the
//! incremental refresh — which re-composes only the dirty composition
//! cone and reuses every clean arc's stored function verbatim — is
//! bit-for-bit equal to rebuilding the overlay from scratch over the
//! delta-applied network.

use allfp::{Engine, EngineConfig, PathfindBackend, QuerySpec};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use proptest::prelude::*;
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::random_geometric;
use roadnet::NodeId;
use traffic::DayCategory;

fn live_config() -> HierarchyConfig {
    HierarchyConfig {
        live_topology: true,
        ..HierarchyConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Incremental refresh ≡ from-scratch restore, bit for bit: after
    /// a seeded delta, `refreshed` (dirty-cone re-composition, clean
    /// arcs reused verbatim) produces the identical overlay — same
    /// snapshot (ranks, topology), same piece counts — as
    /// `from_snapshot` over the delta-applied network, which
    /// re-composes *everything* (the crate's unit tests compare the
    /// two overlays' functions bit for bit).
    #[test]
    fn refresh_equals_from_scratch_rebuild(
        seed in 0u64..300,
        delta_seed in 0u64..1000,
        n_changed in 1usize..6,
    ) {
        const N: usize = 14;
        let net = random_geometric(N, 1.5, 3, seed).unwrap();
        let live = HierarchyEngine::build(&net, EngineConfig::default(), live_config()).unwrap();
        let delta = net.seeded_delta(delta_seed, n_changed, 1).unwrap();
        let (net2, report) = net.apply_delta(&delta).unwrap();

        let (refreshed, rr) = live
            .refreshed(Engine::new(&net2, EngineConfig::default()).unwrap(), &report.changed)
            .unwrap();
        let scratch = HierarchyEngine::from_snapshot(
            Engine::new(&net2, EngineConfig::default()).unwrap(),
            live_config(),
            &live.snapshot(),
        )
        .unwrap();

        prop_assert_eq!(refreshed.snapshot(), scratch.snapshot());
        prop_assert_eq!(refreshed.report().overlay_pieces, scratch.report().overlay_pieces);

        // The dirty cone is scoped: only arcs whose cone touches a
        // changed edge were re-composed, and the accounting adds up.
        prop_assert!(rr.base_rebuilt >= report.changed.len());
        prop_assert!(rr.base_rebuilt <= rr.base_total);
        prop_assert!(rr.shortcuts_rebuilt <= rr.shortcuts_total);
        prop_assert!((0.0..=1.0).contains(&rr.invalidation_fraction()));
    }

    /// A live topology stays **query-exact under any delta**: no
    /// witness proofs or domination choices were baked in for the old
    /// metric, so after refreshing the functions the up–down search
    /// answers bit-identically to a flat engine on the new network.
    #[test]
    fn live_topology_stays_exact_after_deltas(
        seed in 0u64..300,
        delta_seed in 0u64..1000,
    ) {
        const N: usize = 12;
        let net = random_geometric(N, 1.5, 3, seed).unwrap();
        let live = HierarchyEngine::build(&net, EngineConfig::default(), live_config()).unwrap();

        // Two stacked deltas: refresh the refresh.
        let d1 = net.seeded_delta(delta_seed, 4, 1).unwrap();
        let (net2, r1) = net.apply_delta(&d1).unwrap();
        let (live2, _) = live
            .refreshed(Engine::new(&net2, EngineConfig::default()).unwrap(), &r1.changed)
            .unwrap();
        let d2 = net2.seeded_delta(delta_seed ^ 0xABCD, 3, 2).unwrap();
        let (net3, r2) = net2.apply_delta(&d2).unwrap();
        let (live3, _) = live2
            .refreshed(Engine::new(&net3, EngineConfig::default()).unwrap(), &r2.changed)
            .unwrap();

        let flat = Engine::new(&net3, EngineConfig::default()).unwrap();
        let interval = Interval::of(hm(6, 30), hm(8, 30));
        for s in 0..N as u32 {
            for t in 0..N as u32 {
                if s == t {
                    continue;
                }
                let q = QuerySpec::new(NodeId(s), NodeId(t), interval, DayCategory::WORKDAY);
                let fa = flat.all_fastest_paths(&q).unwrap();
                let ha = live3.all_fastest_paths(&q).unwrap();
                prop_assert_eq!(fa.partition.len(), ha.partition.len());
                for ((fi, fp), (hi, hp)) in fa.partition.iter().zip(ha.partition.iter()) {
                    prop_assert_eq!(fi.lo().to_bits(), hi.lo().to_bits());
                    prop_assert_eq!(fi.hi().to_bits(), hi.hi().to_bits());
                    prop_assert_eq!(&fa.paths[*fp].nodes, &ha.paths[*hp].nodes);
                }
                for (f, h) in fa.paths.iter().zip(ha.paths.iter()) {
                    prop_assert_eq!(f.travel.breakpoints(), h.travel.breakpoints());
                    prop_assert_eq!(f.travel.linears(), h.travel.linears());
                }
            }
        }
    }
}

/// An empty delta refreshes to the identical engine while rebuilding
/// nothing at all — the scoped-invalidation floor.
#[test]
fn empty_delta_rebuilds_nothing() {
    let net = random_geometric(12, 1.5, 3, 11).unwrap();
    let live = HierarchyEngine::build(&net, EngineConfig::default(), live_config()).unwrap();
    let (refreshed, rr) = live
        .refreshed(Engine::new(&net, EngineConfig::default()).unwrap(), &[])
        .unwrap();
    assert_eq!(rr.base_rebuilt, 0);
    assert_eq!(rr.shortcuts_rebuilt, 0);
    assert_eq!(rr.invalidation_fraction(), 0.0);
    assert_eq!(refreshed.snapshot(), live.snapshot());
}
