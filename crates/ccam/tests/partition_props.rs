//! Property suite for the page partitioner: every placement policy
//! assigns each node to exactly one page, and the connectivity
//! partitioning is a pure function of the network and the page budget,
//! so a store rebuilt from the same network packs the same pages.

use ccam::{partition_nodes, PlacementPolicy};
use proptest::prelude::*;
use roadnet::generators::grid;
use roadnet::RoadNetwork;
use traffic::RoadClass;

fn make_net(w: usize, h: usize, spacing: f64) -> RoadNetwork {
    grid(w, h, spacing, RoadClass::LocalOutside).expect("grid generator is infallible here")
}

/// Every policy's page list covers each node exactly once.
fn assert_total_and_disjoint(n_nodes: usize, pages: &[Vec<roadnet::NodeId>]) {
    let mut seen = vec![false; n_nodes];
    for page in pages {
        for n in page {
            assert!(!seen[n.index()], "node {n} assigned to two pages");
            seen[n.index()] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "partitioner left a node unassigned"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Totality and disjointness for every placement policy over
    /// random network shapes and page budgets.
    #[test]
    fn partition_is_total_and_disjoint(
        w in 3usize..10,
        h in 3usize..10,
        page_size in 192usize..1024,
        seed in 0u64..1000,
    ) {
        let net = make_net(w, h, 0.25);
        for policy in [
            PlacementPolicy::ConnectivityClustered,
            PlacementPolicy::HilbertPacked,
            PlacementPolicy::Random { seed },
        ] {
            let p = partition_nodes(&net, policy, page_size).unwrap();
            assert_total_and_disjoint(net.n_nodes(), &p.pages);
        }
    }

    /// The Hilbert-seeded BFS partitioning replays identically.
    #[test]
    fn connectivity_partitioning_replays_identically(
        w in 3usize..9,
        h in 3usize..9,
        page_size in 256usize..2048,
    ) {
        let net = make_net(w, h, 0.25);
        let a = partition_nodes(&net, PlacementPolicy::ConnectivityClustered, page_size).unwrap();
        let b = partition_nodes(&net, PlacementPolicy::ConnectivityClustered, page_size).unwrap();
        prop_assert_eq!(a, b);
    }
}
