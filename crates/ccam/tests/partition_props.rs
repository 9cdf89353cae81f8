//! Property suite for the page partitioner: every placement policy
//! assigns each node to exactly one page, the connectivity
//! partitioning closes a page only when the next record does not fit,
//! and it is a pure function of the network and the page budget, so a
//! store rebuilt from the same network packs the same pages.

use ccam::{partition_nodes, NodeRecord, Partitioning, PlacementPolicy};
use proptest::prelude::*;
use roadnet::generators::{grid, random_geometric};
use roadnet::{NetworkSource, NodeId, RoadNetwork};
use traffic::RoadClass;

fn make_net(w: usize, h: usize, spacing: f64) -> RoadNetwork {
    grid(w, h, spacing, RoadClass::LocalOutside).expect("grid generator is infallible here")
}

/// Every policy's page list covers each node exactly once.
fn assert_total_and_disjoint(n_nodes: usize, p: &Partitioning) {
    let mut seen = vec![false; n_nodes];
    for page in p.pages() {
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

/// Bytes `node`'s record takes on a page: the record and its slot.
fn cost(net: &RoadNetwork, node: NodeId) -> usize {
    let degree = net.successors(node).expect("a node of the network").len();
    NodeRecord::encoded_len_for(degree) + 4
}

/// Every page fits the budget but a lone oversized record's, and every
/// page but the last is closed by the next page's first record: it
/// would not have fit.
fn assert_pages_are_full(net: &RoadNetwork, p: &Partitioning, page_size: usize) {
    let budget = page_size - 4; // page header
    let pages: Vec<&[NodeId]> = p.pages().collect();
    for (i, page) in pages.iter().enumerate() {
        let used: usize = page.iter().map(|&n| cost(net, n)).sum();
        assert!(
            used <= budget || page.len() == 1,
            "page {i} overflows: {used} of {budget}"
        );
        if let Some(next) = pages.get(i + 1) {
            let first = cost(net, next[0]);
            assert!(
                used + first > budget,
                "page {i} closed at {used} of {budget}, but the next page's first record takes {first}"
            );
        }
    }
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
            assert_total_and_disjoint(net.n_nodes(), &p);
        }
    }

    /// The connectivity partitioning re-seeds a page whose BFS ran dry
    /// instead of closing it: over grids and irregular networks, a page
    /// closes only when the next record does not fit.
    #[test]
    fn connectivity_pages_close_only_when_full(
        w in 3usize..10,
        h in 3usize..10,
        n in 20usize..120,
        page_size in 64usize..1024,
        seed in 0u64..1000,
    ) {
        for net in [make_net(w, h, 0.25), random_geometric(n, 2.5, 3, seed).unwrap()] {
            let p = partition_nodes(&net, PlacementPolicy::ConnectivityClustered, page_size)
                .unwrap();
            assert_total_and_disjoint(net.n_nodes(), &p);
            assert_pages_are_full(&net, &p, page_size);
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
