//! Page-packing policies.
//!
//! CCAM's defining idea is to "preserve the connectivity relationship
//! by heuristically partitioning the graph" so that a node and its
//! neighbors tend to live on the same disk page (§2.2). We implement
//! three placements:
//!
//! * [`PlacementPolicy::ConnectivityClustered`] — CCAM proper: grow a
//!   page by BFS over unassigned neighbors; when the BFS runs dry with
//!   room left, re-seed it from the next unassigned node in Hilbert
//!   order, and close the page only when that seed does not fit;
//! * [`PlacementPolicy::HilbertPacked`] — pack nodes in plain Hilbert
//!   order (spatial, but connectivity-blind);
//! * [`PlacementPolicy::Random`] — shuffled packing, the ablation
//!   baseline showing what clustering buys.

use std::collections::VecDeque;

use roadnet::{Edge, NetworkSource, NodeId};

use crate::hilbert::hilbert_order;
use crate::record::NodeRecord;
use crate::Result;

/// How node records are assigned to data pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementPolicy {
    /// CCAM: Hilbert-seeded BFS clustering (default).
    ConnectivityClustered,
    /// Plain Hilbert-order packing.
    HilbertPacked,
    /// Seeded random packing (ablation baseline).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

/// The result of partitioning: every node id, page by page, each page
/// in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    order: Vec<NodeId>,
    /// Where each page starts in `order`; a page runs to the next
    /// page's start, the last to the end.
    starts: Vec<usize>,
}

impl Partitioning {
    /// The node ids of each page, in page order.
    pub fn pages(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        let ends = self.starts.iter().skip(1).copied();
        let ends = ends.chain([self.order.len()]);
        let starts = self.starts.iter().copied();
        starts.zip(ends).map(|(start, end)| &self.order[start..end])
    }
}

/// Builds a [`Partitioning`] one record at a time into an open page.
struct Packer {
    order: Vec<NodeId>,
    starts: Vec<usize>,
    /// Bytes used on the open page, which starts at `starts.last()`.
    used: usize,
}

impl Packer {
    fn new(n_nodes: usize) -> Self {
        Packer {
            order: Vec::with_capacity(n_nodes),
            starts: vec![0],
            used: 0,
        }
    }

    /// Close the open page if it holds a record.
    fn close(&mut self) {
        if self.used > 0 {
            self.starts.push(self.order.len());
            self.used = 0;
        }
    }

    fn push(&mut self, node: NodeId, cost: usize) {
        self.order.push(node);
        self.used += cost;
    }

    fn finish(mut self) -> Partitioning {
        if self.used == 0 {
            self.starts.pop(); // the open page is empty
        }
        Partitioning {
            order: self.order,
            starts: self.starts,
        }
    }
}

/// Encoded record size of `node` (header + slot-directory entry);
/// `edges` is a reused scratch buffer.
fn record_cost<S: NetworkSource + ?Sized>(
    net: &S,
    node: NodeId,
    edges: &mut Vec<Edge>,
) -> Result<usize> {
    net.successors_into(node, edges)?;
    Ok(NodeRecord::encoded_len_for(edges.len()) + 4) // slot entry
}

/// Partition all nodes of `net` into pages of `page_size` bytes under
/// `policy`.
///
/// Generic over [`NetworkSource`] so a lazily generated network (the
/// continental tier) or a disk-resident one can be partitioned without
/// materializing a [`RoadNetwork`]; node ids are `0..n_nodes()` by the
/// source contract.
pub fn partition_nodes<S: NetworkSource + ?Sized>(
    net: &S,
    policy: PlacementPolicy,
    page_size: usize,
) -> Result<Partitioning> {
    let budget = page_size.saturating_sub(4); // page header
    let mut scratch: Vec<Edge> = Vec::new();
    let order: Vec<usize> = match policy {
        PlacementPolicy::ConnectivityClustered | PlacementPolicy::HilbertPacked => {
            let mut pts = Vec::with_capacity(net.n_nodes());
            for i in 0..net.n_nodes() {
                pts.push(net.find_node(NodeId(i as u32))?);
            }
            hilbert_order(&pts)
        }
        PlacementPolicy::Random { seed } => {
            // deterministic xorshift shuffle (no rand dependency here)
            let mut idx: Vec<usize> = (0..net.n_nodes()).collect();
            let mut state = seed | 1;
            for i in (1..idx.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                idx.swap(i, (state % (i as u64 + 1)) as usize);
            }
            idx
        }
    };

    let mut packer = Packer::new(order.len());
    if !matches!(policy, PlacementPolicy::ConnectivityClustered) {
        // Sequential packing in the chosen order.
        for &i in &order {
            let n = NodeId(i as u32);
            let cost = record_cost(net, n, &mut scratch)?;
            if packer.used + cost > budget {
                packer.close();
            }
            packer.push(n, cost);
        }
        return Ok(packer.finish());
    }

    // CCAM: BFS growth, seeded in Hilbert order.
    let mut assigned = vec![false; net.n_nodes()];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &seed in &order {
        if assigned[seed] {
            continue;
        }
        let seed = NodeId(seed as u32);
        // The page's BFS ran dry: the seed joins it if it fits, and
        // opens the next page if it does not.
        if packer.used + record_cost(net, seed, &mut scratch)? > budget {
            packer.close();
        }
        queue.push_back(seed);
        while let Some(cand) = queue.pop_front() {
            if assigned[cand.index()] {
                continue;
            }
            let cost = record_cost(net, cand, &mut scratch)?;
            if packer.used + cost > budget {
                if packer.used == 0 {
                    // a single record larger than a page: give it its own
                    // page (oversized records are rejected later at
                    // insert; this keeps the partitioner total)
                    assigned[cand.index()] = true;
                    packer.push(cand, cost);
                    packer.close();
                }
                // doesn't fit here; a later seed will claim it
                continue;
            }
            assigned[cand.index()] = true;
            packer.push(cand, cost);
            // `scratch` still holds `cand`'s successors from the cost
            // computation above.
            for e in &scratch {
                if !assigned[e.to.index()] {
                    queue.push_back(e.to);
                }
            }
        }
    }

    Ok(packer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::grid;
    use roadnet::RoadNetwork;
    use traffic::RoadClass;

    impl Partitioning {
        /// Fraction of directed edges whose endpoints share a page — the
        /// clustering quality CCAM optimizes (higher is better).
        fn connectivity_ratio(&self, net: &RoadNetwork) -> f64 {
            let mut page_of = vec![u32::MAX; net.n_nodes()];
            for (p, nodes) in self.pages().enumerate() {
                for n in nodes {
                    page_of[n.index()] = p as u32;
                }
            }
            let mut total = 0usize;
            let mut same = 0usize;
            for u in net.node_ids() {
                // node ids straight from the network are always valid
                let Ok(edges) = net.neighbors(u) else {
                    continue;
                };
                for e in edges {
                    total += 1;
                    if page_of[u.index()] == page_of[e.to.index()] {
                        same += 1;
                    }
                }
            }
            if total == 0 {
                0.0
            } else {
                same as f64 / total as f64
            }
        }
    }

    fn all_assigned_once(net: &RoadNetwork, p: &Partitioning) {
        let mut seen = vec![false; net.n_nodes()];
        for page in p.pages() {
            for n in page {
                assert!(!seen[n.index()], "node {n} assigned twice");
                seen[n.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some node unassigned");
    }

    #[test]
    fn every_policy_covers_all_nodes() {
        let net = grid(12, 12, 0.2, RoadClass::LocalOutside).unwrap();
        for policy in [
            PlacementPolicy::ConnectivityClustered,
            PlacementPolicy::HilbertPacked,
            PlacementPolicy::Random { seed: 3 },
        ] {
            let p = partition_nodes(&net, policy, 512).unwrap();
            all_assigned_once(&net, &p);
            assert!(p.pages().count() > 1);
        }
    }

    #[test]
    fn pages_respect_byte_budget() {
        let net = grid(10, 10, 0.2, RoadClass::LocalOutside).unwrap();
        let page_size = 512;
        let p = partition_nodes(&net, PlacementPolicy::ConnectivityClustered, page_size).unwrap();
        let mut scratch = Vec::new();
        for page in p.pages() {
            let used: usize = page
                .iter()
                .map(|&n| record_cost(&net, n, &mut scratch).unwrap())
                .sum();
            assert!(used <= page_size - 4, "page overflows: {used}");
        }
    }

    #[test]
    fn clustering_beats_random() {
        let net = grid(20, 20, 0.2, RoadClass::LocalOutside).unwrap();
        let ccam = partition_nodes(&net, PlacementPolicy::ConnectivityClustered, 2048)
            .unwrap()
            .connectivity_ratio(&net);
        let hilbert = partition_nodes(&net, PlacementPolicy::HilbertPacked, 2048)
            .unwrap()
            .connectivity_ratio(&net);
        let random = partition_nodes(&net, PlacementPolicy::Random { seed: 5 }, 2048)
            .unwrap()
            .connectivity_ratio(&net);
        assert!(ccam > random, "ccam {ccam} vs random {random}");
        assert!(hilbert > random, "hilbert {hilbert} vs random {random}");
        assert!(ccam > 0.5, "ccam ratio unexpectedly low: {ccam}");
    }

    #[test]
    fn deterministic() {
        let net = grid(8, 8, 0.3, RoadClass::LocalOutside).unwrap();
        let a = partition_nodes(&net, PlacementPolicy::Random { seed: 9 }, 512).unwrap();
        let b = partition_nodes(&net, PlacementPolicy::Random { seed: 9 }, 512).unwrap();
        assert_eq!(a, b);
    }
}
