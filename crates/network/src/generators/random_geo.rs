//! Random geometric networks for property tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traffic::{PatternSchema, RoadClass};

use crate::generators::UnionFind;
use crate::{NodeId, Result, RoadNetwork};

/// `n` nodes uniform in a `side × side` mile square; each node is
/// connected bidirectionally to its `k` nearest neighbors, and a
/// spanning pass guarantees undirected connectivity. Classes are all
/// [`RoadClass::LocalOutside`]; patterns from Table 1.
pub fn random_geometric(n: usize, side: f64, k: usize, seed: u64) -> Result<RoadNetwork> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = PatternSchema::table1()?;
    let mut net = RoadNetwork::with_schema(&schema);

    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        let (x, y) = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        net.add_node(x, y)?;
        pts.push((x, y));
    }

    let dist = |a: usize, b: usize| -> f64 {
        let (ax, ay) = pts[a];
        let (bx, by) = pts[b];
        (ax - bx).hypot(ay - by)
    };

    let mut uf = UnionFind::new(n);
    let mut added = std::collections::HashSet::new();
    let connect = |net: &mut RoadNetwork,
                   uf: &mut UnionFind,
                   added: &mut std::collections::HashSet<(usize, usize)>,
                   a: usize,
                   b: usize|
     -> Result<()> {
        let key = (a.min(b), a.max(b));
        if a == b || !added.insert(key) {
            return Ok(());
        }
        uf.union(a as u32, b as u32);
        net.add_bidirectional(
            NodeId(a as u32),
            NodeId(b as u32),
            dist(a, b).max(1e-6),
            RoadClass::LocalOutside,
        )
    };

    // k nearest neighbors (O(n²) — property-test scale only).
    for a in 0..n {
        let mut order: Vec<usize> = (0..n).filter(|&b| b != a).collect();
        order.sort_by(|&x, &y| dist(a, x).total_cmp(&dist(a, y)));
        for &b in order.iter().take(k) {
            connect(&mut net, &mut uf, &mut added, a, b)?;
        }
    }

    // Connectivity pass: link each remaining component to its nearest
    // outside node.
    loop {
        let root0 = uf.find(0);
        let Some(stranded) = (0..n).find(|&i| uf.find(i as u32) != root0) else {
            break;
        };
        // Node 0 is in the root component: the first candidate.
        let mut best = (0, dist(stranded, 0));
        for b in 1..n {
            if uf.find(b as u32) == root0 {
                let d = dist(stranded, b);
                if d < best.1 {
                    best = (b, d);
                }
            }
        }
        let (b, _) = best;
        connect(&mut net, &mut uf, &mut added, stranded, b)?;
    }

    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::is_connected_undirected;

    #[test]
    fn generates_connected_network() {
        let net = random_geometric(60, 3.0, 3, 42).unwrap();
        assert_eq!(net.n_nodes(), 60);
        assert!(net.n_edges() >= 2 * 59); // at least a spanning tree, doubled
        assert!(is_connected_undirected(&net));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = random_geometric(40, 2.0, 3, 7).unwrap();
        let b = random_geometric(40, 2.0, 3, 7).unwrap();
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
        for (pa, pb) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.point(pa).unwrap(), b.point(pb).unwrap());
        }
        let c = random_geometric(40, 2.0, 3, 8).unwrap();
        let same = a
            .node_ids()
            .all(|i| a.point(i).unwrap() == c.point(i).unwrap());
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn tiny_network() {
        let net = random_geometric(2, 1.0, 1, 1).unwrap();
        assert_eq!(net.n_nodes(), 2);
        assert!(is_connected_undirected(&net));
    }
}
