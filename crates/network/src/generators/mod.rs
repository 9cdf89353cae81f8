//! Deterministic synthetic network generators.
//!
//! Every generator takes an explicit seed and produces the same network
//! on every run. [`suffolk_like`] is the experiment substrate standing
//! in for the paper's TIGER/Line Suffolk County extract; [`grid`] and
//! [`random_geometric`] back unit and property tests.

mod continental;
mod grid;
mod metro;
mod random_geo;

pub use continental::{continental, ContinentalConfig, ContinentalNet};
pub use grid::grid;
pub use metro::{suffolk_like, MetroConfig};
pub use random_geo::random_geometric;

use crate::{NodeId, RoadNetwork};

/// Union-find over node indices, used by generators to guarantee
/// connectivity while thinning edges.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    pub(crate) fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Union the sets; returns `true` if they were previously disjoint.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// Check that the network is connected when edges are viewed as
/// undirected (generators guarantee this; tests assert it).
pub fn is_connected_undirected(net: &RoadNetwork) -> bool {
    let n = net.n_nodes();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let rev = net.reverse_adj();
    let mut count = 0usize;
    while let Some(u) = stack.pop() {
        count += 1;
        for e in net.neighbors(u).unwrap_or_default() {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
        for (v, _) in &rev[u.index()] {
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(*v);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 3));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
    }
}
