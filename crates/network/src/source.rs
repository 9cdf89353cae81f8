//! Storage-independent network access.
//!
//! The query engine never assumes the network is in memory: the paper
//! stores it on disk behind CCAM (§2.2) and accesses it through
//! `FindNode` / `GetSuccessor` operations. [`NetworkSource`] is that
//! operation set; `fp-ccam` implements it over 2048-byte disk pages
//! with a buffer pool, and [`RoadNetwork`] implements it directly for
//! in-memory runs.

use traffic::CapeCodPattern;

use crate::{Edge, NodeId, PatternId, Point, Result, RoadNetwork};

/// Read access to a CapeCod network, independent of storage layout.
///
/// Implementations may perform I/O in `find_node` / `successors`
/// (CCAM reads pages through a buffer pool); callers should treat the
/// calls as potentially expensive and read each node once per query,
/// as the allFP engine does: it fetches a node's adjacency and
/// location in one [`read_node`](NetworkSource::read_node) the first
/// time a search touches the node, and serves every later expansion
/// from its own per-query copy.
pub trait NetworkSource {
    /// Number of nodes in the network.
    fn n_nodes(&self) -> usize;

    /// Location of `node` (CCAM: `FindNode`).
    fn find_node(&self, node: NodeId) -> Result<Point>;

    /// Outgoing edges of `node` (CCAM: `GetSuccessor`).
    fn successors(&self, node: NodeId) -> Result<Vec<Edge>>;

    /// Fill `buf` with the outgoing edges of `node`, clearing it first.
    ///
    /// Hot loops (the allFP engine reads ~400 node records per
    /// query) call this with a reused buffer to avoid a fresh `Vec`
    /// per call; implementations that can copy from an internal
    /// slice should override the default, which delegates to
    /// [`NetworkSource::successors`].
    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> Result<()> {
        buf.clear();
        buf.extend(self.successors(node)?);
        Ok(())
    }

    /// Read one node record: fill `buf` with the outgoing edges of
    /// `node` (clearing it first) and return its location — CCAM's
    /// `GetSuccessor` and `FindNode` on the same record.
    ///
    /// The default is [`successors_into`](NetworkSource::successors_into)
    /// followed by [`find_node`](NetworkSource::find_node); a store
    /// that can resolve the record once for both should override it
    /// (CCAM then reads one directory entry per record instead of two).
    fn read_node(&self, node: NodeId, buf: &mut Vec<Edge>) -> Result<Point> {
        self.successors_into(node, buf)?;
        self.find_node(node)
    }

    /// Speed pattern by id (pattern tables are small and cached in
    /// memory by every implementation).
    fn pattern(&self, id: PatternId) -> Result<&CapeCodPattern>;

    /// Maximum speed in the network, miles per minute.
    fn max_speed(&self) -> f64;

    /// Euclidean distance between two nodes, miles.
    fn euclidean(&self, a: NodeId, b: NodeId) -> Result<f64> {
        Ok(self.find_node(a)?.distance(&self.find_node(b)?))
    }
}

impl NetworkSource for RoadNetwork {
    fn n_nodes(&self) -> usize {
        RoadNetwork::n_nodes(self)
    }

    fn find_node(&self, node: NodeId) -> Result<Point> {
        self.point(node).copied()
    }

    fn successors(&self, node: NodeId) -> Result<Vec<Edge>> {
        Ok(self.neighbors(node)?.to_vec())
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> Result<()> {
        buf.clear();
        buf.extend_from_slice(self.neighbors(node)?);
        Ok(())
    }

    fn pattern(&self, id: PatternId) -> Result<&CapeCodPattern> {
        RoadNetwork::pattern(self, id)
    }

    fn max_speed(&self) -> f64 {
        RoadNetwork::max_speed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{PatternSchema, RoadClass};

    #[test]
    fn road_network_implements_source() {
        let schema = PatternSchema::table1().unwrap();
        let mut net = RoadNetwork::with_schema(&schema);
        let a = net.add_node(0.0, 0.0).unwrap();
        let b = net.add_node(1.0, 0.0).unwrap();
        net.add_bidirectional(a, b, 1.0, RoadClass::LocalOutside)
            .unwrap();

        let src: &dyn NetworkSource = &net;
        assert_eq!(src.n_nodes(), 2);
        assert_eq!(src.find_node(a).unwrap(), Point { x: 0.0, y: 0.0 });
        assert_eq!(src.successors(a).unwrap().len(), 1);
        assert!((src.euclidean(a, b).unwrap() - 1.0).abs() < 1e-12);
        assert!(src.pattern(PatternId(3)).is_ok());
        assert!(src.find_node(NodeId(9)).is_err());
    }
}
