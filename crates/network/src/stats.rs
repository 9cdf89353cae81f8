//! Summary statistics for a network (printed by the experiment
//! harness next to the paper's dataset description).

use traffic::RoadClass;

use crate::RoadNetwork;

/// Size and composition summary of a [`RoadNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub directed_edges: usize,
    /// Directed edge count per road class, in [`RoadClass::ALL`] order.
    pub class_counts: [usize; 4],
    /// Mean out-degree.
    pub avg_out_degree: f64,
    /// Total length of all directed edges, miles.
    pub total_miles: f64,
    /// Width and height of the bounding box, miles.
    pub extent: (f64, f64),
}

impl NetworkStats {
    /// Compute statistics for `net`.
    pub fn of(net: &RoadNetwork) -> NetworkStats {
        let mut class_counts = [0usize; 4];
        let mut total_miles = 0.0;
        let mut directed_edges = 0usize;
        for n in net.node_ids() {
            for e in net.neighbors(n).unwrap_or_default() {
                class_counts[e.class.index()] += 1;
                total_miles += e.distance;
                directed_edges += 1;
            }
        }
        let nodes = net.n_nodes();
        let extent = match net.bounding_box() {
            Some((min, max)) => (max.x - min.x, max.y - min.y),
            None => (0.0, 0.0),
        };
        NetworkStats {
            nodes,
            directed_edges,
            class_counts,
            avg_out_degree: if nodes == 0 {
                0.0
            } else {
                directed_edges as f64 / nodes as f64
            },
            total_miles,
            extent,
        }
    }
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} nodes, {} directed edges (avg out-degree {:.2}), {:.0} road-miles, extent {:.1} x {:.1} mi",
            self.nodes, self.directed_edges, self.avg_out_degree, self.total_miles,
            self.extent.0, self.extent.1
        )?;
        for (i, c) in RoadClass::ALL.iter().enumerate() {
            writeln!(f, "  {c}: {} edges", self.class_counts[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::PatternSchema;

    #[test]
    fn stats_count_classes() {
        let schema = PatternSchema::table1().unwrap();
        let mut net = crate::RoadNetwork::with_schema(&schema);
        let a = net.add_node(0.0, 0.0).unwrap();
        let b = net.add_node(1.0, 0.0).unwrap();
        net.add_class_edge(a, b, 1.0, RoadClass::InboundHighway)
            .unwrap();
        net.add_class_edge(b, a, 1.0, RoadClass::OutboundHighway)
            .unwrap();
        net.add_bidirectional(a, b, 1.2, RoadClass::LocalBoston)
            .unwrap();
        let s = NetworkStats::of(&net);
        assert_eq!(s.nodes, 2);
        assert_eq!(s.directed_edges, 4);
        assert_eq!(s.class_counts, [1, 1, 2, 0]);
        assert!((s.avg_out_degree - 2.0).abs() < 1e-12);
        assert!((s.total_miles - 4.4).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("inbound-highway: 1 edges"));
    }
}
