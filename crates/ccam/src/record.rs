//! Binary encoding of node records.
//!
//! Per §2.2, the stored information for node `nᵢ` is its location plus
//! its adjacency list, each neighbor with the segment distance and the
//! speed pattern. Layout (little-endian):
//!
//! ```text
//! id: u32 | x: f64 | y: f64 | n_edges: u16
//! per edge: to: u32 | distance: f64 | class: u8 | pattern: u16
//! ```

use bytes::{Buf, BufMut};
use roadnet::{Edge, NodeId, PatternId, Point};
use traffic::RoadClass;

use crate::{CcamError, Result};

/// One adjacency entry of a stored node record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRecord {
    /// Neighbor node id.
    pub to: NodeId,
    /// Segment length, miles.
    pub distance: f64,
    /// Road class.
    pub class: RoadClass,
    /// Speed pattern id.
    pub pattern: PatternId,
}

impl From<&Edge> for EdgeRecord {
    fn from(e: &Edge) -> Self {
        EdgeRecord {
            to: e.to,
            distance: e.distance,
            class: e.class,
            pattern: e.pattern,
        }
    }
}

impl From<&EdgeRecord> for Edge {
    fn from(r: &EdgeRecord) -> Self {
        Edge {
            to: r.to,
            distance: r.distance,
            class: r.class,
            pattern: r.pattern,
        }
    }
}

/// The stored form of one network node: `infoᵢ` in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The node's id.
    pub id: NodeId,
    /// The node's location.
    pub loc: Point,
    /// Outgoing edges.
    pub edges: Vec<EdgeRecord>,
}

impl NodeRecord {
    /// Encoded size in bytes of a record with `n_edges` adjacency
    /// entries — computable without materializing the record, which is
    /// how the partitioner budgets pages.
    pub fn encoded_len_for(n_edges: usize) -> usize {
        4 + 8 + 8 + 2 + n_edges * (4 + 8 + 1 + 2)
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_for(self.edges.len())
    }

    /// Append the binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.put_u32_le(self.id.0);
        out.put_f64_le(self.loc.x);
        out.put_f64_le(self.loc.y);
        out.put_u16_le(self.edges.len() as u16);
        for e in &self.edges {
            out.put_u32_le(e.to.0);
            out.put_f64_le(e.distance);
            out.put_u8(e.class.index() as u8);
            out.put_u16_le(e.pattern.0);
        }
    }

    /// Decode only the location of a record, skipping its adjacency
    /// list — the fast path behind `find_node`, which needs neither
    /// the edges nor their allocation.
    pub fn decode_loc(buf: &[u8]) -> Result<Point> {
        if buf.len() < 4 + 8 + 8 + 2 {
            return Err(CcamError::Corrupt("truncated node record".into()));
        }
        Ok(Point {
            x: read_f64_at(buf, 4),
            y: read_f64_at(buf, 12),
        })
    }

    /// Decode a record's adjacency list directly into `out` (cleared
    /// first) as network-layer [`Edge`]s, skipping the intermediate
    /// [`EdgeRecord`] vector — the fast path behind `successors_into`,
    /// whose caller reuses `out` across expansions. Validates exactly
    /// what [`decode`](Self::decode) validates.
    pub fn decode_edges_into(mut buf: &[u8], out: &mut Vec<Edge>) -> Result<()> {
        out.clear();
        let need = |n: usize, buf: &[u8]| -> Result<()> {
            if buf.remaining() < n {
                Err(CcamError::Corrupt("truncated node record".into()))
            } else {
                Ok(())
            }
        };
        need(4 + 8 + 8 + 2, buf)?;
        buf.advance(4 + 8 + 8);
        let n = buf.get_u16_le() as usize;
        out.reserve(n);
        for _ in 0..n {
            need(4 + 8 + 1 + 2, buf)?;
            let to = NodeId(buf.get_u32_le());
            let distance = buf.get_f64_le();
            let class_idx = buf.get_u8();
            let class = RoadClass::from_index(usize::from(class_idx))
                .ok_or_else(|| CcamError::Corrupt(format!("bad road class index {class_idx}")))?;
            let pattern = PatternId(buf.get_u16_le());
            out.push(Edge {
                to,
                distance,
                class,
                pattern,
            });
        }
        if buf.has_remaining() {
            return Err(CcamError::Corrupt(format!(
                "{} trailing bytes after node record",
                buf.remaining()
            )));
        }
        Ok(())
    }

    /// Decode a record from `buf` (must consume it exactly).
    pub fn decode(mut buf: &[u8]) -> Result<NodeRecord> {
        let need = |n: usize, buf: &[u8]| -> Result<()> {
            if buf.remaining() < n {
                Err(CcamError::Corrupt("truncated node record".into()))
            } else {
                Ok(())
            }
        };
        need(4 + 8 + 8 + 2, buf)?;
        let id = NodeId(buf.get_u32_le());
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        let n = buf.get_u16_le() as usize;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            need(4 + 8 + 1 + 2, buf)?;
            let to = NodeId(buf.get_u32_le());
            let distance = buf.get_f64_le();
            let class_idx = buf.get_u8();
            let class = RoadClass::from_index(usize::from(class_idx))
                .ok_or_else(|| CcamError::Corrupt(format!("bad road class index {class_idx}")))?;
            let pattern = PatternId(buf.get_u16_le());
            edges.push(EdgeRecord {
                to,
                distance,
                class,
                pattern,
            });
        }
        if buf.has_remaining() {
            return Err(CcamError::Corrupt(format!(
                "{} trailing bytes after node record",
                buf.remaining()
            )));
        }
        Ok(NodeRecord {
            id,
            loc: Point { x, y },
            edges,
        })
    }
}

/// Read a little-endian `f64` at byte offset `at`.
fn read_f64_at(b: &[u8], at: usize) -> f64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[at..at + 8]);
    f64::from_le_bytes(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeRecord {
        NodeRecord {
            id: NodeId(42),
            loc: Point { x: -3.25, y: 7.5 },
            edges: vec![
                EdgeRecord {
                    to: NodeId(43),
                    distance: 1.125,
                    class: RoadClass::InboundHighway,
                    pattern: PatternId(0),
                },
                EdgeRecord {
                    to: NodeId(7),
                    distance: 0.4,
                    class: RoadClass::LocalBoston,
                    pattern: PatternId(2),
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let d = NodeRecord::decode(&buf).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn round_trip_no_edges() {
        let r = NodeRecord {
            id: NodeId(0),
            loc: Point { x: 0.0, y: 0.0 },
            edges: vec![],
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(NodeRecord::decode(&buf).unwrap(), r);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert!(NodeRecord::decode(&buf[..buf.len() - 1]).is_err());
        buf.push(0);
        assert!(NodeRecord::decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_bad_class() {
        let r = sample();
        let mut buf = Vec::new();
        r.encode(&mut buf);
        // class byte of the first edge sits after header(22) + to(4) + dist(8)
        buf[22 + 12] = 9;
        assert!(matches!(
            NodeRecord::decode(&buf),
            Err(CcamError::Corrupt(_))
        ));
    }

    #[test]
    fn edge_conversions() {
        let e = Edge {
            to: NodeId(5),
            distance: 2.0,
            class: RoadClass::LocalOutside,
            pattern: PatternId(3),
        };
        let r = EdgeRecord::from(&e);
        let back = Edge::from(&r);
        assert_eq!(back, e);
    }
}
