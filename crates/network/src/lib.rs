//! Road-network model and synthetic generators.
//!
//! A **CapeCod network** (Definition 3 of the ICDE 2006 paper) is a
//! directed graph whose nodes carry spatial locations and whose edges
//! carry a length and a CapeCod speed pattern. This crate provides:
//!
//! * [`RoadNetwork`] — the in-memory graph: node coordinates,
//!   adjacency lists, a pattern table, and a [`RoadClass`] per edge;
//! * [`generators`] — deterministic synthetic networks:
//!   * [`generators::suffolk_like`] — the experiment substrate
//!     standing in for the paper's 2003 TIGER/Line Suffolk County
//!     extract (see DESIGN.md §3 for the substitution argument): a
//!     dense urban core, radial inbound/outbound highway pairs, a
//!     perimeter ring, and irregular local grids;
//!   * [`generators::grid`] — regular grids for unit tests;
//!   * [`generators::random_geometric`] — random geometric graphs
//!     for property tests;
//! * [`examples`] — the paper's §4.3 three-node running example,
//!   reconstructed so that every worked number in the paper can be
//!   asserted by tests;
//! * [`workload`] — query-pair sampling by Euclidean distance, used
//!   by every experiment in §6.
//!
//! # Geometry invariant
//!
//! `add_edge` rejects edges shorter than the Euclidean distance
//! between their endpoints. This is what makes
//! `d_euc(n, e) / v_max` (and the boundary-node estimator built on
//! network distances) a genuine lower bound on travel time.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod graph;
mod source;
mod stats;

pub mod examples;
pub mod generators;
pub mod io;
pub mod workload;

pub use graph::{DeltaReport, Edge, NodeId, PatternId, Point, RoadNetwork};
pub use source::NetworkSource;
pub use stats::NetworkStats;

/// Failure class of a storage-layer error surfaced through a
/// [`NetworkSource`] backed by disk (see `fp-ccam`).
///
/// The network crate knows nothing about pages or checksums; it only
/// carries the *class* so engine-level callers can route on it —
/// retry transients, refuse corrupted data, report I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Data failed an integrity check (checksum/format mismatch).
    /// Never retryable: the bytes on disk are wrong.
    Corruption,
    /// A transient fault (interrupted read/write) that exhausted the
    /// storage layer's bounded retries. Safe to retry the whole query.
    Transient,
    /// A hard I/O failure from the operating system.
    Io,
    /// Any other storage-layer failure.
    Other,
}

/// Errors from network construction and lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// Node id out of range.
    UnknownNode(NodeId),
    /// Pattern id out of range.
    UnknownPattern(PatternId),
    /// Edge length shorter than the straight-line distance between its
    /// endpoints (would break lower-bound estimators), or non-positive.
    BadEdgeLength {
        /// Offending length (miles).
        length: f64,
        /// Straight-line distance between the endpoints (miles).
        euclidean: f64,
    },
    /// A coordinate was not finite.
    BadCoordinate(f64, f64),
    /// Text-format parse failure (see [`crate::io`]).
    Parse {
        /// 1-based line number (0 for I/O-level failures).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A [`traffic::TrafficDelta`] update named a directed edge the
    /// network does not have.
    NoSuchEdge {
        /// Tail node index from the update.
        from: u32,
        /// Head node index from the update.
        to: u32,
    },
    /// The append-only pattern table is out of [`PatternId`] space
    /// (u16 ids): the delta cannot be applied without a full rebuild.
    PatternTableFull,
    /// Propagated traffic-layer error.
    Traffic(traffic::TrafficError),
    /// A storage-layer failure from a disk-backed [`NetworkSource`]
    /// (classified so callers can route on the failure class rather
    /// than pattern-match on message text).
    Storage {
        /// What class of failure this is.
        kind: StorageFaultKind,
        /// Human-readable detail from the storage layer.
        message: String,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            NetworkError::UnknownPattern(p) => write!(f, "unknown pattern {p:?}"),
            NetworkError::BadEdgeLength { length, euclidean } => write!(
                f,
                "edge length {length} shorter than euclidean distance {euclidean} (or non-positive)"
            ),
            NetworkError::BadCoordinate(x, y) => write!(f, "bad coordinate ({x}, {y})"),
            NetworkError::NoSuchEdge { from, to } => {
                write!(f, "delta update targets missing edge {from} -> {to}")
            }
            NetworkError::PatternTableFull => {
                write!(f, "pattern table exhausted its u16 id space")
            }
            NetworkError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetworkError::Traffic(e) => write!(f, "traffic error: {e}"),
            NetworkError::Storage { kind, message } => {
                write!(f, "storage failure ({kind:?}): {message}")
            }
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<traffic::TrafficError> for NetworkError {
    fn from(e: traffic::TrafficError) -> Self {
        NetworkError::Traffic(e)
    }
}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, NetworkError>;

/// Re-export: road classes live in the traffic crate (they index the
/// pattern schema) but are a core part of the network vocabulary.
pub use traffic::RoadClass;
