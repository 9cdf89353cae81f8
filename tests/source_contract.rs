//! The [`NetworkSource::read_node`] contract. `CcamStore` overrides it:
//! its one record read returns bit for bit what `successors_into`
//! followed by `find_node` returns, for every node of the network. An
//! unknown id is [`NetworkError::UnknownNode`] through `read_node` and
//! `successors_into`, on the store and through the trait's default.

use std::sync::Arc;

use fastest_paths::ccam::{
    BlockStore, CcamStore, ChecksummedStore, FileStore, MemStore, PlacementPolicy,
    DEFAULT_PAGE_SIZE,
};
use fastest_paths::prelude::*;
use fastest_paths::roadnet::generators::{suffolk_like, MetroConfig};
use fastest_paths::roadnet::{Edge, NetworkError, Point};

/// Every bit of a node record: each edge's head, length, class and
/// pattern, then the location.
type RecordBits = (Vec<(NodeId, u64, RoadClass, u16)>, u64, u64);

fn record_bits(edges: &[Edge], loc: Point) -> RecordBits {
    let edges = edges
        .iter()
        .map(|e| (e.to, e.distance.to_bits(), e.class, e.pattern.0))
        .collect();
    (edges, loc.x.to_bits(), loc.y.to_bits())
}

/// `read_node` ≡ `successors_into` + `find_node` on every node of
/// `src`, into a buffer the previous node left full, and an unknown id
/// fails the same way through both.
fn check_override(label: &str, src: &dyn NetworkSource) {
    let (mut combined, mut split) = (Vec::new(), Vec::new());
    let mut edges_seen = 0usize;
    for id in 0..src.n_nodes() {
        let node = NodeId(id as u32);
        let loc = src.read_node(node, &mut combined).expect("read_node");
        src.successors_into(node, &mut split)
            .expect("successors_into");
        let want = record_bits(&split, src.find_node(node).expect("find_node"));
        assert_eq!(record_bits(&combined, loc), want, "{label}: node {id}");
        edges_seen += combined.len();
    }
    assert!(edges_seen > 0, "{label}: the network has no edges");
    check_unknown(label, src);
}

/// An id one past the last node is [`NetworkError::UnknownNode`]
/// through `read_node` and `successors_into`.
fn check_unknown(label: &str, src: &dyn NetworkSource) {
    let (mut combined, mut split) = (Vec::new(), Vec::new());
    let unknown = NodeId(src.n_nodes() as u32);
    assert!(
        matches!(
            src.read_node(unknown, &mut combined),
            Err(NetworkError::UnknownNode(n)) if n == unknown
        ),
        "{label}: read_node of an unknown id"
    );
    assert!(
        matches!(
            src.successors_into(unknown, &mut split),
            Err(NetworkError::UnknownNode(n)) if n == unknown
        ),
        "{label}: successors_into of an unknown id"
    );
}

#[test]
fn ccam_read_node_is_successors_then_find_node_on_every_store() {
    let net = suffolk_like(&MetroConfig::small(0xC0FFEE)).expect("generator");
    // The trait's default `read_node`, which every other source uses.
    check_unknown("RoadNetwork", &net);
    // 16 frames over the whole file: records are read through evictions,
    // not only from a warm pool.
    let build = |label: &str, store: Arc<dyn BlockStore>| {
        let disk = CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, 16)
            .expect("store builds");
        check_override(label, &disk);
    };
    build(
        "CcamStore over MemStore",
        Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)),
    );

    let dir = std::env::temp_dir().join(format!("fp-source-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = FileStore::create(&dir.join("net.ccam"), DEFAULT_PAGE_SIZE).expect("file store");
    build("CcamStore over FileStore", Arc::new(file));
    let summed =
        FileStore::create(&dir.join("summed.ccam"), DEFAULT_PAGE_SIZE).expect("file store");
    build(
        "CcamStore over ChecksummedStore over FileStore",
        Arc::new(ChecksummedStore::new(Arc::new(summed))),
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
