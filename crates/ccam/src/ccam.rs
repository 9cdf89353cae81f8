//! The assembled Connectivity-Clustered Access Method.
//!
//! On-disk layout:
//!
//! ```text
//! page 0            superblock
//! pages 1..=P       pattern table (byte stream across pages)
//! pages P+1..       data pages (slotted node records), then the record
//!                   directory (node id → page and slot, crate::directory)
//! ```
//!
//! The superblock records where the directory lies so a store can be
//! reopened without the original in-memory network. The pattern table
//! is small (one CapeCod pattern per road class plus any bespoke
//! patterns) and is decoded into memory at open time, exactly as the
//! paper treats speed patterns as schema-level data.

use std::sync::Arc;

use bytes::{Buf, BufMut};
use roadnet::{Edge, NetworkSource, NodeId, PatternId, Point, RoadNetwork};
use traffic::{CapeCodPattern, ProfilePiece, SpeedProfile};

use crate::buffer::{BufferPool, StoreStats};
use crate::directory::{Directory, DirectoryImage};
use crate::page::SlottedPage;
use crate::partition::{partition_nodes, PlacementPolicy};
use crate::record::{EdgeRecord, NodeRecord};
use crate::store::BlockStore;
use crate::{CcamError, Result};

const MAGIC: u32 = 0x4343_414D; // "CCAM"
const VERSION: u16 = 2;

/// A disk-resident CapeCod network behind CCAM, implementing
/// [`NetworkSource`] so queries run unmodified over it.
pub struct CcamStore {
    pool: Arc<BufferPool>,
    dir: Directory,
    patterns: Vec<CapeCodPattern>,
    max_speed: f64,
    /// Where the pattern table lives (for in-place pattern updates).
    pattern_region: PatternRegion,
    /// Page currently accepting relocated/new records, if any.
    overflow_page: Option<u64>,
}

impl CcamStore {
    /// Build a store from an in-memory network: [`Self::build_from`]
    /// over `net` and its own pattern table.
    pub fn build(
        net: &RoadNetwork,
        store: Arc<dyn BlockStore>,
        policy: PlacementPolicy,
        pool_frames: usize,
    ) -> Result<CcamStore> {
        Self::build_from(net, net.patterns(), store, policy, pool_frames)
    }

    /// Build a store from any [`NetworkSource`], on the caller's
    /// thread. The source is read only through `find_node`,
    /// `successors_into` and `max_speed`, so a lazily generated
    /// network (the continental tier) is never materialized: beside
    /// the pool's frames the build holds at most 32 bytes a node, the
    /// points and Hilbert keys of the placement sort. `patterns` is
    /// the pattern table to persist; a source lends its patterns one
    /// id at a time, so the caller passes the table.
    ///
    /// `store` must be empty; `policy` selects the page placement;
    /// `pool_frames` sizes the buffer pool the build writes through
    /// and later reads use. The bytes depend only on the nodes, edges
    /// and patterns, not on how the source holds them.
    pub fn build_from<S: NetworkSource + ?Sized>(
        src: &S,
        patterns: &[CapeCodPattern],
        store: Arc<dyn BlockStore>,
        policy: PlacementPolicy,
        pool_frames: usize,
    ) -> Result<CcamStore> {
        if store.n_pages() != 0 {
            return Err(CcamError::Corrupt("store not empty".into()));
        }
        let page_size = store.page_size();
        let pool = Arc::new(BufferPool::new(store, pool_frames));

        // page 0: superblock placeholder (rewritten at the end)
        let sb_page = pool.store().allocate()?;
        debug_assert_eq!(sb_page, 0);

        let region = write_pattern_table(&pool, patterns)?;

        // data pages
        let partitioning = partition_nodes(src, policy, page_size)?;
        let mut image = DirectoryImage::new(src.n_nodes());
        let mut edges = Vec::new();
        let mut buf = Vec::new();
        for nodes in partitioning.pages() {
            let page_id = pool.store().allocate()?;
            let mut page = SlottedPage::new(page_size);
            for &n in nodes {
                src.successors_into(n, &mut edges)?;
                let rec = NodeRecord {
                    id: n,
                    loc: src.find_node(n)?,
                    edges: edges.iter().map(EdgeRecord::from).collect(),
                };
                buf.clear();
                rec.encode(&mut buf);
                let slot = page.insert(&buf)?;
                image.set(n, page_id, slot)?;
            }
            pool.write_page(page_id, page.as_bytes())?;
        }

        // the directory after the data pages, then the superblock
        let dir = image.write(&pool)?;
        write_superblock(&pool, &dir, region)?;
        pool.flush()?;

        Ok(CcamStore {
            pool,
            dir,
            patterns: patterns.to_vec(),
            max_speed: src.max_speed(),
            pattern_region: region,
            overflow_page: None,
        })
    }

    /// Reopen a previously built store.
    pub fn open(store: Arc<dyn BlockStore>, pool_frames: usize) -> Result<CcamStore> {
        let page_size = store.page_size();
        let pool = Arc::new(BufferPool::new(store, pool_frames));

        let (n_nodes, dir_start, dir_pages, region) = pool.with_page(0, |page| {
            let mut buf = page;
            if buf.get_u32_le() != MAGIC {
                return Err(CcamError::Corrupt("bad magic".into()));
            }
            let version = buf.get_u16_le();
            if version != VERSION {
                return Err(CcamError::Corrupt(format!("unsupported version {version}")));
            }
            let stored_page_size = buf.get_u32_le() as usize;
            if stored_page_size != page_size {
                return Err(CcamError::Corrupt(format!(
                    "page size mismatch: stored {stored_page_size}, store {page_size}"
                )));
            }
            let n_nodes = buf.get_u64_le() as usize;
            let dir_start = buf.get_u64_le();
            let dir_pages = buf.get_u64_le();
            let region = PatternRegion {
                start: buf.get_u64_le(),
                n_pages: buf.get_u32_le() as usize,
                len: buf.get_u32_le() as usize,
            };
            Ok((n_nodes, dir_start, dir_pages, region))
        })??;
        let dir = Directory::open(&**pool.store(), dir_start, dir_pages, n_nodes)?;

        let mut pattern_bytes = Vec::with_capacity(region.len);
        for i in 0..region.n_pages {
            pool.with_page(region.start + i as u64, |page| {
                pattern_bytes.extend_from_slice(page);
            })?;
        }
        pattern_bytes.truncate(region.len);
        let patterns = decode_patterns(&pattern_bytes)?;
        let max_speed = patterns
            .iter()
            .map(CapeCodPattern::max_speed)
            .fold(f64::NEG_INFINITY, f64::max);

        Ok(CcamStore {
            pool,
            dir,
            patterns,
            max_speed,
            pattern_region: region,
            overflow_page: None,
        })
    }

    /// Full node record (`FindNode` + adjacency, one logical access).
    pub fn node_record(&self, node: NodeId) -> Result<NodeRecord> {
        let (page_id, slot) = self.record_addr(node)?;
        self.pool.with_page(page_id, |bytes| {
            NodeRecord::decode(crate::page::slot_in(bytes, slot)?)
        })?
    }

    /// Location-only lookup: decodes just the record header, skipping
    /// the adjacency list (a query asks for its target's location this
    /// way; the search reads every other node's location together with
    /// its adjacency, through [`NetworkSource::read_node`]).
    fn node_loc(&self, node: NodeId) -> Result<Point> {
        let (page_id, slot) = self.record_addr(node)?;
        self.pool.with_page(page_id, |bytes| {
            NodeRecord::decode_loc(crate::page::slot_in(bytes, slot)?)
        })?
    }

    /// Decode a node's adjacency list straight into `out` (cleared
    /// first), with no intermediate record allocation.
    fn edges_into(&self, node: NodeId, out: &mut Vec<Edge>) -> Result<()> {
        let (page_id, slot) = self.record_addr(node)?;
        self.pool.with_page(page_id, |bytes| {
            NodeRecord::decode_edges_into(crate::page::slot_in(bytes, slot)?, out)
        })?
    }

    /// [`Self::edges_into`] and [`Self::node_loc`] from one directory
    /// page and one data page: the adjacency into `out`
    /// (cleared first), the location returned.
    fn read_into(&self, node: NodeId, out: &mut Vec<Edge>) -> Result<Point> {
        let (page_id, slot) = self.record_addr(node)?;
        self.pool.with_page(page_id, |bytes| {
            let record = crate::page::slot_in(bytes, slot)?;
            NodeRecord::decode_edges_into(record, out)?;
            NodeRecord::decode_loc(record)
        })?
    }

    /// A node's record address as `(page, slot)`, from its directory
    /// entry.
    fn record_addr(&self, node: NodeId) -> Result<(u64, u16)> {
        self.dir.get(&self.pool, node)
    }

    /// Current access statistics.
    pub fn stats(&self) -> StoreStats {
        self.pool.stats()
    }

    /// Drop all cached pages (cold-cache experiments).
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear()
    }

    /// The buffer pool (for capacity introspection in experiments).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

/// Map a storage failure onto the network-layer taxonomy so callers
/// above (the query engine) can route on failure *class*: an index
/// miss stays [`roadnet::NetworkError::UnknownNode`] — the node really
/// isn't there — while I/O and integrity failures become
/// [`roadnet::NetworkError::Storage`] tagged with a
/// [`roadnet::StorageFaultKind`]. The seed code collapsed everything
/// to `UnknownNode`, which made a corrupt page indistinguishable from
/// a bad query.
fn storage_error(e: CcamError, node: NodeId) -> roadnet::NetworkError {
    use roadnet::{NetworkError, StorageFaultKind};
    let kind = match &e {
        CcamError::NotFound(_) => return NetworkError::UnknownNode(node),
        CcamError::Network(inner) => return inner.clone(),
        CcamError::Corruption { .. }
        | CcamError::Corrupt(_)
        | CcamError::BadPage(_)
        | CcamError::PageSizeMismatch { .. } => StorageFaultKind::Corruption,
        CcamError::TransientIo { .. } => StorageFaultKind::Transient,
        CcamError::Io(_) => StorageFaultKind::Io,
        CcamError::RecordTooLarge { .. } | CcamError::NodeIdNotNext { .. } => {
            StorageFaultKind::Other
        }
    };
    NetworkError::Storage {
        kind,
        message: e.to_string(),
    }
}

impl NetworkSource for CcamStore {
    fn n_nodes(&self) -> usize {
        self.dir.len()
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
        self.node_loc(node).map_err(|e| storage_error(e, node))
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
        let mut out = Vec::new();
        self.edges_into(node, &mut out)
            .map_err(|e| storage_error(e, node))?;
        Ok(out)
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
        self.edges_into(node, buf)
            .map_err(|e| storage_error(e, node))
    }

    fn read_node(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<Point> {
        self.read_into(node, buf)
            .map_err(|e| storage_error(e, node))
    }

    fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
        self.patterns
            .get(usize::from(id.0))
            .ok_or(roadnet::NetworkError::UnknownPattern(id))
    }

    fn max_speed(&self) -> f64 {
        self.max_speed
    }
}

/// Network-update operations (§2.2: CCAM supports "the appropriate
/// operations to update the network").
///
/// Records that grow past their slot are *relocated* to an overflow
/// page and the directory entry is repointed; shrinking records are
/// rewritten in place. Stale heap bytes are reclaimed only by a full
/// rebuild (the classic vacuum trade-off).
impl CcamStore {
    /// Replace the stored record for `rec.id` (must already exist).
    pub fn update_node_record(&mut self, rec: &NodeRecord) -> Result<()> {
        let (page_id, slot) = self.record_addr(rec.id)?;
        let mut bytes = Vec::with_capacity(rec.encoded_len());
        rec.encode(&mut bytes);

        // Try in place.
        let mut image = self.pool.with_page(page_id, |p| p.to_vec())?;
        let mut page = SlottedPage::from_bytes(std::mem::take(&mut image))?;
        let existing_len = page.get(slot)?.len();
        if bytes.len() <= existing_len {
            page.overwrite(slot, &bytes)?;
            return self.pool.write_page(page_id, page.as_bytes());
        }

        // Relocate.
        let (page_id, slot) = self.append_record(&bytes)?;
        self.dir.set(&self.pool, rec.id.index(), page_id, slot)?;
        self.persist_meta()
    }

    /// Insert a brand-new node record. Node ids are dense, so its id
    /// must be the next one, [`NetworkSource::n_nodes`]; any other is
    /// [`CcamError::NodeIdNotNext`].
    pub fn insert_node_record(&mut self, rec: &NodeRecord) -> Result<()> {
        if rec.id.index() != self.dir.len() {
            return Err(CcamError::NodeIdNotNext {
                id: u64::from(rec.id.0),
                next: self.dir.len() as u64,
            });
        }
        for e in &rec.edges {
            self.note_pattern_speed(e.pattern)?;
        }
        let mut bytes = Vec::with_capacity(rec.encoded_len());
        rec.encode(&mut bytes);
        let (page_id, slot) = self.append_record(&bytes)?;
        self.dir.push(&self.pool, page_id, slot)?;
        self.persist_meta()
    }

    /// Add a directed edge `from → to` to the stored network; both
    /// ends must be stored nodes.
    pub fn add_edge(&mut self, from: NodeId, edge: EdgeRecord) -> Result<()> {
        if edge.to.index() >= self.dir.len() {
            return Err(CcamError::NotFound(u64::from(edge.to.0)));
        }
        let mut rec = self.node_record(from)?;
        if rec.edges.iter().any(|e| e.to == edge.to) {
            return Err(CcamError::Corrupt(format!(
                "edge {from} -> {} already exists",
                edge.to
            )));
        }
        self.note_pattern_speed(edge.pattern)?;
        rec.edges.push(edge);
        self.update_node_record(&rec)
    }

    /// Remove the directed edge `from → to`; returns `true` if it
    /// existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<bool> {
        let mut rec = self.node_record(from)?;
        let before = rec.edges.len();
        rec.edges.retain(|e| e.to != to);
        if rec.edges.len() == before {
            return Ok(false);
        }
        self.update_node_record(&rec)?;
        Ok(true)
    }

    /// Replace a speed pattern (e.g. a re-measured rush-hour profile).
    ///
    /// The new pattern table must fit in the originally allocated
    /// pattern pages; otherwise a fresh region is appended and the
    /// superblock repointed.
    pub fn set_pattern(&mut self, id: PatternId, pattern: CapeCodPattern) -> Result<()> {
        let idx = usize::from(id.0);
        if idx >= self.patterns.len() {
            return Err(CcamError::NotFound(u64::from(id.0)));
        }
        self.max_speed = self.max_speed.max(pattern.max_speed());
        self.patterns[idx] = pattern;
        let bytes = encode_patterns(&self.patterns)?;
        let page_size = self.pool.store().page_size();
        let needed = bytes.len().div_ceil(page_size).max(1);
        let region = &mut self.pattern_region;
        if needed > region.n_pages {
            region.start = self.pool.store().n_pages();
            for _ in 0..needed {
                self.pool.store().allocate()?;
            }
            region.n_pages = needed;
        }
        region.len = bytes.len();
        for (i, page) in pattern_pages(&bytes, page_size, region.n_pages).enumerate() {
            self.pool.write_page(region.start + i as u64, &page)?;
        }
        self.persist_meta()
    }

    /// Append an encoded record to the current overflow page,
    /// allocating one as needed; returns its `(page, slot)`.
    fn append_record(&mut self, bytes: &[u8]) -> Result<(u64, u16)> {
        let page_size = self.pool.store().page_size();
        if bytes.len() + 8 > page_size {
            return Err(CcamError::RecordTooLarge {
                need: bytes.len(),
                page: page_size,
            });
        }
        loop {
            let page_id = match self.overflow_page {
                Some(id) => id,
                None => {
                    let id = self.pool.store().allocate()?;
                    self.pool
                        .write_page(id, SlottedPage::new(page_size).as_bytes())?;
                    self.overflow_page = Some(id);
                    id
                }
            };
            let image = self.pool.with_page(page_id, |p| p.to_vec())?;
            let mut page = SlottedPage::from_bytes(image)?;
            if page.fits(bytes.len()) {
                let slot = page.insert(bytes)?;
                self.pool.write_page(page_id, page.as_bytes())?;
                return Ok((page_id, slot));
            }
            self.overflow_page = None; // page full; allocate a fresh one
        }
    }

    /// Track the pattern table's max speed when new edges reference
    /// patterns (keeps the naive estimator's `v_max` sound).
    fn note_pattern_speed(&mut self, id: PatternId) -> Result<()> {
        let pat = self
            .patterns
            .get(usize::from(id.0))
            .ok_or(CcamError::NotFound(u64::from(id.0)))?;
        self.max_speed = self.max_speed.max(pat.max_speed());
        Ok(())
    }

    fn persist_meta(&self) -> Result<()> {
        write_superblock(&self.pool, &self.dir, self.pattern_region)?;
        self.pool.flush()
    }
}

/// Where a store's pattern table lives: first page, page count, and
/// the byte length of the encoded table within those pages.
#[derive(Debug, Clone, Copy)]
struct PatternRegion {
    start: u64,
    n_pages: usize,
    len: usize,
}

/// The encoded pattern table `bytes` cut into `n_pages` zero-padded
/// page images.
fn pattern_pages(
    bytes: &[u8],
    page_size: usize,
    n_pages: usize,
) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..n_pages).map(move |i| {
        let mut page = vec![0u8; page_size];
        let lo = (i * page_size).min(bytes.len());
        let hi = (lo + page_size).min(bytes.len());
        page[..hi - lo].copy_from_slice(&bytes[lo..hi]);
        page
    })
}

/// Encode `patterns` and write the table through `pool` to freshly
/// allocated pages.
fn write_pattern_table(pool: &BufferPool, patterns: &[CapeCodPattern]) -> Result<PatternRegion> {
    let bytes = encode_patterns(patterns)?;
    let store = pool.store();
    let page_size = store.page_size();
    let region = PatternRegion {
        start: store.n_pages(),
        n_pages: bytes.len().div_ceil(page_size).max(1),
        len: bytes.len(),
    };
    for page in pattern_pages(&bytes, page_size, region.n_pages) {
        pool.write_page(store.allocate()?, &page)?;
    }
    Ok(region)
}

/// Write the superblock to page 0.
fn write_superblock(pool: &BufferPool, dir: &Directory, region: PatternRegion) -> Result<()> {
    let page_size = pool.store().page_size();
    let mut sb = Vec::with_capacity(page_size);
    sb.put_u32_le(MAGIC);
    sb.put_u16_le(VERSION);
    sb.put_u32_le(page_size as u32);
    let (start, n_pages) = dir.run();
    sb.put_u64_le(dir.len() as u64);
    sb.put_u64_le(start);
    sb.put_u64_le(n_pages);
    sb.put_u64_le(region.start);
    sb.put_u32_le(region.n_pages as u32);
    sb.put_u32_le(region.len as u32);
    sb.resize(page_size, 0);
    pool.write_page(0, &sb)
}

/// Serialize the pattern table.
fn encode_patterns(patterns: &[CapeCodPattern]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.put_u16_le(patterns.len() as u16);
    for pat in patterns {
        let n = pat.n_categories();
        out.put_u8(n as u8);
        for c in 0..n {
            let profile = pat
                .profile(traffic::DayCategory(c as u8))
                .map_err(|e| CcamError::Corrupt(format!("pattern table: {e}")))?;
            out.put_u16_le(profile.pieces().len() as u16);
            for p in profile.pieces() {
                out.put_f64_le(p.start);
                out.put_f64_le(p.speed);
            }
        }
    }
    Ok(out)
}

/// Inverse of [`encode_patterns`].
fn decode_patterns(mut buf: &[u8]) -> Result<Vec<CapeCodPattern>> {
    let corrupt = |msg: &str| CcamError::Corrupt(format!("pattern table: {msg}"));
    if buf.remaining() < 2 {
        return Err(corrupt("truncated count"));
    }
    let n_patterns = buf.get_u16_le() as usize;
    let mut patterns = Vec::with_capacity(n_patterns);
    for _ in 0..n_patterns {
        if buf.remaining() < 1 {
            return Err(corrupt("truncated profile count"));
        }
        let n_profiles = buf.get_u8() as usize;
        let mut profiles = Vec::with_capacity(n_profiles);
        for _ in 0..n_profiles {
            if buf.remaining() < 2 {
                return Err(corrupt("truncated piece count"));
            }
            let n_pieces = buf.get_u16_le() as usize;
            if buf.remaining() < n_pieces * 16 {
                return Err(corrupt("truncated pieces"));
            }
            let mut pieces = Vec::with_capacity(n_pieces);
            for _ in 0..n_pieces {
                let start = buf.get_f64_le();
                let speed = buf.get_f64_le();
                pieces.push(ProfilePiece { start, speed });
            }
            profiles.push(
                SpeedProfile::new(pieces).map_err(|e| corrupt(&format!("bad profile: {e}")))?,
            );
        }
        patterns.push(
            CapeCodPattern::new(profiles).map_err(|e| corrupt(&format!("bad pattern: {e}")))?,
        );
    }
    Ok(patterns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::DEFAULT_PAGE_SIZE;
    use roadnet::generators::{grid, suffolk_like, MetroConfig};
    use traffic::RoadClass;

    fn build_grid_store(policy: PlacementPolicy) -> (RoadNetwork, CcamStore) {
        let net = grid(10, 10, 0.2, RoadClass::LocalBoston).unwrap();
        let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let ccam = CcamStore::build(&net, store, policy, 64).unwrap();
        (net, ccam)
    }

    #[test]
    fn every_node_readable_and_identical() {
        let (net, ccam) = build_grid_store(PlacementPolicy::ConnectivityClustered);
        assert_eq!(NetworkSource::n_nodes(&ccam), net.n_nodes());
        for n in net.node_ids() {
            let rec = ccam.node_record(n).unwrap();
            assert_eq!(rec.id, n);
            assert_eq!(&rec.loc, net.point(n).unwrap());
            let disk_edges: Vec<Edge> = rec.edges.iter().map(Edge::from).collect();
            assert_eq!(disk_edges.as_slice(), net.neighbors(n).unwrap());
        }
    }

    #[test]
    fn implements_network_source() {
        let (net, ccam) = build_grid_store(PlacementPolicy::HilbertPacked);
        let src: &dyn NetworkSource = &ccam;
        assert_eq!(
            src.find_node(NodeId(5)).unwrap(),
            *net.point(NodeId(5)).unwrap()
        );
        assert_eq!(
            src.successors(NodeId(0)).unwrap(),
            net.neighbors(NodeId(0)).unwrap().to_vec()
        );
        assert!((src.max_speed() - net.max_speed()).abs() < 1e-12);
        assert!(src.find_node(NodeId(10_000)).is_err());
        assert!(src.pattern(PatternId(2)).is_ok());
        assert!(src.pattern(PatternId(99)).is_err());
    }

    #[test]
    fn reopen_from_store() {
        let net = grid(6, 6, 0.3, RoadClass::LocalOutside).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        {
            CcamStore::build(
                &net,
                Arc::clone(&store),
                PlacementPolicy::ConnectivityClustered,
                16,
            )
            .unwrap();
        }
        let reopened = CcamStore::open(store, 16).unwrap();
        assert_eq!(NetworkSource::n_nodes(&reopened), 36);
        for n in net.node_ids() {
            assert_eq!(reopened.find_node(n).unwrap(), *net.point(n).unwrap());
        }
        // pattern table round-tripped
        assert!((reopened.max_speed() - net.max_speed()).abs() < 1e-12);
        let p = NetworkSource::pattern(&reopened, PatternId(0)).unwrap();
        assert_eq!(p.n_categories(), 2);
    }

    #[test]
    fn build_rejects_dirty_store() {
        let net = grid(2, 2, 0.5, RoadClass::LocalOutside).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        store.allocate().unwrap();
        assert!(CcamStore::build(&net, store, PlacementPolicy::HilbertPacked, 4).is_err());
    }

    #[test]
    fn build_empty_network() {
        let net = RoadNetwork::empty();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let ccam =
            CcamStore::build(&net, Arc::clone(&store), PlacementPolicy::HilbertPacked, 4).unwrap();
        assert_eq!(NetworkSource::n_nodes(&ccam), 0);
        // the superblock and the pattern table; no data or directory page
        assert_eq!(store.n_pages(), 2);
        assert!(ccam.find_node(NodeId(0)).is_err());
        let reopened = CcamStore::open(store, 4).unwrap();
        assert_eq!(NetworkSource::n_nodes(&reopened), 0);
    }

    #[test]
    fn open_rejects_garbage() {
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        store.allocate().unwrap();
        assert!(matches!(
            CcamStore::open(store, 4),
            Err(CcamError::Corrupt(_))
        ));
    }

    #[test]
    fn clustering_reduces_misses_on_bfs_scan() {
        // walk the grid row by row (spatial locality): clustered layout
        // should fault fewer pages than random with a small pool
        let miss_count = |policy: PlacementPolicy| {
            let net = grid(16, 16, 0.2, RoadClass::LocalBoston).unwrap();
            let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
            let ccam = CcamStore::build(&net, store, policy, 4).unwrap();
            ccam.clear_cache().unwrap();
            let before = ccam.stats();
            for n in net.node_ids() {
                ccam.node_record(n).unwrap();
            }
            ccam.stats().since(&before).misses
        };
        let clustered = miss_count(PlacementPolicy::ConnectivityClustered);
        let random = miss_count(PlacementPolicy::Random { seed: 1 });
        assert!(
            clustered < random,
            "clustered misses {clustered} not below random {random}"
        );
    }

    #[test]
    fn update_operations_round_trip() {
        let net = grid(6, 6, 0.3, RoadClass::LocalOutside).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let mut ccam = CcamStore::build(
            &net,
            Arc::clone(&store),
            PlacementPolicy::ConnectivityClustered,
            32,
        )
        .unwrap();

        // remove an edge: record shrinks in place
        let victim = net.neighbors(NodeId(0)).unwrap()[0].to;
        assert!(ccam.remove_edge(NodeId(0), victim).unwrap());
        assert!(!ccam.remove_edge(NodeId(0), victim).unwrap());
        assert_eq!(
            ccam.node_record(NodeId(0)).unwrap().edges.len(),
            net.neighbors(NodeId(0)).unwrap().len() - 1
        );

        // add edges until the record must relocate
        for k in 10..22u32 {
            ccam.add_edge(
                NodeId(0),
                crate::record::EdgeRecord {
                    to: NodeId(k),
                    distance: 9.0,
                    class: RoadClass::LocalOutside,
                    pattern: roadnet::PatternId(3),
                },
            )
            .unwrap();
        }
        let rec = ccam.node_record(NodeId(0)).unwrap();
        assert_eq!(
            rec.edges.len(),
            net.neighbors(NodeId(0)).unwrap().len() - 1 + 12
        );

        // duplicate edge rejected
        assert!(ccam
            .add_edge(
                NodeId(0),
                crate::record::EdgeRecord {
                    to: NodeId(10),
                    distance: 9.0,
                    class: RoadClass::LocalOutside,
                    pattern: roadnet::PatternId(3),
                },
            )
            .is_err());

        // insert a brand-new node and wire it in
        let new_id = NodeId(net.n_nodes() as u32);
        ccam.insert_node_record(&NodeRecord {
            id: new_id,
            loc: Point { x: 99.0, y: 99.0 },
            edges: vec![],
        })
        .unwrap();
        assert_eq!(NetworkSource::n_nodes(&ccam), net.n_nodes() + 1);
        assert!(ccam
            .insert_node_record(&NodeRecord {
                id: new_id,
                loc: Point { x: 0.0, y: 0.0 },
                edges: vec![],
            })
            .is_err());

        // everything persists across close/reopen
        let reopened = CcamStore::open(store, 32).unwrap();
        assert_eq!(NetworkSource::n_nodes(&reopened), net.n_nodes() + 1);
        assert_eq!(
            reopened.find_node(new_id).unwrap(),
            Point { x: 99.0, y: 99.0 }
        );
        let rec2 = reopened.node_record(NodeId(0)).unwrap();
        assert_eq!(rec2.edges.len(), rec.edges.len());
        // untouched nodes unchanged
        assert_eq!(
            reopened.node_record(NodeId(17)).unwrap().edges.len(),
            net.neighbors(NodeId(17)).unwrap().len()
        );
    }

    #[test]
    fn an_id_past_the_next_is_refused_and_so_is_an_edge_to_it() {
        let net = grid(4, 4, 0.3, RoadClass::LocalOutside).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let mut ccam = CcamStore::build(&net, store, PlacementPolicy::HilbertPacked, 8).unwrap();
        let rec = |id: u32| NodeRecord {
            id: NodeId(id),
            loc: Point { x: 9.0, y: 9.0 },
            edges: vec![],
        };
        for id in [20, 3] {
            assert!(matches!(
                ccam.insert_node_record(&rec(id)),
                Err(CcamError::NodeIdNotNext { id: got, next: 16 }) if got == u64::from(id)
            ));
        }
        let edge = EdgeRecord {
            to: NodeId(20),
            distance: 1.0,
            class: RoadClass::LocalOutside,
            pattern: PatternId(0),
        };
        assert!(matches!(
            ccam.add_edge(NodeId(0), edge),
            Err(CcamError::NotFound(20))
        ));
        assert_eq!(NetworkSource::n_nodes(&ccam), 16);
        ccam.insert_node_record(&rec(16)).unwrap();
        ccam.add_edge(
            NodeId(0),
            EdgeRecord {
                to: NodeId(16),
                ..edge
            },
        )
        .unwrap();
        assert_eq!(NetworkSource::n_nodes(&ccam), 17);
    }

    /// Inserting past a directory page's 341 entries moves the
    /// directory to a larger run; after a reopen every old and new node
    /// reads back exactly.
    #[test]
    fn the_directory_grows_past_a_page_and_persists() {
        let net = suffolk_like(&MetroConfig::small(0xC0FFEE)).unwrap();
        let n = net.n_nodes() as u32;
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let mut ccam = CcamStore::build(
            &net,
            Arc::clone(&store),
            PlacementPolicy::ConnectivityClustered,
            16,
        )
        .unwrap();
        let per_page = DEFAULT_PAGE_SIZE / 6;
        let (_, pages_before) = ccam.dir.run();
        assert_eq!(pages_before as usize, (n as usize).div_ceil(per_page));
        // New node k leads to node k - 1; every 20th old node gains an
        // edge to a new one, which relocates its record.
        let added = per_page as u32;
        let mut want: Vec<NodeRecord> = net
            .node_ids()
            .map(|node| NodeRecord {
                id: node,
                loc: *net.point(node).unwrap(),
                edges: net
                    .neighbors(node)
                    .unwrap()
                    .iter()
                    .map(EdgeRecord::from)
                    .collect(),
            })
            .collect();
        for k in n..n + added {
            let edge = EdgeRecord {
                to: NodeId(k - 1),
                distance: 0.5,
                class: RoadClass::LocalBoston,
                pattern: PatternId(1),
            };
            let rec = NodeRecord {
                id: NodeId(k),
                loc: Point {
                    x: f64::from(k),
                    y: -1.0,
                },
                edges: vec![edge],
            };
            ccam.insert_node_record(&rec).unwrap();
            want.push(rec);
            if k % 20 == 0 {
                let from = (k - n) as usize * 7 % n as usize;
                let edge = EdgeRecord {
                    to: NodeId(k),
                    ..edge
                };
                ccam.add_edge(NodeId(from as u32), edge).unwrap();
                want[from].edges.push(edge);
            }
        }
        assert!(ccam.dir.run().1 > pages_before, "the directory grew");
        drop(ccam);

        let reopened = CcamStore::open(store, 16).unwrap();
        assert_eq!(NetworkSource::n_nodes(&reopened), want.len());
        for rec in &want {
            assert_eq!(
                &reopened.node_record(rec.id).unwrap(),
                rec,
                "node {}",
                rec.id
            );
        }
        assert!(matches!(
            reopened.node_record(NodeId(n + added)),
            Err(CcamError::NotFound(_))
        ));
    }

    /// One hostile byte pattern per check, each a typed error with its
    /// own message on open or on the first read of the damaged entry —
    /// never a panic and never another node's record.
    #[test]
    fn hostile_directory_bytes_are_refused() {
        type Mutation = fn(&mut Vec<Vec<u8>>, usize);
        /// Superblock fields, by byte offset: directory start, pages.
        const DIR_START: usize = 18;
        const DIR_PAGES: usize = 26;
        fn read_u64(page: &[u8], at: usize) -> u64 {
            u64::from_le_bytes(page[at..at + 8].try_into().unwrap())
        }
        fn write_u64(page: &mut [u8], at: usize, v: u64) {
            page[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        /// Node 5's entry: `(directory page, byte)`.
        fn entry(pages: &[Vec<u8>]) -> (usize, usize) {
            (read_u64(&pages[0], DIR_START) as usize, 5 * 6)
        }
        fn set_page(pages: &mut [Vec<u8>], page: u32) {
            let (p, at) = entry(pages);
            pages[p][at..at + 4].copy_from_slice(&page.to_le_bytes());
        }
        let cases: [(&str, Mutation); 8] = [
            ("directory of 102 pages at page", |pages, _| {
                let n = read_u64(&pages[0], DIR_PAGES);
                write_u64(&mut pages[0], DIR_PAGES, n + 100);
            }),
            ("directory of 2 pages at page 0 runs outside", |pages, _| {
                write_u64(&mut pages[0], DIR_START, 0);
            }),
            ("holds 682 entries, fewer than its 683 nodes", |pages, _| {
                write_u64(&mut pages[0], 10, 683);
            }),
            ("past the end of the file", |pages, n| {
                set_page(pages, n as u32 + 7);
            }),
            (
                "directory entry of node n5 names the superblock",
                |pages, _| {
                    set_page(pages, 0);
                },
            ),
            (
                "directory entry of node n5 names directory page",
                |pages, _| {
                    let (p, _) = entry(pages);
                    set_page(pages, p as u32 + 1);
                },
            ),
            ("slot 999 beyond", |pages, _| {
                let (p, at) = entry(pages);
                pages[p][at + 4..at + 6].copy_from_slice(&999u16.to_le_bytes());
            }),
            // A truncated file: its directory's last page is gone.
            ("directory of 2 pages at page", |pages, _| {
                pages.pop();
            }),
        ];
        // 400 nodes: a directory of two pages.
        let net = grid(20, 20, 0.2, RoadClass::LocalOutside).unwrap();
        let pages = {
            let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
            CcamStore::build(&net, Arc::clone(&store), PlacementPolicy::HilbertPacked, 8).unwrap();
            let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
            (0..store.n_pages())
                .map(|id| {
                    store.read_page(id, &mut buf).unwrap();
                    buf.clone()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(read_u64(&pages[0], DIR_PAGES), 2);
        for (message, mutate) in cases {
            let mut damaged = pages.clone();
            mutate(&mut damaged, pages.len());
            let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
            for image in &damaged {
                store.write_page(store.allocate().unwrap(), image).unwrap();
            }
            let read_all = CcamStore::open(store, 8).and_then(|ccam| {
                net.node_ids()
                    .try_for_each(|node| ccam.node_record(node).map(drop))
            });
            match read_all {
                Err(CcamError::Corrupt(m)) => {
                    assert!(m.contains(message), "{message}: got {m}")
                }
                Err(e) => panic!("{message}: {e}"),
                Ok(()) => panic!("{message}: every node read"),
            }
        }
    }

    #[test]
    fn set_pattern_persists() {
        let net = grid(4, 4, 0.3, RoadClass::LocalBoston).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let mut ccam =
            CcamStore::build(&net, Arc::clone(&store), PlacementPolicy::HilbertPacked, 32).unwrap();
        let fast = CapeCodPattern::uniform(2.0, 2).unwrap(); // 120 MPH repave
        ccam.set_pattern(roadnet::PatternId(2), fast.clone())
            .unwrap();
        assert!((NetworkSource::max_speed(&ccam) - 2.0).abs() < 1e-12);

        let reopened = CcamStore::open(store, 32).unwrap();
        let p = NetworkSource::pattern(&reopened, roadnet::PatternId(2)).unwrap();
        assert_eq!(p, &fast);
        assert!((NetworkSource::max_speed(&reopened) - 2.0).abs() < 1e-12);
        // other patterns untouched
        let q = NetworkSource::pattern(&reopened, roadnet::PatternId(0)).unwrap();
        assert_eq!(q.n_categories(), 2);
    }

    #[test]
    fn pattern_codec_round_trips() {
        let pats = vec![
            CapeCodPattern::paper_example(),
            CapeCodPattern::uniform(0.75, 3).unwrap(),
        ];
        let bytes = encode_patterns(&pats).unwrap();
        let back = decode_patterns(&bytes).unwrap();
        assert_eq!(back, pats);
        assert!(decode_patterns(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_patterns(&[]).is_err());
    }
}
