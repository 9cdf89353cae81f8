//! Parallel, bounded-memory CCAM bulk builder.
//!
//! [`CcamStore::build`] materializes a full [`roadnet::RoadNetwork`]
//! first — per-node adjacency `Vec`s dominate memory and the build is
//! single-threaded. At the continental tier (10⁶ nodes, §6.1 scaled
//! up) that is the limiting factor, so this module rebuilds the same
//! store as a streaming pipeline over any [`NetworkSource`]:
//!
//! 1. **Locations & degrees** (parallel): one pass over the source
//!    collecting node locations and out-degrees — the only per-node
//!    state the builder ever holds (tens of bytes per node; edges are
//!    re-derived from the source exactly when a page is encoded).
//! 2. **Hilbert keys** (parallel) + one serial sort: identical keys to
//!    [`crate::hilbert::hilbert_order`] because the bounding-box frame
//!    is the only shared state and min/max reduction is
//!    order-independent.
//! 3. **Page packing** (serial scan, parallel encode): the page-break
//!    scan replays [`PlacementPolicy::HilbertPacked`]'s byte-budget
//!    rule over precomputed record costs and so fixes every record's
//!    page and slot, which it enters in the record directory by node
//!    id; then workers encode and write disjoint page ranges directly
//!    to the (thread-safe) block store.
//! 4. **Index**: the directory, 6 bytes a node, is written after the
//!    data pages.
//!
//! The result is **byte-identical** to
//! `CcamStore::build(net, store, PlacementPolicy::HilbertPacked, ..)`
//! over the materialized network, at every thread count — pinned by
//! this module's tests and the cross-store golden suite. Determinism
//! falls out of the design rather than of luck: every parallel phase
//! writes to disjoint, position-addressed slots, and every ordering
//! decision (key sort, page breaks, record addresses) happens on a
//! single thread over data whose values are thread-count-invariant.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use roadnet::{Edge, NetworkSource, NodeId, Point};
use traffic::CapeCodPattern;

use crate::buffer::BufferPool;
use crate::ccam::{index_and_seal, write_pattern_table, CcamStore};
use crate::directory::DirectoryImage;
use crate::hilbert::HilbertFrame;
use crate::page::SlottedPage;
use crate::record::{EdgeRecord, NodeRecord};
use crate::store::BlockStore;
use crate::{CcamError, Result};

/// Knobs for [`build_bulk`].
#[derive(Debug, Clone, Copy)]
pub struct BulkBuildConfig {
    /// Worker threads for the parallel phases (clamped to ≥ 1). The
    /// output is byte-identical at every value.
    pub threads: usize,
    /// Buffer-pool frames for the returned [`CcamStore`].
    pub pool_frames: usize,
}

impl Default for BulkBuildConfig {
    fn default() -> Self {
        BulkBuildConfig {
            threads: 1,
            pool_frames: 256,
        }
    }
}

/// What a bulk build did, for capacity planning and the bench report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkBuildStats {
    /// Nodes written.
    pub n_nodes: usize,
    /// Slotted data pages written.
    pub data_pages: u64,
    /// Total pages in the store (superblock + patterns + data + index).
    pub total_pages: u64,
    /// Peak bytes of tracked transient builder state (locations,
    /// degrees, sorted keys, directory entries) — the working set that
    /// *replaces* a materialized network. Excludes per-worker page
    /// scratch (one page image per thread).
    pub transient_bytes: usize,
}

/// Build a CCAM store from any [`NetworkSource`] without materializing
/// it, using `cfg.threads` workers; returns the opened store and build
/// stats. `patterns` is the pattern table to persist (a lazy source
/// has no owned pattern slice; pass the schema's patterns).
///
/// `store` must be empty. Layout and bytes match
/// [`CcamStore::build`] with [`PlacementPolicy::HilbertPacked`].
///
/// [`PlacementPolicy::HilbertPacked`]: crate::PlacementPolicy::HilbertPacked
pub fn build_bulk<S>(
    src: &S,
    patterns: &[CapeCodPattern],
    store: Arc<dyn BlockStore>,
    cfg: &BulkBuildConfig,
) -> Result<(CcamStore, BulkBuildStats)>
where
    S: NetworkSource + Sync + ?Sized,
{
    if store.n_pages() != 0 {
        return Err(CcamError::Corrupt("store not empty".into()));
    }
    let page_size = store.page_size();
    let threads = cfg.threads.max(1);
    let n = src.n_nodes();

    // page 0: superblock placeholder (rewritten at the end)
    let sb_page = store.allocate()?;
    debug_assert_eq!(sb_page, 0);

    let region = write_pattern_table(&store, patterns, |id, page| store.write_page(id, page))?;

    // --- phase 1: locations and out-degrees, in parallel ---
    let mut pts: Vec<Point> = vec![Point { x: 0.0, y: 0.0 }; n];
    let mut degrees: Vec<u16> = vec![0; n];
    run_chunked(threads, pts.len(), &mut pts, &mut degrees, |lo, p, d| {
        let mut edges: Vec<Edge> = Vec::new();
        for (off, (pt, deg)) in p.iter_mut().zip(d.iter_mut()).enumerate() {
            let node = NodeId((lo + off) as u32);
            *pt = src.find_node(node).map_err(CcamError::Network)?;
            src.successors_into(node, &mut edges)
                .map_err(CcamError::Network)?;
            *deg = edges.len() as u16;
        }
        Ok(())
    })?;

    // --- phase 2: Hilbert keys (parallel) + one serial sort ---
    // The sort key is the same `(hilbert key, node id)` pair
    // `hilbert_order` sorts by, so the permutation is identical.
    let frame = HilbertFrame::of(&pts);
    let mut keyed: Vec<(u64, u32)> = vec![(0, 0); n];
    if let Some(frame) = frame {
        let mut unit: Vec<()> = vec![(); n];
        run_chunked(threads, n, &mut keyed, &mut unit, |lo, k, _| {
            for (off, slot) in k.iter_mut().enumerate() {
                *slot = (frame.key(pts[lo + off]), (lo + off) as u32);
            }
            Ok(())
        })?;
    }
    keyed.sort_unstable();

    // --- phase 3a: serial page-break scan (HilbertPacked byte rule) ---
    // A page's records take slots 0, 1, … in scan order, so the scan
    // fixes every record's address.
    let budget = page_size.saturating_sub(4); // page header
    let first_data_page = store.n_pages();
    let mut page_starts: Vec<u32> = Vec::new(); // index into `keyed`
    let mut image = DirectoryImage::new(n);
    let mut used = 0usize;
    for (pos, &(_, id)) in keyed.iter().enumerate() {
        let cost = NodeRecord::encoded_len_for(usize::from(degrees[id as usize])) + 4;
        if (used + cost > budget && used > 0) || pos == 0 {
            page_starts.push(pos as u32);
            used = 0;
        }
        used += cost;
        let page = page_starts.len() - 1;
        let slot = pos - page_starts[page] as usize;
        image.set(NodeId(id), first_data_page + page as u64, slot as u16)?;
    }
    for _ in 0..page_starts.len() {
        store.allocate()?;
    }
    let data_pages = page_starts.len() as u64;

    // --- phase 3b: encode and write pages, in parallel ---
    // Worker w owns pages w, w+threads, … — disjoint page ids, so the
    // only synchronization is the store's own write path.
    let next_page = AtomicUsize::new(0);
    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (keyed, page_starts, pts, next_page, store) =
                (&keyed, &page_starts, &pts, &next_page, &store);
            handles.push(scope.spawn(move || -> Result<()> {
                let mut edges: Vec<Edge> = Vec::new();
                let mut rec_buf: Vec<u8> = Vec::new();
                loop {
                    let p = next_page.fetch_add(1, Ordering::Relaxed);
                    if p >= page_starts.len() {
                        break;
                    }
                    let lo = page_starts[p] as usize;
                    let hi = page_starts.get(p + 1).map_or(keyed.len(), |&s| s as usize);
                    let page_id = first_data_page + p as u64;
                    let mut page = SlottedPage::new(page_size);
                    for (pos, &(_, id)) in keyed[lo..hi].iter().enumerate() {
                        let node = NodeId(id);
                        src.successors_into(node, &mut edges)
                            .map_err(CcamError::Network)?;
                        let rec = NodeRecord {
                            id: node,
                            loc: pts[id as usize],
                            edges: edges.iter().map(EdgeRecord::from).collect(),
                        };
                        rec_buf.clear();
                        rec.encode(&mut rec_buf);
                        let slot = page.insert(&rec_buf)?;
                        debug_assert_eq!(usize::from(slot), pos, "the scan's slot");
                    }
                    store.write_page(page_id, page.as_bytes())?;
                }
                Ok(())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(())
    })?;

    // Transient working set peaks here: every phase-1/2 array plus the
    // directory entries are alive at once.
    let transient_bytes = pts.len() * std::mem::size_of::<Point>()
        + degrees.len() * 2
        + keyed.len() * std::mem::size_of::<(u64, u32)>()
        + image.bytes();
    drop(pts);
    drop(degrees);
    drop(keyed);

    // --- phase 4: the directory, after the data pages ---
    let pool = BufferPool::new(Arc::clone(&store), cfg.pool_frames);
    index_and_seal(&pool, &image, region)?;
    drop(pool);

    let total_pages = store.n_pages();
    let ccam = CcamStore::open(store, cfg.pool_frames)?;
    Ok((
        ccam,
        BulkBuildStats {
            n_nodes: n,
            data_pages,
            total_pages,
            transient_bytes,
        },
    ))
}

/// Run `work` over `threads` disjoint contiguous chunks of two
/// equal-length slices (`a`, `b`), passing each worker its chunk start.
/// Position-addressed writes only — no ordering decisions — so results
/// are thread-count-invariant.
fn run_chunked<A: Send, B: Send>(
    threads: usize,
    len: usize,
    a: &mut [A],
    b: &mut [B],
    work: impl Fn(usize, &mut [A], &mut [B]) -> Result<()> + Sync,
) -> Result<()> {
    debug_assert_eq!(a.len(), len);
    debug_assert_eq!(b.len(), len);
    if len == 0 {
        return Ok(());
    }
    let chunk = len.div_ceil(threads.max(1));
    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::new();
        for (idx, (ca, cb)) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).enumerate() {
            let work = &work;
            handles.push(scope.spawn(move || work(idx * chunk, ca, cb)));
        }
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::{PlacementPolicy, DEFAULT_PAGE_SIZE};
    use roadnet::generators::grid;
    use roadnet::RoadNetwork;
    use traffic::RoadClass;

    fn page_images(store: &dyn BlockStore) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for id in 0..store.n_pages() {
            let mut buf = vec![0u8; store.page_size()];
            store.read_page(id, &mut buf).unwrap();
            out.push(buf);
        }
        out
    }

    fn reference_store(net: &RoadNetwork) -> Arc<MemStore> {
        let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        CcamStore::build(
            net,
            Arc::<MemStore>::clone(&store) as Arc<dyn BlockStore>,
            PlacementPolicy::HilbertPacked,
            64,
        )
        .unwrap();
        store
    }

    #[test]
    fn bulk_build_matches_reference_bytes_at_every_thread_count() {
        let net = grid(17, 13, 0.2, RoadClass::LocalBoston).unwrap();
        let reference = page_images(&*reference_store(&net));
        for threads in [1usize, 2, 4] {
            let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
            let cfg = BulkBuildConfig {
                threads,
                pool_frames: 64,
            };
            let (ccam, stats) = build_bulk(
                &net,
                net.patterns(),
                Arc::<MemStore>::clone(&store) as Arc<dyn BlockStore>,
                &cfg,
            )
            .unwrap();
            assert_eq!(stats.n_nodes, net.n_nodes());
            assert_eq!(stats.total_pages, reference.len() as u64);
            assert_eq!(
                page_images(&*store),
                reference,
                "bulk build with {threads} threads diverged from CcamStore::build"
            );
            // and the returned handle serves the network
            for node in net.node_ids().step_by(37) {
                let rec = ccam.node_record(node).unwrap();
                assert_eq!(&rec.loc, net.point(node).unwrap());
                assert_eq!(rec.edges.len(), net.neighbors(node).unwrap().len());
            }
        }
    }

    #[test]
    fn bulk_build_empty_network() {
        let net = RoadNetwork::empty();
        let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        let (ccam, stats) = build_bulk(
            &net,
            net.patterns(),
            store as Arc<dyn BlockStore>,
            &BulkBuildConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.n_nodes, 0);
        assert_eq!(stats.data_pages, 0);
        assert_eq!(roadnet::NetworkSource::n_nodes(&ccam), 0);
    }

    #[test]
    fn bulk_build_rejects_dirty_store() {
        let net = grid(3, 3, 0.5, RoadClass::LocalOutside).unwrap();
        let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        store.allocate().unwrap();
        assert!(build_bulk(
            &net,
            net.patterns(),
            store as Arc<dyn BlockStore>,
            &BulkBuildConfig::default(),
        )
        .is_err());
    }
}
