//! The `metro-huge` tier: continental-scale (≥10⁶ node) builds and
//! queries over the streaming CCAM substrate.
//!
//! The runner exercises the full continental pipeline end to end:
//!
//! 1. build the lazily generated [`ContinentalNet`] straight to a
//!    [`FileStore`] with [`CcamStore::build_from`] (Hilbert-packed
//!    pages), on this thread, never materializing the network;
//! 2. serve the fig9 morning-rush workload through [`FileStore::open`]
//!    and a buffer pool far smaller than the graph — behind the
//!    min-time estimator (`minTimeLB`), built by one sweep over the lazy
//!    generator: allFP then singleFP, each put on the clock by
//!    [`crate::clock::clock_backend`] (a first pass, then the median ± MAD of
//!    the warm ones, with `expanded_paths` and the allocated bytes per
//!    query beside them), and check that a warm estimator allocates
//!    nothing;
//! 3. record the build wall, the build's measured peak heap (gated
//!    below the graph bytes), the process RSS high water, and the
//!    physical I/O counters (`reads` / `bytes_read` /
//!    `bytes_written`).
//!
//! This module's test gates the smoke tier (16 384 nodes);
//! `experiments metro-huge` runs the million-node tier.

use std::sync::Arc;
use std::time::Instant;

use allfp::{Engine, EngineConfig, LowerBoundEstimator, MinTimeLb, QuerySpec};
use ccam::{BlockStore, CcamStore, FileStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{ContinentalConfig, ContinentalNet};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::clock::{clock_backend, Clocked, WARM_PASSES};
use crate::report::{float, Field, Table, Value};

/// Buffer-pool frames the build writes through.
const BUILD_POOL_FRAMES: usize = 256;

/// Everything the metro-huge runner measures.
#[derive(Debug, Clone)]
pub struct MetroHugeReport {
    /// Tier label (`"metro-huge"` or `"smoke"`).
    pub tier: &'static str,
    /// Nodes in the tier.
    pub n_nodes: usize,
    /// All pages (superblock + patterns + data + index).
    pub total_pages: u64,
    /// On-disk bytes of the built store file.
    pub graph_bytes: u64,
    /// Build wall time, seconds.
    pub build_wall_seconds: f64,
    /// Peak live heap the build reached on its thread, above what was
    /// live before it: the placement sort's points and keys and the
    /// pool's [`BUILD_POOL_FRAMES`] frames — the bounded-memory claim's
    /// machine-checkable half.
    pub build_peak_heap_bytes: u64,
    /// `VmHWM` from `/proc/self/status` after the run (process-wide
    /// high water; 0 where the file is unavailable).
    pub peak_rss_bytes: u64,
    /// Buffer-pool frames the query stack was limited to.
    pub pool_frames: usize,
    /// Estimator build wall, seconds.
    pub estimator_wall_seconds: f64,
    /// Heap bytes of the estimator's tables.
    pub estimator_bytes: usize,
    /// Allocations made while re-asking every query's source-to-target
    /// bound after the serving pass — each a fresh backward search on
    /// the warm workspace, a prefix of the one its query grew (must be
    /// 0).
    pub estimator_warm_allocs: u64,
    /// Queries in the workload.
    pub queries: usize,
    /// The allFP passes. Its cold pass is the tier's first touch of
    /// every page, travel function and pooled buffer; nothing in a
    /// warm pass's `query_bytes` — answers and arena growth — may
    /// scale with `n_nodes`. `failures` must be 0.
    pub allfp: Clocked,
    /// The singleFP passes, run after the allFP ones: pages and
    /// estimator are warm from its first pass on.
    pub singlefp: Clocked,
    /// Physical page reads the serving stack issued: the pool's misses.
    pub io_reads: u64,
    /// Bytes physically read while serving.
    pub io_bytes_read: u64,
    /// Bytes physically written while building (final build).
    pub io_bytes_written: u64,
}

impl MetroHugeReport {
    /// The report's fields (`estimator_warm_allocs` is a gate, not a
    /// reported field).
    pub fn fields(&self) -> Vec<Field> {
        vec![
            ("tier", self.tier.into()),
            ("n_nodes", self.n_nodes.into()),
            ("total_pages", self.total_pages.into()),
            ("graph_bytes", self.graph_bytes.into()),
            ("build_wall_seconds", float(self.build_wall_seconds, 3)),
            ("build_peak_heap_bytes", self.build_peak_heap_bytes.into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            ("pool_frames", self.pool_frames.into()),
            (
                "estimator",
                Value::Object(vec![
                    ("kind", "minTimeLB".into()),
                    ("wall_seconds", float(self.estimator_wall_seconds, 3)),
                    ("bytes", self.estimator_bytes.into()),
                ]),
            ),
            ("queries", self.queries.into()),
            (
                "query_failures",
                (self.allfp.failures + self.singlefp.failures).into(),
            ),
            ("warm_passes", WARM_PASSES.into()),
            ("allfp", Value::Object(self.allfp.fields())),
            ("singlefp", Value::Object(self.singlefp.fields())),
            (
                "io",
                Value::Object(vec![
                    ("reads", self.io_reads.into()),
                    ("bytes_read", self.io_bytes_read.into()),
                    ("bytes_written", self.io_bytes_written.into()),
                ]),
            ),
        ]
    }
}

/// `VmHWM` (peak resident set) in bytes, from `/proc/self/status`;
/// 0 when unavailable (non-Linux).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Splitmix64 finalizer — the workload sampler's hash.
fn mix(seed: u64, v: u64) -> u64 {
    let mut h = seed
        .wrapping_add(v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Distance-banded source–target pairs off the lazy generator (the
/// tier is too big for `roadnet::workload::sample_pairs`, which wants
/// a materialized network).
fn sample_pairs_lazy(
    net: &ContinentalNet,
    count: usize,
    min_miles: f64,
    max_miles: f64,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let n = net.n_nodes() as u64;
    let mut out = Vec::with_capacity(count);
    let mut attempt = 0u64;
    while out.len() < count && attempt < 100_000 {
        let a = NodeId((mix(seed, attempt * 2) % n) as u32);
        let b = NodeId((mix(seed, attempt * 2 + 1) % n) as u32);
        attempt += 1;
        if a == b {
            continue;
        }
        let (Ok(pa), Ok(pb)) = (net.find_node(a), net.find_node(b)) else {
            continue;
        };
        let d = pa.distance(&pb);
        if d >= min_miles && d <= max_miles {
            out.push((a, b));
        }
    }
    out
}

/// Build the tier once into a file store, then serve `n_queries` fig9
/// queries through it with the min-time estimator.
pub fn run(cfg: &ContinentalConfig, tier: &'static str, n_queries: usize) -> MetroHugeReport {
    let lazy = ContinentalNet::new(cfg.clone()).expect("tier config is valid");
    let dir = std::env::temp_dir().join(format!("fp-metro-huge-{}-{tier}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // --- one build, on this thread, its peak heap measured -------------
    let tier_path = dir.join("tier.ccam");
    let store = Arc::new(FileStore::create(&tier_path, DEFAULT_PAGE_SIZE).expect("file store"));
    let start = Instant::now();
    let (built, build_peak_heap_bytes) = crate::alloc::peak_heap(|| {
        CcamStore::build_from(
            &lazy,
            lazy.patterns(),
            Arc::clone(&store) as _,
            PlacementPolicy::HilbertPacked,
            BUILD_POOL_FRAMES,
        )
    });
    let build_wall_seconds = start.elapsed().as_secs_f64();
    drop(built.expect("build succeeds"));
    let total_pages = store.n_pages();
    let bytes_written = store.io_stats().bytes_written();
    drop(store);
    let graph_bytes = std::fs::metadata(&tier_path).map_or(0, |m| m.len());

    // --- min-time estimator off the lazy generator --------------------
    let start = Instant::now();
    let estimator = MinTimeLb::build(&lazy).expect("estimator builds");
    let estimator_wall = start.elapsed().as_secs_f64();

    // --- serve fig9 through the file store -----------------------------
    let store = Arc::new(FileStore::open(&tier_path, DEFAULT_PAGE_SIZE).expect("file reopens"));
    // Frames ≪ graph pages: the pool is a working set, not a copy.
    let pool_frames = ((total_pages / 8).clamp(128, 4096)) as usize;
    let disk = CcamStore::open(Arc::clone(&store) as _, pool_frames).expect("ccam opens");

    let engine = Engine::with_estimator(&disk, Box::new(&estimator), EngineConfig::default());
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    let queries: Vec<QuerySpec> = sample_pairs_lazy(&lazy, n_queries, 1.0, 3.0, 0xF19)
        .into_iter()
        .map(|(s, t)| QuerySpec::new(s, t, interval, DayCategory::WORKDAY))
        .collect();
    let (allfp, singlefp) = clock_backend(&engine, &queries);

    let before = crate::alloc::snapshot();
    for q in &queries {
        let (from, to) = (
            lazy.find_node(q.source).expect("sampled node"),
            lazy.find_node(q.target).expect("sampled node"),
        );
        std::hint::black_box(estimator.travel_lower_bound(q.source, from, q.target, to));
    }
    let estimator_warm_allocs = crate::alloc::snapshot().since(&before).allocs;

    let io = store.io_stats();
    let report = MetroHugeReport {
        tier,
        n_nodes: lazy.n_nodes(),
        total_pages,
        graph_bytes,
        build_wall_seconds,
        build_peak_heap_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        pool_frames,
        estimator_wall_seconds: estimator_wall,
        estimator_bytes: estimator.bytes(),
        estimator_warm_allocs,
        queries: queries.len(),
        allfp,
        singlefp,
        io_reads: io.reads(),
        io_bytes_read: io.bytes_read(),
        io_bytes_written: bytes_written,
    };
    drop(engine);
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Render a report as a key/value table for the experiments CLI.
pub fn render(r: &MetroHugeReport) -> Table {
    let title = format!("Metro-huge - {} nodes off a file store", r.n_nodes);
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 16 384-node smoke tier: the build's measured peak heap, less
    /// the frames of the pool it writes through, stays under the graph
    /// bytes, and the file-served workload answers every query while reading
    /// pages through the pool. Once the pass has warmed the thread's
    /// estimator workspace, a fresh backward search must not allocate,
    /// and a warm query must allocate less than one byte per node: its
    /// answer and whatever its arenas grow by, nothing sized by the
    /// tier. A shrunk tier whose working set fits the pool then reads
    /// every page once, in the cold pass.
    #[test]
    fn smoke_tier_builds_and_serves() {
        let r = run(&ContinentalConfig::smoke(0x5EED), "smoke", 8);
        assert_eq!(r.n_nodes, 16_384);
        let pool_bytes = (BUILD_POOL_FRAMES * DEFAULT_PAGE_SIZE) as u64;
        assert!(r.build_peak_heap_bytes > 0);
        assert!(
            r.build_peak_heap_bytes.saturating_sub(pool_bytes) < r.graph_bytes,
            "the build's heap peaked at {} bytes ({pool_bytes} of pool frames) over a {}-byte graph",
            r.build_peak_heap_bytes,
            r.graph_bytes
        );
        assert_eq!((r.allfp.failures, r.singlefp.failures), (0, 0));
        assert!(r.allfp.expanded_paths > 0);
        assert!((1..=r.allfp.expanded_paths).contains(&r.singlefp.expanded_paths));
        assert!(r.allfp.warm_qps > 0.0 && r.singlefp.warm_qps > 0.0);
        assert!(r.io_reads > 0, "served without a single page read");
        assert_eq!(r.estimator_warm_allocs, 0);
        for (mode, clocked) in [("allFP", &r.allfp), ("singleFP", &r.singlefp)] {
            assert!(
                clocked.query_bytes < r.n_nodes as f64,
                "a warm {mode} query allocates {:.0} bytes",
                clocked.query_bytes
            );
        }

        let mut cfg = ContinentalConfig::smoke(0x5EED);
        cfg.cells_x = 2;
        cfg.cells_y = 2;
        cfg.cell_w = 16;
        cfg.cell_h = 16;
        let r = run(&cfg, "unit", 3);
        assert_eq!(r.n_nodes, 1024);
        assert!(
            (1..=r.pool_frames as u64).contains(&r.io_reads),
            "{} reads through {} frames",
            r.io_reads,
            r.pool_frames
        );
    }

    #[test]
    fn lazy_sampler_respects_band() {
        let net = ContinentalNet::new(ContinentalConfig::smoke(7)).unwrap();
        let pairs = sample_pairs_lazy(&net, 10, 0.5, 1.5, 42);
        assert_eq!(pairs.len(), 10);
        for (a, b) in pairs {
            let d = net
                .find_node(a)
                .unwrap()
                .distance(&net.find_node(b).unwrap());
            assert!((0.5..=1.5).contains(&d), "pair {a}->{b} at {d} miles");
        }
    }
}
