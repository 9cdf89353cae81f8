//! The `metro-huge` tier: continental-scale (≥10⁶ node) builds and
//! queries over the streaming CCAM substrate.
//!
//! The runner exercises the full continental pipeline end to end:
//!
//! 1. bulk-build the lazily generated [`ContinentalNet`] straight to a
//!    [`FileStore`] at each swept thread count, verifying the builds
//!    are **byte-identical** (streamed file comparison, never the
//!    whole file in memory);
//! 2. serve the fig9 morning-rush workload through [`FileStore::open`]
//!    and a buffer pool far smaller than the graph — behind the
//!    min-time estimator (`minTimeLB`), built by one sweep over the lazy
//!    generator: allFP then singleFP, each put on the clock by
//!    [`crate::clock::clock_backend`] (a first pass, then the median ± MAD of
//!    the warm ones, with `expanded_paths` and the allocated bytes per
//!    query beside them), and check that a warm estimator allocates
//!    nothing;
//! 3. record the build walls, the analytic transient footprint of the
//!    builder (gated ≪ graph bytes), the process RSS high water, and
//!    the physical I/O counters (`reads` / `bytes_read` /
//!    `bytes_written`).
//!
//! This module's test gates the smoke tier (16 384 nodes);
//! `experiments metro-huge` runs the million-node tier.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use allfp::{Engine, EngineConfig, LowerBoundEstimator, MinTimeLb, QuerySpec};
use ccam::{build_bulk, BlockStore, BulkBuildConfig, CcamStore, FileStore, DEFAULT_PAGE_SIZE};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{ContinentalConfig, ContinentalNet};
use roadnet::{NetworkSource, NodeId};
use traffic::DayCategory;

use crate::clock::{clock_backend, sweep_annotation, Clocked, WARM_PASSES};
use crate::report::{float, list, Field, Table, Value};

/// Thread counts swept by the parallel-build curve.
pub const BUILD_SWEEP: [usize; 3] = [1, 2, 4];

/// One point on the parallel-build curve.
#[derive(Debug, Clone)]
pub struct BuildPoint {
    /// Builder threads.
    pub threads: usize,
    /// Build wall time, seconds.
    pub wall_seconds: f64,
    /// Wall speedup versus the 1-thread build.
    pub speedup_vs_serial: f64,
}

impl BuildPoint {
    /// The point's fields, annotated for this host.
    pub fn fields(&self) -> Vec<Field> {
        vec![
            ("threads", self.threads.into()),
            ("wall_seconds", float(self.wall_seconds, 3)),
            ("speedup_vs_serial", float(self.speedup_vs_serial, 2)),
            ("annotation", sweep_annotation(self.threads).into()),
        ]
    }
}

/// Everything the metro-huge runner measures.
#[derive(Debug, Clone)]
pub struct MetroHugeReport {
    /// Tier label (`"metro-huge"` or `"smoke"`).
    pub tier: &'static str,
    /// Nodes in the tier.
    pub n_nodes: usize,
    /// Slotted data pages in the built store.
    pub data_pages: u64,
    /// All pages (superblock + patterns + data + index).
    pub total_pages: u64,
    /// On-disk bytes of the built store file.
    pub graph_bytes: u64,
    /// Analytic peak of the builder's transient allocations (points,
    /// degrees, Hilbert keys, sorted runs) — the bounded-memory
    /// claim's machine-checkable half.
    pub transient_build_bytes: usize,
    /// `VmHWM` from `/proc/self/status` after the run (process-wide
    /// high water; 0 where the file is unavailable).
    pub peak_rss_bytes: u64,
    /// Parallel-build sweep.
    pub build_sweep: Vec<BuildPoint>,
    /// Whether every swept build produced byte-identical files.
    pub deterministic: bool,
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
            ("data_pages", self.data_pages.into()),
            ("total_pages", self.total_pages.into()),
            ("graph_bytes", self.graph_bytes.into()),
            ("transient_build_bytes", self.transient_build_bytes.into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            ("deterministic", self.deterministic.into()),
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
            ("build_sweep", list(&self.build_sweep, BuildPoint::fields)),
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

/// Streamed byte comparison of two files (1 MiB windows).
fn files_identical(a: &Path, b: &Path) -> std::io::Result<bool> {
    use std::io::Read;
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let mut wa = vec![0u8; 1 << 20];
    let mut wb = vec![0u8; 1 << 20];
    loop {
        let na = fa.read(&mut wa)?;
        let nb = fb.read(&mut wb)?;
        if na != nb || wa[..na] != wb[..nb] {
            return Ok(false);
        }
        if na == 0 {
            return Ok(true);
        }
    }
}

/// Build the tier at each swept thread count, then serve `n_queries`
/// fig9 queries through the file store with the min-time estimator.
pub fn run(cfg: &ContinentalConfig, tier: &'static str, n_queries: usize) -> MetroHugeReport {
    let lazy = ContinentalNet::new(cfg.clone()).expect("tier config is valid");
    let dir = std::env::temp_dir().join(format!("fp-metro-huge-{}-{tier}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // --- parallel-build sweep, byte-identity checked ------------------
    let mut sweep = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut transient = 0usize;
    let mut data_pages = 0u64;
    let mut total_pages = 0u64;
    let mut bytes_written = 0u64;
    for threads in BUILD_SWEEP {
        let path = dir.join(format!("tier-t{threads}.ccam"));
        let store = Arc::new(FileStore::create(&path, DEFAULT_PAGE_SIZE).expect("file store"));
        let bulk_cfg = BulkBuildConfig {
            threads,
            pool_frames: 256,
        };
        let start = Instant::now();
        let (built, stats) = build_bulk(&lazy, lazy.patterns(), Arc::clone(&store) as _, &bulk_cfg)
            .expect("bulk build succeeds");
        let wall = start.elapsed().as_secs_f64();
        drop(built);
        transient = transient.max(stats.transient_bytes);
        data_pages = stats.data_pages;
        total_pages = stats.total_pages;
        bytes_written = store.io_stats().bytes_written();
        sweep.push(BuildPoint {
            threads,
            wall_seconds: wall,
            speedup_vs_serial: 0.0, // filled below
        });
        paths.push(path);
    }
    let serial_wall = sweep[0].wall_seconds;
    for p in &mut sweep {
        p.speedup_vs_serial = serial_wall / p.wall_seconds.max(1e-12);
    }
    let mut deterministic = true;
    for p in &paths[1..] {
        deterministic &= files_identical(&paths[0], p).unwrap_or(false);
    }
    // Keep one file for serving, drop the rest.
    for p in &paths[1..] {
        std::fs::remove_file(p).ok();
    }
    let tier_path = &paths[0];
    let graph_bytes = std::fs::metadata(tier_path).map_or(0, |m| m.len());

    // --- min-time estimator off the lazy generator --------------------
    let start = Instant::now();
    let estimator = MinTimeLb::build(&lazy).expect("estimator builds");
    let estimator_wall = start.elapsed().as_secs_f64();

    // --- serve fig9 through the file store -----------------------------
    let store = Arc::new(FileStore::open(tier_path, DEFAULT_PAGE_SIZE).expect("file reopens"));
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
        data_pages,
        total_pages,
        graph_bytes,
        transient_build_bytes: transient,
        peak_rss_bytes: peak_rss_bytes(),
        build_sweep: sweep,
        deterministic,
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

    /// The 16 384-node smoke tier: the bulk build is byte-identical at
    /// every swept width, the builder's scratch stays under the graph
    /// bytes (the analytic counter, so a 1-core host cannot flake it),
    /// and the file-served workload answers every query while reading
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
        assert!(r.deterministic, "swept builds diverged");
        assert!(r.transient_build_bytes > 0);
        assert!(
            (r.transient_build_bytes as u64) < r.graph_bytes,
            "builder scratch peaked at {} bytes over a {}-byte graph",
            r.transient_build_bytes,
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
