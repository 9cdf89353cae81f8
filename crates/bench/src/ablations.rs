//! Ablations called out in DESIGN.md: bdLB grid granularity (A-1),
//! dominance pruning (A-2), and CCAM placement / buffer sizing (A-3).

use std::sync::Arc;
use std::time::Instant;

use allfp::{Engine, EngineConfig, EstimatorKind, QuerySpec};
use ccam::{CcamStore, MemStore, PlacementPolicy, StoreStats, DEFAULT_PAGE_SIZE};
use pwl::time::hm;
use pwl::Interval;
use roadnet::workload::sample_pairs;
use roadnet::{NetworkSource, RoadNetwork};
use traffic::DayCategory;

use crate::report::{fnum, Table};

/// A-1: sweep the boundary estimator's grid granularity (`0` is the
/// naive bound), with the min-time estimator as the last row.
///
/// Finer grids pay more precomputation for tighter bounds — up to a
/// point: past it, cells are so small that most of a route's length
/// lies in the *entry/exit* legs the table cannot see. The last row is
/// the bound no table can beat, at no precomputation to speak of.
pub fn grid_sweep(net: &RoadNetwork, grids: &[usize], n_queries: usize, seed: u64) -> Table {
    let pairs = sample_pairs(net, n_queries, 1.5, 4.0, seed).expect("sampling succeeds");
    let interval = Interval::of(hm(7, 0), hm(10, 0));

    let mut t = Table::new(
        "Ablation A-1 - bdLB grid granularity (allFP, morning rush)",
        &[
            "grid",
            "precompute ms",
            "mean expanded nodes",
            "mean query ms",
        ],
    );
    let kinds = grids
        .iter()
        .map(|&grid| match grid {
            0 => ("naive".to_string(), EstimatorKind::Naive),
            _ => (grid.to_string(), EstimatorKind::Boundary { grid }),
        })
        .chain([("min-time".to_string(), EstimatorKind::MinTime)]);
    for (label, estimator) in kinds {
        let t0 = Instant::now();
        let engine = Engine::for_network(
            net,
            EngineConfig {
                estimator,
                ..Default::default()
            },
        )
        .expect("estimator builds");
        let pre_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut expanded = 0usize;
        let mut elapsed_ms = 0.0f64;
        let mut done = 0usize;
        for p in &pairs {
            let q = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
            let t0 = Instant::now();
            let Ok(ans) = engine.all_fastest_paths(&q) else {
                continue;
            };
            elapsed_ms += t0.elapsed().as_secs_f64() * 1e3;
            expanded += ans.stats.expanded_nodes;
            done += 1;
        }
        let n = done.max(1) as f64;
        t.push_row(vec![
            label,
            fnum(pre_ms, 1),
            fnum(expanded as f64 / n, 1),
            fnum(elapsed_ms / n, 2),
        ]);
    }
    t
}

/// A-2: the paper's basic path expansion vs per-node dominance
/// pruning, on workloads small enough for the basic mode to finish.
pub fn pruning(net: &RoadNetwork, n_queries: usize, seed: u64) -> Table {
    let pairs = sample_pairs(net, n_queries, 1.0, 2.0, seed).expect("sampling succeeds");
    let interval = Interval::of(hm(7, 0), hm(8, 0));

    let mut t = Table::new(
        "Ablation A-2 - basic path expansion vs dominance pruning (allFP, 1h rush window)",
        &[
            "engine",
            "queries",
            "mean expanded paths",
            "mean pushed",
            "mean query ms",
        ],
    );
    for (name, prune) in [("basic (paper)", false), ("pruned (default)", true)] {
        // Under the paper's naiveLB, like its basic algorithm.
        let engine = Engine::new(
            net,
            EngineConfig {
                estimator: EstimatorKind::Naive,
                prune_dominated: prune,
                max_expansions: 500_000,
            },
        )
        .expect("the naive estimator builds");
        let mut expanded = 0usize;
        let mut pushed = 0usize;
        let mut elapsed_ms = 0.0;
        let mut done = 0usize;
        for p in &pairs {
            let q = QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY);
            let t0 = Instant::now();
            let Ok(ans) = engine.all_fastest_paths(&q) else {
                continue;
            };
            elapsed_ms += t0.elapsed().as_secs_f64() * 1e3;
            expanded += ans.stats.expanded_paths;
            pushed += ans.stats.pushed;
            done += 1;
        }
        let n = done.max(1) as f64;
        t.push_row(vec![
            name.into(),
            done.to_string(),
            fnum(expanded as f64 / n, 1),
            fnum(pushed as f64 / n, 1),
            fnum(elapsed_ms / n, 2),
        ]);
    }
    t
}

/// A-3's workload: 8 allFP queries over 07:00–08:00.
fn placement_queries(net: &RoadNetwork, seed: u64) -> Vec<QuerySpec> {
    let interval = Interval::of(hm(7, 0), hm(8, 0));
    sample_pairs(net, 8, 1.0, 2.5, seed)
        .expect("sampling succeeds")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect()
}

/// A store of `net` under `policy` with a cold pool of `frames` frames.
fn cold_store(net: &RoadNetwork, policy: PlacementPolicy, frames: usize) -> CcamStore {
    let store = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
    let disk = CcamStore::build(net, store, policy, frames).expect("build succeeds");
    disk.clear_cache().expect("cache clears");
    disk
}

/// The pool traffic at `disk` of `queries` answered over `src` (the
/// store itself, or a wrapper of it), under naiveLB, which reads no
/// page to build.
fn pool_traffic<S: NetworkSource>(src: &S, disk: &CcamStore, queries: &[QuerySpec]) -> StoreStats {
    let naive = EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    };
    let engine = Engine::new(src, naive).expect("the naive estimator builds");
    let before = disk.stats();
    for q in queries {
        if let Ok(ans) = engine.all_fastest_paths(q) {
            std::hint::black_box(&ans);
        }
    }
    disk.stats().since(&before)
}

/// A-3: CCAM placement policies under varying buffer-pool sizes —
/// page faults for the same logical access stream.
pub fn ccam_placement(net: &RoadNetwork, pool_frames: &[usize], seed: u64) -> Table {
    let queries = placement_queries(net, seed);

    let mut t = Table::new(
        "Ablation A-3 - CCAM placement vs buffer size (8 allFP queries, page 2048B)",
        &[
            "placement",
            "pool frames",
            "logical reads",
            "page faults",
            "hit %",
        ],
    );
    for (name, policy) in [
        ("ccam", PlacementPolicy::ConnectivityClustered),
        ("hilbert", PlacementPolicy::HilbertPacked),
        ("random", PlacementPolicy::Random { seed: 1 }),
    ] {
        for &frames in pool_frames {
            let disk = cold_store(net, policy, frames);
            let d = pool_traffic(&disk, &disk, &queries);
            let logical = d.hits + d.misses;
            t.push_row(vec![
                name.into(),
                frames.to_string(),
                logical.to_string(),
                d.misses.to_string(),
                fnum(100.0 * d.hits as f64 / logical.max(1) as f64, 1),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use roadnet::{Edge, NodeId, PatternId, Point};
    use traffic::CapeCodPattern;

    use super::*;
    use crate::scenario::{Scale, Scenario};

    #[test]
    fn grid_sweep_produces_rows() {
        let s = Scenario::new(Scale::Small, 3);
        let t = grid_sweep(&s.net, &[0, 4, 8], 3, 2);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0][0], "naive");
        assert_eq!(t.rows[3][0], "min-time");
    }

    #[test]
    fn pruning_rows_show_reduction() {
        let s = Scenario::new(Scale::Small, 3);
        let t = pruning(&s.net, 3, 2);
        assert_eq!(t.rows.len(), 2);
        let basic: f64 = t.rows[0][2].parse().unwrap();
        let pruned: f64 = t.rows[1][2].parse().unwrap();
        assert!(pruned <= basic + 1e-9, "basic {basic} pruned {pruned}");
    }

    #[test]
    fn ccam_placement_rows() {
        let s = Scenario::new(Scale::Small, 3);
        let t = ccam_placement(&s.net, &[8, 64], 2);
        assert_eq!(t.rows.len(), 6);
        // same logical reads across placements at equal pool size
        let logical_at = |row: usize| t.rows[row][2].clone();
        assert_eq!(logical_at(0), logical_at(2));
        assert_eq!(logical_at(0), logical_at(4));
    }

    /// A-3's premise, on the recorded tables (`experiments
    /// ablation-ccam` at its defaults, medium and full scale): at every
    /// pool size, connectivity clustering faults no more than plain
    /// Hilbert packing, and Hilbert packing no more than random
    /// placement.
    #[test]
    fn ccam_faults_no_more_than_hilbert_and_hilbert_no_more_than_random() {
        let seed = 0x5EED;
        let frames = [8, 32, 128, 512];
        for scale in [Scale::Medium, Scale::Full] {
            let s = Scenario::new(scale, seed);
            let t = ccam_placement(&s.net, &frames, seed);
            let faults = |row: usize| -> u64 { t.rows[row][3].parse().unwrap() };
            for (i, f) in frames.iter().enumerate() {
                let n = frames.len();
                let (ccam, hilbert, random) = (faults(i), faults(n + i), faults(2 * n + i));
                assert!(
                    ccam <= hilbert && hilbert <= random,
                    "{scale:?} at {f} frames: ccam {ccam}, hilbert {hilbert}, random {random}"
                );
            }
        }
    }

    /// A store seen through [`NetworkSource`]'s default `read_node`:
    /// `successors_into`, then `find_node`, each with its own directory
    /// lookup. Counts both.
    struct TwoCalls<'a> {
        disk: &'a CcamStore,
        successors_into: AtomicU64,
        find_node: AtomicU64,
    }

    impl NetworkSource for TwoCalls<'_> {
        fn n_nodes(&self) -> usize {
            self.disk.n_nodes()
        }

        fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
            self.find_node.fetch_add(1, Ordering::Relaxed);
            self.disk.find_node(node)
        }

        fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
            self.disk.successors(node)
        }

        fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
            self.successors_into.fetch_add(1, Ordering::Relaxed);
            self.disk.successors_into(node, buf)
        }

        fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
            self.disk.pattern(id)
        }

        fn max_speed(&self) -> f64 {
            self.disk.max_speed()
        }
    }

    /// The one-lookup node read faults, evicts and physically reads
    /// exactly what the two-call read did, in each of the 12 cells of the
    /// recorded A-3 table (`experiments ablation-ccam` at its defaults:
    /// the medium scenario, seed 0x5EED), and pays one record lookup per
    /// record read where the two-call read paid one per call.
    #[test]
    fn one_record_read_keeps_every_fault_of_two_calls() {
        let seed = 0x5EED;
        let s = Scenario::new(Scale::Medium, seed);
        let queries = placement_queries(&s.net, seed);
        for policy in [
            PlacementPolicy::ConnectivityClustered,
            PlacementPolicy::HilbertPacked,
            PlacementPolicy::Random { seed: 1 },
        ] {
            for frames in [8, 32, 128, 512] {
                let disk = cold_store(&s.net, policy, frames);
                let one = pool_traffic(&disk, &disk, &queries);
                let disk = cold_store(&s.net, policy, frames);
                let split = TwoCalls {
                    disk: &disk,
                    successors_into: AtomicU64::new(0),
                    find_node: AtomicU64::new(0),
                };
                let two = pool_traffic(&split, &disk, &queries);
                let cell = format!("{policy:?} at {frames} frames");
                assert_eq!(one.misses, two.misses, "{cell}: page faults");
                assert_eq!(one.evictions, two.evictions, "{cell}: evictions");
                assert_eq!(one.physical_reads, two.physical_reads, "{cell}");

                // Every call is one record lookup of the same cost (a
                // directory page plus the data page); the one-call read makes a
                // single lookup per `find_node` of the split run (each
                // node read, and each query's target).
                let records = split.find_node.into_inner();
                let calls = split.successors_into.into_inner() + records;
                let (logical_two, logical_one) = (two.hits + two.misses, one.hits + one.misses);
                let per_lookup = logical_two / calls;
                assert!(
                    per_lookup >= 2,
                    "{cell}: a lookup is a directory page and a data page"
                );
                assert_eq!(logical_two, per_lookup * calls, "{cell}");
                assert_eq!(logical_one, per_lookup * records, "{cell}");
            }
        }
    }
}
