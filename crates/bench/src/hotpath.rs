//! The engine's hot-path probes, shared by the gate tests and the
//! `experiments hier-race` subcommand: the Figure 9 rush workload, the
//! checksum layer's cold-cache cost and the hierarchy-vs-flat race.
//!
//! Counts (`expanded_paths`, pieces, faults) are exact on every host
//! and are pinned by this module's tests; wall figures are gated only
//! by `tests/wall_floors.rs`, a test binary of its own.

use std::sync::Arc;
use std::time::Instant;

use allfp::{Engine, EngineConfig, EstimatorKind, QuerySpec};
use ccam::{BlockStore, CcamStore, ChecksummedStore, MemStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::time::hm;
use pwl::Interval;
use roadnet::workload::sample_pairs;
use roadnet::RoadNetwork;
use traffic::DayCategory;

use crate::clock::{clock_backend, median_mad, Clocked, WARM_PASSES};
use crate::report::{float, Field, Table, Value};
use crate::Scenario;

/// `count` morning-rush queries (07:00–10:00, workday speeds) between
/// pairs `min_miles`–`max_miles` apart.
fn rush(net: &RoadNetwork, count: usize, min_miles: f64, max_miles: f64) -> Vec<QuerySpec> {
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    sample_pairs(net, count, min_miles, max_miles, 0xF19)
        .expect("sampling succeeds")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect()
}

/// The Figure 9 workload: `count` morning-rush pairs 1–3 miles apart.
pub fn fig9_rush(net: &RoadNetwork, count: usize) -> Vec<QuerySpec> {
    rush(net, count, 1.0, 3.0)
}

/// The hierarchy race's workload: `count` morning-rush pairs over the
/// upper half of the scenario's distance range — the regime
/// preprocessing exists for; 1-mile hops barely leave the source's
/// neighborhood under either strategy.
fn long_rush(scenario: &Scenario, count: usize) -> Vec<QuerySpec> {
    let max_miles = scenario.max_query_miles() as f64;
    rush(&scenario.net, count, max_miles / 2.0, max_miles)
}

/// The flat engine under naiveLB, the paper's baseline estimator.
fn naive() -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::Naive,
        ..EngineConfig::default()
    }
}

/// Interleaved repetitions of the checksum-overhead measurement.
const CHECKSUM_REPS: usize = 7;

/// Cold-cache cost of the checksum layer under one workload: what it
/// verified (exact counts) and what that cost on the clock (a median
/// with its spread).
#[derive(Debug)]
pub struct ChecksumOverhead {
    /// Median over reps of `checksummed / plain` wall within the rep;
    /// 1.0 = free.
    pub overhead_ratio: f64,
    /// Median absolute deviation of the per-rep ratios.
    pub ratio_mad: f64,
    /// Pool faults of the checksummed stack over the timed reps.
    pub faults: u64,
    /// Physical page reads under the checksum layer over the same reps.
    /// Each is one `ChecksummedStore::read_page`, which verifies what it
    /// read, so `verified_reads == faults` says every fault was
    /// verified exactly once.
    pub verified_reads: u64,
    /// Pages that failed verification.
    pub corruptions: u64,
}

/// Measure the fault-free cost of page checksumming: `queries` over
/// `CcamStore → MemStore` vs `CcamStore → ChecksummedStore → MemStore`,
/// with the buffer pool dropped before every pass so each pass faults
/// (and verifies) every page it touches. Each of `CHECKSUM_REPS` reps
/// times one pass over each stack back to back, so ambient load hits
/// both alike and the ratio is taken within the rep.
pub fn measure_checksum_overhead(net: &RoadNetwork, queries: &[QuerySpec]) -> ChecksumOverhead {
    let frames = 4096; // large enough that eviction never competes with the I/O under test
    let build = |store: Arc<dyn BlockStore>| {
        CcamStore::build(net, store, PlacementPolicy::ConnectivityClustered, frames)
            .expect("store builds")
    };
    let plain = build(Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)));
    let summed_inner: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(Arc::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
    )));
    let summed = build(Arc::clone(&summed_inner));

    let plain_engine = Engine::new(&plain, EngineConfig::default()).expect("engine builds");
    let summed_engine = Engine::new(&summed, EngineConfig::default()).expect("engine builds");
    let cold_pass = |disk: &CcamStore, engine: &Engine<'_, CcamStore>| -> f64 {
        disk.clear_cache().expect("cache clears");
        let start = Instant::now();
        for q in queries {
            let _ = engine.all_fastest_paths(q);
        }
        start.elapsed().as_secs_f64()
    };
    // warm-up pass: fills each engine's travel-function cache so every
    // timed pass of both stacks sees the same cache state
    cold_pass(&plain, &plain_engine);
    cold_pass(&summed, &summed_engine);

    let before = summed.stats();
    let ratios: Vec<f64> = (0..CHECKSUM_REPS)
        .map(|_| {
            let p = cold_pass(&plain, &plain_engine);
            cold_pass(&summed, &summed_engine) / p
        })
        .collect();
    let after = summed.stats();
    let (overhead_ratio, ratio_mad) = median_mad(&ratios);
    ChecksumOverhead {
        overhead_ratio,
        ratio_mad,
        faults: after.misses - before.misses,
        verified_reads: after.physical_reads - before.physical_reads,
        corruptions: summed_inner.io_stats().corruptions(),
    }
}

/// Preprocessing cost and per-query payoff of the contraction
/// hierarchy versus the flat engine under both of its estimators, both
/// query modes of every backend on the clock over one serial workload.
#[derive(Debug)]
pub struct HierarchyReport {
    /// Scale of the scenario raced.
    pub scale: crate::Scale,
    /// The hierarchy's build.
    pub build: hierarchy::BuildReport,
    /// Queries in the workload.
    pub queries: usize,
    /// Flat under naiveLB, the named baseline of the published ratios.
    pub naive_singlefp: Clocked,
    /// allFP of the same.
    pub naive_allfp: Clocked,
    /// Flat under minTimeLB, the best flat engine.
    pub mintime_singlefp: Clocked,
    /// allFP of the same.
    pub mintime_allfp: Clocked,
    /// The hierarchy, singleFP.
    pub ch_singlefp: Clocked,
    /// The hierarchy, allFP.
    pub ch_allfp: Clocked,
}

impl HierarchyReport {
    /// The report's fields.
    pub fn fields(&self) -> Vec<Field> {
        let b = &self.build;
        let clocked = |c: &Clocked| Value::Object(c.fields());
        let expansion_speedup = self.naive_singlefp.expanded_paths as f64
            / self.ch_singlefp.expanded_paths.max(1) as f64;
        vec![
            (
                "scale",
                Value::Text(format!("{:?}", self.scale).to_lowercase()),
            ),
            (
                "preprocess_wall_seconds",
                float(b.build_wall.as_secs_f64(), 3),
            ),
            ("n_nodes", b.n_nodes.into()),
            ("n_shortcuts", b.n_shortcuts.into()),
            ("n_disabled", b.n_disabled.into()),
            ("overlay_pieces", b.overlay_pieces.into()),
            ("overlay_bytes", b.bytes_estimate.into()),
            ("queries", self.queries.into()),
            ("warm_passes", WARM_PASSES.into()),
            ("singlefp_flat_naive", clocked(&self.naive_singlefp)),
            ("singlefp_flat_mintime", clocked(&self.mintime_singlefp)),
            ("singlefp_ch", clocked(&self.ch_singlefp)),
            ("allfp_flat_naive", clocked(&self.naive_allfp)),
            ("allfp_flat_mintime", clocked(&self.mintime_allfp)),
            ("allfp_ch", clocked(&self.ch_allfp)),
            ("expansion_speedup", float(expansion_speedup, 1)),
            ("wall_speedup", float(self.wall_speedup(), 2)),
            (
                "allfp_wall_speedup",
                float(ratio(&self.ch_allfp, &self.naive_allfp), 2),
            ),
            (
                "wall_speedup_vs_mintime",
                float(ratio(&self.ch_singlefp, &self.mintime_singlefp), 2),
            ),
            (
                "allfp_wall_speedup_vs_mintime",
                float(ratio(&self.ch_allfp, &self.mintime_allfp), 2),
            ),
        ]
    }

    /// singleFP `ch / flat` warm queries per second, flat under naiveLB.
    pub fn wall_speedup(&self) -> f64 {
        ratio(&self.ch_singlefp, &self.naive_singlefp)
    }
}

/// `a / b` warm queries per second.
fn ratio(a: &Clocked, b: &Clocked) -> f64 {
    a.warm_qps / b.warm_qps.max(1e-12)
}

/// Build the hierarchy on `scenario` and race it against the flat
/// engine under naiveLB and under minTimeLB on `long_rush`'s
/// `count` queries: each mode of each backend as a first pass, then the
/// median ± MAD of [`WARM_PASSES`] further ones.
pub fn measure_hierarchy(scenario: &Scenario, count: usize) -> HierarchyReport {
    let net = &scenario.net;
    let queries = long_rush(scenario, count);
    let flat = Engine::new(net, naive()).expect("engine builds");
    let mintime = Engine::new(net, EngineConfig::default()).expect("engine builds");
    let ch = HierarchyEngine::build(net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy builds");

    let (naive_allfp, naive_singlefp) = clock_backend(&flat, &queries);
    let (mintime_allfp, mintime_singlefp) = clock_backend(&mintime, &queries);
    let (ch_allfp, ch_singlefp) = clock_backend(&ch, &queries);
    HierarchyReport {
        scale: scenario.scale,
        build: ch.report().clone(),
        queries: queries.len(),
        naive_singlefp,
        naive_allfp,
        mintime_singlefp,
        mintime_allfp,
        ch_singlefp,
        ch_allfp,
    }
}

/// Render a race as a key/value table for the experiments CLI.
pub fn render(r: &HierarchyReport) -> Table {
    let title = format!(
        "Hierarchy vs flat - serial morning rush, {} queries",
        r.queries
    );
    Table::key_value(title, &r.fields())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use allfp::PathfindBackend;

    /// One query mode's search counters summed over a pass:
    /// `[expanded_paths, pieces_total, pushed, pruned_by_border,
    /// pruned_dominated, border_merges]`. Pieces are every function the
    /// search composed — the count a relax gate moves while the others
    /// stay; a prune tally can move while the expansions stay.
    type Tally = [u64; 6];

    /// A pinned row: its name, the backend, the queries and the
    /// `(allFP, singleFP)` tallies they must give.
    type Row<'a> = (
        &'a str,
        &'a dyn PathfindBackend,
        Vec<QuerySpec>,
        (Tally, Tally),
    );

    /// One serial allFP pass and one serial singleFP pass of `queries`
    /// through `backend`, counted: `(allFP, singleFP)`.
    fn pass_counts(backend: &dyn PathfindBackend, queries: &[QuerySpec]) -> (Tally, Tally) {
        let add = |t: &mut Tally, s: &allfp::QueryStats| {
            let row = [
                s.expanded_paths as u64,
                s.pieces_total,
                s.pushed as u64,
                s.pruned_by_border as u64,
                s.pruned_dominated as u64,
                s.border_merges as u64,
            ];
            t.iter_mut().zip(row).for_each(|(t, n)| *t += n);
        };
        let (mut all, mut single) = (Tally::default(), Tally::default());
        for q in queries {
            if let Ok(a) = backend.all_fastest_paths(q) {
                add(&mut all, &a.stats);
            }
            if let Ok(a) = backend.single_fastest_path(q) {
                add(&mut single, &a.stats);
            }
        }
        (all, single)
    }

    /// `queries` moved to the whole workday, 00:00–23:59: the widest
    /// window, whose arrivals cross midnight.
    fn whole_day(queries: Vec<QuerySpec>) -> Vec<QuerySpec> {
        let day = Interval::of(hm(0, 0), hm(23, 59));
        let on_day = |q| QuerySpec { interval: day, ..q };
        queries.into_iter().map(on_day).collect()
    }

    /// The search-space size of the flat engine (metro-small, 12
    /// Figure 9 queries) and of the hierarchy (metro-medium, the race's
    /// 12 queries) is deterministic, so a pruning rule that loses its
    /// teeth — or gains some — moves one of these counts on any host.
    /// The straddle cell — the flat engine on long pairs over 07:00–10:00,
    /// a window that crosses the speed change — is where the
    /// live-instant key (DESIGN.md §7) does its work; the whole-day
    /// rows are allFP's widest query.
    #[test]
    fn search_counts_are_pinned() {
        fn flat(s: &Scenario, config: EngineConfig) -> Engine<'_, RoadNetwork> {
            Engine::new(&s.net, config).unwrap()
        }
        let small = Scenario::new(Scale::Small, 0x5EED);
        let medium = Scenario::new(Scale::Medium, 0x5EED);
        let full = Scenario::new(Scale::Full, 0x5EED);
        let ch = HierarchyEngine::build(
            &medium.net,
            EngineConfig::default(),
            HierarchyConfig::default(),
        )
        .unwrap();
        let fig9 = fig9_rush(&small.net, 12);
        let rows: [Row<'_>; 8] = [
            (
                "flat minTimeLB, metro-small fig9",
                &flat(&small, EngineConfig::default()),
                fig9.clone(),
                (
                    [1_384, 4_962, 1_599, 399, 574, 23],
                    [185, 830, 362, 0, 16, 0],
                ),
            ),
            (
                "flat naiveLB, metro-small fig9",
                &flat(&small, naive()),
                fig9,
                (
                    [3_204, 12_074, 3_518, 516, 1_652, 23],
                    [1_545, 6_911, 2_012, 0, 836, 0],
                ),
            ),
            (
                "hierarchy, metro-medium straddle",
                &ch,
                long_rush(&medium, 12),
                (
                    [772, 23_585, 2_116, 25_144, 1_668, 35],
                    [105, 3_407, 822, 2_264, 158, 0],
                ),
            ),
            (
                "flat, metro-medium straddle",
                &flat(&medium, EngineConfig::default()),
                long_rush(&medium, 12),
                (
                    [6_409, 30_492, 7_312, 1_530, 4_006, 34],
                    [460, 2_239, 871, 0, 29, 0],
                ),
            ),
            (
                "flat, metro-full straddle",
                &flat(&full, EngineConfig::default()),
                long_rush(&full, 24),
                (
                    [52_912, 246_166, 56_512, 6_523, 42_364, 73],
                    [1_467, 7_556, 2_891, 0, 158, 0],
                ),
            ),
            (
                "hierarchy, metro-medium whole day",
                &ch,
                whole_day(long_rush(&medium, 12)),
                (
                    [1_622, 154_566, 3_444, 53_921, 3_493, 70],
                    [105, 10_590, 862, 2_264, 118, 0],
                ),
            ),
            (
                "flat, metro-medium whole day",
                &flat(&medium, EngineConfig::default()),
                whole_day(long_rush(&medium, 12)),
                (
                    [16_089, 277_799, 17_997, 5_332, 9_731, 70],
                    [460, 6_732, 871, 0, 29, 0],
                ),
            ),
            (
                "flat, metro-full whole day",
                &flat(&full, EngineConfig::default()),
                whole_day(long_rush(&full, 24)),
                (
                    [169_514, 3_424_373, 183_739, 21_606, 140_305, 148],
                    [1_467, 23_575, 2_891, 0, 158, 0],
                ),
            ),
        ];
        let mut failed = Vec::new();
        for (name, backend, queries, want) in rows {
            let got = pass_counts(backend, &queries);
            println!("{name}: {got:?}");
            if got != want {
                failed.push(name);
            }
        }
        assert!(failed.is_empty(), "moved (allFP, singleFP): {failed:?}");
    }

    /// Contraction buys back its preprocessing: on the race's workload
    /// the overlay search expands at least ten times fewer labels per
    /// singleFP than the flat search under naiveLB.
    #[test]
    fn the_hierarchy_saves_ten_times_the_singlefp_expansions() {
        const MIN_EXPANSION_SPEEDUP: f64 = 10.0;
        let medium = Scenario::new(Scale::Medium, 0x5EED);
        let queries = long_rush(&medium, 12);
        let flat = pass_counts(&Engine::new(&medium.net, naive()).unwrap(), &queries).1[0];
        let ch = HierarchyEngine::build(
            &medium.net,
            EngineConfig::default(),
            HierarchyConfig::default(),
        )
        .unwrap();
        let ch = pass_counts(&ch, &queries).1[0];
        let speedup = flat as f64 / ch.max(1) as f64;
        assert!(
            speedup >= MIN_EXPANSION_SPEEDUP,
            "singleFP saves only {speedup:.1}x expansions ({flat} flat, {ch} ch)"
        );
    }

    /// Every pool fault of the checksummed stack is one verified
    /// physical read, and nothing is corrupt.
    #[test]
    fn every_checksummed_fault_is_verified_once() {
        let small = Scenario::new(Scale::Small, 0x5EED);
        let c = measure_checksum_overhead(&small.net, &fig9_rush(&small.net, 12));
        assert!(c.faults > 0, "{c:?}");
        assert_eq!(c.verified_reads, c.faults, "{c:?}");
        assert_eq!(c.corruptions, 0, "{c:?}");
    }
}
