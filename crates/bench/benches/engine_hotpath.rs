//! Hot-path benchmarks for the allFP engine: the travel-function cache
//! (on vs off) and the work-stealing batch driver swept over thread
//! counts, on the Figure 9 workload (3-hour morning rush,
//! distance-sampled source–target pairs on the metro scenario).
//!
//! The run emits `BENCH_engine.json` at
//! the repository root with wall-times, expansions/sec, and the
//! 1/2/4/8-thread `run_batch` scaling curve (tagged with the host's
//! core count so the curve is interpretable), so throughput claims are
//! machine-checkable.
//!
//! `--smoke` runs a reduced workload instead of the benchmarks: it
//! verifies the batch driver returns exactly the serial answers at
//! every swept width and fails (non-zero exit) on answer divergence,
//! a gross batch-overhead regression, a page fault of the checksummed
//! stack that was not verified exactly once (or verification costing
//! more than 3% plus its measured spread on a cold-cache fault-free
//! disk workload), or an allocation regression — the pooled PWL
//! kernels (compose + envelope merge) must run their steady-state loop with **zero** heap
//! allocations under the crate's counting allocator, the whole engine
//! must stay under a per-expansion allocation budget and under half
//! the bytes per query it allocated before the search workspace was
//! pooled, and a warm query on the metro-huge smoke tier must allocate
//! less than one byte per network node — or an
//! overload regression — the seeded 2× virtual-time overload scenario
//! (`fpbench::overload`) must replay deterministically, keep its queue
//! bounded, reconcile its stats, and hold goodput while shedding — or
//! a continental-scale regression — the metro-huge smoke tier
//! (`fpbench::metro_huge`) must bulk-build byte-identically at every
//! thread count with transient scratch bounded under the graph bytes,
//! serve its workload through the mmap store, and ask its warm
//! estimator without allocating — all without
//! touching the JSON report. `scripts/check.sh` runs it on every
//! check.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ccam::{BlockStore, CcamStore, ChecksummedStore, MemStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use fpbench::{Scale, Scenario};

use allfp::{
    run_batch, BatchStats, CancelToken, Engine, EngineConfig, EstimatorKind, PathfindBackend,
    QueryOutcome, QuerySpec,
};
use fpbench::alloc::snapshot;
use fpbench::clock::{clock_backend, median_mad, Clocked, WARM_PASSES};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::time::hm;
use pwl::{compose_travel_into, Envelope, Interval, Pwl, PwlScratch};
use roadnet::generators::ContinentalConfig;
use roadnet::workload::sample_pairs;
use roadnet::RoadNetwork;
use traffic::DayCategory;

/// Thread counts swept by the batch scaling curve.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The Figure 9 query workload: `count` pairs 1–3 miles apart, morning
/// rush interval, workday speeds.
fn workload(net: &RoadNetwork, count: usize) -> Vec<QuerySpec> {
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    sample_pairs(net, count, 1.0, 3.0, 0xF19)
        .expect("sampling succeeds")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect()
}

fn uncached() -> EngineConfig {
    EngineConfig {
        use_travel_cache: false,
        ..EngineConfig::default()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured configuration for the JSON report.
struct Measured {
    name: String,
    wall_seconds: f64,
    queries: usize,
    expanded_paths: usize,
    /// `expanded_paths` of one singleFP pass over the same queries.
    singlefp_expanded_paths: usize,
    expansions_per_sec: f64,
    queries_per_sec: f64,
}

/// `expanded_paths` summed over one serial allFP pass and one serial
/// singleFP pass — the machine-independent counters the report records
/// and `--smoke` gates.
fn expansion_counts(backend: &dyn PathfindBackend, queries: &[QuerySpec]) -> (usize, usize) {
    let mut counts = (0, 0);
    for q in queries {
        counts.0 += backend
            .all_fastest_paths(q)
            .map_or(0, |a| a.stats.expanded_paths);
        counts.1 += backend
            .single_fastest_path(q)
            .map_or(0, |a| a.stats.expanded_paths);
    }
    counts
}

/// Time `queries` through `engine` (batched by `run`), counting
/// expansions via the answers.
fn measure(
    name: &str,
    engine: &Engine<'_, RoadNetwork>,
    queries: &[QuerySpec],
    run: impl Fn(&[QuerySpec]) -> Vec<allfp::Result<allfp::AllFpAnswer>>,
) -> Measured {
    // Warm-up pass (fills the cache where one is enabled).
    let _ = run(queries);
    let reps = 3;
    let start = Instant::now();
    let mut expanded = 0usize;
    for _ in 0..reps {
        expanded = 0;
        for ans in run(queries).iter().flatten() {
            expanded += ans.stats.expanded_paths;
        }
    }
    let wall = start.elapsed().as_secs_f64() / f64::from(reps);
    Measured {
        name: name.to_string(),
        wall_seconds: wall,
        queries: queries.len(),
        expanded_paths: expanded,
        singlefp_expanded_paths: expansion_counts(engine, queries).1,
        expansions_per_sec: expanded as f64 / wall,
        queries_per_sec: queries.len() as f64 / wall,
    }
}

/// Interleaved repetitions of the checksum-overhead measurement.
const CHECKSUM_REPS: usize = 7;

/// Checksummed wall over plain wall may be at most this (plus twice
/// the measured spread).
const CHECKSUM_BUDGET: f64 = 1.03;

/// Cold-cache cost of the checksum layer under the engine workload:
/// what it verified (exact counts, the gate) and what that cost on
/// the clock (a median with its spread, reported).
struct ChecksumOverhead {
    /// Median cold-cache wall of one workload pass, plain stack.
    plain_wall_seconds: f64,
    /// The same over the checksummed stack.
    checksummed_wall_seconds: f64,
    /// Median over reps of `checksummed / plain` within the rep; 1.0 =
    /// free.
    overhead_ratio: f64,
    /// Median absolute deviation of the per-rep ratios.
    ratio_mad: f64,
    /// Pool faults of the checksummed stack over the timed reps.
    faults: u64,
    /// Physical page reads under the checksum layer over the same
    /// reps. Each is one `ChecksummedStore::read_page`, which verifies
    /// what it read, so `verified_reads == faults` says every fault
    /// was verified exactly once.
    verified_reads: u64,
    /// Pages that failed verification (must be 0: nothing corrupts).
    corruptions: u64,
}

impl ChecksumOverhead {
    /// The count gate and the wall gate, as failure messages.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.faults == 0 || self.verified_reads != self.faults || self.corruptions != 0 {
            out.push(format!(
                "checksummed stack verified {} reads for {} faults with {} corruptions \
                 (want one verified read per fault, at least one fault, no corruption)",
                self.verified_reads, self.faults, self.corruptions
            ));
        }
        if self.overhead_ratio > CHECKSUM_BUDGET + 2.0 * self.ratio_mad {
            out.push(format!(
                "checksum verification costs {:.3}x ± {:.3} the plain stack (budget {CHECKSUM_BUDGET}x + 2 MAD)",
                self.overhead_ratio, self.ratio_mad
            ));
        }
        out
    }
}

/// Measure the fault-free cost of page checksumming: the same query
/// workload over `CcamStore → MemStore` vs
/// `CcamStore → ChecksummedStore → MemStore`, with the buffer pool
/// dropped before every pass so each pass faults (and verifies) every
/// page it touches. Each of [`CHECKSUM_REPS`] reps times one pass over
/// each stack back to back, so ambient load hits both alike and the
/// ratio is taken within the rep.
fn measure_checksum_overhead(net: &RoadNetwork, queries: &[QuerySpec]) -> ChecksumOverhead {
    let frames = 4096; // large enough that eviction never competes with the I/O under test
    let plain = CcamStore::build(
        net,
        Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)),
        PlacementPolicy::ConnectivityClustered,
        frames,
    )
    .expect("plain store builds");
    let summed_inner: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(Arc::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
    )));
    let summed = CcamStore::build(
        net,
        Arc::clone(&summed_inner),
        PlacementPolicy::ConnectivityClustered,
        frames,
    )
    .expect("checksummed store builds");

    let plain_engine = Engine::new(&plain, EngineConfig::default());
    let summed_engine = Engine::new(&summed, EngineConfig::default());
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
    let (mut walls_plain, mut walls_summed, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CHECKSUM_REPS {
        let p = cold_pass(&plain, &plain_engine);
        let c = cold_pass(&summed, &summed_engine);
        walls_plain.push(p);
        walls_summed.push(c);
        ratios.push(c / p);
    }
    let after = summed.stats();
    let (overhead_ratio, ratio_mad) = median_mad(&ratios);
    ChecksumOverhead {
        plain_wall_seconds: median_mad(&walls_plain).0,
        checksummed_wall_seconds: median_mad(&walls_summed).0,
        overhead_ratio,
        ratio_mad,
        faults: after.misses - before.misses,
        verified_reads: after.physical_reads - before.physical_reads,
        corruptions: summed_inner.io_stats().corruptions(),
    }
}

/// Allocation profile of the serial engine workload.
struct AllocProfile {
    allocs_per_expansion: f64,
    bytes_per_query: f64,
}

/// Measure allocator traffic of a warm width-1 batch (one persistent
/// session, no helper threads — the counting allocator counts per
/// thread, so the measured work must run on the calling thread).
///
/// The warm-up batch fills the shared travel-function cache and parks
/// its session, which the measured batch revives: L1, scratch pool and
/// search workspace are warm, so what is counted is what every further
/// query of a long-lived worker costs — answers and arena growth.
fn measure_allocs(engine: &Engine<'_, RoadNetwork>, queries: &[QuerySpec]) -> AllocProfile {
    let cancel = CancelToken::new();
    let _ = run_batch(engine, queries, 1, &cancel);
    let before = snapshot();
    let (results, _) = run_batch(engine, queries, 1, &cancel);
    let delta = snapshot().since(&before);
    let expanded: usize = results
        .iter()
        .flatten()
        .map(|o| o.stats().expanded_paths)
        .sum();
    AllocProfile {
        allocs_per_expansion: delta.allocs as f64 / expanded.max(1) as f64,
        bytes_per_query: delta.bytes as f64 / queries.len().max(1) as f64,
    }
}

/// The steady-state kernel loop the zero-allocation gate measures:
/// one §4.4 compound composition plus one lower-border merge, with the
/// composed function recycled back into the pool — exactly the work
/// the engine does per surviving candidate expansion.
fn kernel_step(scratch: &mut PwlScratch, env: &mut Envelope<usize>, t1: &Pwl, t2: &Pwl) {
    let composed = compose_travel_into(scratch, t1, t2).expect("compose succeeds");
    env.merge_min_with(scratch, &composed, 1)
        .expect("merge succeeds");
    scratch.recycle(composed);
}

/// Zero-allocation gate for the pooled PWL kernels: after a short
/// warm-up (pool fills, buffers reach capacity), [`kernel_step`] must
/// not allocate at all. Returns the allocation count the measured loop
/// observed (0 = pass).
fn kernel_steady_state_allocs() -> u64 {
    const WARMUP: usize = 8;
    const ITERS: usize = 100;
    // A path function with rush-hour shape (slopes > −1, FIFO-safe)...
    let t1 = Pwl::from_points(&[
        (hm(7, 0), 10.0),
        (hm(8, 0), 16.0),
        (hm(9, 0), 9.0),
        (hm(10, 0), 12.0),
    ])
    .expect("t1 well formed");
    // ...and an edge function covering every arrival `l + t1(l)`.
    let t2 = Pwl::from_points(&[
        (hm(7, 0), 8.0),
        (hm(8, 20), 12.0),
        (hm(9, 20), 6.0),
        (hm(10, 40), 10.0),
    ])
    .expect("t2 well formed");
    let base = Pwl::constant(Interval::of(hm(7, 0), hm(10, 0)), 14.0).expect("base well formed");

    let mut scratch = PwlScratch::new();
    let mut env = Envelope::new(base, 0usize);
    for _ in 0..WARMUP {
        kernel_step(&mut scratch, &mut env, &t1, &t2);
    }
    let before = snapshot();
    for _ in 0..ITERS {
        kernel_step(&mut scratch, &mut env, &t1, &t2);
    }
    snapshot().since(&before).allocs
}

/// One point on the batch scaling curve.
struct SweepPoint {
    threads: usize,
    wall_seconds: f64,
    speedup_vs_serial: f64,
    steals: u64,
    cache_hit_rate: f64,
    /// `"scheduler_noise"` when the point oversubscribes the host
    /// (threads > cores): its wall time measures contention, not
    /// scaling, and regression gates must not read it as one.
    annotation: &'static str,
}

/// Annotation for a sweep width on this host.
fn sweep_annotation(threads: usize) -> &'static str {
    if threads > host_cpus() {
        "scheduler_noise"
    } else {
        ""
    }
}

/// Preprocessing cost and per-query payoff of the contraction
/// hierarchy (`fp-hierarchy`) versus the flat engine, both query modes
/// of both backends on the clock over one serial workload. Expansions
/// are the machine-independent metric the speedup gate reads; wall
/// figures are warm medians with their spread.
struct HierarchyReport {
    scale: &'static str,
    preprocess_wall_seconds: f64,
    n_nodes: usize,
    n_shortcuts: usize,
    n_disabled: usize,
    overlay_pieces: u64,
    overlay_bytes: u64,
    queries: usize,
    flat_singlefp: Clocked,
    ch_singlefp: Clocked,
    flat_allfp: Clocked,
    ch_allfp: Clocked,
}

impl HierarchyReport {
    /// singleFP `flat / ch` expansions — work per query saved by
    /// preprocessing.
    fn expansion_speedup(&self) -> f64 {
        self.flat_singlefp.expanded_paths as f64 / self.ch_singlefp.expanded_paths.max(1) as f64
    }

    /// singleFP `ch / flat` warm queries per second.
    fn wall_speedup(&self) -> f64 {
        self.ch_singlefp.warm_qps / self.flat_singlefp.warm_qps.max(1e-12)
    }

    /// allFP `ch / flat` warm queries per second.
    fn allfp_wall_speedup(&self) -> f64 {
        self.ch_allfp.warm_qps / self.flat_allfp.warm_qps.max(1e-12)
    }
}

/// Build the hierarchy on a fresh scenario at `scale` and race it
/// against the flat engine on `count` queries over the scenario's
/// longer trips (upper half of its distance range — the regime
/// preprocessing exists for; 1-mile hops barely leave the source's
/// neighborhood under either strategy).
fn measure_hierarchy(scale: Scale, scale_name: &'static str, count: usize) -> HierarchyReport {
    let scenario = Scenario::new(scale, 0x5EED);
    let net = &scenario.net;
    let max_miles = scenario.max_query_miles() as f64;
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    let queries: Vec<QuerySpec> = sample_pairs(net, count, max_miles / 2.0, max_miles, 0xF19)
        .expect("sampling succeeds")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect();

    let flat = Engine::new(net, EngineConfig::default());
    let ch = HierarchyEngine::build(net, EngineConfig::default(), HierarchyConfig::default())
        .expect("hierarchy builds");
    let build = ch.report().clone();

    let (flat_allfp, flat_singlefp) = clock_backend(&flat, &queries);
    let (ch_allfp, ch_singlefp) = clock_backend(&ch, &queries);
    HierarchyReport {
        scale: scale_name,
        preprocess_wall_seconds: build.build_wall.as_secs_f64(),
        n_nodes: build.n_nodes,
        n_shortcuts: build.n_shortcuts,
        n_disabled: build.n_disabled,
        overlay_pieces: build.overlay_pieces,
        overlay_bytes: build.bytes_estimate,
        queries: queries.len(),
        flat_singlefp,
        ch_singlefp,
        flat_allfp,
        ch_allfp,
    }
}

/// One point on the parallel-contraction scaling curve.
struct ContractionPoint {
    threads: usize,
    preprocess_wall_seconds: f64,
    /// Wall speedup versus the 1-thread build of the same network.
    speedup_vs_serial: f64,
    /// `"scheduler_noise"` when `threads > host_cpus` — the point
    /// measures contention, not scaling.
    annotation: &'static str,
}

/// Thread counts swept by the contraction scaling curve.
const CONTRACTION_SWEEP: [usize; 3] = [1, 2, 4];

/// Build the hierarchy at each swept thread count on a fresh Medium
/// scenario and record preprocessing wall times. Determinism of the
/// produced overlay across widths is pinned by the fp-hierarchy test
/// suite; this measures only the wall-clock payoff.
fn measure_contraction_sweep(scale: Scale) -> Vec<ContractionPoint> {
    let scenario = Scenario::new(scale, 0x5EED);
    let net = &scenario.net;
    let walls: Vec<(usize, f64)> = CONTRACTION_SWEEP
        .iter()
        .map(|&threads| {
            let config = HierarchyConfig {
                threads,
                ..HierarchyConfig::default()
            };
            let start = Instant::now();
            let ch = HierarchyEngine::build(net, EngineConfig::default(), config)
                .expect("hierarchy builds");
            let wall = start.elapsed().as_secs_f64();
            black_box(ch.report().n_shortcuts);
            (threads, wall)
        })
        .collect();
    let serial_wall = walls[0].1;
    walls
        .into_iter()
        .map(|(threads, wall)| ContractionPoint {
            threads,
            preprocess_wall_seconds: wall,
            speedup_vs_serial: serial_wall / wall.max(1e-12),
            annotation: sweep_annotation(threads),
        })
        .collect()
}

/// The checked-in report, relative to `crates/bench`.
const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

/// `expanded_paths` of `--smoke`'s own serial passes as (allFP,
/// singleFP): the flat engine on its 12 metro-small queries, the
/// hierarchy on the 12 metro-medium queries of its race. The report
/// records them; the smoke fails when an allFP count, a `minTimeLB`
/// count or a hierarchy count exceeds its record.
struct SmokeCounters {
    flat: (usize, usize),
    /// The flat engine under `EstimatorKind::MinTime`.
    min_time: (usize, usize),
    ch: (usize, usize),
    /// [`measure_allocs`]' bytes per query on the flat pass's workload.
    alloc_bytes_per_query: usize,
}

/// [`SmokeCounters::alloc_bytes_per_query`] at the commit before the
/// search workspace was pooled, when every query allocated three
/// `n_nodes`-long vectors. The report records it beside the current
/// figure, and the smoke fails above half of it.
const ALLOC_BYTES_PER_QUERY_PARENT: usize = 160_780;

/// `--smoke`'s flat pass under the min-time estimator: the same
/// metro-small x12 workload as the naive-bound pass.
fn min_time_counts(net: &RoadNetwork, queries: &[QuerySpec]) -> (usize, usize) {
    let config = EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    };
    let engine = Engine::for_network(net, config).expect("estimator builds");
    expansion_counts(&engine, queries)
}

/// The count recorded under `key` in the checked-in report.
fn recorded_count(key: &str) -> Option<usize> {
    let json = std::fs::read_to_string(REPORT_PATH).ok()?;
    let key = format!("\"{key}\": ");
    let digits = &json[json.find(&key)? + key.len()..];
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// Minimal JSON rendering (no serde in the workspace).
#[allow(clippy::too_many_arguments)]
fn to_json(
    rows: &[Measured],
    sweep: &[SweepPoint],
    speedup_cache: f64,
    checksum: &ChecksumOverhead,
    alloc: &AllocProfile,
    kernel_allocs: u64,
    overload: &fpbench::overload::OverloadReport,
    live: &fpbench::live_update::LiveUpdateReport,
    cluster: &[fpbench::cluster::ClusterReport],
    hierarchy: &HierarchyReport,
    smoke: &SmokeCounters,
    contraction: &[ContractionPoint],
    huge: &fpbench::metro_huge::MetroHugeReport,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"engine_hotpath\",\n");
    out.push_str("  \"workload\": \"fig9 morning rush, metro-medium, allFP\",\n");
    out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    out.push_str(
        "  \"note\": \"batch speedups are bounded by host_cpus; on a single-core host \
         the sweep measures scheduler overhead, not scaling\",\n",
    );
    out.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"wall_seconds\": {:.6}, \
             \"expanded_paths\": {}, \"singlefp_expanded_paths\": {}, \
             \"expansions_per_sec\": {:.1}, \"queries_per_sec\": {:.2}}}{}\n",
            r.name,
            r.queries,
            r.wall_seconds,
            r.expanded_paths,
            r.singlefp_expanded_paths,
            r.expansions_per_sec,
            r.queries_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"batch_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_seconds\": {:.6}, \"speedup_vs_serial\": {:.2}, \
             \"steals\": {}, \"cache_hit_rate\": {:.4}, \"annotation\": \"{}\"}}{}\n",
            p.threads,
            p.wall_seconds,
            p.speedup_vs_serial,
            p.steals,
            p.cache_hit_rate,
            p.annotation,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"speedup_cache_on_vs_off\": {speedup_cache:.2},\n"
    ));
    out.push_str(&format!(
        "  \"checksum_overhead\": {{\"reps\": {CHECKSUM_REPS}, \"plain_wall_seconds\": {:.6}, \
         \"checksummed_wall_seconds\": {:.6}, \"overhead_ratio\": {:.4}, \
         \"overhead_ratio_mad\": {:.4}, \"budget\": {CHECKSUM_BUDGET}, \"faults\": {}, \
         \"verified_reads\": {}, \"corruptions\": {}, \
         \"note\": \"walls and ratio are medians over interleaved cold-cache reps; the gate is \
         verified_reads == faults and corruptions == 0, the wall only fails beyond budget + 2 MAD\"}},\n",
        checksum.plain_wall_seconds,
        checksum.checksummed_wall_seconds,
        checksum.overhead_ratio,
        checksum.ratio_mad,
        checksum.faults,
        checksum.verified_reads,
        checksum.corruptions,
    ));
    out.push_str(&format!(
        "  \"overload\": {{\"seed\": {}, \"submissions\": {}, \"offered_ratio\": {:.1}, \
         \"queue_capacity\": {}, \"queue_depth_high_water\": {}, \"admitted\": {}, \
         \"rejected\": {}, \"answered\": {}, \"degraded\": {}, \"shed\": {}, \
         \"goodput_ratio\": {:.4}, \"reconciled\": {}, \"deterministic\": {}, \
         \"note\": \"seeded 2x open-loop overload in virtual time; goodput is the \
         fraction of capacity kept on useful work while shedding the excess\"}},\n",
        overload.seed,
        overload.submissions,
        overload.offered_ratio,
        overload.queue_capacity,
        overload.queue_depth_high_water,
        overload.admitted,
        overload.rejected,
        overload.answered,
        overload.degraded,
        overload.shed,
        overload.goodput_ratio,
        overload.reconciled,
        overload.deterministic,
    ));
    out.push_str(&format!(
        "  \"live_update\": {{\"seed\": {}, \"scale\": \"{}\", \"n_edges\": {},          \"delta_edges\": {}, \"shortcuts_total\": {}, \"shortcuts_rebuilt\": {},          \"invalidation_fraction\": {:.4}, \"refresh_wall_seconds\": {:.4},          \"build_wall_seconds\": {:.3}, \"submissions\": {}, \"updates_applied\": {},          \"epochs_published\": {}, \"epochs_retired\": {}, \"goodput_ratio\": {:.4},          \"reconciled\": {}, \"deterministic\": {},          \"note\": \"seeded ~1%-of-edges delta on the exact-storage metro-medium          hierarchy (scoped invalidation: rebuilt fraction gated < 0.20) plus a          virtual-time 2x-overload storm with concurrent epoch swaps (goodput gated          >= 0.5)\"}},\n",
        live.seed,
        live.scale,
        live.n_edges,
        live.delta_edges,
        live.shortcuts_total,
        live.shortcuts_rebuilt,
        live.invalidation_fraction,
        live.refresh_wall_seconds,
        live.build_wall_seconds,
        live.submissions,
        live.updates_applied,
        live.epochs_published,
        live.epochs_retired,
        live.goodput_ratio,
        live.reconciled,
        live.deterministic,
    ));
    out.push_str("  \"cluster\": [\n");
    for (i, c) in cluster.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"seed\": {}, \"sim_nodes\": {}, \"shards\": {}, \
             \"submissions\": {}, \"admitted\": {}, \"rejected\": {}, \"answered\": {}, \
             \"degraded\": {}, \"failed\": {}, \"cancelled\": {}, \"unroutable\": {}, \
             \"crashes\": {}, \"restarts\": {}, \"rpc_attempts\": {}, \"rpc_retries\": {}, \
             \"rpc_timeouts\": {}, \"rpc_peer_down\": {}, \"breaker_skips\": {}, \
             \"replica_failovers\": {}, \"routed_failovers\": {}, \
             \"failover_latency_mean\": {:.1}, \"failover_latency_max\": {}, \
             \"goodput\": {:.4}, \"reconciled\": {}, \"deterministic\": {}}}{}\n",
            c.scenario,
            c.seed,
            c.sim_nodes,
            c.shards,
            c.submissions,
            c.admitted,
            c.rejected,
            c.answered,
            c.degraded,
            c.failed,
            c.cancelled,
            c.unroutable,
            c.crashes,
            c.restarts,
            c.rpc.attempts,
            c.rpc.retries,
            c.rpc.timeouts,
            c.rpc.peer_down,
            c.rpc.breaker_skips,
            c.rpc.failovers,
            c.routed_failovers,
            c.failover_latency_mean,
            c.failover_latency_max,
            c.goodput,
            c.reconciled,
            c.deterministic,
            if i + 1 < cluster.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"cluster_note\": \"partition-sharded fleet in deterministic simulation: the \
         chaos twin composes 2x overload with a crash/restart, a partition storm, RPC \
         latency spikes and live deltas; node-loss holds one shard owner down (goodput \
         gated >= 0.5); surviving answers are pinned bit-identical to a single-node \
         oracle by the fp-cluster test suites\",\n",
    );
    out.push_str(&format!(
        "  \"alloc\": {{\"allocs_per_expansion\": {:.2}, \"bytes_per_query\": {:.0}, \
         \"kernel_steady_state_allocs\": {kernel_allocs}, \
         \"note\": \"counting global allocator over a warm width-1 batch; kernel loop \
         (compose + envelope merge on pooled scratch) must stay at 0\"}},\n",
        alloc.allocs_per_expansion, alloc.bytes_per_query,
    ));
    out.push_str(&format!(
        "  \"hierarchy\": {{\"scale\": \"{}\", \"preprocess_wall_seconds\": {:.3}, \
         \"n_nodes\": {}, \"n_shortcuts\": {}, \"n_disabled\": {}, \"overlay_pieces\": {}, \
         \"overlay_bytes\": {}, \"queries\": {}, \"warm_passes\": {WARM_PASSES}, \
         \"singlefp_flat\": {}, \"singlefp_ch\": {}, \"allfp_flat\": {}, \"allfp_ch\": {}, \
         \"expansion_speedup\": {:.1}, \"wall_speedup\": {:.2}, \"allfp_wall_speedup\": {:.2}, \
         \"note\": \"serial morning-rush workload, each mode of each backend as a first pass \
         then the median +- MAD of warm_passes further ones (queries per second), with the \
         expanded_paths of one pass and the bytes a warm pass allocates per query; \
         expansion_speedup (singleFP) is the machine-independent gate metric, wall_speedup \
         (singleFP) and allfp_wall_speedup are ratios of warm medians, the former gated at 3x on \
         medium by --smoke; overlay_bytes is one exact one-day function per arc at 24 bytes \
         a piece\"}},\n",
        hierarchy.scale,
        hierarchy.preprocess_wall_seconds,
        hierarchy.n_nodes,
        hierarchy.n_shortcuts,
        hierarchy.n_disabled,
        hierarchy.overlay_pieces,
        hierarchy.overlay_bytes,
        hierarchy.queries,
        hierarchy.flat_singlefp.to_json(),
        hierarchy.ch_singlefp.to_json(),
        hierarchy.flat_allfp.to_json(),
        hierarchy.ch_allfp.to_json(),
        hierarchy.expansion_speedup(),
        hierarchy.wall_speedup(),
        hierarchy.allfp_wall_speedup(),
    ));
    out.push_str(&format!(
        "  \"smoke_counters\": {{\"flat_allfp_expanded\": {}, \"flat_singlefp_expanded\": {}, \
         \"mintime_allfp_expanded\": {}, \"mintime_singlefp_expanded\": {}, \
         \"ch_allfp_expanded\": {}, \"ch_singlefp_expanded\": {}, \
         \"alloc_bytes_per_query_parent\": {ALLOC_BYTES_PER_QUERY_PARENT}, \
         \"alloc_bytes_per_query\": {}, \
         \"note\": \"expanded_paths of --smoke's serial passes (flat under naiveLB and under \
         minTimeLB: metro-small x12, ch: metro-medium x12); --smoke fails when an allFP, a \
         minTimeLB or a ch count exceeds the one recorded here; alloc_bytes_per_query is the warm \
         width-1 batch of the naiveLB pass under the counting allocator, _parent the same \
         before the search workspace was pooled, and --smoke fails above half of _parent\"}},\n",
        smoke.flat.0,
        smoke.flat.1,
        smoke.min_time.0,
        smoke.min_time.1,
        smoke.ch.0,
        smoke.ch.1,
        smoke.alloc_bytes_per_query,
    ));
    out.push_str("  \"contraction_sweep\": [\n");
    for (i, p) in contraction.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"preprocess_wall_seconds\": {:.3}, \
             \"speedup_vs_serial\": {:.2}, \"annotation\": \"{}\"}}{}\n",
            p.threads,
            p.preprocess_wall_seconds,
            p.speedup_vs_serial,
            p.annotation,
            if i + 1 < contraction.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"metro_huge\": {{\"tier\": \"{}\", \"n_nodes\": {}, \"data_pages\": {}, \
         \"total_pages\": {}, \"graph_bytes\": {}, \"transient_build_bytes\": {}, \
         \"peak_rss_bytes\": {}, \"deterministic\": {}, \"store\": \"{}\", \
         \"pool_frames\": {}, \"estimator\": {{\"kind\": \"minTimeLB\", \
         \"wall_seconds\": {:.3}, \"bytes\": {}}}, \"queries\": {}, \"query_failures\": {}, \
         \"warm_passes\": {WARM_PASSES}, \"allfp\": {}, \"singlefp\": {}, \
         \"io\": {{\"reads\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \
         \"mmap_faults\": {}}}, \"build_sweep\": [{}], \
         \"note\": \"continental tier bulk-built straight from the lazy generator \
         (builder transient bytes are the analytic peak of its scratch, gated well \
         under the graph bytes; peak_rss is the whole process high water), served \
         through the mmap store with pool frames << graph pages: allFP then singleFP, each \
         as a first pass (allFP's is the cold one: every page fault is in it) then the \
         median +- MAD of warm_passes further ones\"}}\n",
        huge.tier,
        huge.n_nodes,
        huge.data_pages,
        huge.total_pages,
        huge.graph_bytes,
        huge.transient_build_bytes,
        huge.peak_rss_bytes,
        huge.deterministic,
        huge.store_kind,
        huge.pool_frames,
        huge.estimator_wall_seconds,
        huge.estimator_bytes,
        huge.queries,
        huge.allfp.failures + huge.singlefp.failures,
        huge.allfp.to_json(),
        huge.singlefp.to_json(),
        huge.io_reads,
        huge.io_bytes_read,
        huge.io_bytes_written,
        huge.mmap_faults,
        huge.build_sweep
            .iter()
            .map(|p| format!(
                "{{\"threads\": {}, \"wall_seconds\": {:.3}, \"speedup_vs_serial\": {:.2}, \
                 \"annotation\": \"{}\"}}",
                p.threads,
                p.wall_seconds,
                p.speedup_vs_serial,
                sweep_annotation(p.threads),
            ))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str("}\n");
    out
}

/// Time one batch width (warm-up + averaged reps), keeping the stats of
/// the last rep.
fn measure_batch(
    engine: &Engine<'_, RoadNetwork>,
    queries: &[QuerySpec],
    threads: usize,
) -> (f64, BatchStats) {
    let cancel = CancelToken::new();
    let _ = run_batch(engine, queries, threads, &cancel);
    let reps = 3;
    let start = Instant::now();
    let mut stats = BatchStats::default();
    for _ in 0..reps {
        let (_, s) = run_batch(engine, queries, threads, &cancel);
        stats = s;
    }
    (start.elapsed().as_secs_f64() / f64::from(reps), stats)
}

/// Measure the report configurations and write `BENCH_engine.json`.
fn emit_report() {
    // Medium metro (a few thousand nodes): per-config wall time is
    // tens of milliseconds to seconds, far above timer noise, where
    // the Small x8 workload of the first cut sat at single-digit ms.
    let scenario = Scenario::new(Scale::Medium, 0x5EED);
    let net = &scenario.net;
    let queries = workload(net, 24);

    let plain = Engine::new(net, uncached());
    let cached = Engine::new(net, EngineConfig::default());

    let rows = vec![
        measure("serial cache-off", &plain, &queries, |qs| {
            qs.iter().map(|q| plain.all_fastest_paths(q)).collect()
        }),
        measure("serial cache-on", &cached, &queries, |qs| {
            qs.iter().map(|q| cached.all_fastest_paths(q)).collect()
        }),
    ];
    let serial_wall = rows[1].wall_seconds;
    let sweep: Vec<SweepPoint> = THREAD_SWEEP
        .iter()
        .map(|&threads| {
            let (wall, stats) = measure_batch(&cached, &queries, threads);
            SweepPoint {
                threads,
                wall_seconds: wall,
                speedup_vs_serial: serial_wall / wall,
                steals: stats.steals,
                cache_hit_rate: stats.cache_hit_rate(),
                annotation: sweep_annotation(threads),
            }
        })
        .collect();
    let speedup_cache = rows[0].wall_seconds / rows[1].wall_seconds;
    let checksum = measure_checksum_overhead(net, &queries);
    let alloc = measure_allocs(&cached, &queries);
    let kernel_allocs = kernel_steady_state_allocs();
    let overload = fpbench::overload::run(0x5EED, 100);
    let live = fpbench::live_update::run(0x5EED, 100, 8);
    let cluster = [
        fpbench::cluster::run_chaos(fpbench::cluster::CHAOS_SEED),
        fpbench::cluster::run_node_loss(fpbench::cluster::NODE_LOSS_SEED),
    ];
    // The paper-magnitude network ("metro-large"): this is where the
    // ≥10x preprocessing claim is measured and recorded.
    let hierarchy = measure_hierarchy(Scale::Full, "full", 24);
    let smoke = {
        let small = Scenario::new(Scale::Small, 0x5EED);
        let flat = Engine::new(&small.net, EngineConfig::default());
        let queries = workload(&small.net, 12);
        let h = measure_hierarchy(Scale::Medium, "medium", 12);
        SmokeCounters {
            flat: expansion_counts(&flat, &queries),
            min_time: min_time_counts(&small.net, &queries),
            ch: (h.ch_allfp.expanded_paths, h.ch_singlefp.expanded_paths),
            alloc_bytes_per_query: measure_allocs(&flat, &queries).bytes_per_query as usize,
        }
    };
    // The contraction scaling curve builds the Medium hierarchy once
    // per width — cheap enough for the report, and scaling behaviour
    // is width-, not scale-, dependent.
    let contraction = measure_contraction_sweep(Scale::Medium);
    // The million-node continental tier: bulk-built straight from the
    // lazy generator (never materialized), parallel-build sweep with a
    // byte-identity check, then the fig9 workload served through the
    // mmap store under the min-time estimator.
    let huge = fpbench::metro_huge::run(&ContinentalConfig::metro_huge(0x5EED), "metro-huge", 24);
    let json = to_json(
        &rows,
        &sweep,
        speedup_cache,
        &checksum,
        &alloc,
        kernel_allocs,
        &overload,
        &live,
        &cluster,
        &hierarchy,
        &smoke,
        &contraction,
        &huge,
    );

    match std::fs::write(REPORT_PATH, &json) {
        Ok(()) => println!("wrote {REPORT_PATH}"),
        Err(e) => eprintln!("could not write {REPORT_PATH}: {e}"),
    }
    print!("{json}");
}

/// `--smoke`: fast correctness + gross-regression gate for CI.
///
/// Exits non-zero if any swept batch width diverges from the serial
/// answers, if the batch roll-up loses lookups, or if `run_batch` at
/// a width the host can actually run in parallel costs a gross
/// multiple of the serial loop. Widths that oversubscribe the host
/// (threads > cores) measure scheduler contention, not scaling: their
/// wall times are printed with a `scheduler_noise` annotation and
/// never counted as regressions — on the 1-core bench host every
/// multi-thread point is such a point. When the host actually has
/// ≥ 4 cores, 4 threads must also deliver ≥ 1.5x over serial (the
/// scaling target this machinery exists for). The hierarchy gate
/// (preprocessing must buy ≥ 10x less singleFP expansion work) runs
/// at the end; its wall-clock twin applies only on multi-core hosts.
fn smoke() -> i32 {
    // Generous on a single-core host, where even the 1-thread batch
    // sits atop timer noise on a small workload.
    let max_overhead: f64 = if host_cpus() > 1 { 2.0 } else { 3.0 };
    const TARGET_SPEEDUP: f64 = 1.5;

    let scenario = Scenario::new(Scale::Small, 0x5EED);
    let net = &scenario.net;
    let queries = workload(net, 12);
    let engine = Engine::new(net, EngineConfig::default());

    let serial: Vec<_> = queries
        .iter()
        .map(|q| engine.all_fastest_paths(q))
        .collect();
    // Best-of-3: the gate compares achievable costs, not scheduler luck.
    let serial_wall = (0..3)
        .map(|_| {
            let start = Instant::now();
            for q in &queries {
                let _ = engine.all_fastest_paths(q);
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let mut failures = 0;
    let cancel = CancelToken::new();
    for threads in THREAD_SWEEP {
        let (batch, stats) = run_batch(&engine, &queries, threads, &cancel);
        let wall = (0..3)
            .map(|_| {
                let start = Instant::now();
                let _ = run_batch(&engine, &queries, threads, &cancel);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);

        for (i, (s, b)) in serial.iter().zip(batch.iter()).enumerate() {
            let same = match (s, b) {
                (Ok(s), Ok(QueryOutcome::Exact(b))) => {
                    s.partition.len() == b.partition.len()
                        && s.partition.iter().zip(b.partition.iter()).all(|(x, y)| {
                            x.0.approx_eq(&y.0) && s.paths[x.1].nodes == b.paths[y.1].nodes
                        })
                }
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !same {
                eprintln!("SMOKE FAIL: query {i} diverges from serial at {threads} threads");
                failures += 1;
            }
        }
        if stats.total_queries() != queries.len() {
            eprintln!(
                "SMOKE FAIL: {} threads processed {} of {} queries",
                threads,
                stats.total_queries(),
                queries.len()
            );
            failures += 1;
        }
        if stats.cache_lookups != stats.cache_hits + stats.cache_misses {
            eprintln!("SMOKE FAIL: batch roll-up lost lookups at {threads} threads");
            failures += 1;
        }
        let ratio = wall / serial_wall;
        let annotation = sweep_annotation(threads);
        println!(
            "smoke: {threads} threads, wall {wall:.4}s, {:.2}x serial, {} steals{}{}",
            1.0 / ratio,
            stats.steals,
            if annotation.is_empty() { "" } else { " " },
            annotation,
        );
        if ratio > max_overhead {
            if annotation.is_empty() {
                eprintln!(
                    "SMOKE FAIL: run_batch at {threads} threads took {ratio:.2}x the serial loop \
                     (limit {max_overhead}x)"
                );
                failures += 1;
            } else {
                // Oversubscribed width on this host: slow is expected,
                // wrong answers (checked above) would not be.
                println!(
                    "smoke: note: {threads} threads on a {}-core host ran {ratio:.2}x serial \
                     ({annotation}, not a regression)",
                    host_cpus()
                );
            }
        }
        if threads == 4 && host_cpus() >= 4 && serial_wall / wall < TARGET_SPEEDUP {
            eprintln!(
                "SMOKE FAIL: {} cores available but 4 threads give only {:.2}x over serial \
                 (target {TARGET_SPEEDUP}x)",
                host_cpus(),
                serial_wall / wall
            );
            failures += 1;
        }
    }
    // Allocation gates. Strict zero for the pooled kernels: the
    // steady-state compose + envelope-merge loop must never touch the
    // heap once the scratch pool is warm. The whole-engine number is a
    // budget, not a zero: answer materialization and arena growth
    // legitimately allocate and amortize over the dozens-to-hundreds
    // of expansions per query — the budget trips when someone
    // reintroduces per-expansion allocations into the inner loop
    // (measured ~1.0 on this workload). The bytes gate is the pooled
    // search workspace's: per-query state proportional to the network
    // would put the figure back above half of what it was before.
    const MAX_ALLOCS_PER_EXPANSION: f64 = 6.0;
    let kernel_allocs = kernel_steady_state_allocs();
    println!("smoke: pooled-kernel steady-state allocations: {kernel_allocs} (must be 0)");
    if kernel_allocs != 0 {
        eprintln!(
            "SMOKE FAIL: pooled PWL kernels allocated {kernel_allocs} time(s) in the warm loop"
        );
        failures += 1;
    }
    let alloc = measure_allocs(&engine, &queries);
    println!(
        "smoke: {:.2} allocs/expansion, {:.0} bytes/query (budget {MAX_ALLOCS_PER_EXPANSION} allocs/expansion)",
        alloc.allocs_per_expansion, alloc.bytes_per_query
    );
    if alloc.allocs_per_expansion > MAX_ALLOCS_PER_EXPANSION {
        eprintln!(
            "SMOKE FAIL: engine allocates {:.2} times per expansion (budget {MAX_ALLOCS_PER_EXPANSION})",
            alloc.allocs_per_expansion
        );
        failures += 1;
    }
    if 2.0 * alloc.bytes_per_query > ALLOC_BYTES_PER_QUERY_PARENT as f64 {
        eprintln!(
            "SMOKE FAIL: engine allocates {:.0} bytes per query, more than half of the \
             {ALLOC_BYTES_PER_QUERY_PARENT} it did with per-query node vectors",
            alloc.bytes_per_query
        );
        failures += 1;
    }

    // Checksum gates: every fault of the checksummed stack is verified
    // exactly once and nothing is corrupt (counts, exact on any host);
    // the wall cost is a median of interleaved reps and fails only
    // beyond its own spread. Cold caches every pass, so verification
    // actually runs.
    let checksum = measure_checksum_overhead(net, &queries);
    println!(
        "smoke: checksum overhead {:.2}% ± {:.2}% over {CHECKSUM_REPS} reps (plain {:.4}s, checksummed {:.4}s, \
         budget {:.0}%); {} faults, {} verified reads, {} corruptions",
        (checksum.overhead_ratio - 1.0) * 100.0,
        checksum.ratio_mad * 100.0,
        checksum.plain_wall_seconds,
        checksum.checksummed_wall_seconds,
        (CHECKSUM_BUDGET - 1.0) * 100.0,
        checksum.faults,
        checksum.verified_reads,
        checksum.corruptions,
    );
    for failure in checksum.failures() {
        eprintln!("SMOKE FAIL: {failure}");
        failures += 1;
    }

    // Overload gates: the seeded 2x overload scenario must replay
    // deterministically, keep its queue bounded, balance its books,
    // and hold goodput while shedding — the service-level promises the
    // admission/shedding machinery exists for.
    const MIN_GOODPUT: f64 = 0.4;
    let ov = fpbench::overload::run(0x5EED, 100);
    println!(
        "smoke: overload {}/{} admitted, {} rejected, {} shed, goodput {:.2}, hiwater {}/{}",
        ov.admitted,
        ov.submissions,
        ov.rejected,
        ov.shed,
        ov.goodput_ratio,
        ov.queue_depth_high_water,
        ov.queue_capacity
    );
    if !ov.reconciled {
        eprintln!("SMOKE FAIL: overload stats do not reconcile: {ov:?}");
        failures += 1;
    }
    if !ov.deterministic {
        eprintln!("SMOKE FAIL: overload scenario did not replay identically");
        failures += 1;
    }
    if ov.queue_depth_high_water > ov.queue_capacity {
        eprintln!(
            "SMOKE FAIL: overload queue reached {} past its bound {}",
            ov.queue_depth_high_water, ov.queue_capacity
        );
        failures += 1;
    }
    if ov.rejected == 0 || ov.shed == 0 {
        eprintln!("SMOKE FAIL: 2x overload never rejected/shed — the scenario lost its teeth");
        failures += 1;
    }
    if ov.goodput_ratio < MIN_GOODPUT {
        eprintln!(
            "SMOKE FAIL: overload goodput {:.2} under {MIN_GOODPUT}",
            ov.goodput_ratio
        );
        failures += 1;
    }

    // Live-update gates: the update storm must replay deterministically
    // and keep goodput >= 0.5 while epochs swap under it, and a
    // ~1%-of-edges delta must invalidate < 20% of the metro-medium
    // shortcut arcs (the scoped-invalidation promise).
    const MIN_LIVE_GOODPUT: f64 = 0.5;
    const MAX_INVALIDATION: f64 = 0.20;
    let lu = fpbench::live_update::run(0x5EED, 100, 8);
    println!(
        "smoke: live update {} deltas, {}/{} shortcuts rebuilt ({:.1}%), refresh {:.3}s          (full build {:.3}s), goodput {:.2}",
        lu.updates_applied,
        lu.shortcuts_rebuilt,
        lu.shortcuts_total,
        lu.invalidation_fraction * 100.0,
        lu.refresh_wall_seconds,
        lu.build_wall_seconds,
        lu.goodput_ratio
    );
    if !lu.reconciled {
        eprintln!("SMOKE FAIL: live-update stats do not reconcile: {lu:?}");
        failures += 1;
    }
    if !lu.deterministic {
        eprintln!("SMOKE FAIL: update storm did not replay identically");
        failures += 1;
    }
    if lu.invalidation_fraction >= MAX_INVALIDATION {
        eprintln!(
            "SMOKE FAIL: 1% delta invalidated {:.1}% of shortcuts (gate {:.0}%)",
            lu.invalidation_fraction * 100.0,
            MAX_INVALIDATION * 100.0
        );
        failures += 1;
    }
    if lu.goodput_ratio < MIN_LIVE_GOODPUT {
        eprintln!(
            "SMOKE FAIL: goodput under the update storm {:.2} under {MIN_LIVE_GOODPUT}",
            lu.goodput_ratio
        );
        failures += 1;
    }

    // Cluster gates: the sharded-fleet twins must replay bit-exactly,
    // reconcile their books, actually fire their robustness machinery
    // (retries, replica failovers), and hold goodput >= 0.5 with one
    // shard owner down — the promises `fp-cluster` exists for.
    const MIN_CLUSTER_GOODPUT: f64 = 0.5;
    let cc = fpbench::cluster::run_chaos(fpbench::cluster::CHAOS_SEED);
    println!(
        "smoke: cluster chaos {}/{} admitted over {} nodes/{} shards, {} answered, \
         {} rpc attempts ({} retries, {} failovers), goodput {:.2}",
        cc.admitted,
        cc.submissions,
        cc.sim_nodes,
        cc.shards,
        cc.answered,
        cc.rpc.attempts,
        cc.rpc.retries,
        cc.rpc.failovers,
        cc.goodput,
    );
    if !cc.reconciled {
        eprintln!("SMOKE FAIL: cluster chaos stats do not reconcile: {cc:?}");
        failures += 1;
    }
    if !cc.deterministic {
        eprintln!("SMOKE FAIL: cluster chaos scenario did not replay identically");
        failures += 1;
    }
    if cc.rpc.retries == 0 || cc.rpc.failovers == 0 {
        eprintln!("SMOKE FAIL: cluster chaos never retried/failed over — the storm lost its teeth");
        failures += 1;
    }
    let cl = fpbench::cluster::run_node_loss(fpbench::cluster::NODE_LOSS_SEED);
    println!(
        "smoke: cluster node-loss {} crash / {} restarts, {} answered, {} unroutable, \
         goodput {:.2} (floor {MIN_CLUSTER_GOODPUT})",
        cl.crashes, cl.restarts, cl.answered, cl.unroutable, cl.goodput,
    );
    if !cl.reconciled || !cl.deterministic {
        eprintln!("SMOKE FAIL: cluster node-loss run not reconciled/deterministic: {cl:?}");
        failures += 1;
    }
    if cl.goodput < MIN_CLUSTER_GOODPUT {
        eprintln!(
            "SMOKE FAIL: cluster goodput {:.2} under {MIN_CLUSTER_GOODPUT} with one node down",
            cl.goodput
        );
        failures += 1;
    }

    // Hierarchy gate: contraction must buy back its preprocessing —
    // the overlay search does ≥ 10x less expansion work per singleFP
    // than flat search on the medium metro, and wins on the clock.
    // The wall ratio is gated on every host: both sides are medians of
    // serial warm passes in this one process, so a 3x floor under the
    // measured ratio is far outside scheduler noise even on one core.
    const MIN_EXPANSION_SPEEDUP: f64 = 10.0;
    // Measured ~8.8x on medium / ~1.8x on full with the bounds
    // restricted to the query's up–down search space.
    const MIN_WALL_SPEEDUP: f64 = 3.0;
    let h = measure_hierarchy(Scale::Medium, "medium", 12);
    println!(
        "smoke: hierarchy preprocess {:.2}s ({} shortcuts, {} pieces, ~{} KiB), \
         singleFP expansions flat {} vs ch {} ({:.1}x), warm q/s {:.0} ± {:.0} vs {:.0} ± {:.0} \
         ({:.2}x)",
        h.preprocess_wall_seconds,
        h.n_shortcuts,
        h.overlay_pieces,
        h.overlay_bytes / 1024,
        h.flat_singlefp.expanded_paths,
        h.ch_singlefp.expanded_paths,
        h.expansion_speedup(),
        h.flat_singlefp.warm_qps,
        h.flat_singlefp.warm_qps_mad,
        h.ch_singlefp.warm_qps,
        h.ch_singlefp.warm_qps_mad,
        h.wall_speedup(),
    );
    if h.expansion_speedup() < MIN_EXPANSION_SPEEDUP {
        eprintln!(
            "SMOKE FAIL: hierarchy singleFP saves only {:.1}x expansions \
             (target {MIN_EXPANSION_SPEEDUP}x)",
            h.expansion_speedup()
        );
        failures += 1;
    }
    if h.wall_speedup() < MIN_WALL_SPEEDUP {
        eprintln!(
            "SMOKE FAIL: hierarchy singleFP wall speedup {:.2}x under {MIN_WALL_SPEEDUP}x",
            h.wall_speedup()
        );
        failures += 1;
    }

    // Counters gate (ROADMAP 1b): search-space size is deterministic,
    // so a pruning rule that loses its teeth fails here on any host.
    let counters = SmokeCounters {
        flat: expansion_counts(&engine, &queries),
        min_time: min_time_counts(net, &queries),
        ch: (h.ch_allfp.expanded_paths, h.ch_singlefp.expanded_paths),
        alloc_bytes_per_query: alloc.bytes_per_query as usize,
    };
    println!(
        "smoke: expanded_paths allFP / singleFP: flat {} / {}, under minTimeLB {} / {} \
         (metro-small x{}), ch {} / {} (metro-medium x{})",
        counters.flat.0,
        counters.flat.1,
        counters.min_time.0,
        counters.min_time.1,
        queries.len(),
        counters.ch.0,
        counters.ch.1,
        h.queries,
    );
    for (key, got) in [
        ("flat_allfp_expanded", counters.flat.0),
        ("mintime_allfp_expanded", counters.min_time.0),
        ("mintime_singlefp_expanded", counters.min_time.1),
        ("ch_allfp_expanded", counters.ch.0),
        ("ch_singlefp_expanded", counters.ch.1),
    ] {
        let limit = recorded_count(key);
        if limit.is_none_or(|limit| got > limit) {
            eprintln!("SMOKE FAIL: {key} is {got}, BENCH_engine.json records {limit:?}");
            failures += 1;
        }
    }

    // Parallel-contraction gate: with ≥ 4 real cores, a 4-thread build
    // must finish ≥ 1.5x faster than the serial build of the same
    // network. Oversubscribed widths are annotated, never gated — on
    // the 1-core bench box every multi-thread point is noise.
    const MIN_CONTRACTION_SPEEDUP: f64 = 1.5;
    let contraction = measure_contraction_sweep(Scale::Medium);
    for p in &contraction {
        println!(
            "smoke: contraction {} thread(s): {:.3}s, {:.2}x serial{}{}",
            p.threads,
            p.preprocess_wall_seconds,
            p.speedup_vs_serial,
            if p.annotation.is_empty() { "" } else { " " },
            p.annotation,
        );
    }
    if host_cpus() >= 4 {
        if let Some(p4) = contraction.iter().find(|p| p.threads == 4) {
            if p4.speedup_vs_serial < MIN_CONTRACTION_SPEEDUP {
                eprintln!(
                    "SMOKE FAIL: {} cores available but 4-thread contraction gives only {:.2}x \
                     (target {MIN_CONTRACTION_SPEEDUP}x)",
                    host_cpus(),
                    p4.speedup_vs_serial
                );
                failures += 1;
            }
        }
    } else {
        println!(
            "smoke: note: contraction speedup not gated on a {}-core host (scheduler_noise)",
            host_cpus()
        );
    }

    // Metro-huge gates on the smoke continental tier (16 384 nodes):
    // the parallel bulk builder must be byte-deterministic across
    // {1,2,4} threads, its transient scratch must stay well under the
    // graph bytes (the bounded-memory promise, gated on the analytic
    // counter so a 1-core host can't flake it), and the mmap-served
    // fig9 workload must answer every query while actually faulting
    // pages in (unless the store fell back to FileStore, which the
    // equivalence suite pins to the same bytes anyway). Once the pass
    // has warmed the thread's estimator workspace, a fresh backward
    // search must not allocate — and a warm query must allocate less
    // than one byte per node of the network: its answer and whatever
    // its arenas grow by, nothing sized by the tier.
    let hu = fpbench::metro_huge::run(&ContinentalConfig::smoke(0x5EED), "smoke", 8);
    println!(
        "smoke: metro-huge smoke tier {} nodes, {} pages, build x{:?} deterministic={}, \
         transient {} KiB vs graph {} KiB, {} via {} ({} frames), {}/{} queries ok, \
         {} faults, {} reads, estimator {} KiB with {} warm allocations; allFP {} expansions, \
         {:.0} q/s cold, {:.0} ± {:.0} warm, {:.0} bytes/query; singleFP {} expansions, \
         {:.0} ± {:.0} q/s warm, {:.0} bytes/query",
        hu.n_nodes,
        hu.total_pages,
        fpbench::metro_huge::BUILD_SWEEP,
        hu.deterministic,
        hu.transient_build_bytes / 1024,
        hu.graph_bytes / 1024,
        hu.tier,
        hu.store_kind,
        hu.pool_frames,
        hu.queries - hu.allfp.failures,
        hu.queries,
        hu.mmap_faults,
        hu.io_reads,
        hu.estimator_bytes / 1024,
        hu.estimator_warm_allocs,
        hu.allfp.expanded_paths,
        hu.allfp.cold_qps,
        hu.allfp.warm_qps,
        hu.allfp.warm_qps_mad,
        hu.allfp.query_bytes,
        hu.singlefp.expanded_paths,
        hu.singlefp.warm_qps,
        hu.singlefp.warm_qps_mad,
        hu.singlefp.query_bytes,
    );
    for (mode, clocked) in [("allFP", &hu.allfp), ("singleFP", &hu.singlefp)] {
        if clocked.query_bytes >= hu.n_nodes as f64 {
            eprintln!(
                "SMOKE FAIL: a warm {mode} query on the {}-node tier allocates {:.0} bytes \
                 (gate: under one byte per node)",
                hu.n_nodes, clocked.query_bytes
            );
            failures += 1;
        }
    }
    if hu.estimator_warm_allocs != 0 {
        eprintln!(
            "SMOKE FAIL: the warm estimator allocated {} time(s) answering fresh targets",
            hu.estimator_warm_allocs
        );
        failures += 1;
    }
    if !hu.deterministic {
        eprintln!(
            "SMOKE FAIL: bulk build diverged across thread counts {:?}",
            { fpbench::metro_huge::BUILD_SWEEP }
        );
        failures += 1;
    }
    if hu.transient_build_bytes as u64 >= hu.graph_bytes {
        eprintln!(
            "SMOKE FAIL: bulk builder scratch peaked at {} bytes, not bounded under the \
             {}-byte graph",
            hu.transient_build_bytes, hu.graph_bytes
        );
        failures += 1;
    }
    if hu.allfp.failures + hu.singlefp.failures > 0 || hu.allfp.expanded_paths == 0 {
        eprintln!(
            "SMOKE FAIL: disk-served tier failed {} allFP and {} singleFP of {} queries \
             ({} expansions)",
            hu.allfp.failures, hu.singlefp.failures, hu.queries, hu.allfp.expanded_paths
        );
        failures += 1;
    }
    if hu.store_kind == "mmap" && hu.mmap_faults == 0 {
        eprintln!("SMOKE FAIL: mmap store served the workload without counting a single fault");
        failures += 1;
    }

    if failures == 0 {
        println!("smoke: ok ({} widths verified)", THREAD_SWEEP.len());
        0
    } else {
        eprintln!("smoke: {failures} failure(s)");
        1
    }
}

/// `--spin`: run the warm serial cache-on loop for ~5 seconds and
/// nothing else — a steady target for sampling profilers (the report
/// interleaves six configurations, so profiles of it mostly show the
/// cold-cache storage stacks).
fn spin() {
    let scenario = Scenario::new(Scale::Medium, 0x5EED);
    let net = &scenario.net;
    let queries = workload(net, 24);
    let cached = Engine::new(net, EngineConfig::default());
    let start = Instant::now();
    let mut reps = 0usize;
    while start.elapsed().as_secs_f64() < 5.0 {
        for q in &queries {
            std::hint::black_box(cached.all_fastest_paths(q).ok());
        }
        reps += 1;
    }
    println!(
        "spin: {reps} reps x {} queries in {:.2}s",
        queries.len(),
        start.elapsed().as_secs_f64()
    );
}

/// `--hier`: print the hierarchy-vs-flat race at both report scales
/// and nothing else — a focused probe for tuning the speedup gates.
fn hier_probe() {
    for (scale, name, count) in [(Scale::Medium, "medium", 12), (Scale::Full, "full", 24)] {
        let h = measure_hierarchy(scale, name, count);
        println!(
            "hier[{}]: preprocess {:.2}s, {} nodes, {} shortcuts ({} disabled), {} pieces \
             (~{} KiB stored); {} queries, flat vs ch: \
             singleFP {} vs {} expansions ({:.1}x), {:.1} ± {:.1} vs {:.1} ± {:.1} q/s ({:.2}x); \
             allFP {} vs {} expansions, {:.1} ± {:.1} vs {:.1} ± {:.1} q/s ({:.2}x)",
            h.scale,
            h.preprocess_wall_seconds,
            h.n_nodes,
            h.n_shortcuts,
            h.n_disabled,
            h.overlay_pieces,
            h.overlay_bytes / 1024,
            h.queries,
            h.flat_singlefp.expanded_paths,
            h.ch_singlefp.expanded_paths,
            h.expansion_speedup(),
            h.flat_singlefp.warm_qps,
            h.flat_singlefp.warm_qps_mad,
            h.ch_singlefp.warm_qps,
            h.ch_singlefp.warm_qps_mad,
            h.wall_speedup(),
            h.flat_allfp.expanded_paths,
            h.ch_allfp.expanded_paths,
            h.flat_allfp.warm_qps,
            h.flat_allfp.warm_qps_mad,
            h.ch_allfp.warm_qps,
            h.ch_allfp.warm_qps_mad,
            h.allfp_wall_speedup(),
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    if std::env::args().any(|a| a == "--hier") {
        hier_probe();
        return;
    }
    if std::env::args().any(|a| a == "--spin") {
        spin();
        return;
    }
    // Bare, or `--report`: rewrite BENCH_engine.json.
    emit_report();
}
