//! Wall-clock floors: the gates that read a clock.
//!
//! One test in a binary of its own, so no sibling test shares the
//! process's cores while it measures (cargo runs test binaries one at a
//! time). Every floor sits far outside scheduler noise on a shared
//! host: batch overhead is best-of-3, the checksum ratio fails only
//! beyond its own spread, and the hierarchy race compares medians of
//! warm passes in this one process. Widths that oversubscribe the host
//! (threads > cores) measure contention, not scaling, and are not
//! timed; the 4-thread batch scaling floor runs only where the host has
//! 4 cores.

use std::time::Instant;

use allfp::{run_batch, CancelToken, Engine, EngineConfig};
use fpbench::clock::{host_cpus, sweep_annotation};
use fpbench::hotpath::{fig9_rush, measure_checksum_overhead, measure_hierarchy};
use fpbench::{Scale, Scenario};

/// Checksummed wall over plain wall may be at most this, plus twice
/// the measured spread.
const CHECKSUM_BUDGET: f64 = 1.03;

/// The hierarchy's singleFP must beat the flat search under naiveLB by
/// this much on the clock (metro-medium).
const MIN_WALL_SPEEDUP: f64 = 3.0;

/// Where the host has 4 cores, the batch driver at 4 threads must give
/// this much over serial.
const TARGET_SPEEDUP: f64 = 1.5;

/// The fastest of three runs of `work`, in seconds: the floors compare
/// achievable costs, not scheduler luck.
fn best_of_3(work: &dyn Fn()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn wall_floors() {
    let mut failures = Vec::new();
    let small = Scenario::new(Scale::Small, 0x5EED);
    let queries = fig9_rush(&small.net, 12);

    // The batch driver: no gross overhead over the serial loop at any
    // width the host can run (generous on a single core, where even
    // the 1-thread batch sits atop timer noise).
    let max_overhead = if host_cpus() > 1 { 2.0 } else { 3.0 };
    let engine = Engine::new(&small.net, EngineConfig::default()).unwrap();
    let serial = || {
        for q in &queries {
            let _ = engine.all_fastest_paths(q);
        }
    };
    serial();
    let serial_wall = best_of_3(&serial);
    let cancel = CancelToken::new();
    for threads in [1, 2, 4, 8] {
        if !sweep_annotation(threads).is_empty() {
            continue;
        }
        let batch = || drop(run_batch(&engine, &queries, threads, &cancel));
        batch();
        let wall = best_of_3(&batch);
        let ratio = wall / serial_wall;
        println!("batch: {threads} threads, {wall:.4} s, {ratio:.2}x the serial loop");
        if ratio > max_overhead {
            failures.push(format!(
                "run_batch at {threads} threads took {ratio:.2}x the serial loop \
                 (limit {max_overhead}x)"
            ));
        }
        if threads == 4 && 1.0 / ratio < TARGET_SPEEDUP {
            failures.push(format!(
                "{} cores available but 4 threads give only {:.2}x over serial \
                 (target {TARGET_SPEEDUP}x)",
                host_cpus(),
                1.0 / ratio
            ));
        }
    }

    // The checksum layer over cold caches, so verification runs.
    let c = measure_checksum_overhead(&small.net, &queries);
    println!("checksum: {c:?}");
    if c.overhead_ratio > CHECKSUM_BUDGET + 2.0 * c.ratio_mad {
        failures.push(format!(
            "checksum verification costs {:.3}x ± {:.3} the plain stack \
             (budget {CHECKSUM_BUDGET}x + 2 MAD)",
            c.overhead_ratio, c.ratio_mad
        ));
    }

    // Contraction buys back its preprocessing on the clock, too.
    let medium = Scenario::new(Scale::Medium, 0x5EED);
    let h = measure_hierarchy(&medium, 12);
    println!("{}", fpbench::hotpath::render(&h));
    if h.wall_speedup() < MIN_WALL_SPEEDUP {
        failures.push(format!(
            "hierarchy singleFP wall speedup {:.2}x under {MIN_WALL_SPEEDUP}x",
            h.wall_speedup()
        ));
    }

    assert!(failures.is_empty(), "{failures:#?}");
}
