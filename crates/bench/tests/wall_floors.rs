//! Wall-clock floors: the gates that read a clock.
//!
//! One test in a binary of its own, so no sibling test shares the
//! process's cores while it measures (cargo runs test binaries one at a
//! time). Every floor sits far outside scheduler noise on a shared
//! host: the checksum ratio fails only beyond its own spread, and the
//! hierarchy race compares medians of warm passes in this one process.

use fpbench::hotpath::{fig9_rush, measure_checksum_overhead, measure_hierarchy};
use fpbench::{Scale, Scenario};

/// Checksummed wall over plain wall may be at most this, plus twice
/// the measured spread.
const CHECKSUM_BUDGET: f64 = 1.03;

/// The hierarchy's singleFP must beat the flat search under naiveLB by
/// this much on the clock (metro-medium).
const MIN_WALL_SPEEDUP: f64 = 3.0;

#[test]
fn wall_floors() {
    let mut failures = Vec::new();
    let small = Scenario::new(Scale::Small, 0x5EED);
    let queries = fig9_rush(&small.net, 12);

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
