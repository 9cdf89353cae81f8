//! Best departure time: singleFP vs the Discrete Time model.
//!
//! Run with `cargo run --release --example best_departure`.
//!
//! A courier can leave any time in a two-hour evening window. singleFP
//! answers "when should I leave, and which way?" exactly, in one
//! search. The Discrete Time baseline answers the same question by
//! running one classic A\* per probed instant — the example shows how
//! its accuracy and cost scale with the probing step (the paper's
//! Figure 10 in miniature).

use allfp::baseline::discrete_time;
use allfp::NaiveLb;
use fastest_paths::prelude::*;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;

fn main() {
    let net = suffolk_like(&MetroConfig::small(99)).expect("generator succeeds");
    // A cross-town trip: both endpoints well outside downtown, on
    // opposite sides, so every reasonable route crosses the congested
    // core or detours around it.
    let pair = sample_pairs(&net, 200, 2.5, 3.8, 31)
        .expect("sampling succeeds")
        .into_iter()
        .filter(|p| {
            let s = net.point(p.source).expect("valid node");
            let t = net.point(p.target).expect("valid node");
            let (rs, rt) = (s.x.hypot(s.y), t.x.hypot(t.y));
            // opposite sides: the segment between them passes near 0
            rs > 1.2 && rt > 1.2 && (s.x * t.x + s.y * t.y) < 0.0
        })
        .max_by(|a, b| a.euclidean.partial_cmp(&b.euclidean).expect("finite"))
        .expect("network is large enough");
    // Morning rush slows inbound highways and Boston locals 7–10am.
    // The window deliberately ends just past 10am: the best departures
    // are the final few minutes, a plateau that coarse discretization
    // steps straight over.
    let window = Interval::of(hm(8, 10), hm(10, 7));
    println!(
        "courier run {} -> {} ({:.1} mi euclidean), may leave [{} - {}]",
        pair.source,
        pair.target,
        pair.euclidean,
        fmt_minutes(window.lo()),
        fmt_minutes(window.hi())
    );

    let query = QuerySpec::new(pair.source, pair.target, window, DayCategory::WORKDAY);
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();

    let t0 = std::time::Instant::now();
    let exact = engine.single_fastest_path(&query).expect("reachable");
    let exact_elapsed = t0.elapsed();
    println!(
        "\nsingleFP (exact):  {} leaving [{} - {}]   ({} paths expanded, {:?})",
        fmt_duration(exact.travel_minutes),
        fmt_minutes(exact.best_leaving.lo()),
        fmt_minutes(exact.best_leaving.hi()),
        exact.stats.expanded_paths,
        exact_elapsed,
    );

    let lb = NaiveLb::new(net.max_speed());
    println!("\nDiscrete Time model at decreasing step sizes:");
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>12}",
        "step", "travel", "vs exact", "queries", "time"
    );
    for step in [60.0, 10.0, 1.0, 1.0 / 6.0] {
        let t0 = std::time::Instant::now();
        let d = discrete_time(
            &net,
            query.source,
            query.target,
            &query.interval,
            step,
            query.category,
            &lb,
        )
        .expect("reachable");
        let elapsed = t0.elapsed();
        println!(
            "{:>10} {:>12} {:>11.3}x {:>10} {:>12?}",
            fmt_duration(step),
            fmt_duration(d.travel_minutes),
            d.travel_minutes / exact.travel_minutes,
            d.queries,
            elapsed,
        );
    }
    println!("\nThe discrete model can only approach the exact answer by paying");
    println!("one full search per probe; singleFP gets it exactly in one pass.");
}
