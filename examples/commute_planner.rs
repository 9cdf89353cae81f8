//! Commute planner: allFP over a synthetic metro during morning rush.
//!
//! Run with `cargo run --release --example commute_planner`.
//!
//! Generates the Suffolk-like metro network (reduced scale for a quick
//! run), picks a suburb→downtown commute, and asks: "I can leave any
//! time between 6:30 and 9:30 — which route should I take when?" It
//! then shows what the min-time estimator (the engine's default) buys
//! in search effort over the paper's naive one. The paper's
//! boundary-node estimator (§5) is measured by
//! `cargo run --release -p fp-bench --bin experiments -- fig9`.

use fastest_paths::prelude::*;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;

fn main() {
    let cfg = MetroConfig::small(2026);
    let net = suffolk_like(&cfg).expect("generator succeeds");
    println!("metro network:\n{}", roadnet::NetworkStats::of(&net));

    // A commute: suburb (far from center) to downtown (near center).
    let pair = sample_pairs(&net, 50, 1.8, 2.6, 7)
        .expect("sampling succeeds")
        .into_iter()
        .map(|p| {
            // prefer pairs heading toward the core
            let t = net.point(p.target).expect("valid node");
            (t.x.hypot(t.y), p)
        })
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        .map(|(_, p)| p)
        .expect("at least one pair");
    println!(
        "commute: {} -> {} ({:.1} miles as the crow flies)",
        pair.source, pair.target, pair.euclidean
    );

    let query = QuerySpec::new(
        pair.source,
        pair.target,
        Interval::of(hm(6, 30), hm(9, 30)),
        DayCategory::WORKDAY,
    );

    // --- naive estimator ------------------------------------------------------
    let naive = Engine::for_network(
        &net,
        EngineConfig {
            estimator: EstimatorKind::Naive,
            ..Default::default()
        },
    )
    .expect("estimator builds");
    let t0 = std::time::Instant::now();
    let ans = naive.all_fastest_paths(&query).expect("reachable");
    let naive_time = t0.elapsed();

    println!(
        "\nallFP over [6:30 - 9:30], {} distinct fastest paths:",
        ans.paths.len()
    );
    for (iv, idx) in &ans.partition {
        let p = &ans.paths[*idx];
        println!(
            "  leave [{} - {}]: {} hops, {} at the start of the window",
            fmt_minutes(iv.lo()),
            fmt_minutes(iv.hi()),
            p.n_edges(),
            fmt_duration(p.travel.eval(iv.lo())),
        );
    }
    println!(
        "\nnaiveLB:   {} paths expanded / {} nodes, {:?}",
        ans.stats.expanded_paths, ans.stats.expanded_nodes, naive_time
    );

    // --- min-time estimator ---------------------------------------------------
    let min_time = Engine::for_network(
        &net,
        EngineConfig {
            estimator: EstimatorKind::MinTime,
            ..Default::default()
        },
    )
    .expect("estimator builds");
    let t0 = std::time::Instant::now();
    let ans_mt = min_time.all_fastest_paths(&query).expect("reachable");
    let mt_time = t0.elapsed();
    println!(
        "minTimeLB: {} paths expanded / {} nodes, {:?} (same {} sub-intervals)",
        ans_mt.stats.expanded_paths,
        ans_mt.stats.expanded_nodes,
        mt_time,
        ans_mt.partition.len()
    );

    // What would you lose by ignoring traffic? Drive the non-rush route
    // at the worst rush instant.
    let border = &ans.lower_border;
    let worst_l = {
        // maximize border over the interval by sampling its pieces
        let mut best = (query.interval.lo(), 0.0f64);
        for p in border.pieces() {
            for l in [p.interval.lo(), p.interval.hi()] {
                let v = border.eval(l);
                if v > best.1 {
                    best = (l, v);
                }
            }
        }
        best.0
    };
    println!(
        "\nworst-case smart travel time during the window: {} (leaving {})",
        fmt_duration(border.eval(worst_l)),
        fmt_minutes(worst_l)
    );
}
