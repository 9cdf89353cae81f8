//! Quickstart: the paper's §4.3 running example, end to end.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Builds the three-node network of Figure 2, poses the allFP query
//! "leaving s between 6:50 and 7:05, what are all the fastest paths to
//! e?" and prints the same answer the paper derives in §4.6.

use fastest_paths::prelude::*;

fn main() {
    let (net, ids) = fastest_paths::roadnet::examples::paper_running_example();
    println!(
        "network: {} nodes, {} directed edges",
        net.n_nodes(),
        net.n_edges()
    );

    let query = QuerySpec::new(
        ids.s,
        ids.e,
        Interval::of(hm(6, 50), hm(7, 5)),
        DayCategory::WORKDAY,
    );
    let engine = Engine::new(&net, EngineConfig::default()).unwrap();

    // --- singleFP -----------------------------------------------------------
    let single = engine
        .single_fastest_path(&query)
        .expect("e is reachable from s");
    println!(
        "\nsingleFP: travel {} when leaving within [{} - {}]",
        fmt_duration(single.travel_minutes),
        fmt_minutes(single.best_leaving.lo()),
        fmt_minutes(single.best_leaving.hi()),
    );
    let names: Vec<String> = single.path.nodes.iter().map(|n| n.to_string()).collect();
    println!("  path: {}", names.join(" -> "));

    // --- allFP --------------------------------------------------------------
    let all = engine
        .all_fastest_paths(&query)
        .expect("e is reachable from s");
    println!("\nallFP partitioning of [6:50 - 7:05]:");
    print!("{}", all.describe());

    println!(
        "search effort: {} paths expanded over {} distinct nodes",
        all.stats.expanded_paths, all.stats.expanded_nodes
    );

    // Sanity: this is exactly the paper's §4.6 answer.
    assert_eq!(all.partition.len(), 3);
    assert!((single.travel_minutes - 5.0).abs() < 1e-9);
}
