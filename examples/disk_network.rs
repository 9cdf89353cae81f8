//! Disk-resident queries through CCAM.
//!
//! Run with `cargo run --release --example disk_network`.
//!
//! Stores the metro network in a 2048-byte-page file behind the
//! Connectivity-Clustered Access Method (§2.2), reopens it cold, runs
//! interval queries straight off disk, and compares buffer-pool
//! behaviour across page-placement policies — the storage half of the
//! paper's system.

use std::sync::Arc;

use ccam::{BlockStore, CcamStore, FileStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use fastest_paths::prelude::*;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::sample_pairs;

fn main() {
    let net = suffolk_like(&MetroConfig::small(123)).expect("generator succeeds");
    println!("in-memory network:\n{}", roadnet::NetworkStats::of(&net));

    let dir = std::env::temp_dir().join(format!("fastest-paths-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut report: Vec<(String, u64, u64)> = Vec::new();
    for (name, policy) in [
        (
            "ccam (connectivity-clustered)",
            PlacementPolicy::ConnectivityClustered,
        ),
        ("hilbert-packed", PlacementPolicy::HilbertPacked),
        ("random placement", PlacementPolicy::Random { seed: 1 }),
    ] {
        let path = dir.join(format!("{}.db", name.split_whitespace().next().unwrap()));
        let store: Arc<dyn BlockStore> =
            Arc::new(FileStore::create(&path, DEFAULT_PAGE_SIZE).expect("create store"));
        // build, then reopen cold with a tiny pool so placement matters
        CcamStore::build(&net, Arc::clone(&store), policy, 64).expect("build succeeds");
        let disk = CcamStore::open(store, 8).expect("reopen succeeds");

        let engine = Engine::new(&disk, EngineConfig::default()).unwrap();
        let pairs = sample_pairs(&net, 10, 1.0, 2.5, 5).expect("sampling succeeds");
        let before = disk.stats();
        for p in &pairs {
            let q = QuerySpec::new(
                p.source,
                p.target,
                Interval::of(hm(7, 0), hm(8, 0)),
                DayCategory::WORKDAY,
            );
            let ans = engine.all_fastest_paths(&q).expect("reachable");
            std::hint::black_box(ans);
        }
        let d = disk.stats().since(&before);
        report.push((name.to_string(), d.hits + d.misses, d.misses));
    }

    println!("10 allFP queries, 8-frame buffer pool, page size {DEFAULT_PAGE_SIZE}:");
    println!(
        "{:<32} {:>14} {:>12} {:>9}",
        "placement", "logical reads", "page faults", "hit %"
    );
    for (name, logical, faults) in &report {
        println!(
            "{name:<32} {logical:>14} {faults:>12} {:>8.1}%",
            100.0 * (logical - faults) as f64 / (*logical).max(1) as f64
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("\nSame answers, same logical reads — placement only changes how");
    println!("often a logical read misses the pool and touches the disk.");
}
