//! CLI regenerating every table and figure of the paper's §6.
//!
//! ```text
//! experiments <subcommand> [--scale small|medium|full|large] [--seed N]
//!             [--queries N] [--csv DIR] [--backend flat|ch]
//!             [--deltas N]
//!
//! subcommands:
//!   table1            the CapeCod pattern schema (Table 1)
//!   fig9              expanded nodes vs distance, naiveLB vs bdLB
//!   fig10             Discrete Time vs CapeCod ratios
//!   const-speed       the constant-speed (speed-limit) comparison
//!   overload          the seeded virtual-time overload twin
//!   update-storm      seeded live-update storm: goodput under a 2x
//!                     overload with concurrent epoch swaps
//!   ablation-grid     bdLB grid granularity sweep (A-1)
//!   ablation-pruning  basic vs dominance-pruned expansion (A-2)
//!   ablation-ccam     CCAM placement vs buffer size (A-3)
//!   all               everything above, in order
//!   hier-race         the hierarchy vs the flat search under naiveLB
//!                     and minTimeLB, serial, median ± MAD of warm
//!                     passes (12 queries; 24 at --scale full)
//!   metro-huge        the 1 048 576-node continental tier: bulk build
//!                     swept over 1/2/4 threads, 24 fig9 queries served
//!                     off a file store (~260 MB of temporary files)
//! ```
//!
//! Defaults: medium scale (≈3–4k nodes, full 8-mile extent), seed
//! 0x5EED, 20 queries per cell, flat backend. `--scale full
//! --queries 100` matches the paper's setup (14.5k nodes, 100
//! queries) at several minutes of runtime. `--backend ch` replays
//! fig9, fig10 and the overload twin over the contraction-hierarchy
//! backend (`fp-hierarchy`): same answers, preprocessing-speed query
//! work.
//! `--deltas N` sets how many seeded traffic deltas the update storm
//! applies mid-run (default 8); `--seed`/`--queries` also steer it.

use std::process::ExitCode;

use fpbench::{
    ablations, const_speed, fig10, fig9, hotpath, live_update, metro_huge, overload, table1,
    BackendKind, Scale, Scenario, Table,
};

struct Options {
    scale: Scale,
    seed: u64,
    queries: usize,
    csv_dir: Option<std::path::PathBuf>,
    backend: BackendKind,
    deltas: usize,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: experiments <table1|fig9|fig10|const-speed|overload|update-storm|ablation-grid|ablation-pruning|ablation-ccam|all|hier-race|metro-huge> [--scale small|medium|full|large] [--seed N] [--queries N] [--csv DIR] [--backend flat|ch] [--deltas N]");
        return ExitCode::FAILURE;
    };
    let mut opts = Options {
        scale: Scale::Medium,
        seed: 0x5EED,
        queries: 20,
        csv_dir: None,
        backend: BackendKind::Flat,
        deltas: 8,
    };
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].clone();
        let value = || -> Option<&String> { rest.get(i + 1) };
        match flag.as_str() {
            "--scale" => {
                let Some(v) = value() else {
                    eprintln!("--scale needs a value");
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(s) => opts.scale = s,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--seed" => {
                opts.seed = value().and_then(|v| v.parse().ok()).unwrap_or(opts.seed);
                i += 2;
            }
            "--queries" => {
                opts.queries = value().and_then(|v| v.parse().ok()).unwrap_or(opts.queries);
                i += 2;
            }
            "--csv" => {
                opts.csv_dir = value().map(|v| v.into());
                i += 2;
            }
            "--backend" => {
                let Some(v) = value() else {
                    eprintln!("--backend needs a value");
                    return ExitCode::FAILURE;
                };
                match v.parse() {
                    Ok(b) => opts.backend = b,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--deltas" => {
                let Some(v) = value().and_then(|v| v.parse().ok()) else {
                    eprintln!("--deltas needs an update count");
                    return ExitCode::FAILURE;
                };
                opts.deltas = v;
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let run_all = cmd == "all";
    let wants = |name: &str| run_all || cmd == name;
    let mut matched = false;

    // Table 1 needs no network.
    if wants("table1") {
        matched = true;
        emit(&opts, "table1", table1::render());
    }

    // The overload twin builds its own small grid (virtual-time
    // calibration needs a fixed substrate, not the scenario network).
    if wants("overload") {
        matched = true;
        let r = overload::run(opts.seed, opts.queries.max(80), opts.backend);
        emit(&opts, "overload", overload::render(&r));
    }

    // The update storm builds its own substrate: a small service grid
    // (virtual-time calibration, like the overload twin).
    if wants("update-storm") {
        matched = true;
        let r = live_update::run(opts.seed, opts.queries.max(80), opts.deltas.max(1));
        emit(&opts, "update_storm", live_update::render(&r));
    }

    // The two scale probes run only by name, not under `all`: the full
    // race contracts metro-full, and metro-huge writes ~260 MB of
    // temporary files.
    if cmd == "hier-race" {
        matched = true;
        let count = if opts.scale == Scale::Full { 24 } else { 12 };
        let r = hotpath::measure_hierarchy(&Scenario::new(opts.scale, opts.seed), count);
        emit(&opts, "hier_race", hotpath::render(&r));
    }
    if cmd == "metro-huge" {
        matched = true;
        let cfg = roadnet::generators::ContinentalConfig::metro_huge(opts.seed);
        let r = metro_huge::run(&cfg, "metro-huge", 24);
        emit(&opts, "metro_huge", metro_huge::render(&r));
    }

    if [
        "fig9",
        "fig10",
        "const-speed",
        "ablation-grid",
        "ablation-pruning",
        "ablation-ccam",
    ]
    .iter()
    .any(|n| wants(n))
    {
        let scenario = Scenario::new(opts.scale, opts.seed);
        println!("{}", scenario.describe());
        println!("backend: {}\n", opts.backend.label());

        if wants("fig9") {
            matched = true;
            let rows = fig9::run(
                &scenario.net,
                opts.queries,
                scenario.max_query_miles(),
                8,
                opts.seed,
                opts.backend,
            );
            emit(&opts, "fig9", fig9::render(&rows));
        }
        if wants("fig10") {
            matched = true;
            // paper: distance 7-8 miles; scale down with the scenario
            let (lo, hi) = match opts.scale {
                Scale::Small => (2.0, 3.0),
                Scale::Medium | Scale::Full => (7.0, 8.0),
            };
            let result = fig10::run(&scenario.net, opts.queries, lo, hi, opts.seed, opts.backend);
            emit(&opts, "fig10", fig10::render(&result));
        }
        if wants("const-speed") {
            matched = true;
            let rows = const_speed::run(&scenario.net, opts.queries.max(30), opts.seed);
            emit(&opts, "const_speed", const_speed::render(&rows));
        }
        if wants("ablation-grid") {
            matched = true;
            let t = ablations::grid_sweep(
                &scenario.net,
                &[0, 2, 4, 8, 16, 24],
                opts.queries,
                opts.seed,
            );
            emit(&opts, "ablation_grid", t);
        }
        if wants("ablation-pruning") {
            matched = true;
            let t = ablations::pruning(&scenario.net, opts.queries.min(10), opts.seed);
            emit(&opts, "ablation_pruning", t);
        }
        if wants("ablation-ccam") {
            matched = true;
            let t = ablations::ccam_placement(&scenario.net, &[8, 32, 128, 512], opts.seed);
            emit(&opts, "ablation_ccam", t);
        }
    }

    if !matched {
        eprintln!("unknown subcommand '{cmd}'");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn emit(opts: &Options, name: &str, table: Table) {
    println!("{table}");
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("csv dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("csv write");
        println!("(csv written to {})\n", path.display());
    }
}
