//! CLI regenerating every table and figure of the paper's §6.
//!
//! ```text
//! experiments <subcommand> [--scale small|medium|full|large] [--seed N]
//!             [--queries N] [--csv DIR] [--backend flat|ch]
//!
//! subcommands:
//!   table1            the CapeCod pattern schema (Table 1)
//!   fig9              expanded nodes vs distance, naiveLB vs bdLB
//!   fig10             Discrete Time vs CapeCod ratios
//!   const-speed       the constant-speed (speed-limit) comparison
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
//! fig9 and fig10 over the contraction-hierarchy backend
//! (`fp-hierarchy`): same answers, preprocessing-speed query work.
//! A flag with a missing or unparsable value, and an unknown flag, is
//! an error.

use std::process::ExitCode;

use fpbench::{
    ablations, const_speed, fig10, fig9, hotpath, metro_huge, table1, BackendKind, Scale, Scenario,
    Table,
};

const USAGE: &str = "usage: experiments <table1|fig9|fig10|const-speed|ablation-grid|ablation-pruning|ablation-ccam|all|hier-race|metro-huge> [--scale small|medium|full|large] [--seed N] [--queries N] [--csv DIR] [--backend flat|ch]";

#[derive(Debug, PartialEq)]
struct Options {
    scale: Scale,
    seed: u64,
    queries: usize,
    csv_dir: Option<std::path::PathBuf>,
    backend: BackendKind,
}

/// Parse the flags that follow the subcommand.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} needs a number, not '{value}'"))
    }
    let mut opts = Options {
        scale: Scale::Medium,
        seed: 0x5EED,
        queries: 20,
        csv_dir: None,
        backend: BackendKind::Flat,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => opts.scale = value()?.parse()?,
            "--seed" => opts.seed = number(flag, value()?)?,
            "--queries" => opts.queries = number(flag, value()?)?,
            "--csv" => opts.csv_dir = Some(value()?.into()),
            "--backend" => opts.backend = value()?.parse()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_args(flags) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let run_all = cmd == "all";
    let wants = |name: &str| run_all || cmd == name;
    let mut matched = false;

    // Table 1 needs no network.
    if wants("table1") {
        matched = true;
        emit(&opts, "table1", table1::render());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parse_args_sets_every_flag_and_rejects_bad_lines() {
        let good = parse("--scale small --seed 7 --queries 6 --csv out --backend ch").unwrap();
        let want = Options {
            scale: Scale::Small,
            seed: 7,
            queries: 6,
            csv_dir: Some("out".into()),
            backend: BackendKind::Ch,
        };
        assert_eq!(good, want);
        for bad in [
            "--seed x",
            "--seed -1",
            "--queries x",
            "--scale x",
            "--backend x",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        for flag in ["--scale", "--seed", "--queries", "--csv", "--backend"] {
            let err = parse(&format!("--queries 4 {flag}")).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
        assert_eq!(parse("--verbose").unwrap_err(), "unknown flag --verbose");
    }
}
