//! The repo's benchmark: four closed-loop workloads, end-to-end and
//! per-layer metrics, and a traced pass. See `README.md` beside this
//! crate for the workloads, the metric tables and what each layer
//! metric is expected to move.
//!
//! One process runs one workload in one mode and prints, as its last
//! line, the result object `BENCHMARK.json`'s contract asks for:
//!
//! ```text
//! fp-benchmark --workload rush_mem --seed 7 --seconds 26 --trace 0
//! ```

mod affinity;
mod ch;
mod common;
mod compare;
mod fingerprint;
mod flat;
mod json;
mod live;
mod metrics;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Args, Result};
use metrics::{declared, Metrics, WORKLOADS};
use trace::Tracer;

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed (error, non-exact, wrong answer).
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Metrics,
    /// Sample, pair and set-up counts for the run record.
    pub counts: Vec<(&'static str, usize)>,
}

const USAGE: &str = "usage: fp-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                    [--quick] [--out DIR] [--record FILE]
       fp-benchmark --compare <set1.jsonl> <set2.jsonl> --bounds <BENCHMARK.json>";

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0xF19;

struct Cli {
    args: Args,
    record: Option<PathBuf>,
}

enum Command {
    Run(Cli),
    Compare {
        first: PathBuf,
        second: PathBuf,
        bounds: PathBuf,
    },
}

fn parse(argv: &[String]) -> Result<Command> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 26.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut record = None;
    let mut compare = None;
    let mut bounds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--record" => record = Some(PathBuf::from(value()?)),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => bounds = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some((first, second)) = compare {
        let bounds = bounds.ok_or("--compare needs --bounds <BENCHMARK.json>")?;
        return Ok(Command::Compare {
            first,
            second,
            bounds,
        });
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            names.join(", ")
        ));
    }
    Ok(Command::Run(Cli { args, record }))
}

fn parse_seed(text: &str) -> Result<u64> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed needs an unsigned integer, not {text}"))
}

/// A per-process directory for temporary stores, removed when the run
/// ends — also when it ends in an error or a panic.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(out: &Path) -> Result<ScratchDir> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful to do with a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The machine as the run found it and the CPU the run was pinned to.
struct Host {
    nproc: usize,
    pinned_cpu: Option<usize>,
}

/// Who ran what: carried by every run record.
fn run_record(args: &Args, host: &Host, outcome: &Outcome, result_line: &str) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let pinned = host
        .pinned_cpu
        .map_or("null".to_string(), |cpu| cpu.to_string());
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(name, n)| format!("{}: {n}", json::quote(name)))
        .collect();
    format!(
        "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"pinned_cpu\": {pinned}, \"counts\": {{{}}}, \"result\": {result_line}}}",
        json::quote(&args.workload),
        u8::from(args.trace),
        args.seed,
        json::number(args.seconds),
        args.quick,
        json::quote(&env("FP_BENCH_COMMIT")),
        json::quote(&env("FP_BENCH_RUSTC")),
        host.nproc,
        counts.join(", "),
    )
}

fn run(cli: &Cli) -> Result<bool> {
    let args = &cli.args;
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        pinned_cpu: affinity::pin_to_one_cpu(),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "rush_mem" => flat::run(args, None, &mut tracer)?,
        "rush_disk" => {
            let scratch = ScratchDir::create(&args.out)?;
            flat::run(args, Some(&scratch.0), &mut tracer)?
        }
        "ch_rush" => ch::run(args, &mut tracer)?,
        "live_service" => live::run(args, &mut tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut members = Vec::new();
    for def in declared(args.trace) {
        let value = outcome.metrics.get(def.name);
        println!("{} {} {}", def.name, json::number(value), def.unit);
        members.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(def.name),
            json::number(value),
            json::quote(def.unit)
        ));
    }
    println!(
        "failed_share {} ({} failed of {} attempted)",
        json::number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        outcome.failed,
        outcome.attempted
    );
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        members.join(", ")
    );
    let record = run_record(args, &host, &outcome, &result_line);
    println!("run {record}");
    if let Some(path) = &cli.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result_line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match parse(&argv) {
        Ok(Command::Run(cli)) => run(&cli).inspect(|&correct| {
            if !correct {
                eprintln!("fp-benchmark: answers disagree with the reference");
            }
        }),
        Ok(Command::Compare {
            first,
            second,
            bounds,
        }) => compare::run(&first, &second, &bounds),
        Err(e) => Err(e),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let Ok(Command::Run(cli)) = parse(&argv(
            "--workload rush_disk --seed 42 --seconds 10 --trace 1",
        )) else {
            panic!("should parse");
        };
        assert_eq!(cli.args.workload, "rush_disk");
        assert_eq!(cli.args.seed, 42);
        assert_eq!(cli.args.seconds, 10.0);
        assert!(cli.args.trace && !cli.args.quick);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload rush_mem --trace 2")).is_err());
        assert!(parse(&argv("--workload rush_mem --seconds 0")).is_err());
        assert!(parse(&argv("--workload rush_mem --seed")).is_err());
        assert!(parse(&argv("--compare a b")).is_err());
        assert_eq!(parse_seed("0xF19"), Ok(0xF19));
    }

    /// The whole pipeline in miniature: every workload, both modes,
    /// same code paths and correctness gate as a full run.
    #[test]
    fn quick_runs_answer_correctly_and_emit_declared_metrics() {
        let out = std::env::temp_dir().join(format!("fp-benchmark-quick-{}", std::process::id()));
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let cli = Cli {
                    args: Args {
                        workload: workload.to_string(),
                        seed: 5,
                        seconds: 1.0,
                        trace,
                        quick: true,
                        out: out.clone(),
                    },
                    record: None,
                };
                assert_eq!(run(&cli), Ok(true), "{workload} trace {trace}");
            }
        }
        let left: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("tmp-"))
            .collect();
        assert!(left.is_empty(), "temporary stores left behind: {left:?}");
        std::fs::remove_dir_all(&out).unwrap();
    }
}
