//! `--compare`: two sets of run records of the same commit, side by
//! side. End-to-end metrics must agree within the bound
//! `BENCHMARK.json` gives them; per-layer metrics that are counts must
//! agree exactly.

use std::path::Path;

use crate::common::Result;
use crate::json::Json;
use crate::metrics::PER_LAYER;

/// One run record, reduced to what is compared.
struct Run {
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64)>,
}

fn read_set(path: &Path) -> Result<Vec<Run>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let record = Json::parse(line)?;
            let field = |key: &str| record.get(key).ok_or(format!("run record without {key}"));
            let metrics = field("result")?
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("run record without metrics")?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    (name.clone(), value)
                })
                .collect();
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                trace: field("trace")?.as_f64() == Some(1.0),
                metrics,
            })
        })
        .collect()
}

/// `(better, bound)` of each end-to-end metric.
fn read_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text)?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("no name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("no better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("no bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// By what share of `first` is `second` worse (negative: better)?
fn worse_by(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// Print the comparison; `Ok(true)` when every end-to-end metric is
/// within its bound both ways and every exact metric is identical.
pub fn run(first: &Path, second: &Path, bounds: &Path) -> Result<bool> {
    let (first, second) = (read_set(first)?, read_set(second)?);
    let bounds = read_bounds(bounds)?;
    let mut unresolved = 0;
    let mut differing = 0;
    for a in &first {
        let Some(b) = second
            .iter()
            .find(|b| b.workload == a.workload && b.trace == a.trace)
        else {
            return Err(format!(
                "second set has no {} trace {}",
                a.workload, a.trace
            ));
        };
        for ((name, va), (_, vb)) in a.metrics.iter().zip(&b.metrics) {
            if a.trace {
                let exact = PER_LAYER.iter().any(|d| d.name == name && d.exact);
                if exact && va.to_bits() != vb.to_bits() {
                    differing += 1;
                    println!("{:<13} {name:<36} {va} != {vb}  DIFFERS", a.workload);
                }
            } else if let Some((_, lower, bound)) = bounds.iter().find(|(n, ..)| n == name) {
                // Neither run is the parent here: either may be the worse one.
                let worse = worse_by(*va, *vb, *lower).max(worse_by(*vb, *va, *lower));
                let verdict = if worse <= *bound {
                    "PASS"
                } else {
                    "UNRESOLVED"
                };
                unresolved += usize::from(worse > *bound);
                println!(
                    "{:<13} {name:<16} {va:>12.4} {vb:>12.4} {:>+7.2}% of {:>4.0}%  {verdict}",
                    a.workload,
                    100.0 * worse_by(*va, *vb, *lower),
                    100.0 * bound
                );
            }
        }
    }
    println!(
        "{unresolved} end-to-end metrics beyond their bound, {differing} exact per-layer metrics differ"
    );
    Ok(unresolved == 0 && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn flags_bounds_and_exact_counts() {
        let dir = std::env::temp_dir().join(format!("fp-benchmark-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = |trace: u8, name: &str, value: f64| {
            format!(
                "{{\"workload\": \"rush_mem\", \"trace\": {trace}, \"result\": {{\"metrics\": {{\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}}}\n"
            )
        };
        let write = |file: &str, text: String| {
            let path = dir.join(file);
            std::fs::write(&path, text).unwrap();
            path
        };
        let bounds = write(
            "b.json",
            "{\"end_to_end\": [{\"name\": \"allfp_qps\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.1}]}".into(),
        );
        let base = write(
            "1.jsonl",
            record(0, "allfp_qps", 100.0) + &record(1, "engine.pieces_max", 40.0),
        );
        let close = write(
            "2.jsonl",
            record(0, "allfp_qps", 95.0) + &record(1, "engine.pieces_max", 40.0),
        );
        let slow = write(
            "3.jsonl",
            record(0, "allfp_qps", 80.0) + &record(1, "engine.pieces_max", 40.0),
        );
        let miscounted = write(
            "4.jsonl",
            record(0, "allfp_qps", 100.0) + &record(1, "engine.pieces_max", 41.0),
        );
        assert_eq!(run(&base, &close, &bounds), Ok(true));
        assert_eq!(run(&base, &slow, &bounds), Ok(false));
        assert_eq!(run(&slow, &base, &bounds), Ok(false));
        assert_eq!(run(&base, &miscounted, &bounds), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
