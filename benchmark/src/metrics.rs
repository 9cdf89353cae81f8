//! The benchmark's metric vocabulary — every name it can emit, with
//! its unit. `BENCHMARK.json` declares the same lists (pinned by the
//! schema test below), so a name cannot drift on one side only.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name as emitted and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Is the value a pure function of the seed (a count, or a ratio
    /// of counts)? Exact metrics must repeat bit-for-bit between runs;
    /// `repeat.sh` fails when one does not.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
    }
}

/// What a caller of the library sees (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s"),
    timed("allfp_qps", "1/s"),
    timed("allfp_p50_ms", "ms"),
    timed("allfp_p95_ms", "ms"),
    timed("singlefp_qps", "1/s"),
    timed("singlefp_p50_ms", "ms"),
    timed("singlefp_p95_ms", "ms"),
    timed("peak_rss_mb", "MB"),
];

/// What each layer did (`--trace 1`). A layer the workload does not
/// exercise reports zeros.
pub const PER_LAYER: &[Def] = &[
    timed("pwl.compose_ns_per_piece", "ns/piece"),
    timed("pwl.merge_ns_per_piece", "ns/piece"),
    timed("traffic.travel_fn_us", "us"),
    exact("network.source_calls_per_q", "count/q"),
    timed("network.source_us_per_q", "us/q"),
    timed("network.delta_apply_us", "us"),
    timed("ccam.build_s", "s"),
    exact("ccam.file_bytes_per_edge", "bytes/edge"),
    timed("ccam.source_us_per_q", "us/q"),
    exact("ccam.logical_reads_per_q", "count/q"),
    exact("ccam.pool_hit_rate", "ratio"),
    exact("ccam.evictions_per_q", "count/q"),
    exact("ccam.physical_reads_per_q", "count/q"),
    exact("ccam.bytes_read_per_q", "bytes/q"),
    exact("ccam.io_retries", "count"),
    exact("engine.allfp.expanded_per_q", "count/q"),
    exact("engine.singlefp.expanded_per_q", "count/q"),
    exact("engine.pushed_per_q", "count/q"),
    exact("engine.expand_yield", "ratio"),
    exact("engine.pruned_border_per_q", "count/q"),
    exact("engine.pruned_dominated_per_q", "count/q"),
    exact("engine.border_merges_per_q", "count/q"),
    exact("engine.pieces_per_q", "count/q"),
    exact("engine.pieces_max", "count"),
    timed("engine.ns_per_expansion", "ns"),
    timed("engine.self_us_per_q", "us/q"),
    exact("cache.lookups_per_q", "count/q"),
    exact("cache.hit_rate", "ratio"),
    exact("cache.resident_entries", "count"),
    exact("cache.retired_per_delta", "count"),
    exact("cache.post_delta_miss_rate", "ratio"),
    timed("estimator.setup_s", "s"),
    exact("estimator.calls_per_q", "count/q"),
    timed("estimator.us_per_q", "us/q"),
    exact("estimator.tightness", "ratio"),
    timed("service.submit_us", "us"),
    timed("service.take_outcomes_us", "us"),
    exact("service.rejected", "count"),
    exact("service.degraded", "count"),
    exact("service.reconciles", "count"),
    timed("epoch.apply_us", "us"),
    timed("epoch.apply_p95_us", "us"),
    exact("epoch.estimator_reused_share", "ratio"),
    exact("epoch.cache_flushed_per_delta", "count"),
    exact("epoch.retire_lag_max", "count"),
    timed("hierarchy.build_s", "s"),
    exact("hierarchy.shortcuts", "count"),
    exact("hierarchy.overlay_bytes", "bytes"),
    exact("hierarchy.allfp.expanded_per_q", "count/q"),
    exact("hierarchy.singlefp.expanded_per_q", "count/q"),
    exact("hierarchy.compositions_saved_per_q", "count/q"),
    timed("hierarchy.recompose_us_per_q", "us/q"),
    timed("hierarchy.self_us_per_q", "us/q"),
    timed("hierarchy.singlefp_wall_vs_flat", "x"),
    timed("hierarchy.allfp_wall_vs_flat", "x"),
    timed("trace.overhead", "ratio"),
];

/// The workloads, with the reason each exists (one line, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "rush_mem",
        "in-memory flat engine, warm travel-fn cache: core::engine and pwl do all the work, ccam none",
    ),
    (
        "rush_disk",
        "same network and pairs through a CCAM file with a 7% buffer pool: the difference to rush_mem is ccam",
    ),
    (
        "ch_rush",
        "contraction hierarchy over the same network: hierarchy does the work, the flat search is bypassed, setup_s is contraction",
    ),
    (
        "live_service",
        "QueryService over LiveBackend with a 1%-of-edges traffic delta every 20 queries: reads priced against writes",
    ),
];

/// The metric list a `--trace` mode emits.
pub fn declared(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Values measured in one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` under `name`. Panics on an undeclared name: that
    /// is a bug in this crate, and the schema test would miss a metric
    /// that only one workload emits.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared in metrics.rs"
        );
        self.values.insert(name, value);
    }

    /// The measured value, or 0 for a metric this workload has no
    /// layer for.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str, max: usize) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared_in(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").into(),
                    m.get("unit").and_then(Json::as_str).expect("unit").into(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name, 64), "bad workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert!(seen.insert(name), "name {name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = benchmark_json();
        let code = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(declared_in(&json, "end_to_end"), code(END_TO_END));
        assert_eq!(declared_in(&json, "per_layer"), code(PER_LAYER));

        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).expect("name").into(),
                    w.get("why").and_then(Json::as_str).expect("why").into(),
                )
            })
            .collect();
        let code_workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, code_workloads);
    }

    #[test]
    fn benchmark_json_meets_the_driver_contract() {
        let json = benchmark_json();
        let keys: Vec<&str> = json
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = json.get("run_seconds").and_then(Json::as_f64).expect("n");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

        let mut has_setup = false;
        for m in json
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("e2e")
        {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
            let better = m.get("better").and_then(Json::as_str).expect("better");
            assert!(better == "lower" || better == "higher");
            if m.get("name").and_then(Json::as_str) == Some("setup_s") {
                has_setup = better == "lower" && m.get("unit").and_then(Json::as_str) == Some("s");
            }
        }
        assert!(has_setup, "setup_s must be declared in s, lower is better");
        for m in json
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("layers")
        {
            assert!(m.get("bound").is_none(), "per-layer metrics have no bound");
        }
    }
}
