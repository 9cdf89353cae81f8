//! One way to put a serial query workload on the clock.
//!
//! The scale tiers (metro-full flat vs hierarchy, metro-huge off disk)
//! report every wall figure the same way: a first pass, which pays
//! whatever was cold (page reads, cache fills, pool growth), then
//! the median ± MAD of [`WARM_PASSES`] further passes, with the
//! search-space size and the allocator traffic of a warm pass beside
//! it — a wall time without its `expanded_paths` cannot be compared
//! across hosts or commits.

use std::time::Instant;

use allfp::{PathfindBackend, QueryOutcome, QuerySpec, QueryStats};

use crate::report::{float, Field};

/// Warm passes behind every reported median.
pub const WARM_PASSES: usize = 7;

/// `(median, median absolute deviation)` of `xs`.
pub fn median_mad(xs: &[f64]) -> (f64, f64) {
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    };
    let m = median(&mut xs.to_vec());
    let mad = median(&mut xs.iter().map(|x| (x - m).abs()).collect());
    (m, mad)
}

/// One query mode of one backend over one workload, on the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clocked {
    /// Queries per second of the first pass.
    pub cold_qps: f64,
    /// Median queries per second of the warm passes.
    pub warm_qps: f64,
    /// Median absolute deviation of the warm passes' q/s.
    pub warm_qps_mad: f64,
    /// `expanded_paths` summed over one pass (every pass expands the
    /// same paths).
    pub expanded_paths: usize,
    /// Queries of one pass that returned no answer.
    pub failures: usize,
    /// Bytes the last warm pass requested from the allocator on the
    /// calling thread, per query.
    pub query_bytes: f64,
}

impl Clocked {
    /// The reported fields (`failures` is reported by the tier, summed
    /// over both modes).
    pub fn fields(&self) -> Vec<Field> {
        vec![
            ("cold_qps", float(self.cold_qps, 2)),
            ("warm_qps", float(self.warm_qps, 2)),
            ("warm_qps_mad", float(self.warm_qps_mad, 2)),
            ("expanded_paths", self.expanded_paths.into()),
            ("query_bytes", float(self.query_bytes, 0)),
        ]
    }
}

/// Ask every query serially, `1 + WARM_PASSES` times over. `ask`
/// returns the answer's statistics, `None` for a failed query.
fn clock(queries: &[QuerySpec], mut ask: impl FnMut(&QuerySpec) -> Option<QueryStats>) -> Clocked {
    let mut pass = || {
        let (mut expanded, mut failures) = (0usize, 0usize);
        let before = crate::alloc::snapshot();
        let start = Instant::now();
        for q in queries {
            match ask(q) {
                Some(stats) => expanded += stats.expanded_paths,
                None => failures += 1,
            }
        }
        let qps = queries.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
        let bytes = crate::alloc::snapshot().since(&before).bytes;
        (qps, expanded, failures, bytes)
    };
    let (cold_qps, expanded_paths, failures, _) = pass();
    let mut warm = Vec::with_capacity(WARM_PASSES);
    let mut bytes = 0;
    for _ in 0..WARM_PASSES {
        let (qps, .., b) = pass();
        warm.push(qps);
        bytes = b;
    }
    let (warm_qps, warm_qps_mad) = median_mad(&warm);
    Clocked {
        cold_qps,
        warm_qps,
        warm_qps_mad,
        expanded_paths,
        failures,
        query_bytes: bytes as f64 / queries.len().max(1) as f64,
    }
}

/// Both query modes of `backend` on the clock, as (allFP, singleFP),
/// allFP first: its cold pass is the backend's first touch of
/// everything. allFP runs on one session held open, as a worker holds
/// its own — the search arenas keep what its searches grew, where a
/// parked session's are shrunk; singleFP has the one-shot API only.
pub fn clock_backend(backend: &dyn PathfindBackend, queries: &[QuerySpec]) -> (Clocked, Clocked) {
    let mut session = backend.cache_session();
    let allfp = clock(queries, |q| {
        match backend.robust_with_session(q, &mut session, None) {
            Ok(QueryOutcome::Exact(a)) => Some(a.stats),
            _ => None,
        }
    });
    drop(session);
    let singlefp = clock(queries, |q| {
        backend.single_fastest_path(q).ok().map(|a| a.stats)
    });
    (allfp, singlefp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median_mad(&[3.0, 1.0, 2.0]), (2.0, 1.0));
        assert_eq!(median_mad(&[4.0, 1.0, 2.0, 3.0]), (2.5, 1.0));
    }
}
