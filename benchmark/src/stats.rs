//! Latency arithmetic: percentiles, medians and the `qps` definition.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for even counts). Sorts in
/// place. `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One operation type's latency samples, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub n: usize,
    /// Operations ÷ the sum of their latencies: what one closed-loop
    /// client completes per second spent waiting on this operation.
    pub qps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, reported only from 1 000 samples up (ten or
    /// more samples beyond it).
    pub p99_ms: Option<f64>,
}

impl Latency {
    /// Summarise nanosecond samples.
    pub fn of(samples_ns: impl Iterator<Item = u64>) -> Latency {
        let mut ms: Vec<f64> = samples_ns.map(|ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let total_s = ms.iter().sum::<f64>() / 1e3;
        Latency {
            n: ms.len(),
            qps: ms.len() as f64 / total_s,
            p50_ms: percentile(&ms, 0.50),
            p95_ms: percentile(&ms, 0.95),
            p99_ms: (ms.len() >= 1000).then(|| percentile(&ms, 0.99)),
        }
    }
}

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// does not exercise reports zeros, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn qps_is_ops_over_summed_latency() {
        // four ops of 1, 2, 3 and 4 ms: 4 ops in 10 ms = 400 q/s
        let l = Latency::of([1_000_000, 2_000_000, 3_000_000, 4_000_000].into_iter());
        assert_eq!(l.n, 4);
        assert!((l.qps - 400.0).abs() < 1e-9);
        assert_eq!(l.p50_ms, 2.0);
        assert_eq!(l.p95_ms, 4.0);
        assert_eq!(l.p99_ms, None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples = (1..=1000).map(|i| i * 1000);
        assert_eq!(Latency::of(samples).p99_ms, Some(0.99));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
