//! Slice statistics and the quiet-quantile estimator.
//!
//! Interference on a shared host is one-sided: a neighbour can make a slice
//! slower, never faster — and it comes in episodes that last seconds (CPU
//! speed modes; a loopback path that alternates between a 17 us and a 26 us
//! regime). So a run is cut into short slices, each slice yields its own
//! throughput and latency percentiles, and the run reports the *quiet* end
//! of their distribution across slices: the value the best few slices
//! agree on. The median across slices would estimate the neighbours; the
//! quiet quantile estimates the program.

/// How far from the quiet end of the slice distribution a run reports: the
/// lower [`QUIET`] quantile of a lower-is-better quantity, the upper one of a
/// higher-is-better quantity. Chosen on ten same-code runs per workload:
/// the spread between runs of `kv_update`'s p50 was 22 % at the quartile,
/// 11 % at the decile, 6 % here, and about the same as here at the minimum
/// — which would rest on a single slice.
pub const QUIET: f64 = 0.02;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The quiet estimate of a lower-is-better quantity.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile(&sorted(values), QUIET)
}

/// The quiet estimate of a higher-is-better quantity.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile(&sorted(values), 1.0 - QUIET)
}

/// Lower quartile.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.25)
}

/// Median.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / quantile(&s, 0.5)
}

/// One timed slice, reduced to the numbers the run keeps.
#[derive(Debug, Clone, Copy)]
pub struct SliceStat {
    /// Operations completed per second of slice wall time.
    pub ops_per_s: f64,
    /// Median sampled latency.
    pub p50_us: f64,
    /// 99th-percentile sampled latency.
    pub p99_us: f64,
    /// Operations completed.
    pub ops: u64,
    /// Latency samples taken.
    pub samples: u64,
}

impl SliceStat {
    /// Reduces a slice: `ops` completed in `secs`, with the sampled
    /// latencies `lat_ns` (consumed: sorted in place, then cleared so the
    /// buffer is reused by the next slice).
    pub fn reduce(ops: u64, secs: f64, lat_ns: &mut Vec<u64>) -> SliceStat {
        assert!(!lat_ns.is_empty(), "a slice needs latency samples");
        lat_ns.sort_unstable();
        let at = |p: usize| lat_ns[(lat_ns.len() * p / 100).min(lat_ns.len() - 1)] as f64 / 1e3;
        let s = SliceStat {
            ops_per_s: ops as f64 / secs,
            p50_us: at(50),
            p99_us: at(99),
            ops,
            samples: lat_ns.len() as u64,
        };
        lat_ns.clear();
        s
    }
}

/// The run-level numbers of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Quiet {
    /// Quiet (upper) quantile of slice throughput.
    pub ops_per_s: f64,
    /// Quiet (lower) quantile of slice medians.
    pub p50_us: f64,
    /// Quiet (lower) quantile of slice p99s.
    pub p99_us: f64,
}

/// Quiet-quantile summary of `slices`.
pub fn quiet(slices: &[SliceStat]) -> Quiet {
    let col = |f: fn(&SliceStat) -> f64| slices.iter().map(f).collect::<Vec<_>>();
    Quiet {
        ops_per_s: quiet_high(&col(|s| s.ops_per_s)),
        p50_us: quiet_low(&col(|s| s.p50_us)),
        p99_us: quiet_low(&col(|s| s.p99_us)),
    }
}
