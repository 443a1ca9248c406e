//! The quiet-quantile estimator holds still under one-sided interference
//! that moves the mean and the median.

use isb_benchmark::rng::SplitMix;
use isb_benchmark::stats::{median, quiet, SliceStat};

/// `n` synthetic slices around a true p50 of 17 µs (±1.5 % measurement
/// noise); the slices in `slow` run 40 % slower, as in one of the host's
/// slow CPU modes.
fn slices(n: usize, slow: std::ops::Range<usize>) -> Vec<SliceStat> {
    let mut rng = SplitMix::new(42, 9);
    (0..n)
        .map(|i| {
            let factor =
                (1.0 + 0.03 * (rng.unit() - 0.5)) * if slow.contains(&i) { 1.4 } else { 1.0 };
            SliceStat {
                ops_per_s: 55_000.0 / factor,
                p50_us: 17.0 * factor,
                p99_us: 42.0 * factor,
                ops: 5_500,
                samples: 5_500,
            }
        })
        .collect()
}

fn p50s(s: &[SliceStat]) -> Vec<f64> {
    s.iter().map(|s| s.p50_us).collect()
}

#[test]
fn a_slow_episode_moves_the_median_but_not_the_quiet_quantile() {
    let clean = slices(200, 0..0);
    for share in [40, 60, 80] {
        let noisy = slices(200, 20..20 + 2 * share);
        let (q0, q1) = (quiet(&clean), quiet(&noisy));
        for (name, a, b) in [
            ("ops_per_s", q0.ops_per_s, q1.ops_per_s),
            ("p50_us", q0.p50_us, q1.p50_us),
            ("p99_us", q0.p99_us, q1.p99_us),
        ] {
            assert!((b / a - 1.0).abs() < 0.02, "{share} % slow: {name} moved {a} -> {b}");
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&p50s(&noisy)) / mean(&p50s(&clean)) > 1.15, "the mean must move");
        if share > 50 {
            assert!(median(&p50s(&noisy)) / median(&p50s(&clean)) > 1.3, "the median must move");
        }
    }
}
