//! Order statistics for the report: medians and quartiles of host
//! timings, the "highest percentile the sample supports" rule, and a
//! quantile read off a latency CDF without its bucket quantisation.

use simcore::stats::CdfPoint;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle ones for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the acceptance check uses
/// that function, so the benchmark's own repeat check must agree).
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the spread the
/// acceptance check compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least
/// ten of `samples` beyond it, as a quantile in `[0, 1]`; `None` below
/// twenty samples, where not even the median qualifies.
pub fn top_quantile(samples: u64) -> Option<f64> {
    // One sample in `k` lies beyond the quantile `1 - 1/k`.
    [10_000u64, 1_000, 100, 10, 2]
        .into_iter()
        .find(|k| samples / k >= 10)
        .map(|k| 1.0 - 1.0 / k as f64)
}

/// Quantile `q` of a log-bucketed latency histogram, read from its CDF
/// (`Histogram::cdf`) and interpolated linearly inside the bucket the
/// quantile falls in. `Histogram::quantile` returns bucket upper edges,
/// which are 1.6–3 % apart: two runs that differ by a few samples then
/// read either exactly equal or a whole bucket apart. Interpolating
/// keeps the same ≤ 3 % error bound and moves smoothly with the counts.
/// Returns 0 for an empty CDF.
pub fn cdf_quantile(cdf: &[CdfPoint], q: f64) -> f64 {
    let mut below = 0.0; // fraction of samples under the current bucket
    for (i, p) in cdf.iter().enumerate() {
        if p.fraction >= q || i + 1 == cdf.len() {
            let upper = p.value as f64;
            // A bucket with upper edge `u >= 64` spans `2^(msb(u) - 5)`
            // values (64 linear sub-buckets per octave, upper half
            // used); smaller values have buckets of their own. The last
            // bucket's edge is clipped to the maximum, so never reach
            // below the previous bucket's edge.
            let width = if p.value < 64 {
                1.0
            } else {
                (1u64 << (63 - p.value.leading_zeros() - 5)) as f64
            };
            let floor = if i > 0 { cdf[i - 1].value as f64 } else { 0.0 };
            let lower = (upper - width).max(floor);
            let share = ((q - below) / (p.fraction - below)).clamp(0.0, 1.0);
            return lower + share * (upper - lower);
        }
        below = p.fraction;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::Histogram;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_quantile_keeps_ten_samples_beyond() {
        assert_eq!(top_quantile(19), None);
        assert_eq!(top_quantile(20), Some(0.5));
        assert_eq!(top_quantile(99), Some(0.5));
        assert_eq!(top_quantile(100), Some(0.9));
        assert_eq!(top_quantile(999), Some(0.9));
        assert_eq!(top_quantile(1_000), Some(0.99));
        assert_eq!(top_quantile(30_000), Some(0.999));
        assert_eq!(top_quantile(100_000), Some(0.9999));
    }

    #[test]
    fn cdf_quantile_interpolates_within_the_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let cdf = h.cdf();
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let want = q * 100_000.0;
            let got = cdf_quantile(&cdf, q);
            // Uniform data: interpolation is exact up to one bucket's
            // rounding, far inside the histogram's own 3 % edge error.
            assert!((got - want).abs() / want < 0.002, "q={q} got={got}");
        }
        // Moves with the counts, where bucket edges would not.
        let a = cdf_quantile(&cdf, 0.5);
        h.record(1);
        h.record(2);
        h.record(3);
        let b = cdf_quantile(&h.cdf(), 0.5);
        assert!(b < a && a - b < 5.0, "a={a} b={b}");
        assert_eq!(h.quantile(0.5), {
            let mut g = Histogram::new();
            (1..=100_000u64).for_each(|v| g.record(v));
            g.quantile(0.5)
        });
        assert_eq!(cdf_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cdf_quantile_single_value() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(15_000);
        }
        let got = cdf_quantile(&h.cdf(), 0.99);
        assert!((14_700.0..=15_000.0).contains(&got), "{got}");
    }
}
