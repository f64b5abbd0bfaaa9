//! Log-bucketed latency histogram.
//!
//! HDR-style layout: values are bucketed with a fixed number of linear
//! sub-buckets per power-of-two range, giving bounded relative error
//! (~1/64 with the default precision) over the full `u64` range with a
//! few KiB of memory. This is how the harness records per-request latency
//! for millions of simulated RPCs without storing samples.

use crate::time::SimDuration;

/// Number of linear sub-buckets per octave. 64 gives ≤1.6 % relative
/// quantile error, well below the paper's plotting resolution.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;

/// One point of an empirical CDF.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CdfPoint {
    /// Upper edge of the bucket, in the recorded unit (nanoseconds).
    pub value: u64,
    /// Fraction of samples ≤ `value`, in `[0, 1]`.
    pub fraction: f64,
}

/// A latency histogram with logarithmic buckets.
///
/// # Examples
///
/// ```
/// use simcore::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 200, 300, 400, 500] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.quantile(0.5);
/// assert!(p50 >= 290 && p50 <= 310, "p50={p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(value: u64) -> usize {
    // Values below SUB_BUCKETS map linearly; above, each octave is split
    // into SUB_BUCKETS linear ranges.
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let octave = msb - SUB_BITS + 1;
        let sub = (value >> octave) - SUB_BUCKETS / 2 + SUB_BUCKETS / 2;
        // `sub` is in [SUB_BUCKETS/2, SUB_BUCKETS): the top SUB_BITS-1 bits
        // below the msb select the sub-bucket.
        (octave as u64 * (SUB_BUCKETS / 2) + sub) as usize
    }
}

fn bucket_upper_edge(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        index
    } else {
        let octave = (index - SUB_BUCKETS / 2) / (SUB_BUCKETS / 2);
        let sub = index - octave * (SUB_BUCKETS / 2);
        // The topmost bucket's edge is `2^64 - 1`: computing it as
        // `(sub + 1) << octave` first would wrap to zero and make the
        // trailing `- 1` underflow (a debug-build panic for any sample
        // in the top octave), so wrap explicitly — the wrapped result
        // is exactly `u64::MAX`.
        ((sub + 1) << octave).wrapping_sub(1)
    }
}

/// An empty histogram, as [`Histogram::new`]: a derived `Default` would
/// start `min` at 0, where every later record and merge would leave it.
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimDuration`] sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (exact, from the running
    /// sum — not subject to bucketing error).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`, with bucket-bounded error.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Extracts the empirical CDF as a sequence of points (one per
    /// non-empty bucket), suitable for plotting Fig. 9-style curves.
    pub fn cdf(&self) -> Vec<CdfPoint> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push(CdfPoint {
                value: bucket_upper_edge(i).min(self.max),
                fraction: seen as f64 / self.count as f64,
            });
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_edges_bound_members() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1_000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            let edge = bucket_upper_edge(idx);
            assert!(edge >= v, "edge {edge} < value {v}");
            // Relative error bound: edge is within ~1/32 of the value.
            if v >= SUB_BUCKETS {
                assert!((edge - v) as f64 <= v as f64 / 16.0, "v={v} edge={edge}");
            }
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert_eq!(h.median(), 3);
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_order() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p10 = h.quantile(0.1);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p10 <= p50 && p50 <= p99);
        assert!((p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 500, 5_000, 50_000, 500_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].value < w[1].value);
            assert!(w[0].fraction <= w[1].fraction);
        }
        assert!((cdf.last().unwrap().fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn top_octave_samples_do_not_overflow_edges() {
        // The top bucket's upper edge is 2^64 - 1; the edge math used to
        // underflow there and panic in debug builds.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1 << 63);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.quantile(0.01) >= 1 << 63);
        let cdf = h.cdf();
        assert!((cdf.last().unwrap().fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_valued_samples_are_first_class() {
        // Zero-duration spans (a stage that begins and completes at the
        // same virtual instant) must record and rank like any sample.
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(100);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.quantile(1.0), 100);
        assert!((h.mean() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn identical_samples_quantile_exactly() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(777);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q={q}");
        }
    }

    #[test]
    fn default_is_new() {
        // Regression: a derived Default started `min` at 0, where every
        // record and merge left it.
        let mut recorded = Histogram::default();
        recorded.record(5);
        assert_eq!((recorded.min(), recorded.max()), (5, 5));
        let mut merged = Histogram::default();
        merged.merge(&recorded);
        assert_eq!((merged.count(), merged.min(), merged.max()), (1, 5, 5));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = (a.count(), a.min(), a.max());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max()), before);
    }
}
