//! Experiment result collection.

use simcore::stats::{CdfPoint, Histogram};
use simcore::{SimDuration, SimTime};

/// The measured window of a run, both edges inclusive (runs cut it at
/// slice boundaries, where completions cluster on exact timestamps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// First measured instant (the end of warm-up).
    pub start: SimTime,
    /// Last measured instant; clients stop posting here.
    pub end: SimTime,
}

impl Window {
    /// The window that follows `warmup` and lasts `run`.
    pub fn after(warmup: SimDuration, run: SimDuration) -> Window {
        let start = SimTime::ZERO + warmup;
        let end = start + run;
        Window { start, end }
    }

    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t <= self.end
    }

    /// The window's length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// `count` per second of window (0 for an empty window).
    pub fn rate(&self, count: u64) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            count as f64 / secs
        }
    }
}

/// Throughput and latency results of one RPC benchmark run.
#[derive(Clone, Debug, Default)]
pub struct RpcMetrics {
    /// Completed operations inside the measurement window.
    pub ops: u64,
    /// Completed batches inside the measurement window.
    pub batches: u64,
    /// Batch latency histogram (nanoseconds), as defined by the paper:
    /// `T2 - T1` from posting a batch to its last response.
    pub batch_latency: Histogram,
    /// The measurement window.
    pub measured: Window,
}

impl RpcMetrics {
    /// Creates an empty collection for the given measurement window.
    pub fn new(measured: Window) -> Self {
        RpcMetrics {
            measured,
            ..Default::default()
        }
    }

    /// Records a completed batch of `ops` requests with the given batch
    /// latency, if it completed inside the window.
    pub fn record_batch(&mut self, completed_at: SimTime, ops: u64, latency: SimDuration) {
        if !self.measured.contains(completed_at) {
            return;
        }
        self.ops += ops;
        self.batches += 1;
        self.batch_latency.record_duration(latency);
    }

    /// The measurement window length.
    pub fn window(&self) -> SimDuration {
        self.measured.duration()
    }

    /// Overall throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.measured.rate(self.ops)
    }

    /// Overall throughput in millions of operations per second.
    pub fn mops(&self) -> f64 {
        self.ops_per_sec() / 1e6
    }

    /// Median batch latency in microseconds.
    pub fn median_us(&self) -> f64 {
        self.batch_latency.median() as f64 / 1e3
    }

    /// Mean batch latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.batch_latency.mean() / 1e3
    }

    /// Maximum batch latency in microseconds.
    pub fn max_us(&self) -> f64 {
        self.batch_latency.max() as f64 / 1e3
    }

    /// Latency at a quantile, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.batch_latency.quantile(q) as f64 / 1e3
    }

    /// The latency CDF (values in nanoseconds).
    pub fn latency_cdf(&self) -> Vec<CdfPoint> {
        self.batch_latency.cdf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: u64, end: u64) -> Window {
        Window {
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn window_filtering() {
        let mut m = RpcMetrics::new(window(1_000, 2_000));
        m.record_batch(SimTime(500), 8, SimDuration(100)); // before window
        m.record_batch(SimTime(1_500), 8, SimDuration(100)); // inside
        m.record_batch(SimTime(2_500), 8, SimDuration(100)); // after
        assert_eq!(m.ops, 8);
        assert_eq!(m.batches, 1);
    }

    #[test]
    fn rates_and_latencies() {
        let mut m = RpcMetrics::new(window(0, 1_000_000_000)); // 1s window
        for i in 0..1000 {
            m.record_batch(SimTime(i * 1_000_000), 10, SimDuration::micros(15));
        }
        assert_eq!(m.ops, 10_000);
        assert!((m.ops_per_sec() - 10_000.0).abs() < 1.0);
        assert!((m.mops() - 0.01).abs() < 1e-6);
        assert!((m.median_us() - 15.0).abs() < 1.0);
        assert!((m.mean_us() - 15.0).abs() < 0.01);
        assert!((m.max_us() - 15.0).abs() < 1.0);
    }

    #[test]
    fn window_boundaries_are_inclusive() {
        // Batches completing exactly at either window edge are part of
        // the measurement — Fig. 8-style runs cut the window at slice
        // boundaries, where completions cluster on exact timestamps.
        let mut m = RpcMetrics::new(window(1_000, 2_000));
        m.record_batch(SimTime(1_000), 4, SimDuration(10));
        m.record_batch(SimTime(2_000), 4, SimDuration(10));
        m.record_batch(SimTime(999), 4, SimDuration(10));
        m.record_batch(SimTime(2_001), 4, SimDuration(10));
        assert_eq!(m.batches, 2);
        assert_eq!(m.ops, 8);
    }

    #[test]
    fn zero_duration_batches_record_cleanly() {
        // A zero-latency batch (post and last response at the same
        // virtual instant) is a legal sample, not a dropped one.
        let mut m = RpcMetrics::new(window(0, 1_000));
        m.record_batch(SimTime(500), 8, SimDuration::ZERO);
        m.record_batch(SimTime(500), 8, SimDuration(2_000));
        assert_eq!(m.batches, 2);
        assert_eq!(m.median_us(), 0.0);
        assert_eq!(m.max_us(), 2.0);
        assert_eq!(m.batch_latency.min(), 0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RpcMetrics::new(window(0, 0));
        assert_eq!(m.mops(), 0.0);
        assert_eq!(m.median_us(), 0.0);
        assert!(m.latency_cdf().is_empty());
    }
}
