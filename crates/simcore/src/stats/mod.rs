//! Measurement utilities for the benchmark harness.
//!
//! - [`Histogram`]: log-bucketed latency histogram with percentile and CDF
//!   extraction (used for Fig. 9's latency CDFs and median/avg/max table).
//! - [`CounterSet`]: named monotonically increasing counters, the software
//!   analogue of Intel PCM's PCIe event counters used in Fig. 3/10.

mod counters;
mod histogram;

pub use counters::CounterSet;
pub use histogram::{CdfPoint, Histogram};
