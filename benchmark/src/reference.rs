//! A fixed reference kernel that gauges how fast the host is right now.
//!
//! On this host the wall time of one binary replaying one workload
//! drifts by tens of percent over tens of seconds (neighbours on the
//! machine; README, "Noise"), which no statistic over the rounds of one
//! run can remove, because a whole run sits inside one such phase. The
//! kernel below is timed between rounds, and each round's host seconds
//! are scaled by how much slower or faster than [`NOMINAL_S`] the
//! kernel ran around it. It is the benchmark's own code and uses
//! nothing of the crates under test, so no change to them can move it.
//!
//! The work is what the replays turned out to be sensitive to: for a
//! third of its time dependent loads over a table larger than the cache
//! (the hash-set walks of the LLC and NIC-cache models), for two thirds
//! small short-lived allocations (payloads, staged events). Measured
//! over four workloads while the host was at its noisiest, scaling by
//! this kernel took the spread of a run's median replay time from 15 %
//! to 5 %; a cache-resident binary-heap loop, which an earlier version
//! also ran, followed the host's phases least (12 % left) and was
//! dropped.

use std::hint::black_box;
use std::time::Instant;

/// What [`Reference::seconds`] reads on this host when it is quiet.
/// Host seconds are reported at this speed.
pub const NOMINAL_S: f64 = 0.036;

const TABLE_ENTRIES: usize = 8 << 20; // 32 MB of u32

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel and its table.
pub struct Reference {
    /// One random cycle through all entries, so every load depends on
    /// the one before and none is predictable.
    next: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Builds the table (Sattolo's shuffle: a single cycle).
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..TABLE_ENTRIES as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D;
        for i in (1..TABLE_ENTRIES).rev() {
            next.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Reference { next }
    }

    /// Runs the kernel once and returns its wall seconds.
    pub fn seconds(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..70_000 {
            at = self.next[at as usize];
        }
        let mut ring: Vec<Vec<u8>> = vec![Vec::new(); 64];
        for k in 0..2_000_000usize {
            ring[k % 64] = vec![k as u8; 32 + k % 7 * 16];
        }
        black_box((at, ring));
        start.elapsed().as_secs_f64()
    }

    /// Median of `n` runs of the kernel.
    pub fn median_seconds(&self, n: usize) -> f64 {
        let v: Vec<f64> = (0..n).map(|_| self.seconds()).collect();
        crate::stats::median(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_and_the_kernel_takes_time() {
        let r = Reference::new();
        // Following the links from 0 returns to 0 only after visiting
        // every entry.
        let (mut at, mut steps) = (r.next[0], 1usize);
        while at != 0 {
            at = r.next[at as usize];
            steps += 1;
        }
        assert_eq!(steps, TABLE_ENTRIES);
        let s = r.median_seconds(3);
        assert!(s > NOMINAL_S / 20.0 && s < NOMINAL_S * 20.0, "{s}");
    }
}
