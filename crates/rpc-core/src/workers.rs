//! Server worker-thread pool.
//!
//! Each RPC server runs a fixed set of worker threads; every client zone
//! (or UD queue) is owned by exactly one worker. Workers are modelled as
//! FIFO CPU resources: request handling occupies the owning worker for
//! the polling + cache + handler + response-post time, so server CPU
//! saturation emerges naturally.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use simcore::{FifoResource, SimDuration, SimTime};

/// A pool of server worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    threads: Vec<FifoResource>,
}

impl WorkerPool {
    /// Creates `n` idle workers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        WorkerPool {
            threads: vec![FifoResource::new(); n],
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Always false (the pool is never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The worker owning zone/queue `zone` (static round-robin
    /// partitioning, as in the paper: "different message zones are owned
    /// by different working threads").
    pub fn owner_of(&self, zone: usize) -> usize {
        zone % self.threads.len()
    }

    /// Occupies worker `w` for `service` starting no earlier than `at`;
    /// returns when the work completes.
    pub fn run(&mut self, w: usize, at: SimTime, service: SimDuration) -> SimTime {
        self.threads[w].acquire(at, service).complete // w comes from owner_of(): < threads.len()
    }

    /// When worker `w` becomes idle.
    pub fn idle_at(&self, w: usize) -> SimTime {
        self.threads[w].busy_until() // w comes from owner_of(): < threads.len()
    }

    /// Aggregate busy time (utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.threads
            .iter()
            .fold(SimDuration::ZERO, |acc, t| acc + t.busy_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_partition_over_workers() {
        let w = WorkerPool::new(4);
        assert_eq!(w.owner_of(0), 0);
        assert_eq!(w.owner_of(5), 1);
        assert_eq!(w.owner_of(7), 3);
    }

    #[test]
    fn work_queues_fifo_per_worker() {
        let mut w = WorkerPool::new(2);
        let a = w.run(0, SimTime(0), SimDuration(100));
        let b = w.run(0, SimTime(10), SimDuration(100));
        let c = w.run(1, SimTime(10), SimDuration(100));
        assert_eq!(a, SimTime(100));
        assert_eq!(b, SimTime(200)); // queued behind a on worker 0
        assert_eq!(c, SimTime(110)); // worker 1 independent
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkerPool::new(0);
    }
}
