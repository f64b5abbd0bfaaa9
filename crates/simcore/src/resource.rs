//! Queueing resources.
//!
//! The fabric models every contended hardware unit — NIC tx/rx engines,
//! link ports, CPU worker threads — as a single-server FIFO queue: work
//! arriving at time `t` with service time `s` begins at
//! `max(t, busy_until)` and occupies the server until `begin + s`. This is
//! the standard discrete-event idiom for throughput-capped pipelines and
//! is what produces realistic saturation curves in the reproduced figures.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO resource.
///
/// # Examples
///
/// ```
/// use simcore::{FifoResource, SimDuration, SimTime};
///
/// let mut nic = FifoResource::new();
/// // Two verbs posted at t=0, each taking 50ns of NIC occupancy:
/// let a = nic.acquire(SimTime(0), SimDuration(50));
/// let b = nic.acquire(SimTime(0), SimDuration(50));
/// assert_eq!(a.complete, SimTime(50));
/// assert_eq!(b.complete, SimTime(100)); // queued behind the first
/// ```
#[derive(Clone, Debug, Default)]
pub struct FifoResource {
    busy_until: SimTime,
    busy_time: SimDuration,
}

/// The outcome of scheduling one unit of work on a resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When service actually began (≥ arrival time).
    pub begin: SimTime,
    /// When the resource finishes this unit of work.
    pub complete: SimTime,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `service` time of work arriving at `at`, returning when
    /// the work begins and completes. The resource is busy until
    /// `complete`.
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> Grant {
        let begin = at.max(self.busy_until);
        let complete = begin + service;
        self.busy_until = complete;
        self.busy_time += service;
        Grant { begin, complete }
    }

    /// The instant the resource becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the resource is idle at `at`.
    pub fn idle_at(&self, at: SimTime) -> bool {
        self.busy_until <= at
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let g = r.acquire(SimTime(100), SimDuration(10));
        assert_eq!(g.begin, SimTime(100));
        assert_eq!(g.complete, SimTime(110));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), SimDuration(100));
        let g = r.acquire(SimTime(10), SimDuration(5));
        assert_eq!(g.begin, SimTime(100));
    }

    #[test]
    fn late_arrival_after_idle_gap() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), SimDuration(10));
        let g = r.acquire(SimTime(50), SimDuration(10));
        assert_eq!(g.begin, SimTime(50));
        assert!(r.idle_at(SimTime(60)));
    }

    #[test]
    fn busy_time_accumulates_service() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), SimDuration(25));
        r.acquire(SimTime(0), SimDuration(25));
        assert_eq!(r.busy_time(), SimDuration(50));
    }
}
