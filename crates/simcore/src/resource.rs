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
    jobs: u64,
}

/// The outcome of scheduling one unit of work on a resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When service actually began (≥ arrival time).
    pub begin: SimTime,
    /// When the resource finishes this unit of work.
    pub complete: SimTime,
}

impl Grant {
    /// Time spent waiting in the queue before service began.
    pub fn queueing_delay(&self, arrival: SimTime) -> SimDuration {
        self.begin.saturating_since(arrival)
    }
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
        self.jobs += 1;
        Grant { begin, complete }
    }

    /// Like [`acquire`](Self::acquire) but the resource is released before
    /// the result is delivered: occupancy lasts `occupancy` while the
    /// completion is reported at `begin + latency`. This models pipelined
    /// units (a NIC engine issues a DMA and moves on before the data
    /// arrives).
    pub fn acquire_pipelined(
        &mut self,
        at: SimTime,
        occupancy: SimDuration,
        latency: SimDuration,
    ) -> Grant {
        let begin = at.max(self.busy_until);
        self.busy_until = begin + occupancy;
        self.busy_time += occupancy;
        self.jobs += 1;
        Grant {
            begin,
            complete: begin + latency.max(occupancy),
        }
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

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_nanos() == 0 {
            0.0
        } else {
            (self.busy_time.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
        }
    }
}

/// `k` identical servers fed from one queue (models a multi-engine NIC or
/// a pool of CPU cores). Work is placed on the earliest-free server.
///
/// Selection is indexed rather than scanned: a sorted set of idle server
/// indices plus a min-heap of `(busy_until, index)` entries make each
/// acquire `O(log k)`, so wide pools (many-core machines) stop paying a
/// per-acquire walk over every server. Grants are identical to the
/// original linear scan — the property tests below pin that equivalence.
#[derive(Clone, Debug)]
pub struct MultiResource {
    servers: Vec<FifoResource>,
    /// Servers idle at the arrival watermark, by index. `BTreeSet` so
    /// the lowest-indexed idle server is `O(log k)` away (the scan's
    /// tie-break rule).
    idle: std::collections::BTreeSet<usize>,
    /// Busy servers as `(busy_until, index)` min-heap entries. Entries
    /// are invalidated lazily: one whose time no longer matches the
    /// server's current `busy_until` was superseded by a later acquire
    /// and is discarded when it surfaces.
    busy: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    /// Highest arrival time seen; the index is only valid for
    /// nondecreasing arrivals, so older arrivals take an exact
    /// slow path.
    watermark: SimTime,
}

impl MultiResource {
    /// Creates a pool of `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "MultiResource needs at least one server");
        MultiResource {
            servers: vec![FifoResource::new(); k],
            idle: (0..k).collect(),
            busy: std::collections::BinaryHeap::new(),
            watermark: SimTime(0),
        }
    }

    /// Schedules work on the lowest-indexed server able to start at
    /// `at`, or the earliest-free server when all are busy (ties to the
    /// lowest index). Selection is deterministic and matches a strict
    /// earliest-free scan without walking the pool.
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> Grant {
        let idx = if at >= self.watermark {
            self.watermark = at;
            // Promote every server that has gone idle by `at`.
            while let Some(&std::cmp::Reverse((t, i))) = self.busy.peek() {
                // heap entries hold valid server indices
                if self.servers[i].busy_until() != t {
                    self.busy.pop();
                    continue;
                }
                if t > at {
                    break;
                }
                self.busy.pop();
                self.idle.insert(i);
            }
            match self.idle.first() {
                // Lowest-indexed idle server: starts immediately, and no
                // other server can start earlier.
                Some(&i) => i,
                // All busy: earliest `busy_until`, lowest index on ties —
                // exactly the heap order once stale entries are skipped.
                None => loop {
                    #[allow(
                        clippy::expect_used,
                        reason = "the busy heap is non-empty when no server is idle"
                    )]
                    let std::cmp::Reverse((t, i)) = self
                        .busy
                        .pop()
                        .expect("every non-idle server has a live heap entry");
                    if self.servers[i].busy_until() == t {
                        break i;
                    }
                },
            }
        } else {
            // Arrival before the watermark: the idle set may contain
            // servers that were idle *then* but not at `at`, so fall back
            // to the original scan (bit-exact selection), then resync the
            // index below like any other pick.
            let mut idx = 0;
            let mut best = self.servers[0].busy_until();
            if best > at {
                for (i, s) in self.servers.iter().enumerate().skip(1) {
                    let b = s.busy_until();
                    if b < best {
                        idx = i;
                        best = b;
                        if b <= at {
                            break;
                        }
                    }
                }
            }
            idx
        };
        self.idle.remove(&idx);
        let grant = self.servers[idx].acquire(at, service); // idx came from the idle set or the busy heap: < servers.len()
        self.busy
            .push(std::cmp::Reverse((self.servers[idx].busy_until(), idx))); // idx < servers.len()
        grant
    }

    /// Number of servers in the pool.
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// Aggregate busy time across servers.
    pub fn busy_time(&self) -> SimDuration {
        self.servers
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.busy_time())
    }

    /// Total jobs served across servers.
    pub fn jobs(&self) -> u64 {
        self.servers.iter().map(|s| s.jobs()).sum()
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
        assert_eq!(g.queueing_delay(SimTime(100)), SimDuration::ZERO);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), SimDuration(100));
        let g = r.acquire(SimTime(10), SimDuration(5));
        assert_eq!(g.begin, SimTime(100));
        assert_eq!(g.queueing_delay(SimTime(10)), SimDuration(90));
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
    fn pipelined_occupancy_shorter_than_latency() {
        let mut r = FifoResource::new();
        let g = r.acquire_pipelined(SimTime(0), SimDuration(10), SimDuration(100));
        assert_eq!(g.complete, SimTime(100));
        // The engine frees up after the occupancy, not the full latency.
        assert_eq!(r.busy_until(), SimTime(10));
        let g2 = r.acquire_pipelined(SimTime(0), SimDuration(10), SimDuration(100));
        assert_eq!(g2.begin, SimTime(10));
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), SimDuration(25));
        r.acquire(SimTime(0), SimDuration(25));
        assert!((r.utilization(SimTime(100)) - 0.5).abs() < 1e-12);
        assert_eq!(r.jobs(), 2);
    }

    #[test]
    fn multi_resource_runs_in_parallel() {
        let mut m = MultiResource::new(2);
        let a = m.acquire(SimTime(0), SimDuration(100));
        let b = m.acquire(SimTime(0), SimDuration(100));
        let c = m.acquire(SimTime(0), SimDuration(100));
        assert_eq!(a.complete, SimTime(100));
        assert_eq!(b.complete, SimTime(100));
        assert_eq!(c.begin, SimTime(100)); // third job waits for a server
        assert_eq!(m.jobs(), 3);
        assert_eq!(m.width(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_width_pool_rejected() {
        let _ = MultiResource::new(0);
    }

    /// The pre-index `MultiResource`: a linear scan stopping at the first
    /// idle-at-arrival server, kept verbatim as the reference model the
    /// indexed implementation must match grant-for-grant.
    struct RefMultiResource {
        servers: Vec<FifoResource>,
    }

    impl RefMultiResource {
        fn new(k: usize) -> Self {
            RefMultiResource {
                servers: vec![FifoResource::new(); k],
            }
        }

        fn acquire(&mut self, at: SimTime, service: SimDuration) -> Grant {
            let mut idx = 0;
            let mut best = self.servers[0].busy_until();
            if best > at {
                for (i, s) in self.servers.iter().enumerate().skip(1) {
                    let b = s.busy_until();
                    if b < best {
                        idx = i;
                        best = b;
                        if b <= at {
                            break;
                        }
                    }
                }
            }
            self.servers[idx].acquire(at, service)
        }
    }

    proptest::proptest! {
        /// Indexed acquire must be bit-identical to the linear scan:
        /// same grants, same per-server schedules — on arbitrary
        /// arrival sequences, including non-monotonic ones (the index
        /// takes its exact-scan slow path there).
        #[test]
        fn indexed_acquire_matches_linear_scan(
            width in 1usize..12,
            jobs in proptest::collection::vec((0u64..2000, 0u64..300), 0..200),
        ) {
            let mut fast = MultiResource::new(width);
            let mut slow = RefMultiResource::new(width);
            for (at, service) in jobs {
                let (at, service) = (SimTime(at), SimDuration(service));
                proptest::prop_assert_eq!(
                    fast.acquire(at, service),
                    slow.acquire(at, service)
                );
            }
            for (f, s) in fast.servers.iter().zip(&slow.servers) {
                proptest::prop_assert_eq!(f.busy_until(), s.busy_until());
                proptest::prop_assert_eq!(f.busy_time(), s.busy_time());
                proptest::prop_assert_eq!(f.jobs(), s.jobs());
            }
        }

        /// Monotonic-arrival traces (the simulator's actual usage) stay
        /// entirely on the indexed fast path and must match too.
        #[test]
        fn indexed_acquire_matches_scan_on_monotonic_arrivals(
            width in 1usize..12,
            jobs in proptest::collection::vec((0u64..100, 0u64..300), 0..200),
        ) {
            let mut fast = MultiResource::new(width);
            let mut slow = RefMultiResource::new(width);
            let mut now = 0u64;
            for (dt, service) in jobs {
                now += dt;
                let (at, service) = (SimTime(now), SimDuration(service));
                proptest::prop_assert_eq!(
                    fast.acquire(at, service),
                    slow.acquire(at, service)
                );
            }
        }
    }
}
