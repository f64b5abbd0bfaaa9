//! Event-queue pop-stream golden: an FNV-1a fold of every `(time, payload)`
//! popped — and of every `cancel` verdict, bounded-pop refusal,
//! `peek_time`, `now` and `len` observed on the way — over one scripted
//! push / pop / bounded pop / cancel trace.
//!
//! The trace's deltas span 0 ns … 10 s: same-instant bursts, every
//! power-of-8 192 boundary (±1 ns), a decade ladder, far timers that are
//! cancelled while still far, and laps in which nothing is due for
//! milliseconds, with `now` carried across the 2^39 and 2^52 ns edges and
//! a `SimTime::MAX` timer beside the traffic. The value was captured on the
//! parent of the change that retired explicit keys (a timing wheel still
//! ordering same-instant events by a per-event sequence number) and must
//! never be re-blessed: any representation of the future-event list has to
//! pop the same events in the same order — by time, then in push order.

use simcore::{EventId, EventQueue, SimTime};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the script's only source of choices.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Deltas at and around every 13-bit digit boundary, then one per decade.
const EDGES: [u64; 16] = [
    0,
    1,
    (1 << 13) - 1,
    1 << 13,
    (1 << 13) + 1,
    (1 << 26) - 1,
    1 << 26,
    (1 << 26) + 1,
    (1 << 33) - 1,
    1 << 33,
    10,
    1_000,
    100_000,
    10_000_000,
    1_000_000_000,
    10_000_000_000,
];

struct Driver {
    q: EventQueue<u64>,
    fold: Fnv,
    rng: Script,
    ids: Vec<EventId>,
}

impl Driver {
    fn delta(&mut self) -> u64 {
        match self.rng.below(8) {
            0 => EDGES[self.rng.below(EDGES.len() as u64) as usize],
            1 => 0,
            // A decade ladder: uniform below 10^k, k = 1..=10.
            2 | 3 => {
                let k = 1 + self.rng.below(10) as u32;
                self.rng.below(10u64.pow(k))
            }
            // The engine's common case: a few hundred ns to a few µs.
            _ => 200 + self.rng.below(4_000),
        }
    }

    /// Pushes at `t`; the payload is the push's index.
    fn push_at(&mut self, t: SimTime) {
        let payload = self.ids.len() as u64;
        let id = self.q.push(t, payload);
        self.ids.push(id);
    }

    fn push(&mut self) {
        let t = SimTime(self.q.now().as_nanos() + self.delta());
        self.push_at(t);
    }

    fn fold_popped(&mut self, popped: Option<(SimTime, u64)>) -> bool {
        let Some((t, payload)) = popped else {
            self.fold.word(u64::MAX);
            return false;
        };
        assert_eq!(self.q.now(), t);
        self.fold.word(t.as_nanos());
        self.fold.word(payload);
        true
    }

    fn pop(&mut self) -> bool {
        let popped = self.q.pop();
        self.fold_popped(popped)
    }

    /// Pops only what is due by `now + delta`; a refusal moves nothing.
    fn pop_bounded(&mut self) {
        let deadline = SimTime(self.q.now().as_nanos() + self.delta());
        let popped = self.q.pop_at_or_before(deadline);
        self.fold_popped(popped);
        self.fold.word(self.q.now().as_nanos());
    }

    /// Index of a recent push — pending more often than not.
    fn any_event(&mut self) -> Option<usize> {
        let n = self.ids.len() as u64;
        let back = self.rng.below(n.clamp(1, 2_048));
        n.checked_sub(1 + back).map(|i| i as usize)
    }

    fn step(&mut self, push_weight: u64) {
        match self.rng.below(16) {
            r if r < push_weight => self.push(),
            12 => {
                if let Some(i) = self.any_event() {
                    let hit = self.q.cancel(self.ids[i]);
                    self.fold.word(hit as u64);
                }
            }
            13 => self.pop_bounded(),
            14 | 15 => {
                let t = self.q.peek_time().map_or(u64::MAX, |t| t.as_nanos());
                self.fold.word(t);
                self.fold.word(self.q.len() as u64);
            }
            _ => {
                self.pop();
            }
        }
    }
}

fn run(seed: u64) -> u64 {
    let mut d = Driver {
        q: EventQueue::new(),
        fold: Fnv(0xcbf2_9ce4_8422_2325),
        rng: Script(seed),
        ids: Vec::new(),
    };
    for lap in 0..6 {
        // Laps 0 and 3 first jump `now` to just short of a 2^39 / 2^52 ns
        // boundary, so their traffic straddles the two upper digit edges.
        if let 0 | 3 = lap {
            let edge = 1u64 << if lap == 0 { 39 } else { 52 };
            d.push_at(SimTime(edge - 3_000_000_000));
            assert!(d.pop());
        }
        // Grow (pushes outweigh pops), hold, then shrink to nothing: the
        // drain walks through the far timers with no near traffic left.
        for _ in 0..6_000 {
            d.step(9);
        }
        // An "infinitely far" timer sits beside the held traffic of every lap
        // (the script's own cancels may hit it early), cancelled before
        // the drain; the last drain pops one instead.
        d.push_at(SimTime::MAX);
        let far = d.ids.len() - 1;
        for _ in 0..12_000 {
            d.step(6);
        }
        // Same-instant bursts in the middle of traffic: one due almost at
        // once, one milliseconds out (still far, so it cascades before it
        // pops), then bounded pops that reach into the near one.
        for ahead in [700, 5_000_000] {
            let t = SimTime(d.q.now().as_nanos() + ahead);
            for _ in 0..300 {
                d.push_at(t);
            }
        }
        for _ in 0..100 {
            d.pop_bounded();
        }
        let hit = d.q.cancel(d.ids[far]);
        d.fold.word(hit as u64);
        if lap == 5 {
            d.push_at(SimTime::MAX);
        }
        while d.pop() {}
        assert!(d.q.is_empty());
    }
    assert_eq!(d.q.now(), SimTime::MAX);
    d.fold.0
}

#[test]
fn pop_stream_matches_the_capture() {
    assert_eq!(run(15), GOLDEN_15);
    assert_eq!(run(0xdead_beef), GOLDEN_BEEF);
}

const GOLDEN_15: u64 = 6_044_291_791_960_417_224;
const GOLDEN_BEEF: u64 = 5_648_816_883_906_290_755;

/// A bucket is one instant and its list is popped at the head: a burst of
/// same-instant events drains in push order in time linear in the burst.
/// A bucket walk per pop would make this 2 × 10^10 steps.
#[test]
#[allow(clippy::disallowed_methods, reason = "the test bounds host wall time")]
fn same_instant_burst_drains_fifo_in_linear_time() {
    const BURST: u64 = 200_000;
    let started = std::time::Instant::now();
    for t in [SimTime(42), SimTime(5_000_000_000)] {
        let mut q = EventQueue::new();
        for i in 0..BURST {
            q.push(t, i);
        }
        for i in 0..BURST {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }
    assert!(
        started.elapsed().as_secs_f64() < 2.0,
        "draining two same-instant bursts took {:?}",
        started.elapsed()
    );
}

/// The next event is found through the occupancy bitmaps, not by stepping
/// over empty buckets: one event every 10 ms is 10^7 empty level-0
/// buckets per pop.
#[test]
#[allow(clippy::disallowed_methods, reason = "the test bounds host wall time")]
fn sparse_queue_pops_without_walking_empty_buckets() {
    let started = std::time::Instant::now();
    let mut q = EventQueue::new();
    for lap in 0..50u64 {
        for i in 1..=100u64 {
            q.push(SimTime(lap * 1_000_000_000 + i * 10_000_000), i);
        }
        for i in 1..=100u64 {
            assert_eq!(
                q.peek_time(),
                Some(SimTime(lap * 1_000_000_000 + i * 10_000_000))
            );
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }
    assert!(
        started.elapsed().as_secs_f64() < 1.0,
        "5 000 sparse pops took {:?}",
        started.elapsed()
    );
}
