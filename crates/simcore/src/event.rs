//! Deterministic future-event list.
//!
//! The queue is a hierarchical timing wheel keyed by `(time, sequence)`.
//! The sequence number makes simultaneous events pop in insertion order,
//! which keeps entire simulations bit-for-bit reproducible — a property
//! the hardware counter experiments (Fig. 3/10 of the paper) rely on.
//!
//! Timestamps are read as five 13-bit digits (5 × 13 ≥ 64: every `u64`
//! distance has a level, nothing is clamped; 2^13 ns covers the few µs most
//! events are scheduled ahead). An event lives on the level of the highest
//! digit in which its time differs from `now`, in the bucket that digit
//! names. A level-0 bucket therefore *is* one nanosecond: its list holds
//! the same-instant events in `seq` order, so the next event is a list head:
//! no keys are compared to find it, and popping it unlinks that head where it
//! was found, the bitmaps untouched until the bucket empties. An upper-level
//! bucket keeps push order; when `pop` carries `now` into it, its events are
//! dealt out to the levels below. No occupied bucket lies behind `now`'s
//! digit, so the earliest event sits in the first occupied bucket of the
//! lowest occupied level: two `trailing_zeros` on a two-level bitmap. Only
//! `pop` moves the cursor; `peek` is a pure search, so a push at `now` after
//! one still lands in front.
//!
//! Events are nodes of intrusive circular lists threaded through a stable
//! slot array (payloads sit in a parallel array, touched once per pop):
//! push, pop, `cancel` and `set_seq` are O(1) and allocate nothing once the
//! arrays have grown. Slots are generation-counted, so a stale [`EventId`]
//! never aliases a newer event.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable to cancel it: a slot index
/// and a generation counter. Ids of fired or cancelled events go stale and
/// are rejected by [`cancel`](EventQueue::cancel).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Timestamp bits one wheel level resolves, and the buckets that makes.
const LEVEL_BITS: u32 = 13;
const BUCKETS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 5;
/// The null slot link.
const NIL: u32 = u32::MAX;

/// Per-slot bookkeeping, kept apart from the payloads.
#[derive(Default)]
struct Node {
    time: SimTime,
    seq: u64,
    /// Neighbours in the bucket's circular list; while the slot is vacant
    /// `next` links the free list instead.
    prev: u32,
    next: u32,
    /// Bumped when the slot is vacated; stale [`EventId`]s never match.
    gen: u32,
}

/// A future-event list with deterministic ordering and O(1) push, pop
/// and in-place cancellation.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(30), "c");
/// q.push(SimTime(10), "a");
/// q.push(SimTime(10), "b"); // same instant: FIFO order preserved
/// assert_eq!(q.pop(), Some((SimTime(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime(30), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// First slot of each bucket's list (`NIL` when empty), level-major;
    /// grown, with `words`, to cover a level when it is first used.
    heads: Vec<u32>,
    /// One bit per bucket: set iff its list is non-empty.
    words: Vec<u64>,
    /// Per level, one bit per entry of its `words`: set iff non-zero.
    summary: [u128; LEVELS],
    /// Key, links and generation per slot, parallel to `events`.
    nodes: Vec<Node>,
    /// Payload per slot; `None` while the slot sits on the free list.
    events: Vec<Option<E>>,
    /// Head of the free list threaded through `Node::next`.
    free: u32,
    len: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heads: Vec::new(),
            words: Vec::new(),
            summary: [0; LEVELS],
            nodes: Vec::new(),
            events: Vec::new(),
            free: NIL,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation "now").
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time —
    /// scheduling into the past is always a logic bug.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        self.push_with_seq(time, self.next_seq, event)
    }

    /// Schedules `event` at `time` under an explicit sequence key
    /// instead of the queue's own insertion counter.
    ///
    /// No engine calls this since the windowed shard merge was deleted;
    /// `tests/queue_stream.rs` scripts it to pin that `(time, seq)`
    /// ordering — and therefore every same-instant tie-break — follows
    /// the key, not the insertion order. The internal counter is bumped
    /// past `seq` so later plain
    /// [`push`](Self::push) calls still sort after it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    #[inline]
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduled event at {time:?} before now={:?}",
            self.now
        );
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        let mut slot = self.free;
        if slot == NIL {
            slot = self.nodes.len() as u32;
            self.events.push(None);
            self.nodes.push(Node::default());
        } else {
            self.free = self.node(slot).next;
        }
        self.events[slot as usize] = Some(event); // slot: just grown to, or off the free list
        let node = self.node_mut(slot);
        (node.time, node.seq) = (time, seq);
        self.len += 1;
        self.link(slot);
        let gen = self.node(slot).gen;
        EventId { slot, gen }
    }

    // Slot ids come from an EventId whose generation matched, a bucket head,
    // a list link or the free list — all hold indices push_with_seq handed
    // out, so they index `nodes`.
    fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize] // see above
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        &mut self.nodes[slot as usize] // see above
    }

    /// The bucket (level-major index) an event at `time` belongs in while
    /// the queue stands at `now`: on the level of the highest digit in
    /// which the two differ, the one `time`'s digit names.
    fn locate(&self, time: SimTime) -> usize {
        let level = (63 - ((time.0 ^ self.now.0) | 1).leading_zeros()) / LEVEL_BITS;
        level as usize * BUCKETS + (time.0 >> (level * LEVEL_BITS)) as usize % BUCKETS
    }

    /// Points `bucket` at `head` (`NIL` empties it), bitmaps in step.
    fn set_head(&mut self, bucket: usize, head: u32) {
        self.heads[bucket] = head; // link() grew the arrays over every bucket it fills
        let (w, bit) = (bucket / 64, 1u64 << (bucket % 64));
        let word = &mut self.words[w]; // same bound
        *word = (*word & !bit) | (bit * u64::from(head != NIL));
        let (summary, w) = (&mut self.summary[w * 64 / BUCKETS], w % (BUCKETS / 64)); // bucket's level
        *summary = (*summary & !(1 << w)) | (u128::from(*word != 0) << w);
    }

    /// Links a slot whose key is set into the bucket its time names. A
    /// level-0 list is kept in `seq` order, searched from the tail, where
    /// every in-order push lands at once; upper-level lists are appended to.
    fn link(&mut self, slot: u32) {
        let &Node { time, seq, .. } = self.node(slot);
        let bucket = self.locate(time);
        if bucket >= self.heads.len() {
            let buckets = (bucket / BUCKETS + 1) * BUCKETS;
            self.heads.resize(buckets, NIL);
            self.words.resize(buckets / 64, 0);
        }
        let head = self.heads[bucket]; // grown to cover it just above
        if head == NIL {
            self.set_head(bucket, slot);
            let node = self.node_mut(slot);
            (node.prev, node.next) = (slot, slot);
            return;
        }
        // `slot` goes in front of `at`: in front of the head that is the
        // tail, unless it `leads` (sorts before every entry).
        let (mut at, mut leads) = (head, false);
        while bucket < BUCKETS && !leads && self.node(self.node(at).prev).seq > seq {
            at = self.node(at).prev;
            leads = at == head;
        }
        let prev = self.node(at).prev;
        let node = self.node_mut(slot);
        (node.prev, node.next) = (prev, at);
        self.node_mut(prev).next = slot;
        self.node_mut(at).prev = slot;
        if leads {
            self.set_head(bucket, slot);
        }
    }

    /// Takes a linked `slot` out of `bucket`, the list it is in. The bitmaps
    /// are touched only when the bucket empties: a head taken from a bucket
    /// that keeps an event changes no bit.
    fn unlink(&mut self, bucket: usize, slot: u32) {
        let &Node { prev, next, .. } = self.node(slot);
        self.node_mut(prev).next = next;
        self.node_mut(next).prev = prev;
        // link() grew the arrays over the bucket of every linked slot
        if self.heads[bucket] == slot {
            if next == slot {
                self.set_head(bucket, NIL);
            } else {
                self.heads[bucket] = next;
            }
        }
    }

    /// The slot of a still-pending event; `None` for fired, cancelled,
    /// or unknown ids. A generation match alone proves the slot is
    /// occupied by this very event: vacating bumps it.
    fn pending(&self, id: EventId) -> Option<u32> {
        let node = self.nodes.get(id.slot as usize)?;
        (node.gen == id.gen).then_some(id.slot)
    }

    /// Rewrites the sequence key of a still-pending event in place
    /// (O(1) unless explicit keys arrive far out of order). Returns
    /// `false` for fired, cancelled, or unknown ids.
    ///
    /// Test-only surface since the windowed shard merge was deleted
    /// (`tests/queue_stream.rs` scripts it).
    pub fn set_seq(&mut self, id: EventId, seq: u64) -> bool {
        let Some(slot) = self.pending(id) else {
            return false;
        };
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        self.unlink(self.locate(self.node(slot).time), slot);
        self.node_mut(slot).seq = seq;
        self.link(slot);
        true
    }

    /// The earliest pending event's `(bucket, slot)`, found without moving
    /// anything: in the first occupied bucket of the lowest occupied level,
    /// the list head on level 0, else (many instants share it) the least key.
    fn earliest(&self) -> Option<(usize, u32)> {
        let level = self.summary.iter().position(|&s| s != 0)?;
        // level: a position() index; a summary bit is only set for a non-zero word
        let w = level * (BUCKETS / 64) + self.summary[level].trailing_zeros() as usize;
        let bucket = w * 64 + self.words[w].trailing_zeros() as usize; // see above
        let head = self.heads[bucket]; // a set bit is a grown-over bucket
        let key = |s| (self.node(s).time, self.node(s).seq);
        let (mut best, mut cur) = (head, self.node(head).next);
        while level > 0 && cur != head {
            if key(cur) < key(best) {
                best = cur;
            }
            cur = self.node(cur).next;
        }
        Some((bucket, best))
    }

    /// Like [`pop_at_or_before`](Self::pop_at_or_before), but also
    /// returns the event's sequence key (`pop_at_or_before` is this
    /// minus the key).
    pub fn pop_at_or_before_with_seq(&mut self, deadline: SimTime) -> Option<(SimTime, u64, E)> {
        let (bucket, slot) = self.earliest()?;
        let &Node { time, seq, .. } = self.node(slot);
        if time > deadline {
            return None;
        }
        self.unlink(bucket, slot); // earliest() found it there: no locate()
        self.now = time;
        let rest = self.heads[bucket]; // earliest() read this bucket
        if bucket >= BUCKETS && rest != NIL {
            // `now` has entered this upper-level bucket: what is left in it
            // is dealt out to the levels its distance from `now` names.
            self.set_head(bucket, NIL);
            let mut cur = rest;
            while cur != NIL {
                let after = self.node(cur).next;
                self.link(cur);
                cur = if after == rest { NIL } else { after };
            }
        }
        #[allow(clippy::expect_used, reason = "linked slots always hold a payload")]
        let event = self.vacate(slot).expect("pending slot has a payload");
        Some((time, seq, event))
    }

    /// Pops the earliest pending event if it is due at or before
    /// `deadline`, advancing `now` to it; otherwise moves nothing. One
    /// search per event, where `peek_time` followed by `pop` makes two.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (time, _, event) = self.pop_at_or_before_with_seq(deadline)?;
        Some((time, event))
    }

    /// Like [`pop`](Self::pop), but also returns the event's sequence key.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_at_or_before_with_seq(SimTime::MAX)
    }

    /// Pops the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Returns the `(time, seq)` key of the next pending event without
    /// popping it or moving the wheel.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        let node = self.node(self.earliest()?.1);
        Some((node.time, node.seq))
    }

    /// Returns the timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        Some(self.peek_key()?.0)
    }

    /// Cancels a previously scheduled event, unlinking it in place (O(1)).
    ///
    /// Cancelling an already-fired, already-cancelled or unknown id is a
    /// true no-op that leaves no bookkeeping behind, and returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.pending(id) else {
            return false;
        };
        self.unlink(self.locate(self.node(slot).time), slot);
        self.vacate(slot);
        true
    }

    /// Number of events still scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes the payload out of an unlinked `slot`, returns the slot to
    /// the free list and invalidates outstanding ids.
    fn vacate(&mut self, slot: u32) -> Option<E> {
        let free = self.free;
        let node = self.node_mut(slot);
        (node.gen, node.next) = (node.gen.wrapping_add(1), free);
        self.free = slot;
        self.len -= 1;
        self.events[slot as usize].take() // slot indexes both slot arrays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 1u32);
        q.push(SimTime(1), 2);
        q.push(SimTime(5), 3);
        q.push(SimTime(3), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(7));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), ());
        q.pop();
        q.push(SimTime(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime(9)));
        assert_eq!(q.pop(), Some((SimTime(9), "b")));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_heavy_interleaving_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..1000u32 {
            q.push(SimTime(42), i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_after_fire_is_a_true_no_op() {
        // Regression: the old tombstone-set implementation leaked the
        // sequence number of an already-popped event into its cancelled
        // set forever. Cancel of a fired id must reject and leave zero
        // bookkeeping behind.
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.push(SimTime(2), "b");
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        assert!(!q.cancel(a), "fired event must not cancel");
        assert!(!q.cancel(a), "repeat cancel still rejects");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_then_reused_slot_rejects_stale_id() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), 1u32);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel rejects");
        // The slot is recycled for a fresh push; the stale id must not
        // reach the new occupant.
        let b = q.push(SimTime(3), 2u32);
        assert!(!q.cancel(a), "stale id must not hit recycled slot");
        assert_eq!(q.pop(), Some((SimTime(3), 2)));
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancel_in_the_middle_keeps_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64).map(|t| q.push(SimTime(t), t)).collect();
        for (t, id) in ids.iter().enumerate() {
            if t % 3 == 1 {
                assert!(q.cancel(*id));
            }
        }
        let mut expect: Vec<u64> = (0..100).filter(|t| t % 3 != 1).collect();
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn peek_then_push_then_pop_stays_coherent() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 5u64);
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        q.push(SimTime(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        assert_eq!(q.pop(), Some((SimTime(5), 5)));
    }

    #[test]
    fn push_with_seq_orders_by_explicit_key() {
        let mut q = EventQueue::new();
        q.push_with_seq(SimTime(5), 10, "late");
        q.push_with_seq(SimTime(5), 3, "early");
        q.push_with_seq(SimTime(1), 99, "first");
        assert_eq!(q.pop_with_seq(), Some((SimTime(1), 99, "first")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(5), 3, "early")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(5), 10, "late")));
    }

    #[test]
    fn push_with_seq_bumps_internal_counter() {
        let mut q = EventQueue::new();
        q.push_with_seq(SimTime(5), 40, "explicit");
        q.push(SimTime(5), "plain"); // must sort after seq 40
        assert_eq!(q.pop(), Some((SimTime(5), "explicit")));
        assert_eq!(q.pop(), Some((SimTime(5), "plain")));
    }

    #[test]
    fn set_seq_reorders_pending_events() {
        let mut q = EventQueue::new();
        let a = q.push_with_seq(SimTime(7), 100, "a");
        q.push_with_seq(SimTime(7), 50, "b");
        assert_eq!(q.peek_key(), Some((SimTime(7), 50)));
        assert!(q.set_seq(a, 1)); // provisional → final, now ahead of b
        assert_eq!(q.peek_key(), Some((SimTime(7), 1)));
        assert_eq!(q.pop_with_seq(), Some((SimTime(7), 1, "a")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(7), 50, "b")));
    }

    #[test]
    fn set_seq_rejects_fired_and_stale_ids() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime(1), "a");
        q.pop();
        assert!(!q.set_seq(a, 0), "fired id must reject");
        let b = q.push(SimTime(2), "b");
        assert!(q.cancel(b));
        assert!(!q.set_seq(b, 0), "cancelled id must reject");
    }

    #[test]
    fn push_at_now_after_peeking_a_later_event_pops_first() {
        // The peeked event sits on an upper level; finding it must not
        // carry the cursor past instants that are still legal to push at.
        let mut q = EventQueue::new();
        q.push(SimTime(100), "start");
        q.pop();
        q.push(SimTime(50_000), "later");
        assert_eq!(q.peek_time(), Some(SimTime(50_000)));
        assert_eq!(q.pop_at_or_before(SimTime(49_999)), None);
        assert_eq!(q.now(), SimTime(100), "a refused pop moves nothing");
        q.push(SimTime(100), "at now");
        q.push(SimTime(9_000), "between");
        assert_wheel_consistent(&q);
        assert_eq!(q.pop(), Some((SimTime(100), "at now")));
        assert_eq!(
            q.pop_at_or_before(SimTime(9_000)),
            Some((SimTime(9_000), "between"))
        );
        assert_eq!(q.pop(), Some((SimTime(50_000), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn level0_pop_keeps_the_bucket_bit_until_its_last_event_leaves() {
        // Four events at one instant, a neighbour one nanosecond later and
        // one far event; each pop at the instant pushes a fresh event at
        // `now` for the first four pops, so the bucket's head is taken while
        // its tail grows.
        let (t, bucket) = (SimTime(7), 7);
        let bit = |q: &EventQueue<u32>, b: usize| q.words[b / 64] >> (b % 64) & 1 == 1;
        let mut q = EventQueue::new();
        for e in 0..4 {
            q.push(t, e);
            assert_wheel_consistent(&q);
        }
        q.push(SimTime(8), 100);
        q.push(SimTime(1 << 20), 200);
        assert_wheel_consistent(&q);
        let mut left_at_t = 4;
        for e in 0..8 {
            assert_eq!(q.pop(), Some((t, e)));
            left_at_t -= 1;
            assert_wheel_consistent(&q);
            if e < 4 {
                q.push(q.now(), 4 + e);
                left_at_t += 1;
                assert_wheel_consistent(&q);
            }
            assert_eq!(bit(&q, bucket), left_at_t > 0, "after popping {e}");
            assert!(bit(&q, bucket + 1), "the neighbour bucket is untouched");
        }
        assert_eq!(q.pop(), Some((SimTime(8), 100)));
        assert_eq!(q.summary[0], 0, "level 0 is empty");
        assert_eq!(q.pop(), Some((SimTime(1 << 20), 200)));
        assert_wheel_consistent(&q);
        assert!(q.is_empty());
    }

    #[test]
    fn event_at_time_max_waits_beside_near_traffic() {
        let mut q = EventQueue::new();
        let never = q.push(SimTime::MAX, u64::MAX);
        q.push(SimTime::MAX, u64::MAX - 1);
        for t in 0..20_000u64 {
            q.push(SimTime(t * 3), t);
            if t % 2 == 1 {
                assert_eq!(q.pop().map(|(_, e)| e), Some(t / 2));
            }
        }
        assert_wheel_consistent(&q);
        assert!(q.cancel(never));
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest.len(), 10_001);
        assert_eq!(rest.last(), Some(&(u64::MAX - 1)));
        assert_eq!(q.now(), SimTime::MAX);
        q.push(SimTime::MAX, 7); // still legal: not before now
        assert_eq!(q.pop(), Some((SimTime::MAX, 7)));
    }

    #[test]
    fn windowed_rekey_reorders_same_instant_entries() {
        // The seq-level surface at its hardest: entries pushed under
        // provisional keys are rekeyed in another order and meet
        // explicitly keyed pushes — at one instant, near (level 0) and
        // far (cascaded).
        const PROVISIONAL_BASE: u64 = 1 << 63;
        for t in [SimTime(40), SimTime(3_000_000)] {
            let mut q = EventQueue::new();
            let prov: Vec<EventId> = (0..6u64)
                .map(|k| q.push_with_seq(t, PROVISIONAL_BASE + k, k))
                .collect();
            let finals = [14u64, 11, 19, 10, 16, 12];
            for (id, fin) in prov.iter().zip(finals) {
                assert!(q.set_seq(*id, fin));
                assert_wheel_consistent(&q);
            }
            q.push_with_seq(t, 13, 100);
            q.push_with_seq(t, 9, 101);
            q.push(t, 102); // the counter stands past every provisional key
            let order: Vec<(u64, u64)> =
                std::iter::from_fn(|| q.pop_with_seq().map(|(_, s, e)| (s, e))).collect();
            let keys: Vec<u64> = order.iter().map(|o| o.0).collect();
            assert_eq!(keys[..8], [9, 10, 11, 12, 13, 14, 16, 19]);
            assert!(keys[8] >= PROVISIONAL_BASE + 6);
            let payloads: Vec<u64> = order.iter().map(|o| o.1).collect();
            assert_eq!(payloads, [101, 3, 1, 5, 100, 0, 4, 2, 102]);
        }
    }

    /// The pre-optimization queue — `BinaryHeap` plus a lazily-consulted
    /// cancelled set — kept as a reference model for trace equivalence.
    /// Events are identified by their (unique) sequence key.
    mod reference {
        use super::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BTreeSet, BinaryHeap};

        pub struct RefQueue<E> {
            heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
            pub next_seq: u64,
            cancelled: BTreeSet<u64>,
            pub now: SimTime,
        }

        impl<E: Ord> RefQueue<E> {
            pub fn new() -> Self {
                RefQueue {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    cancelled: BTreeSet::new(),
                    now: SimTime::ZERO,
                }
            }

            pub fn push(&mut self, time: SimTime, event: E) -> u64 {
                let seq = self.next_seq;
                self.push_with_seq(time, seq, event);
                seq
            }

            pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
                assert!(time >= self.now);
                self.next_seq = self.next_seq.max(seq + 1);
                self.heap.push(Reverse((time, seq, event)));
            }

            /// Re-keys the pending event `from` by rebuilding the heap.
            pub fn set_seq(&mut self, from: u64, to: u64) {
                self.next_seq = self.next_seq.max(to + 1);
                self.heap = std::mem::take(&mut self.heap)
                    .into_iter()
                    .map(|Reverse((t, s, e))| Reverse((t, if s == from { to } else { s }, e)))
                    .collect();
            }

            pub fn cancel(&mut self, seq: u64) {
                self.cancelled.insert(seq);
            }

            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                while let Some(Reverse((t, seq, e))) = self.heap.pop() {
                    if self.cancelled.remove(&seq) {
                        continue;
                    }
                    self.now = t;
                    return Some((t, e));
                }
                None
            }

            pub fn peek_time(&mut self) -> Option<SimTime> {
                while let Some(Reverse((t, seq, _))) = self.heap.peek() {
                    if self.cancelled.contains(seq) {
                        let seq = *seq;
                        self.heap.pop();
                        self.cancelled.remove(&seq);
                        continue;
                    }
                    return Some(*t);
                }
                None
            }
        }
    }

    /// The wheel's structure agrees with the slots: every pending slot is
    /// linked — consistently in both directions — in exactly the bucket
    /// `locate(time)` names, level-0 lists ascend in `seq`, a bitmap bit is
    /// set iff its list is non-empty, and every slot is either pending or
    /// on the free list.
    fn assert_wheel_consistent<E>(q: &EventQueue<E>) {
        let mut linked = vec![false; q.nodes.len()];
        assert_eq!(q.heads.len() % BUCKETS, 0);
        assert_eq!(q.words.len() * 64, q.heads.len());
        for (w, &word) in q.words.iter().enumerate() {
            let per_level = BUCKETS / 64;
            assert_eq!(
                q.summary[w / per_level] >> (w % per_level) & 1 == 1,
                word != 0
            );
        }
        for level in q.words.len() * 64 / BUCKETS..LEVELS {
            assert_eq!(
                q.summary[level], 0,
                "unallocated level {level} marked occupied"
            );
        }
        for (b, &head) in q.heads.iter().enumerate() {
            assert_eq!(q.words[b / 64] >> (b % 64) & 1 == 1, head != NIL);
            let mut cur = head;
            while cur != NIL {
                let n = q.node(cur);
                assert_eq!(q.locate(n.time), b, "slot {cur} in the wrong bucket");
                assert!(q.events[cur as usize].is_some());
                assert!(!std::mem::replace(&mut linked[cur as usize], true));
                assert_eq!(q.node(n.next).prev, cur);
                if n.next != head {
                    assert!(
                        b >= BUCKETS || n.seq < q.node(n.next).seq,
                        "level-0 list out of order"
                    );
                }
                cur = if n.next == head { NIL } else { n.next };
            }
        }
        assert_eq!(linked.iter().filter(|&&l| l).count(), q.len());
        let mut free = 0;
        let mut cur = q.free;
        while cur != NIL {
            assert!(!linked[cur as usize] && q.events[cur as usize].is_none());
            free += 1;
            cur = q.node(cur).next;
        }
        assert_eq!(free + q.len(), q.nodes.len());
        assert_eq!(q.nodes.len(), q.events.len());
    }

    proptest::proptest! {
        /// The wheel must replay any interleaved push / push_with_seq /
        /// set_seq / cancel / pop / bounded pop / peek script identically
        /// to the old binary-heap-plus-tombstones queue — with deltas
        /// drawn per decade up to 2^40 ns, so events land on, cascade
        /// through and are cancelled on every level the engine can reach,
        /// and explicit keys arriving out of order — accept exactly the
        /// ids that are still pending, and keep its lists and bitmaps
        /// consistent after every step.
        #[test]
        fn matches_binary_heap_reference_trace(
            script in proptest::collection::vec((0u8..8, 0u64..64, 0u32..41), 1..400),
        ) {
            let mut fast = EventQueue::new();
            let mut slow = reference::RefQueue::new();
            // Per pushed event (its payload is its index here): the fast
            // id, the current seq key, and whether it is still pending.
            let mut ids = Vec::new();
            let mut seqs = Vec::new();
            let mut live = Vec::new();
            // Every seq key handed out so far, and a way to pick an
            // explicit one nobody holds, below or above the counter: the
            // multiplier scatters successive picks, so they arrive out of
            // order.
            let mut used = std::collections::BTreeSet::new();
            fn fresh(used: &mut std::collections::BTreeSet<u64>, next_seq: u64, arg: u64) -> u64 {
                let mut s = arg * 7919 % (next_seq + 16);
                while !used.insert(s) {
                    s += 1;
                }
                s
            }
            for (op, arg, bits) in script {
                let n = ids.len();
                // A delta of exactly `bits` significant bits: 0, 1, 2..=3,
                // 4..=7, … one binary decade per draw, up to 2^40 ns.
                let top = 1u64 << bits >> 1;
                let delta = top + (arg.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20) % top.max(1);
                match op {
                    0 | 1 | 4 => {
                        // Push at now + delta (always legal), under the
                        // queue's own counter or an explicit key.
                        let t = SimTime(fast.now().as_nanos() + delta);
                        let seq = if op == 4 {
                            let seq = fresh(&mut used, slow.next_seq, arg);
                            ids.push(fast.push_with_seq(t, seq, n));
                            slow.push_with_seq(t, seq, n);
                            seq
                        } else {
                            ids.push(fast.push(t, n));
                            let seq = slow.push(t, n);
                            proptest::prop_assert!(used.insert(seq), "counter reissued seq {seq}");
                            seq
                        };
                        seqs.push(seq);
                        live.push(true);
                    }
                    2 | 7 => {
                        let popped = fast.pop();
                        proptest::prop_assert_eq!(popped, slow.pop());
                        proptest::prop_assert_eq!(fast.now(), slow.now);
                        if let Some((_, i)) = popped {
                            live[i] = false;
                        }
                    }
                    6 => {
                        // Bounded pop: fires iff the next event is due by
                        // the deadline, and otherwise moves nothing.
                        let deadline = SimTime(fast.now().as_nanos() + delta);
                        let due = slow.peek_time().is_some_and(|t| t <= deadline);
                        let popped = fast.pop_at_or_before(deadline);
                        proptest::prop_assert_eq!(popped, if due { slow.pop() } else { None });
                        proptest::prop_assert_eq!(fast.now(), slow.now);
                        if let Some((_, i)) = popped {
                            live[i] = false;
                        }
                    }
                    _ if n == 0 => {}
                    3 => {
                        // Cancel an arbitrary id: accepted iff pending.
                        let i = arg as usize % n;
                        proptest::prop_assert_eq!(fast.cancel(ids[i]), live[i]);
                        if std::mem::take(&mut live[i]) {
                            slow.cancel(seqs[i]);
                        }
                    }
                    _ => {
                        // Re-key an arbitrary id: accepted iff pending.
                        let i = arg as usize % n;
                        if live[i] {
                            let seq = fresh(&mut used, slow.next_seq, arg);
                            proptest::prop_assert!(fast.set_seq(ids[i], seq));
                            slow.set_seq(seqs[i], seq);
                            seqs[i] = seq;
                        } else {
                            proptest::prop_assert!(!fast.set_seq(ids[i], 0));
                        }
                    }
                }
                assert_wheel_consistent(&fast);
                proptest::prop_assert_eq!(fast.len(), live.iter().filter(|&&l| l).count());
                proptest::prop_assert_eq!(fast.peek_time(), slow.peek_time());
            }
            // Every id still pending must be found through its slot...
            for i in (0..ids.len()).filter(|&i| live[i]) {
                let seq = fresh(&mut used, slow.next_seq, i as u64);
                proptest::prop_assert!(fast.set_seq(ids[i], seq));
                slow.set_seq(seqs[i], seq);
            }
            // ...the re-keyed queues drain identically...
            loop {
                let (f, s) = (fast.pop(), slow.pop());
                proptest::prop_assert_eq!(&f, &s);
                assert_wheel_consistent(&fast);
                if f.is_none() {
                    break;
                }
            }
            // ...and afterwards every id is stale.
            for &id in &ids {
                proptest::prop_assert!(!fast.cancel(id) && !fast.set_seq(id, 0));
            }
        }
    }
}
