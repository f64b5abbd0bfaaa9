//! Deterministic future-event list.
//!
//! The queue is a four-ary indexed heap keyed by `(time, sequence)`. The
//! sequence number makes simultaneous events pop in insertion order,
//! which keeps entire simulations bit-for-bit reproducible — a property
//! the hardware counter experiments (Fig. 3/10 of the paper) rely on.
//!
//! Heap entries are 24 bytes: the key plus the index of a stable *slot*.
//! A slot's payload sits in one array and its `(generation, heap
//! position)` in a dense side array, so sifts move small entries and
//! update 8-byte index records without ever touching the (much larger)
//! payloads, and [`cancel`](EventQueue::cancel) finds and removes an
//! entry in place in O(log n) — no tombstone set, and `pop` never probes
//! a hash table to ask "was this cancelled?". Slots are
//! generation-counted, so the [`EventId`] of an already-fired event can
//! never alias a newer one. Sifts carry the moving entry in a hole
//! (one store per level, not a swap) and compare keys as one packed
//! 128-bit integer; a removal sifts in exactly one direction. The
//! four-ary layout halves tree depth versus a binary heap.
//! [`bulk_cancel`](EventQueue::bulk_cancel) is the one lazy path: it
//! tombstones entries instead of restructuring per id, and `pop`/`peek`
//! discard tombstones at the front.

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// Packs a slot index and a generation counter; ids of fired or
/// cancelled events go stale and are rejected by
/// [`cancel`](EventQueue::cancel).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((gen as u64) << 32 | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap entry: ordering key plus the payload slot. Tombstoned entries
/// (from [`EventQueue::bulk_cancel`]) use `slot == TOMBSTONE`.
#[derive(Clone, Copy)]
struct HeapEnt {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEnt {
    /// `(time, seq)` packed so that one integer compare orders entries.
    #[inline]
    fn key(&self) -> u128 {
        (self.time.0 as u128) << 64 | self.seq as u128
    }
}

const TOMBSTONE: u32 = u32::MAX;

/// Per-slot bookkeeping, kept apart from the payloads.
struct SlotIndex {
    /// Bumped when the slot is vacated; stale [`EventId`]s never match.
    gen: u32,
    /// Current index of this slot's entry in `heap` (while occupied).
    pos: u32,
}

/// A future-event list with deterministic ordering, O(log n) push/pop
/// and O(log n) in-place cancellation.
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
    heap: Vec<HeapEnt>,
    /// Payload per slot; `None` while the slot sits on the free list.
    events: Vec<Option<E>>,
    /// Generation and heap position per slot, parallel to `events`.
    index: Vec<SlotIndex>,
    free: Vec<u32>,
    next_seq: u64,
    tombstones: usize,
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
            heap: Vec::new(),
            events: Vec::new(),
            index: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            tombstones: 0,
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
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        self.push_with_seq(time, self.next_seq, event)
    }

    /// Schedules `event` at `time` under an explicit sequence key
    /// instead of the queue's own insertion counter.
    ///
    /// This is the shard-merge entry point: a parallel engine replays
    /// the sequential engine's global push order by assigning each
    /// event the sequence number it would have received from the single
    /// global queue, so `(time, seq)` ordering — and therefore every
    /// same-instant tie-break — stays bit-identical to a sequential
    /// run. The internal counter is bumped past `seq` so later plain
    /// [`push`](Self::push) calls still sort after it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            time >= self.now,
            "scheduled event at {time:?} before now={:?}",
            self.now
        );
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        let slot = match self.free.pop() {
            Some(s) => {
                self.events[s as usize] = Some(event); // s popped from the free list: a live slot index
                s
            }
            None => {
                self.events.push(Some(event));
                self.index.push(SlotIndex { gen: 0, pos: 0 });
                (self.events.len() - 1) as u32
            }
        };
        let ent = HeapEnt { time, seq, slot };
        let pos = self.heap.len();
        self.heap.push(ent);
        self.sift_up(pos, ent);
        EventId::new(slot, self.index[slot as usize].gen) // slot was just allocated or reused above: in bounds
    }

    /// The heap position of a still-pending event; `None` for fired,
    /// cancelled, or unknown ids. A generation match alone proves the
    /// slot is occupied by this very event: vacating bumps it.
    fn position(&self, id: EventId) -> Option<usize> {
        let ix = self.index.get(id.slot() as usize)?;
        (ix.gen == id.gen()).then_some(ix.pos as usize)
    }

    /// Rewrites the sequence key of a still-pending event in place
    /// (O(log n)), restoring heap order. Returns `false` for fired,
    /// cancelled, or unknown ids.
    ///
    /// The shard merge uses this to resolve *provisional* sequence
    /// numbers (handed out while a shard executes a window in
    /// isolation) to the *final* global numbers computed by the
    /// deterministic cross-shard merge.
    pub fn set_seq(&mut self, id: EventId, seq: u64) -> bool {
        let Some(pos) = self.position(id) else {
            return false;
        };
        self.next_seq = self.next_seq.max(seq.wrapping_add(1));
        let ent = HeapEnt {
            seq,
            ..self.heap[pos] // index positions are kept current by place() on every heap move
        };
        self.resift(pos, ent);
        true
    }

    /// Like [`pop`](Self::pop), but also returns the event's sequence
    /// key, which the shard merge logs to reconstruct the global pop
    /// order.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            let ent = *self.heap.first()?;
            self.remove_at(0);
            if ent.slot == TOMBSTONE {
                self.tombstones -= 1;
                continue;
            }
            let event = self
                .vacate(ent.slot)
                .expect("live heap entry has a payload"); // simlint: allow(R3): non-tombstone heap entries always hold a payload
            self.now = ent.time;
            return Some((ent.time, ent.seq, event));
        }
    }

    /// Returns the `(time, seq)` key of the next pending event without
    /// popping it (tombstones at the front are discarded).
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let ent = *self.heap.first()?;
            if ent.slot == TOMBSTONE {
                self.remove_at(0);
                self.tombstones -= 1;
                continue;
            }
            return Some((ent.time, ent.seq));
        }
    }

    /// Cancels a previously scheduled event, removing its heap entry in
    /// place (O(log n), no tombstone).
    ///
    /// Cancelling an already-fired, already-cancelled or unknown id is a
    /// true no-op that leaves no bookkeeping behind, and returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.position(id) else {
            return false;
        };
        self.remove_at(pos);
        self.vacate(id.slot());
        true
    }

    /// Cancels a batch of events lazily: entries are tombstoned where
    /// they stand (O(1) per id) and discarded when they surface, which
    /// beats per-id restructuring when a caller tears down many pending
    /// events at once. Returns how many ids were still live.
    pub fn bulk_cancel(&mut self, ids: impl IntoIterator<Item = EventId>) -> usize {
        let mut cancelled = 0;
        for id in ids {
            let Some(pos) = self.position(id) else {
                continue;
            };
            self.heap[pos].slot = TOMBSTONE; // index positions are kept current by place() on every heap move
            self.tombstones += 1;
            self.vacate(id.slot());
            cancelled += 1;
        }
        cancelled
    }

    /// Pops the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(time, _, event)| (time, event))
    }

    /// Returns the timestamp of the next pending event, if any, without
    /// popping it. Tombstoned (bulk-cancelled) entries at the front are
    /// discarded.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(time, _)| time)
    }

    /// Number of events still scheduled (bulk-cancelled tombstones not
    /// yet discarded are excluded).
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstoned heap entries not yet discarded — nonzero only between
    /// a [`bulk_cancel`](Self::bulk_cancel) and the pops/peeks that
    /// surface the lazily cancelled entries.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Takes the payload out of `slot`, returns the slot to the free
    /// list and invalidates outstanding ids.
    fn vacate(&mut self, slot: u32) -> Option<E> {
        let ix = &mut self.index[slot as usize]; // slot ids handed out by push index both slot arrays
        ix.gen = ix.gen.wrapping_add(1);
        self.free.push(slot);
        self.events[slot as usize].take() // same slot-id invariant
    }

    /// Removes the heap entry at `pos`, restoring heap order.
    fn remove_at(&mut self, pos: usize) {
        let Some(last) = self.heap.pop() else {
            return;
        };
        // Unless the removed entry was the last one itself, the last
        // entry refills the hole it left.
        if pos < self.heap.len() {
            self.resift(pos, last);
        }
    }

    /// Writes `ent` at heap position `pos` and records the move.
    #[inline]
    fn place(&mut self, pos: usize, ent: HeapEnt) {
        self.heap[pos] = ent; // callers pass heap positions < heap.len()
        if ent.slot != TOMBSTONE {
            self.index[ent.slot as usize].pos = pos as u32; // non-tombstone slots are live indices
        }
    }

    /// Puts `ent` where it belongs given a hole at `pos`: up if it beats
    /// the hole's parent, down otherwise — never both.
    fn resift(&mut self, pos: usize, ent: HeapEnt) {
        // pos > 0 guard; parent < pos < heap.len()
        if pos > 0 && ent.key() < self.heap[(pos - 1) / 4].key() {
            self.sift_up(pos, ent);
        } else {
            self.sift_down(pos, ent);
        }
    }

    /// Moves the hole at `pos` up past every ancestor `ent` beats, then
    /// drops `ent` into it.
    fn sift_up(&mut self, mut pos: usize, ent: HeapEnt) {
        let key = ent.key();
        while pos > 0 {
            let parent = (pos - 1) / 4;
            let above = self.heap[parent]; // pos > 0 loop guard; parent < pos
            if key >= above.key() {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, ent);
    }

    /// Moves the hole at `pos` down past every smallest-child that beats
    /// `ent`, then drops `ent` into it.
    fn sift_down(&mut self, mut pos: usize, ent: HeapEnt) {
        let key = ent.key();
        loop {
            let first = 4 * pos + 1;
            let Some(children) = self.heap.get(first..(first + 4).min(self.heap.len())) else {
                break; // first > len: a leaf
            };
            let mut best = (0, u128::MAX);
            for (i, child) in children.iter().enumerate() {
                let k = child.key();
                let lt = k < best.1;
                best = (if lt { i } else { best.0 }, if lt { k } else { best.1 });
            }
            if best.1 >= key {
                break; // a leaf (no children), or heap order holds here
            }
            let child = children[best.0]; // best.0 is an enumerate() index of children
            self.place(pos, child);
            pos = first + best.0;
        }
        self.place(pos, ent);
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
        assert_eq!(q.tombstones(), 0, "no-op cancel must leave no residue");
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert!(q.is_empty());
        assert_eq!(q.tombstones(), 0);
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
    fn bulk_cancel_tombstones_then_drains() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10u64).map(|t| q.push(SimTime(t), t)).collect();
        let fired = q.pop().unwrap();
        assert_eq!(fired.1, 0);
        // Bulk-cancel evens (id 0 already fired) plus a stale repeat.
        let n = q.bulk_cancel(ids.iter().copied().step_by(2).chain([ids[0], ids[2]]));
        assert_eq!(n, 4, "ids 2,4,6,8 were live");
        assert_eq!(q.tombstones(), 4);
        assert_eq!(q.len(), 5);
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
        assert_eq!(q.tombstones(), 0, "drain discards every tombstone");
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

    /// The pre-optimization queue — `BinaryHeap` plus a lazily-consulted
    /// cancelled set — kept as a reference model for trace equivalence.
    /// Events are identified by their (unique) sequence key.
    mod reference {
        use super::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        pub struct RefQueue<E> {
            heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
            pub next_seq: u64,
            cancelled: HashSet<u64>,
            pub now: SimTime,
        }

        impl<E: Ord> RefQueue<E> {
            pub fn new() -> Self {
                RefQueue {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    cancelled: HashSet::new(),
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

    /// The side arrays agree with the heap: every non-tombstone entry's
    /// slot points back at its position and holds a payload, and every
    /// slot is either pending or on the free list.
    fn assert_index_consistent<E>(q: &EventQueue<E>) {
        let mut tombstones = 0;
        for (pos, ent) in q.heap.iter().enumerate() {
            if ent.slot == TOMBSTONE {
                tombstones += 1;
            } else {
                assert_eq!(q.index[ent.slot as usize].pos as usize, pos);
                assert!(q.events[ent.slot as usize].is_some());
            }
        }
        assert_eq!(tombstones, q.tombstones);
        assert_eq!(q.free.len() + q.len(), q.events.len());
        assert_eq!(q.index.len(), q.events.len());
    }

    proptest::proptest! {
        /// The indexed heap must replay any interleaved push /
        /// push_with_seq / set_seq / cancel / bulk_cancel / pop / peek
        /// script identically to the old binary-heap-plus-tombstones
        /// queue, accept exactly the ids that are still pending, and
        /// keep its position index consistent throughout.
        #[test]
        fn matches_binary_heap_reference_trace(
            script in proptest::collection::vec((0u8..8, 0u64..64), 1..400),
        ) {
            let mut fast = EventQueue::new();
            let mut slow = reference::RefQueue::new();
            // Per pushed event (its payload is its index here): the fast
            // id, the current seq key, and whether it is still pending.
            let mut ids = Vec::new();
            let mut seqs = Vec::new();
            let mut live = Vec::new();
            // Every seq key handed out so far, and a way to pick an
            // explicit one nobody holds, below or above the counter.
            let mut used = std::collections::HashSet::new();
            fn fresh(used: &mut std::collections::HashSet<u64>, next_seq: u64, arg: u64) -> u64 {
                let mut s = arg * 7919 % (next_seq + 16);
                while !used.insert(s) {
                    s += 1;
                }
                s
            }
            for (op, arg) in script {
                let n = ids.len();
                match op {
                    0 | 1 | 4 => {
                        // Push at now + arg (always legal), under the
                        // queue's own counter or an explicit key.
                        let t = SimTime(fast.now().as_nanos() + arg);
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
                    _ if n == 0 => {}
                    3 => {
                        // Cancel an arbitrary id: accepted iff pending.
                        let i = arg as usize % n;
                        proptest::prop_assert_eq!(fast.cancel(ids[i]), live[i]);
                        if std::mem::take(&mut live[i]) {
                            slow.cancel(seqs[i]);
                        }
                    }
                    5 => {
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
                    _ => {
                        // Tombstone a run of three ids (repeats and
                        // stale ids among them are skipped).
                        let batch: Vec<usize> = (0..3).map(|k| (arg as usize + k) % n).collect();
                        let mut pending = 0;
                        for &i in &batch {
                            if std::mem::take(&mut live[i]) {
                                slow.cancel(seqs[i]);
                                pending += 1;
                            }
                        }
                        let cancelled = fast.bulk_cancel(batch.iter().map(|&i| ids[i]));
                        proptest::prop_assert_eq!(cancelled, pending);
                    }
                }
                assert_index_consistent(&fast);
                proptest::prop_assert_eq!(fast.len(), live.iter().filter(|&&l| l).count());
                proptest::prop_assert_eq!(fast.peek_time(), slow.peek_time());
            }
            // Every id still pending must be found through the index...
            for i in (0..ids.len()).filter(|&i| live[i]) {
                let seq = fresh(&mut used, slow.next_seq, i as u64);
                proptest::prop_assert!(fast.set_seq(ids[i], seq));
                slow.set_seq(seqs[i], seq);
            }
            // ...the re-keyed queues drain identically...
            loop {
                let (f, s) = (fast.pop(), slow.pop());
                proptest::prop_assert_eq!(&f, &s);
                if f.is_none() {
                    break;
                }
            }
            assert_index_consistent(&fast);
            // ...and afterwards every id is stale.
            for &id in &ids {
                proptest::prop_assert!(!fast.cancel(id) && !fast.set_seq(id, 0));
            }
        }
    }
}
