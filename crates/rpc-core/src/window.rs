//! Outstanding-request window bookkeeping for asynchronous clients.
//!
//! The paper's clients issue RPCs through an asynchronous
//! submit/poll-completion API and keep several requests outstanding so the
//! connection stays busy across time slices (§3.6.1; Storm makes the same
//! argument for RC dataplanes).  [`RequestWindow`] is the shared slot
//! tracker behind that API: a fixed capacity `W`, one slot per in-flight
//! request, LIFO slot reuse so replays are deterministic, and an opaque
//! per-slot tag (the harness stores the submit timestamp, ScaleRPC's
//! client FSM stores nothing).
//!
//! A window of capacity 1 degenerates to the seed's synchronous
//! one-request-at-a-time client and must not change its behaviour.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// One in-flight request tracked by a [`RequestWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight<Tag> {
    pub seq: u64,
    pub tag: Tag,
}

/// Returned by [`RequestWindow::complete`]: the freed slot and the data
/// recorded at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed<Tag> {
    pub slot: usize,
    pub seq: u64,
    pub tag: Tag,
}

/// Fixed-capacity set of in-flight requests keyed by sequence number.
///
/// Slots are reused LIFO (the most recently freed slot is handed out
/// first) so the slot sequence is a pure function of the submit/complete
/// interleaving — important for deterministic replay.
#[derive(Debug, Clone)]
pub struct RequestWindow<Tag = ()> {
    slots: Vec<Option<InFlight<Tag>>>,
    /// Free-slot stack; top of stack is handed out next.
    free: Vec<usize>,
}

impl<Tag> RequestWindow<Tag> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be at least 1");
        RequestWindow {
            slots: (0..capacity).map(|_| None).collect(),
            // Reverse so slot 0 is on top and fills first.
            free: (0..capacity).rev().collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    pub fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Claim a slot for `seq`. Returns the slot index, or `None` when the
    /// window is full (the caller must defer the request).
    pub fn submit(&mut self, seq: u64, tag: Tag) -> Option<usize> {
        let slot = self.free.pop()?;
        debug_assert!(self.slots[slot].is_none()); // slot popped from the free list: always < slots.len()
        self.slots[slot] = Some(InFlight { seq, tag });
        Some(slot)
    }

    /// Retire the in-flight request with sequence number `seq`, freeing its
    /// slot. Returns `None` for an unknown (or already completed) seq, so
    /// duplicate completions are detected rather than double-counted.
    pub fn complete(&mut self, seq: u64) -> Option<Completed<Tag>> {
        let slot = self
            .slots
            .iter()
            .position(|s| matches!(s, Some(f) if f.seq == seq))?;
        #[allow(clippy::unwrap_used, reason = "position() found this slot occupied")]
        let InFlight { seq, tag } = self.slots[slot].take().unwrap();
        self.free.push(slot);
        Some(Completed { slot, seq, tag })
    }

    /// Whether `seq` currently occupies a slot. Retransmissions consult
    /// this so a retried request does not claim a second slot.
    pub fn contains(&self, seq: u64) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s, Some(f) if f.seq == seq))
    }

    /// Iterate over occupied slots as `(slot index, in-flight entry)`.
    pub fn iter_in_flight(&self) -> impl Iterator<Item = (usize, &InFlight<Tag>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|f| (i, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_slots_lowest_first_and_reuses_lifo() {
        let mut w: RequestWindow<()> = RequestWindow::new(3);
        assert_eq!(w.submit(10, ()), Some(0));
        assert_eq!(w.submit(11, ()), Some(1));
        assert_eq!(w.submit(12, ()), Some(2));
        assert!(w.is_full());
        assert_eq!(w.submit(13, ()), None);
        let c = w.complete(11).unwrap();
        assert_eq!((c.slot, c.seq), (1, 11));
        // Most recently freed slot is reused first.
        assert_eq!(w.submit(13, ()), Some(1));
    }

    #[test]
    fn duplicate_and_unknown_completions_return_none() {
        let mut w = RequestWindow::new(2);
        w.submit(5, 99u64);
        let c = w.complete(5).unwrap();
        assert_eq!(c.tag, 99);
        assert!(w.complete(5).is_none());
        assert!(w.complete(6).is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn capacity_one_is_a_synchronous_client() {
        let mut w: RequestWindow<()> = RequestWindow::new(1);
        assert_eq!(w.submit(0, ()), Some(0));
        assert!(w.is_full());
        assert_eq!(w.submit(1, ()), None);
        assert!(w.complete(0).is_some());
        assert_eq!(w.submit(1, ()), Some(0));
    }
}
