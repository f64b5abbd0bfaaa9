//! Outstanding-request window bookkeeping for asynchronous clients.
//!
//! The paper's clients issue RPCs through an asynchronous
//! submit/poll-completion API and keep several requests outstanding so the
//! connection stays busy across time slices (§3.6.1; Storm makes the same
//! argument for RC dataplanes).  [`RequestWindow`] is the one record of a
//! client's requests in flight behind that API: at most `W` of them, each
//! a sequence number and an opaque tag (the harness stores the submit
//! timestamp, ScaleRPC's client FSM stores nothing).
//!
//! A window of capacity 1 is the seed's synchronous
//! one-request-at-a-time client.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// One in-flight request tracked by a [`RequestWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight<Tag> {
    pub seq: u64,
    pub tag: Tag,
}

/// Bounded set of in-flight requests keyed by sequence number.
#[derive(Debug, Clone)]
pub struct RequestWindow<Tag = ()> {
    capacity: usize,
    entries: Vec<InFlight<Tag>>,
}

impl<Tag> RequestWindow<Tag> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be at least 1");
        RequestWindow {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tracks `seq` as in flight. Returns `false` when the window is full
    /// (the caller must defer the request).
    pub fn submit(&mut self, seq: u64, tag: Tag) -> bool {
        if self.entries.len() == self.capacity {
            return false;
        }
        self.entries.push(InFlight { seq, tag });
        true
    }

    /// Retires the in-flight request with sequence number `seq`. Returns
    /// `None` for an unknown (or already completed) seq, so duplicate
    /// completions are detected rather than double-counted.
    pub fn complete(&mut self, seq: u64) -> Option<InFlight<Tag>> {
        let i = self.entries.iter().position(|f| f.seq == seq)?;
        Some(self.entries.swap_remove(i))
    }

    /// Whether `seq` is in flight. Retransmissions consult this so a
    /// retried request is not tracked twice.
    pub fn contains(&self, seq: u64) -> bool {
        self.entries.iter().any(|f| f.seq == seq)
    }

    /// The requests in flight, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &InFlight<Tag>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_window_refuses_until_a_completion_frees_room() {
        let mut w: RequestWindow<()> = RequestWindow::new(2);
        assert!(w.submit(10, ()));
        assert!(w.submit(11, ()));
        assert!(!w.submit(12, ()));
        assert!(!w.contains(12));
        assert_eq!(w.in_flight(), 2);
        assert_eq!(w.complete(10).map(|f| f.seq), Some(10));
        assert!(w.submit(12, ()));
        assert!(w.contains(11) && w.contains(12));
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
}
