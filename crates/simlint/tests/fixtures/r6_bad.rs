//! R6 known-bad: a model crate reaching into the engine's queue.
use simcore::{EventQueue, SimTime};

pub struct Rogue {
    queue: EventQueue<u64>,
}

impl Rogue {
    pub fn schedule(&mut self, t: SimTime) {
        self.queue.push_with_seq(t, 7, 0);
        let _ = self.queue.pop_with_seq();
        let _ = self.queue.pop_at_or_before_with_seq(t);
    }
}
