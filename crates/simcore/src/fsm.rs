//! A state-machine field that cannot leave its transition table.

use core::fmt::Debug;

/// A state enum with a declared transition table.
pub trait Transitions: Copy + PartialEq + Debug {
    /// Whether the table has the edge `self → to`, for `self != to`
    /// (re-entering the current state is always legal).
    fn allows(self, to: Self) -> bool;
}

/// The current state of one machine. Its only write is [`Fsm::set`],
/// which panics — in every build profile — on an edge the table lacks:
/// a struct that keeps its state in an `Fsm` cannot assign it directly,
/// and every run, test and fuzz seed audits each transition it takes.
#[derive(Clone, Copy, Debug)]
pub struct Fsm<S>(S);

impl<S: Transitions> Fsm<S> {
    /// A machine starting in `initial`.
    pub fn new(initial: S) -> Self {
        Fsm(initial)
    }

    /// The current state.
    #[inline]
    pub fn get(&self) -> S {
        self.0
    }

    /// Moves to `to`.
    #[inline]
    pub fn set(&mut self, to: S) {
        let from = self.0;
        assert!(
            from == to || from.allows(to),
            "illegal {} transition {from:?} -> {to:?}",
            core::any::type_name::<S>()
        );
        self.0 = to;
    }
}
