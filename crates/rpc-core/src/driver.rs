//! The application side of the simulation driver.
//!
//! The engine ([`ShardedSim`](crate::ShardedSim)) owns the fabric, an
//! application [`Logic`], and an event queue carrying both
//! fabric-internal events and application events. The logic interacts
//! with the world exclusively through a [`Cx`], which can post verbs
//! (fabric events are scheduled transparently) and set timers
//! (application events).

use rdma_fabric::{Fabric, FabricEvent, PostInfo, QpId, Upcall, VerbResult, WorkRequest};
use simcore::{SimDuration, SimTime};

/// One event in the unified queue.
pub enum Ev<A> {
    /// Fabric-internal pipeline step.
    Fabric(FabricEvent),
    /// Application-defined event (timers, actor wakeups…).
    App(A),
}

/// The application side of a simulation.
pub trait Logic {
    /// Application event type.
    type Ev;

    /// Called once before the first event is processed.
    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>);

    /// Called for every fabric upcall (completions, inbound memory
    /// writes). Logic that shares the fabric with other components must
    /// ignore upcalls it does not recognize.
    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>);

    /// Called for every application event.
    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>);
}

/// Capability handle given to logic callbacks.
pub struct Cx<'a, A> {
    /// Current simulation time.
    pub now: SimTime,
    /// The fabric (verbs, memory, counters).
    pub fabric: &'a mut Fabric,
    pub(crate) staged_fabric: &'a mut Vec<(SimTime, FabricEvent)>,
    pub(crate) staged_app: &'a mut Vec<(SimTime, A)>,
}

impl<'a, A> Cx<'a, A> {
    /// Posts a send-side work request on `qp` at the current time.
    ///
    /// See [`Fabric::post`] for the semantics of `signaled` and `dst`.
    pub fn post(
        &mut self,
        qp: QpId,
        wr: WorkRequest,
        signaled: bool,
        dst: Option<QpId>,
    ) -> VerbResult<PostInfo> {
        let now = self.now;
        let staged = &mut *self.staged_fabric;
        self.fabric.post(now, qp, wr, signaled, dst, &mut |t, ev| {
            staged.push((t, ev))
        })
    }

    /// Begins a modelled connection establishment between two RC/UC
    /// queue pairs at the current time; both ends reach RTS after the
    /// setup cost and the logic sees [`Upcall::ConnEstablished`].
    ///
    /// See [`Fabric::connect_deferred`] for semantics; the returned CPU
    /// duration is the caller's to account.
    pub fn connect_deferred(&mut self, a: QpId, b: QpId) -> VerbResult<SimDuration> {
        let now = self.now;
        let staged = &mut *self.staged_fabric;
        self.fabric
            .connect_deferred(now, a, b, &mut |t, ev| staged.push((t, ev)))
    }

    /// Schedules an application event at absolute time `at`.
    pub fn at(&mut self, at: SimTime, ev: A) {
        self.staged_app.push((at.max(self.now), ev));
    }

    /// Schedules an application event `after` from now.
    pub fn after(&mut self, after: SimDuration, ev: A) {
        let t = self.now + after;
        self.staged_app.push((t, ev));
    }

    /// Runs `f` with a context whose application-event type is `B`,
    /// mapping every event `f` schedules through `wrap`. This is how
    /// composite logics (the benchmark harness, the multi-server
    /// transaction driver) embed transports with their own event types.
    pub fn scoped<B, R>(
        &mut self,
        wrap: impl Fn(B) -> A,
        f: impl FnOnce(&mut Cx<'_, B>) -> R,
    ) -> R {
        let mut staged: Vec<(SimTime, B)> = Vec::new();
        let r = {
            let mut inner = Cx {
                now: self.now,
                fabric: &mut *self.fabric,
                staged_fabric: &mut *self.staged_fabric,
                staged_app: &mut staged,
            };
            f(&mut inner)
        };
        for (t, ev) in staged {
            self.staged_app.push((t, wrap(ev)));
        }
        r
    }
}
