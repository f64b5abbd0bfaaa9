//! The application side of the simulation driver.
//!
//! The engine ([`ShardedSim`](crate::ShardedSim)) owns the fabric, an
//! application [`Logic`], and an event queue carrying both
//! fabric-internal events and application events. The logic interacts
//! with the world exclusively through a [`Cx`], which can post verbs
//! (the fabric events they cause go straight into the engine's queue)
//! and set timers (application events, staged until the callback
//! returns).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rdma_fabric::fabric::Sched;
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

/// Where a [`Cx`] puts the application events its logic schedules: the
/// engine's staging vector, or a [`Cx::scoped`] adapter in front of it.
pub(crate) trait Stage<A> {
    /// Stages `ev` for time `at`, after everything staged so far.
    fn stage(&mut self, at: SimTime, ev: A);
}

impl<A> Stage<A> for Vec<(SimTime, A)> {
    #[inline]
    fn stage(&mut self, at: SimTime, ev: A) {
        self.push((at, ev));
    }
}

/// A scope's events, wrapped one by one into the enclosing context's
/// type as they are staged.
struct Wrapped<'s, A, F> {
    outer: &'s mut dyn Stage<A>,
    wrap: F,
}

impl<A, B, F: Fn(B) -> A> Stage<B> for Wrapped<'_, A, F> {
    #[inline]
    fn stage(&mut self, at: SimTime, ev: B) {
        self.outer.stage(at, (self.wrap)(ev));
    }
}

/// Capability handle given to logic callbacks.
pub struct Cx<'a, A> {
    /// Current simulation time.
    pub now: SimTime,
    /// The fabric (verbs, memory, counters).
    pub fabric: &'a mut Fabric,
    /// Where the fabric events of [`post`](Self::post) and
    /// [`connect_deferred`](Self::connect_deferred) go: the engine's
    /// queue, in the order they are produced.
    pub(crate) sched: &'a mut Sched<'a>,
    pub(crate) staged_app: &'a mut dyn Stage<A>,
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
        self.fabric
            .post(self.now, qp, wr, signaled, dst, &mut *self.sched)
    }

    /// Begins a modelled connection establishment between two RC/UC
    /// queue pairs at the current time; both ends reach RTS after the
    /// setup cost and the logic sees [`Upcall::ConnEstablished`].
    ///
    /// See [`Fabric::connect_deferred`] for semantics; the returned CPU
    /// duration is the caller's to account.
    pub fn connect_deferred(&mut self, a: QpId, b: QpId) -> VerbResult<SimDuration> {
        self.fabric
            .connect_deferred(self.now, a, b, &mut *self.sched)
    }

    /// Schedules an application event at absolute time `at`.
    pub fn at(&mut self, at: SimTime, ev: A) {
        self.staged_app.stage(at.max(self.now), ev);
    }

    /// Schedules an application event `after` from now.
    pub fn after(&mut self, after: SimDuration, ev: A) {
        self.staged_app.stage(self.now + after, ev);
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
        let mut staged = Wrapped {
            outer: &mut *self.staged_app,
            wrap,
        };
        f(&mut Cx {
            now: self.now,
            fabric: &mut *self.fabric,
            sched: &mut *self.sched,
            staged_app: &mut staged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::FabricParams;

    /// `Cx::scoped` as it was: the scope's events collected in a
    /// temporary vector and wrapped after the scope returned.
    fn scoped_via_vec<A, B>(
        cx: &mut Cx<'_, A>,
        wrap: impl Fn(B) -> A,
        f: impl FnOnce(&mut Cx<'_, B>),
    ) {
        let mut staged: Vec<(SimTime, B)> = Vec::new();
        f(&mut Cx {
            now: cx.now,
            fabric: &mut *cx.fabric,
            sched: &mut *cx.sched,
            staged_app: &mut staged,
        });
        for (t, ev) in staged {
            cx.staged_app.stage(t, wrap(ev));
        }
    }

    /// Timers before, inside, nested inside and after a scope, some of
    /// them in the past.
    fn script(cx: &mut Cx<'_, String>, via_vec: bool) {
        cx.at(SimTime(5), "a".into());
        let scope = |cx: &mut Cx<'_, u32>| {
            cx.after(SimDuration(3), 1);
            let nested = |cx: &mut Cx<'_, u8>| {
                cx.at(SimTime(0), 7);
                cx.after(SimDuration(1), 8);
            };
            if via_vec {
                scoped_via_vec(cx, u32::from, nested);
            } else {
                cx.scoped(u32::from, nested);
            }
            cx.at(SimTime(9), 2);
        };
        if via_vec {
            scoped_via_vec(cx, |n| format!("n{n}"), scope);
        } else {
            cx.scoped(|n| format!("n{n}"), scope);
        }
        cx.after(SimDuration(1), "z".into());
    }

    #[test]
    fn scoped_stages_in_the_order_the_temporary_vec_did() {
        let staged = [false, true].map(|via_vec| {
            let mut fabric = Fabric::new(FabricParams::default());
            let mut staged_app = Vec::new();
            let mut cx = Cx {
                now: SimTime(2),
                fabric: &mut fabric,
                sched: &mut |_, _| {},
                staged_app: &mut staged_app,
            };
            script(&mut cx, via_vec);
            staged_app
        });
        let want = [
            (5, "a"),
            (5, "n1"),
            (2, "n7"),
            (3, "n8"),
            (9, "n2"),
            (3, "z"),
        ];
        let want: Vec<_> = want
            .iter()
            .map(|&(t, e)| (SimTime(t), e.to_string()))
            .collect();
        assert_eq!(staged, [want.clone(), want]);
    }
}
