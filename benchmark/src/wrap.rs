//! Wrappers around the public traits of the crates under test. Each
//! forwards every call unchanged and reports it to a [`Probe`]; with
//! [`spans::Off`](crate::spans::Off) the report is empty and the wrapper
//! is the bare type, with [`spans::On`](crate::spans::On) every call
//! becomes a host-time span. Nothing under `crates/` knows about them.

use crate::spans::{within, Layer, Probe};
use bytes::Bytes;
use rdma_fabric::{Fabric, QpId, Upcall};
use rpc_core::cluster::ClientId;
use rpc_core::driver::{Cx, Logic};
use rpc_core::transport::{
    ClientOverhead, LifecycleEv, OneSidedAccess, Response, RpcTransport, ServerHandler,
};
use simcore::SimDuration;
use std::marker::PhantomData;

/// A [`Logic`] whose callbacks are spans of [`Layer::Driver`].
pub struct TimedLogic<L, P> {
    /// The wrapped logic.
    pub inner: L,
    probe: PhantomData<P>,
}

impl<L, P> TimedLogic<L, P> {
    /// Wraps `inner`.
    pub fn new(inner: L) -> Self {
        TimedLogic {
            inner,
            probe: PhantomData,
        }
    }
}

impl<L: Logic, P: Probe> Logic for TimedLogic<L, P> {
    type Ev = L::Ev;

    #[inline]
    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        within::<P, _>(Layer::Driver, || self.inner.init(cx))
    }

    #[inline]
    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>) {
        within::<P, _>(Layer::Driver, || self.inner.on_upcall(up, cx))
    }

    #[inline]
    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>) {
        within::<P, _>(Layer::Driver, || self.inner.on_app(ev, cx))
    }
}

/// An [`RpcTransport`] whose calls are spans of [`Layer::Transport`].
/// The transport's own `Cx::post` calls into the fabric stay inside its
/// span: the fabric has no trait to wrap.
pub struct TimedTransport<T, P> {
    /// The wrapped transport.
    pub inner: T,
    probe: PhantomData<P>,
}

impl<T, P> TimedTransport<T, P> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            probe: PhantomData,
        }
    }
}

impl<T: RpcTransport, P: Probe> RpcTransport for TimedTransport<T, P> {
    type Ev = T::Ev;

    #[inline]
    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        within::<P, _>(Layer::Transport, || self.inner.init(cx))
    }

    #[inline]
    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        within::<P, _>(Layer::Transport, || self.inner.on_upcall(up, cx, out))
    }

    #[inline]
    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>) {
        within::<P, _>(Layer::Transport, || self.inner.on_app(ev, cx, out))
    }

    #[inline]
    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, Self::Ev>,
        out: &mut Vec<Response>,
    ) {
        within::<P, _>(Layer::Transport, || {
            self.inner.submit(client, seq, payload, cx, out)
        })
    }

    #[inline]
    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, Self::Ev>) {
        within::<P, _>(Layer::Transport, || self.inner.on_lifecycle(ev, cx))
    }

    // Constant lookups, not work: forwarded without a span.
    #[inline]
    fn client_overhead(&self) -> ClientOverhead {
        self.inner.client_overhead()
    }

    #[inline]
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: OneSidedAccess, P> OneSidedAccess for TimedTransport<T, P> {
    #[inline]
    fn client_qp(&self, client: ClientId) -> Option<QpId> {
        self.inner.client_qp(client)
    }
}

/// A [`ServerHandler`] whose calls are spans of [`Layer::Handler`].
pub struct TimedHandler<H, P> {
    /// The wrapped handler.
    pub inner: H,
    probe: PhantomData<P>,
}

impl<H, P> TimedHandler<H, P> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> Self {
        TimedHandler {
            inner,
            probe: PhantomData,
        }
    }
}

impl<H: ServerHandler, P: Probe> ServerHandler for TimedHandler<H, P> {
    #[inline]
    fn handle(
        &mut self,
        client: ClientId,
        request: &[u8],
        fabric: &mut Fabric,
    ) -> (Bytes, SimDuration) {
        within::<P, _>(Layer::Handler, || {
            self.inner.handle(client, request, fabric)
        })
    }
}
