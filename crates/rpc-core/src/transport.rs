//! The transport abstraction every RPC implementation provides.
//!
//! The paper's comparison set (Table 2) — ScaleRPC, RawWrite, HERD, FaSST
//! — plus Octopus' self-identified RPC all implement [`RpcTransport`], so
//! the benchmark harness and the downstream systems (file system,
//! transactions) can swap transports without changing a line of workload
//! code. This is exactly the paper's porting argument: "it is a more
//! feasible choice to only replace the RPC subsystem".

use crate::cluster::ClientId;
use crate::driver::Cx;
use bytes::Bytes;
use rdma_fabric::{Fabric, QpId, Upcall};
use simcore::SimDuration;

/// A response delivered to the workload driver.
#[derive(Clone, Debug)]
pub struct Response {
    /// The client the response belongs to.
    pub client: ClientId,
    /// The client-assigned sequence number of the matching request.
    pub seq: u64,
    /// Response payload (application bytes, transport header stripped).
    pub payload: Bytes,
}

/// Client-side CPU cost profile of a transport, charged by the harness to
/// the client thread for every operation.
///
/// This is what makes UD-based RPCs need more physical client machines to
/// saturate the server (right half of Fig. 8): their clients must post a
/// receive and poll the CQ per message, where pool-based RC clients check
/// one local cacheline.
#[derive(Clone, Copy, Debug)]
pub struct ClientOverhead {
    /// CPU time per posted request (beyond the fabric's own MMIO cost).
    pub per_post: SimDuration,
    /// CPU time per received response (detection + bookkeeping).
    pub per_response: SimDuration,
    /// Fixed per-operation client CPU work above the verb mechanics:
    /// request marshalling, completion demultiplexing, receive-ring
    /// accounting. Near zero for the pool-based RC transports (their
    /// clients check one cacheline), but measured at roughly 2.6 µs/op
    /// for the UD RPC stacks — the cost that makes HERD/FaSST need
    /// more physical client machines to saturate the server (right
    /// half of Fig. 8). Charged by the harness per completed op; the
    /// transaction driver deliberately ignores it (coordinators model
    /// their CPU via `coord_cpu_mult` instead).
    pub per_dispatch: SimDuration,
}

/// Server-side request handler.
///
/// Handlers receive the application payload (transport headers already
/// stripped) and return the response payload together with the CPU time
/// the processing consumed, which the transport charges to the worker
/// thread that polled the request.
pub trait ServerHandler {
    /// Processes one request. `fabric` gives the handler access to the
    /// server's registered memory (e.g. a KV store laid out in an MR so
    /// one-sided verbs can address it); simple handlers ignore it.
    fn handle(
        &mut self,
        client: ClientId,
        request: &[u8],
        fabric: &mut Fabric,
    ) -> (Bytes, SimDuration);
}

/// A fixed-cost echo handler used by the microbenchmarks: the paper's raw
/// RPC evaluation measures transport cost, so the handler just echoes a
/// fixed-size response.
pub struct EchoHandler {
    /// Response payload size in bytes.
    pub response_size: usize,
    /// Simulated handler CPU time.
    pub service: SimDuration,
}

impl Default for EchoHandler {
    fn default() -> Self {
        EchoHandler {
            response_size: 32,
            // Even a trivial RPC handler costs ~0.5–1 µs of server CPU
            // (dispatch, framing, bookkeeping); with 10 worker threads
            // this puts the RPC-level ceiling near the ~11 Mops the
            // paper's server sustains, below the raw-verb NIC ceiling.
            service: SimDuration::nanos(800),
        }
    }
}

impl ServerHandler for EchoHandler {
    fn handle(
        &mut self,
        _client: ClientId,
        request: &[u8],
        _fabric: &mut Fabric,
    ) -> (Bytes, SimDuration) {
        let n = request.len().min(self.response_size);
        let echo = |out: &mut [u8]| out[..n].copy_from_slice(&request[..n]);
        (Bytes::build(self.response_size, echo), self.service)
    }
}

/// Control-plane lifecycle notifications the workload driver pushes down
/// to a transport (PR 8, "elastic control plane"). All variants are
/// chaos-/churn-driven: a steady-state run never constructs one, so the
/// default no-op implementation of
/// [`RpcTransport::on_lifecycle`] keeps existing transports bit-exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleEv {
    /// The server process crashed: its QPs are in the error state and
    /// in-flight packets toward it are dropping. Transports should mark
    /// themselves down and stop posting on server-owned QPs.
    ServerCrash,
    /// The server came back (warm restart: regions/CQs intact, QPs
    /// reset). Transports should re-establish connections and re-arm
    /// their timers.
    ServerRecover,
    /// One client's connection was torn down and must be re-established
    /// before its next request (connection churn, or a client
    /// reconnecting after a departure).
    ConnReset(ClientId),
    /// The application will never submit or await `(client, seq)` again
    /// (a transaction coordinator gave up a request to a crashed
    /// participant). A transport that tracks requests in flight stops
    /// tracking this one.
    Abandon { client: ClientId, seq: u64 },
}

/// An RPC implementation over the simulated fabric.
///
/// Transports are event-driven: the harness forwards fabric upcalls and
/// transport-internal events, and the transport pushes completed
/// [`Response`]s into `out` whenever a client would observe them.
pub trait RpcTransport {
    /// Transport-internal event type (time slices, poll loops…).
    type Ev;

    /// One-time setup (connections, pool formatting, initial timers).
    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>);

    /// Handles a fabric upcall. Transports sharing a fabric must ignore
    /// upcalls that do not concern them.
    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>);

    /// Handles a transport-internal event.
    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>, out: &mut Vec<Response>);

    /// Issues one RPC from `client`. The transport owns header framing,
    /// buffering (e.g. ScaleRPC clients in WARMUP state stage requests
    /// locally) and response routing.
    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, Self::Ev>,
        out: &mut Vec<Response>,
    );

    /// Handles a control-plane lifecycle notification (server crash or
    /// recovery, connection churn). The default is a no-op: transports
    /// that predate the elastic control plane simply keep posting and
    /// rely on the fabric dropping packets toward errored QPs.
    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, Self::Ev>) {
        let _ = (ev, cx);
    }

    /// The client-side CPU cost profile.
    fn client_overhead(&self) -> ClientOverhead;

    /// Display name ("ScaleRPC", "RawWrite", …).
    fn name(&self) -> &'static str;
}

/// Optional capability: transports whose clients own RC connections can
/// expose them so applications co-use one-sided verbs with RPC — the
/// defining advantage of RC-based RPC the paper exploits in ScaleTX
/// (§4.2). UD-based transports return `None` (Table 1: no one-sided
/// verbs on UD), forcing the RPC-only protocol variants.
pub trait OneSidedAccess {
    /// The client-side RC queue pair of `client`, if any.
    fn client_qp(&self, client: ClientId) -> Option<QpId>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_handler_echoes_prefix() {
        let mut h = EchoHandler {
            response_size: 8,
            service: SimDuration::nanos(10),
        };
        let mut fabric = Fabric::new(rdma_fabric::FabricParams::default());
        let (resp, cost) = h.handle(0, b"0123456789abc", &mut fabric);
        assert_eq!(&resp[..], b"01234567");
        assert_eq!(cost, SimDuration::nanos(10));
        let (resp, _) = h.handle(0, b"xy", &mut fabric);
        assert_eq!(&resp[..], b"xy\0\0\0\0\0\0");
    }
}
