//! The pairing: one request path × one response path around one server.

use bytes::Bytes;
use rdma_fabric::{Fabric, QpId, Upcall};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::transport::{ClientOverhead, OneSidedAccess, Response, RpcTransport, ServerHandler};
use rpc_core::workers::WorkerPool;
use simcore::SimDuration;

use crate::request::RequestPath;
use crate::response::ResponsePath;
use crate::trace::TraceTable;
use crate::{Received, SendResponse};

/// The server half common to every baseline: the handler and the worker
/// threads it runs on.
pub struct Server<H> {
    handler: H,
    workers: WorkerPool,
    /// Worker CPU per request on top of reading the message and running
    /// the handler — where the baselines' service-cost formulas differ.
    fixed_cost: SimDuration,
}

impl<H: ServerHandler> Server<H> {
    /// `cluster.spec().server_threads` idle workers around `handler`.
    pub fn new(cluster: &Cluster, handler: H, fixed_cost: SimDuration) -> Self {
        Server {
            handler,
            workers: WorkerPool::new(cluster.spec().server_threads),
            fixed_cost,
        }
    }

    /// The worker pool (zone and queue ownership).
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// Runs the handler on the worker owning the request's queue — busy
    /// for `fixed_cost + read_cost + handler cost`, behind whatever it
    /// was already doing — and schedules the response post for when it
    /// finishes.
    fn serve(
        &mut self,
        req: Received,
        request: &[u8],
        traces: &TraceTable,
        cx: &mut Cx<'_, SendResponse>,
    ) {
        let (client, seq) = (req.header.client_id as usize, req.header.seq);
        let (payload, handler_cost) = self.handler.handle(client, request, cx.fabric);
        let service = self.fixed_cost + req.read_cost + handler_cost;
        let w = self.workers.owner_of(req.queue);
        let done = self.workers.run(w, cx.now, service);
        traces.handler(client, seq, cx.now, done);
        let ev = SendResponse {
            client,
            seq,
            payload,
        };
        cx.at(done, ev);
    }
}

/// A baseline RPC: requests travel `Rq`, responses travel `Rs`, `H`
/// handles them in between. The four of Table 2 are aliases of this.
pub struct Baseline<Rq, Rs, H> {
    name: &'static str,
    requests: Rq,
    responses: Rs,
    server: Server<H>,
    traces: TraceTable,
    overhead: ClientOverhead,
    /// Payload of the request being served: copied out of the pool or
    /// ring once (the handler also gets the fabric that owns those),
    /// into a buffer that is reused.
    request: Vec<u8>,
}

impl<Rq, Rs, H> Baseline<Rq, Rs, H> {
    /// Pairs the two paths.
    pub fn pair(
        name: &'static str,
        fabric: &Fabric,
        requests: Rq,
        responses: Rs,
        server: Server<H>,
        overhead: ClientOverhead,
    ) -> Self {
        Baseline {
            name,
            requests,
            responses,
            server,
            traces: TraceTable::new(fabric),
            overhead,
            request: Vec::new(),
        }
    }

    /// Immutable access to the server-side handler (post-run inspection).
    pub fn handler(&self) -> &H {
        &self.server.handler
    }

    /// Mutable access to the server-side handler (setup/preload).
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.server.handler
    }
}

impl<Rq: RequestPath, Rs: ResponsePath, H: ServerHandler> RpcTransport for Baseline<Rq, Rs, H> {
    type Ev = SendResponse;

    fn init(&mut self, _cx: &mut Cx<'_, SendResponse>) {}

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, SendResponse>, out: &mut Vec<Response>) {
        if let Some(req) = self.requests.arrival(&up, cx.fabric, &mut self.request) {
            self.server.serve(req, &self.request, &self.traces, cx);
        } else if let Some(resp) = self.responses.landed(&up, cx.fabric) {
            let (client, seq) = (resp.header.client_id as usize, resp.header.seq);
            self.traces.close(client, seq, cx.now);
            out.push(Response {
                client,
                seq,
                payload: resp.payload,
            });
            self.requests.release(client, &self.traces, cx);
        }
    }

    fn on_app(&mut self, ev: SendResponse, cx: &mut Cx<'_, SendResponse>, _: &mut Vec<Response>) {
        self.traces
            .stamp_response(ev.client, ev.seq, cx.now, cx.fabric);
        self.responses.post(ev, cx);
    }

    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, SendResponse>,
        _out: &mut Vec<Response>,
    ) {
        self.traces.open(client, seq, cx.fabric);
        self.requests.submit(client, seq, payload, &self.traces, cx);
    }

    fn client_overhead(&self) -> ClientOverhead {
        self.overhead
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<Rq: RequestPath, Rs, H> OneSidedAccess for Baseline<Rq, Rs, H> {
    fn client_qp(&self, client: ClientId) -> Option<QpId> {
        self.requests.one_sided_qp(client)
    }
}
