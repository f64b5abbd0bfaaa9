//! The open-trace table every transport shares.
//!
//! The harness stamps a trace id on the fabric for the duration of one
//! `submit`. A transport's later posts for the same RPC — a request
//! admitted from a queue or flushed after connection setup, the
//! response — happen outside that window,
//! so the id is remembered here under `(client, seq)` and re-stamped
//! where needed. With tracing off the harness stamps 0, nothing is ever
//! inserted, and every call below is a lookup in an empty map.

use rdma_fabric::Fabric;
use simcore::SimTime;
use simtrace::{Stage, TraceId, Tracer};

use crate::cluster::ClientId;

/// Open trace ids keyed by `(client, seq)`, from submit until the
/// response lands at the client.
pub struct TraceTable {
    tracer: Tracer,
    trace_ids: simcore::DetHashMap<(ClientId, u64), TraceId>,
}

impl TraceTable {
    /// An empty table recording into `fabric`'s tracer.
    pub fn new(fabric: &Fabric) -> Self {
        TraceTable {
            tracer: fabric.tracer().clone(),
            trace_ids: simcore::DetHashMap::default(),
        }
    }

    /// At submit: remembers the id the harness stamped for this request,
    /// and returns it (0 when untraced).
    #[inline]
    pub fn open(&mut self, client: ClientId, seq: u64, fabric: &Fabric) -> TraceId {
        let tid = fabric.trace_ctx();
        if tid != 0 {
            self.trace_ids.insert((client, seq), tid);
        }
        tid
    }

    /// The open id of `(client, seq)`, if it is traced.
    #[inline]
    pub fn id(&self, client: ClientId, seq: u64) -> Option<TraceId> {
        self.trace_ids.get(&(client, seq)).copied()
    }

    /// Before a request post: requests drained from an admission queue
    /// post outside the harness's submit window, so re-arm the ctx.
    #[inline]
    pub fn stamp_request(&self, client: ClientId, seq: u64, fabric: &mut Fabric) {
        if let Some(tid) = self.id(client, seq) {
            fabric.set_trace_ctx(tid);
        }
    }

    /// Records the `Handler` span. `end` includes queueing behind the
    /// owning worker, so poll-side contention shows up in the stage
    /// breakdown.
    #[inline]
    pub fn handler(&self, client: ClientId, seq: u64, start: SimTime, end: SimTime) {
        if let Some(tid) = self.id(client, seq) {
            self.tracer
                .span(tid, Stage::Handler, start, end, client as u64);
        }
    }

    /// Before a response post: opens the `Response` span (closed when it
    /// lands at the client) and stamps the ctx so the response packet
    /// carries the id through the fabric's RxNic/Dma stages.
    #[inline]
    pub fn stamp_response(&self, client: ClientId, seq: u64, now: SimTime, fabric: &mut Fabric) {
        if let Some(tid) = self.id(client, seq) {
            self.tracer.begin(tid, Stage::Response, now, client as u64);
            fabric.set_trace_ctx(tid);
        }
    }

    /// The response landed: closes the `Response` span and forgets the id.
    #[inline]
    pub fn close(&mut self, client: ClientId, seq: u64, now: SimTime) {
        if let Some(tid) = self.trace_ids.remove(&(client, seq)) {
            self.tracer.end(tid, Stage::Response, now);
        }
    }
}
