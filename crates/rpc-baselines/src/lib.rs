//! Baseline RDMA RPC implementations from the paper's evaluation
//! (Table 2), plus Octopus' self-identified RPC and the UD large-message
//! chunking prototype discussed in §5.1.
//!
//! Table 2 is a grid: a request reaches the server either by a *write
//! into a static per-client pool* or by a *UD send into a receive ring*,
//! and the response leaves either by an *RC write into a per-client
//! buffer* or by a *UD send into a per-thread ring*. Each half exists
//! once ([`request`], [`response`]); a baseline is the pairing of one
//! request path with one response path, plus the worker service cost
//! that really differs.
//!
//! | RPC        | Request path            | built from | Response path | built from | Notes |
//! |------------|-------------------------|------------|---------------|------------|-------|
//! | `RawWrite` | RC write into a static per-client pool | [`PoolRequests`] over `Transport::Rc`, polled | RC write | [`WriteResponses`] | FaRM-style; ScaleRPC with every optimization disabled |
//! | `Herd`     | UC write into a static per-client pool | [`PoolRequests`] over `Transport::Uc`, polled | UD send  | [`SendResponses`] on its own worker QPs | per Kalia et al. (SIGCOMM '14) |
//! | `Fasst`    | UD send                 | [`UdRequests`] | UD send       | [`SendResponses`] on the request QPs | per Kalia et al. (OSDI '16), asymmetric configuration |
//! | `SelfRpc`  | RC write-with-immediate | [`PoolRequests`] over `Transport::Rc`, immediate | RC write | [`WriteResponses`] | Octopus' self-identified RPC: the server locates messages from the CQ instead of scanning the pool |
//! | `UdChunk`  | UD send, 4 KB slices with per-slice ack | — | — | — | the §5.1 strawman for large transfers on UD |
//!
//! Shared by every cell: the pairing itself, one `RpcTransport` impl
//! ([`baseline::Baseline`]) around the server half that runs the handler
//! on the owning worker ([`baseline::Server`]); the receive rings
//! ([`ring::UdRings`]); pool-block framing ([`pool::write_block`] and
//! `rpc_core::message::MsgBuf::take_rpc`, the one Valid-byte clear,
//! shared with ScaleRPC); the open-trace table ([`trace::TraceTable`]);
//! and datagram framing (`rpc_core::message::RpcHeader::frame`).
//!
//! All implement [`rpc_core::RpcTransport`], so the harness and the
//! downstream systems swap them freely.
//!
//! [`PoolRequests`]: request::PoolRequests
//! [`UdRequests`]: request::UdRequests
//! [`WriteResponses`]: response::WriteResponses
//! [`SendResponses`]: response::SendResponses

pub mod baseline;
pub mod fasst;
pub mod herd;
pub mod pool;
pub mod rawwrite;
pub mod request;
pub mod response;
pub mod ring;
pub mod selfrpc;
pub mod trace;
pub mod udchunk;

pub use fasst::Fasst;
pub use herd::Herd;
pub use rawwrite::RawWrite;
pub use rpc_core::workers::WorkerPool;
pub use selfrpc::SelfRpc;
pub use udchunk::UdChunk;

/// A message decoded where it was delivered: a request at the server
/// (by a [`request::RequestPath`]) or a response at its client (by a
/// [`response::ResponsePath`]).
///
/// The payload is copied out of the memory region once, by whoever
/// keeps it: a response becomes the [`bytes::Bytes`] its client is
/// handed (`P`), a request goes into the transport's reused buffer
/// (`P = ()`), which outlives the handler call that reads it.
pub struct Received<P = ()> {
    /// At the server: the pool zone or receive queue it arrived in, whose
    /// owner serves it.
    pub queue: usize,
    /// Its header.
    pub header: rpc_core::message::RpcHeader,
    /// Its application payload, where it is carried in the message.
    pub payload: P,
    /// At the server: CPU time the worker spent reading it through the
    /// LLC. (Clients pay `ClientOverhead::per_response` instead.)
    pub read_cost: simcore::SimDuration,
}

/// The one transport-internal event of every baseline: a worker finished
/// a request at the time this fires; post the response.
pub struct SendResponse {
    /// Destination client.
    pub client: rpc_core::cluster::ClientId,
    /// Request sequence echoed back.
    pub seq: u64,
    /// Response payload.
    pub payload: bytes::Bytes,
}
