//! FaSST RPC: UD send in both directions.
//!
//! Per Kalia et al. (OSDI '16) and Table 2 of the paper, configured
//! asymmetrically (many clients, one server). Clients and server
//! exchange datagrams on a handful of per-thread UD QPs:
//!
//! - no connections, so the NIC cache holds only `W + T` QP states — the
//!   transport is flat in the number of clients (Fig. 8, left);
//! - the server chooses request addresses by posting receives, so no
//!   per-client buffers exist and the LLC working set stays constant;
//! - the price is two-sided overhead at both ends (post recv + CQ poll
//!   per message) and the 4 KB MTU (§5.1).

use rdma_fabric::Fabric;
use rpc_core::cluster::Cluster;
use rpc_core::transport::{ClientOverhead, ServerHandler};
use simcore::SimDuration;

use crate::baseline::{Baseline, Server};
use crate::request::UdRequests;
use crate::response::SendResponses;

/// The FaSST transport: UD-send requests × UD-send responses, both on
/// the same `W` worker and `T` thread QPs.
pub type Fasst<H> = Baseline<UdRequests, SendResponses, H>;

impl<H: ServerHandler> Fasst<H> {
    /// Builds the transport: per-worker and per-thread UD endpoints with
    /// receive rings; no connections and no per-client state at all.
    pub fn new(fabric: &mut Fabric, cluster: &Cluster, block_size: usize, handler: H) -> Self {
        let p = fabric.params();
        // Per request the worker polls its CQ, re-posts the consumed
        // receive and posts the response send.
        let fixed_cost = p.cq_poll_cpu + p.post_recv_cpu + p.post_cpu;
        let server = Server::new(cluster, handler, fixed_cost);
        let overhead = ClientOverhead {
            // Two-sided: each request costs a send post plus a
            // pre-posted receive; each response costs a CQ poll.
            per_post: p.post_cpu + p.post_recv_cpu + SimDuration::nanos(25),
            per_response: p.cq_poll_cpu + SimDuration::nanos(20),
            // Coroutine RPC client work per op (marshalling, demux,
            // ring upkeep): ~2.6 µs including the verb costs above,
            // matching the UD saturation behaviour of Fig. 8-right.
            per_dispatch: SimDuration::nanos(2_400),
        };
        let requests = UdRequests::format(fabric, cluster, block_size);
        // Responses leave on the QPs the requests arrived on, and
        // requests on the QPs the responses arrive on.
        let worker_qps = requests.worker_qps();
        let responses =
            SendResponses::new(fabric, cluster, server.workers(), &worker_qps, block_size);
        let requests = requests.connect(responses.routes());
        Baseline::pair("FaSST", fabric, requests, responses, server, overhead)
    }
}
