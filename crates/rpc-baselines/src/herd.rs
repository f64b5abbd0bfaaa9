//! HERD RPC: hybrid UC-write requests + UD-send responses.
//!
//! Per Kalia et al. (SIGCOMM '14) and Table 2 of the paper: clients write
//! requests with **UC write** into a statically mapped per-client pool
//! (inbound writes don't need reliability — the response acts as the
//! acknowledgement), and the server answers with **UD send** from a small
//! set of per-worker datagram QPs.
//!
//! Consequences the paper measures:
//! - server *outbound* traffic uses only `W` UD QPs, so the NIC cache
//!   never thrashes — HERD scales far better than RawWrite;
//! - the request pool is still statically mapped, so at high client
//!   counts it outgrows the LLC and throughput sags (Fig. 8, left);
//! - clients must pre-post receives and poll their CQ per response, so a
//!   client machine saturates at a lower op rate (Fig. 8, right).

use rdma_fabric::{Fabric, QpId, Transport};
use rpc_core::cluster::Cluster;
use rpc_core::transport::{ClientOverhead, ServerHandler};
use simcore::SimDuration;

use crate::baseline::{Baseline, Server};
use crate::request::PoolRequests;
use crate::response::SendResponses;

/// The HERD transport: polled UC-write requests × UD-send responses.
pub type Herd<H> = Baseline<PoolRequests<false>, SendResponses, H>;

impl<H: ServerHandler> Herd<H> {
    /// Builds the transport: UC request path, UD response path, receive
    /// rings, and one UC connection per client.
    pub fn new(
        fabric: &mut Fabric,
        cluster: &Cluster,
        slots: usize,
        block_size: usize,
        handler: H,
    ) -> Self {
        let p = fabric.params();
        // Per request the zone's worker polls the pool and posts the
        // response send.
        let server = Server::new(cluster, handler, p.pool_check_cpu + p.post_cpu);
        let overhead = ClientOverhead {
            per_post: p.post_cpu + SimDuration::nanos(25),
            // Poll the CQ and replenish the receive ring per response.
            per_response: p.cq_poll_cpu + p.post_recv_cpu + SimDuration::nanos(20),
            // Datagram client loop: marshal the request into a
            // registered slot, demux the UD completion, re-arm the
            // ring — ~2.6 µs/op of client CPU all told (the
            // Fig. 8-right cost that makes UD need more client
            // machines).
            per_dispatch: SimDuration::nanos(2_400),
        };
        let requests = PoolRequests::format(fabric, cluster, Transport::Uc, slots, block_size);
        // UD responses leave on one of W worker QPs: a tiny,
        // always-cached QP working set.
        let cq = requests.server_cq();
        let worker_qps: Vec<QpId> = (0..server.workers().len())
            .map(|_| fabric.create_qp(cluster.server, Transport::Ud, cq, cq))
            .collect::<Result<_, _>>()
            .expect("worker ud qp");
        // One UD endpoint per client thread (matching HERD's per-thread
        // datagram QPs).
        let responses =
            SendResponses::new(fabric, cluster, server.workers(), &worker_qps, block_size);
        let requests = requests.connect(fabric, cluster);
        Baseline::pair("HERD", fabric, requests, responses, server, overhead)
    }
}
