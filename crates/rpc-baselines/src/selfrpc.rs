//! Octopus' self-identified RPC.
//!
//! §4.1 of the paper: "Self-identified RPC uses RDMA write-imm to post
//! requests. In this way, the server threads can directly locate the new
//! messages with the encapsulated immediate number, avoiding to scan the
//! whole message pool." The response path is a plain RC write, identical
//! to RawWrite — which is why Octopus inherits RC's outbound scalability
//! collapse and why swapping in ScaleRPC lifts its metadata throughput
//! (Fig. 13).
//!
//! The immediate value encodes `(client << 8) | slot`, so one CQ poll
//! yields the exact message block address.

use rdma_fabric::Fabric;
use rpc_core::cluster::Cluster;
use rpc_core::transport::ServerHandler;

use crate::baseline::Server;
use crate::request::PoolRequests;
use crate::response::WriteResponses;

/// The self-identified RPC transport: RC write-with-immediate requests ×
/// RC-write responses.
pub type SelfRpc<H> = crate::baseline::Baseline<PoolRequests<true>, WriteResponses, H>;

impl<H: ServerHandler> SelfRpc<H> {
    /// Builds the transport; the server pre-posts `slots + 2` receives
    /// per client connection for the immediates to consume.
    pub fn new(
        fabric: &mut Fabric,
        cluster: &Cluster,
        slots: usize,
        block_size: usize,
        handler: H,
    ) -> Self {
        let p = fabric.params();
        // Per request the worker polls its CQ instead of the pool,
        // re-posts the consumed receive and posts the response write.
        let fixed_cost = p.cq_poll_cpu + p.post_recv_cpu + p.post_cpu;
        let server = Server::new(cluster, handler, fixed_cost);
        Self::over_rc("SelfRPC", fabric, cluster, slots, block_size, server)
    }
}
