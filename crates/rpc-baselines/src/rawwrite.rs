//! RawWrite RPC: the FaRM-style baseline.
//!
//! "A baseline RPC implementation based on RC write verbs … a variation
//! of ScaleRPC with all the optimizations disabled" (Table 2). Clients
//! RDMA-write requests into a *statically mapped* per-client zone of the
//! server's message pool; server workers poll their zones and RDMA-write
//! responses back into per-client response buffers.
//!
//! Both failure modes the paper dissects live here:
//! - responses go out on one RC QP *per client*, so past the NIC cache
//!   capacity every response post re-fetches QP state (outbound collapse);
//! - the pool grows with the client count, so past the LLC capacity every
//!   poll misses (inbound collapse).

use rdma_fabric::{Fabric, Transport};
use rpc_core::cluster::Cluster;
use rpc_core::transport::{ClientOverhead, ServerHandler};
use simcore::SimDuration;

use crate::baseline::{Baseline, Server};
use crate::request::PoolRequests;
use crate::response::WriteResponses;

/// The RawWrite transport: polled RC-write requests × RC-write responses.
pub type RawWrite<H> = Baseline<PoolRequests<false>, WriteResponses, H>;

impl<H: ServerHandler> RawWrite<H> {
    /// Builds the transport: registers the pool, the per-client response
    /// buffers, and one RC connection per client.
    pub fn new(
        fabric: &mut Fabric,
        cluster: &Cluster,
        slots: usize,
        block_size: usize,
        handler: H,
    ) -> Self {
        let p = fabric.params();
        // Per request the zone's worker polls the pool and posts the
        // response write.
        let server = Server::new(cluster, handler, p.pool_check_cpu + p.post_cpu);
        Self::over_rc("RawWrite", fabric, cluster, slots, block_size, server)
    }
}

impl<const IMM: bool, H> Baseline<PoolRequests<IMM>, WriteResponses, H> {
    /// The wiring RawWrite and SelfRPC share: one RC connection per
    /// client carrying its requests one way and its responses the other.
    pub(crate) fn over_rc(
        name: &'static str,
        fabric: &mut Fabric,
        cluster: &Cluster,
        slots: usize,
        block_size: usize,
        server: Server<H>,
    ) -> Self {
        let requests = PoolRequests::format(fabric, cluster, Transport::Rc, slots, block_size)
            .connect(fabric, cluster);
        let responses =
            WriteResponses::new(fabric, cluster, requests.pool(), requests.server_qps());
        let p = fabric.params();
        // Pool-based RC client: the response is one local cacheline
        // check, there is no dispatch machinery.
        let overhead = ClientOverhead {
            per_post: p.post_cpu + SimDuration::nanos(25),
            per_response: p.pool_check_cpu + SimDuration::nanos(10),
            per_dispatch: SimDuration::ZERO,
        };
        Baseline::pair(name, fabric, requests, responses, server, overhead)
    }
}
