//! Response paths: how a finished request's response reaches the client.
//!
//! Table 2 has two. [`WriteResponses`] RC-writes into a per-client
//! response buffer on that client's own connection (RawWrite, SelfRPC) —
//! one server QP per client, the access pattern that thrashes the NIC
//! cache. [`SendResponses`] UD-sends from one of `W` worker QPs into the
//! receive ring of the client's thread (HERD, FaSST) — a tiny,
//! always-cached QP working set, paid for with client-side CQ polling.

use bytes::Bytes;
use rdma_fabric::{Fabric, MrId, QpId, Upcall};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::message::MsgBuf;
use rpc_core::pool::{write_block, BlockPool};
use rpc_core::workers::WorkerPool;
use simcore::SimDuration;

use crate::ring::{send_datagram, UdRings};
use crate::{Received, SendResponse};

/// Client-side receive-ring depth per thread.
const CLIENT_RING: usize = 64;

/// What a [`Baseline`](crate::baseline::Baseline) needs of its response half.
pub trait ResponsePath {
    /// Server side: a worker finished; posts the response.
    fn post(&self, ev: SendResponse, cx: &mut Cx<'_, SendResponse>);

    /// Client side: if `up` is a response landing on this path, consumes
    /// and decodes it.
    fn landed(&mut self, up: &Upcall, fabric: &mut Fabric) -> Option<Received<Bytes>>;
}

/// The RC-write response path.
pub struct WriteResponses {
    /// Geometry shared with the request pool: the response to `seq`
    /// lands in block `slot_of_seq(seq)` of the client's buffer.
    pool: BlockPool,
    /// Per client: the server-side QP of its connection and its
    /// client-local response buffer (`slots` blocks).
    clients: Vec<(QpId, MrId)>,
    resp_index: simcore::DetHashMap<MrId, ClientId>,
}

impl WriteResponses {
    /// Registers one response buffer per client; responses for client
    /// `c` leave on `server_qps[c]`.
    pub fn new(
        fabric: &mut Fabric,
        cluster: &Cluster,
        pool: BlockPool,
        server_qps: impl ExactSizeIterator<Item = QpId>,
    ) -> Self {
        let mut resp_index = simcore::detmap::det_map_with_capacity(server_qps.len());
        let clients = server_qps
            .enumerate()
            .map(|(c, server_qp)| {
                let resp_mr = fabric
                    .register_mr(cluster.node_of(c), pool.zone_bytes())
                    .expect("client node exists");
                resp_index.insert(resp_mr, c);
                (server_qp, resp_mr)
            })
            .collect();
        WriteResponses {
            pool,
            clients,
            resp_index,
        }
    }
}

impl ResponsePath for WriteResponses {
    #[inline]
    fn post(&self, ev: SendResponse, cx: &mut Cx<'_, SendResponse>) {
        let (server_qp, resp_mr) = self.clients[ev.client];
        let block_size = self.pool.block_size;
        let block = (
            resp_mr,
            self.pool.slot_of_seq(ev.seq) * block_size,
            block_size,
        );
        write_block(
            server_qp,
            block,
            None,
            (ev.client, ev.seq, 0),
            &ev.payload,
            cx,
        )
        .expect("block write");
    }

    #[inline]
    fn landed(&mut self, up: &Upcall, fabric: &mut Fabric) -> Option<Received<Bytes>> {
        let Upcall::MemWrite { mr, offset, .. } = *up else {
            return None;
        };
        let &queue = self.resp_index.get(&mr)?;
        let region = fabric.mr_mut(mr).expect("response mr");
        let (header, payload) =
            MsgBuf::take_rpc(region, self.pool.block_start(offset), self.pool.block_size)?;
        Some(Received {
            queue,
            header,
            payload: Bytes::copy_from_slice(&payload),
            read_cost: SimDuration::ZERO,
        })
    }
}

/// The UD-send response path.
pub struct SendResponses {
    /// One ring per client thread, shared by its clients.
    threads: UdRings,
    /// Per client: the QP of the worker that owns it and the QP of the
    /// thread it runs on.
    routes: Vec<(QpId, QpId)>,
}

impl SendResponses {
    /// One ring per client thread. Client `c`'s responses leave on
    /// `worker_qps[workers.owner_of(c)]`.
    pub fn new(
        fabric: &mut Fabric,
        cluster: &Cluster,
        workers: &WorkerPool,
        worker_qps: &[QpId],
        block_size: usize,
    ) -> Self {
        let per_machine = cluster.spec().threads_per_machine;
        let nodes = (0..cluster.total_client_threads()).map(|t| cluster.machines[t / per_machine]);
        let threads = UdRings::new(fabric, nodes, CLIENT_RING, block_size);
        let routes = (0..cluster.clients())
            .map(|c| {
                let worker_qp = worker_qps[workers.owner_of(c)];
                (worker_qp, threads.qp(cluster.thread_of(c)))
            })
            .collect();
        SendResponses { threads, routes }
    }

    /// Per client `(worker QP, thread QP)`: responses travel left to
    /// right; FaSST's requests travel the same pair right to left.
    pub fn routes(&self) -> &[(QpId, QpId)] {
        &self.routes
    }
}

impl ResponsePath for SendResponses {
    #[inline]
    fn post(&self, ev: SendResponse, cx: &mut Cx<'_, SendResponse>) {
        send_datagram(self.routes[ev.client], ev.client, ev.seq, &ev.payload, cx);
    }

    #[inline]
    fn landed(&mut self, up: &Upcall, fabric: &mut Fabric) -> Option<Received<Bytes>> {
        self.threads.receive(up, fabric, Bytes::copy_from_slice)
    }
}
