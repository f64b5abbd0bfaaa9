//! Request paths: how a request reaches the server.
//!
//! Table 2 has two. [`PoolRequests`] writes into a statically mapped
//! per-client pool over one connection per client (RC for RawWrite, UC
//! for HERD, RC write-with-immediate for SelfRPC); [`UdRequests`] sends
//! datagrams into per-worker receive rings (FaSST).

use std::collections::VecDeque;

use bytes::Bytes;
use rdma_fabric::{CqId, Fabric, MrId, QpId, Transport, Upcall, WcOpcode};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::message::MsgBuf;
use rpc_core::pool::{write_block, BlockPool};
use rpc_core::trace::TraceTable;

use crate::ring::{send_datagram, UdRings};
use crate::{Received, SendResponse};

/// Server-side receive-ring depth per worker.
const SERVER_RING: usize = 256;

/// What a [`Baseline`](crate::baseline::Baseline) needs of its request half.
pub trait RequestPath {
    /// Client side: issues (or queues) one request.
    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        traces: &TraceTable,
        cx: &mut Cx<'_, SendResponse>,
    );

    /// Client side: `client` received a response, freeing whatever the
    /// request held.
    fn release(&mut self, _client: ClientId, _traces: &TraceTable, _cx: &mut Cx<'_, SendResponse>) {
    }

    /// Server side: if `up` is a request arriving on this path, consumes
    /// and decodes it, leaving its payload in `payload`.
    fn arrival(
        &mut self,
        up: &Upcall,
        fabric: &mut Fabric,
        payload: &mut Vec<u8>,
    ) -> Option<Received>;

    /// The client-side QP that can also carry one-sided verbs, if the
    /// path has one (Table 1: only RC does).
    fn one_sided_qp(&self, _client: ClientId) -> Option<QpId> {
        None
    }
}

struct ClientConn {
    /// Client-side endpoint: requests are posted here.
    client_qp: QpId,
    /// Server-side endpoint.
    server_qp: QpId,
    inflight: usize,
    /// Requests waiting for one of the client's `slots` blocks.
    pending: VecDeque<(u64, Bytes)>,
}

/// The pool request path: clients write requests into their zone of a
/// static server pool, at most `slots` in flight each. With `IMM` the
/// writes carry `(client << 8) | slot` as an immediate, so the server
/// locates a message from its CQ; without, the zone's worker finds it by
/// polling the pool. The pool grows with the client count, which is why
/// it stops fitting the LLC (Fig. 3(b)) and why HERD-style RPC "only
/// supports a limited number of clients once the message pool has been
/// formatted" (§3.4).
pub struct PoolRequests<const IMM: bool> {
    pool: BlockPool,
    pool_mr: MrId,
    server_cq: CqId,
    transport: Transport,
    /// With `IMM`: the zero-length landing zone of the receives the
    /// immediates consume.
    imm_mr: Option<MrId>,
    clients: Vec<ClientConn>,
}

impl<const IMM: bool> PoolRequests<IMM> {
    /// Formats the pool (one zone of `slots` blocks per client) for
    /// connections of kind `transport` and creates the server CQ. No
    /// client is connected yet: HERD builds its response endpoints
    /// between this and [`connect`](Self::connect).
    pub fn format(
        fabric: &mut Fabric,
        cluster: &Cluster,
        transport: Transport,
        slots: usize,
        block_size: usize,
    ) -> Self {
        assert!(
            !IMM || slots < 256,
            "slot index must fit the immediate encoding"
        );
        let pool = BlockPool::new(cluster.clients(), slots, block_size);
        let pool_mr = fabric
            .register_mr(cluster.server, pool.bytes())
            .expect("server node exists");
        PoolRequests {
            pool,
            pool_mr,
            imm_mr: IMM.then(|| fabric.register_mr(cluster.server, 64).expect("dummy mr")),
            server_cq: fabric.create_cq(cluster.server).expect("cq"),
            transport,
            clients: Vec::with_capacity(cluster.clients()),
        }
    }

    /// Connects every client to the server; with `IMM` the server
    /// pre-posts `slots + 2` receives per connection.
    pub fn connect(mut self, fabric: &mut Fabric, cluster: &Cluster) -> Self {
        let (transport, cq) = (self.transport, self.server_cq);
        for c in 0..cluster.clients() {
            let cnode = cluster.node_of(c);
            let ccq = fabric.create_cq(cnode).expect("cq");
            let server_qp = fabric
                .create_qp(cluster.server, transport, cq, cq)
                .expect("qp");
            let client_qp = fabric.create_qp(cnode, transport, ccq, ccq).expect("qp");
            fabric.connect(server_qp, client_qp).expect("connect");
            if let Some(imm_mr) = self.imm_mr {
                for _ in 0..self.pool.slots + 2 {
                    fabric.post_recv(server_qp, imm_mr, 0, 0).expect("recv");
                }
            }
            self.clients.push(ClientConn {
                client_qp,
                server_qp,
                inflight: 0,
                pending: VecDeque::new(),
            });
        }
        self
    }

    /// The pool geometry.
    pub fn pool(&self) -> BlockPool {
        self.pool
    }

    /// The CQ of every server-side QP.
    pub fn server_cq(&self) -> CqId {
        self.server_cq
    }

    /// The server's end of every connection, by client.
    pub fn server_qps(&self) -> impl ExactSizeIterator<Item = QpId> + '_ {
        self.clients.iter().map(|c| c.server_qp)
    }

    fn send(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        traces: &TraceTable,
        cx: &mut Cx<'_, SendResponse>,
    ) {
        // Both ends derive the slot from the sequence number.
        let slot = self.pool.slot_of_seq(seq);
        let block = (
            self.pool_mr,
            self.pool.offset(client, slot),
            self.pool.block_size,
        );
        let imm = IMM.then_some(((client as u32) << 8) | slot as u32);
        let conn = &mut self.clients[client];
        conn.inflight += 1;
        traces.stamp_request(client, seq, cx.fabric);
        write_block(conn.client_qp, block, imm, (client, seq, 0), &payload, cx)
            .expect("block write");
    }
}

impl<const IMM: bool> RequestPath for PoolRequests<IMM> {
    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        traces: &TraceTable,
        cx: &mut Cx<'_, SendResponse>,
    ) {
        if self.clients[client].inflight >= self.pool.slots {
            self.clients[client].pending.push_back((seq, payload));
        } else {
            self.send(client, seq, payload, traces, cx);
        }
    }

    fn release(&mut self, client: ClientId, traces: &TraceTable, cx: &mut Cx<'_, SendResponse>) {
        let conn = &mut self.clients[client];
        conn.inflight = conn.inflight.saturating_sub(1);
        // Admit a queued request if a block freed up.
        if conn.inflight < self.pool.slots {
            if let Some((seq, payload)) = conn.pending.pop_front() {
                self.send(client, seq, payload, traces, cx);
            }
        }
    }

    fn arrival(
        &mut self,
        up: &Upcall,
        fabric: &mut Fabric,
        payload: &mut Vec<u8>,
    ) -> Option<Received> {
        let block_size = self.pool.block_size;
        // The zone and the byte range of its block the worker reads.
        let (zone, touched) = match *up {
            Upcall::MemWrite {
                mr, offset, len, ..
            } if !IMM && mr == self.pool_mr => {
                let (zone, _slot) = self.pool.locate(offset)?;
                (zone, (offset, len))
            }
            Upcall::Completion { wc, .. } if IMM && wc.opcode == WcOpcode::RecvRdmaWithImm => {
                let imm = wc.imm.expect("write_imm carries an immediate");
                let (client, slot) = ((imm >> 8) as usize, (imm & 0xFF) as usize);
                if client >= self.clients.len() || slot >= self.pool.slots {
                    return None;
                }
                let start = self.pool.offset(client, slot);
                (client, (start, wc.byte_len.min(block_size)))
            }
            _ => return None,
        };
        let region = fabric.mr_mut(self.pool_mr).expect("pool mr");
        let (header, request) =
            MsgBuf::take_rpc(region, self.pool.block_start(touched.0), block_size)?;
        request.clone_into(payload);
        let read_cost = fabric
            .cpu_access(self.pool_mr, touched.0, touched.1)
            .expect("pool access");
        if let Some(imm_mr) = self.imm_mr {
            // Replenish the consumed receive on this client's QP.
            fabric
                .post_recv(self.clients[zone].server_qp, imm_mr, 0, 0)
                .expect("replenish recv");
        }
        Some(Received {
            queue: zone,
            header,
            payload: (),
            read_cost,
        })
    }

    fn one_sided_qp(&self, client: ClientId) -> Option<QpId> {
        self.transport
            .supports_read_atomic()
            .then(|| self.clients[client].client_qp)
    }
}

/// The UD request path: clients send datagrams to the worker that owns
/// them; each worker receives into its own ring. No connections and no
/// per-client state beyond the QP pair a client's datagrams travel.
pub struct UdRequests {
    workers: UdRings,
    /// Per client: `(worker QP, thread QP)`.
    routes: Vec<(QpId, QpId)>,
}

impl UdRequests {
    /// One ring per server worker thread; no client can send yet (see
    /// [`connect`](Self::connect)).
    pub fn format(fabric: &mut Fabric, cluster: &Cluster, block_size: usize) -> Self {
        let nodes = (0..cluster.spec().server_threads).map(|_| cluster.server);
        UdRequests {
            workers: UdRings::new(fabric, nodes, SERVER_RING, block_size),
            routes: Vec::new(),
        }
    }

    /// The workers' datagram QPs, by worker.
    pub fn worker_qps(&self) -> Vec<QpId> {
        self.workers.qps()
    }

    /// Sends client `c`'s requests from `routes[c].1` to `routes[c].0` —
    /// the pair its responses travel the other way.
    pub fn connect(mut self, routes: &[(QpId, QpId)]) -> Self {
        self.routes = routes.to_vec();
        self
    }
}

impl RequestPath for UdRequests {
    #[inline]
    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        _traces: &TraceTable,
        cx: &mut Cx<'_, SendResponse>,
    ) {
        let (worker_qp, thread_qp) = self.routes[client];
        send_datagram((thread_qp, worker_qp), client, seq, &payload, cx);
    }

    #[inline]
    fn arrival(
        &mut self,
        up: &Upcall,
        fabric: &mut Fabric,
        payload: &mut Vec<u8>,
    ) -> Option<Received> {
        self.workers
            .receive(up, fabric, |request| request.clone_into(payload))
    }
}
