//! The ScaleRPC server/client transport (§3 of the paper, end to end).
//!
//! One [`ScaleRpc`] value embodies both sides of the protocol, in the
//! three parts the crate docs map; this file holds the struct and routes
//! each upcall or event to its part. All *timing* flows through the
//! fabric (RDMA verbs, NIC/LLC models, worker CPU resources); shared Rust
//! state is used only for metadata a real deployment exchanges at
//! connection setup (region ids, zone assignments).
//!
//! Data path summary:
//!
//! - **Direct requests** (client in PROCESS): RC write into the
//!   processing pool zone; the polling worker decodes, executes the
//!   handler, and RC-writes the response into the client's response
//!   block.
//! - **Warmup requests** (client in IDLE/WARMUP): staged in client-local
//!   memory and advertised through an endpoint-entry RDMA write; the
//!   server fetches the whole staged zone with one RDMA read into the
//!   warmup pool, so the moment the context switch happens the new
//!   processing pool is already full of work.
//! - **Context switch**: on the slice timer, clients of the outgoing
//!   group are told via a piggybacked `context_switch_event` on their
//!   next response, or an explicit notification write when nothing is in
//!   flight (§3.3).
//! - **Legacy mode** (§3.5): requests flagged long-running execute on a
//!   dedicated thread so a context switch cannot cut them off.

pub mod client;
mod lifecycle;
mod server;

use bytes::Bytes;
use rdma_fabric::{CqId, Fabric, MrId, QpId, Transport, Upcall, WrId};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::pool::BlockPool;
use rpc_core::trace::TraceTable;
use rpc_core::transport::{ClientOverhead, LifecycleEv, Response, RpcTransport, ServerHandler};
use rpc_core::workers::WorkerPool;
use simcore::{DetHashMap, DetHashSet, FifoResource, SimDuration, SimTime};
use simtrace::Tracer;

use crate::config::ScaleRpcConfig;
use crate::scheduler::{ClientStats, GroupPlan, Scheduler};
use crate::vpool::PoolPair;
use client::ClientEnd;
use lifecycle::Lifecycle;
use server::{zone_table, Served};

/// Endpoint-entry stride in the endpoint region (per client).
const ENTRY: usize = 32;
/// Sequence number that marks a pure context-switch notification.
const NOTIFY_SEQ: u64 = u64::MAX;
/// Staging-table entry of a block that holds no valid request.
const UNSTAGED: u64 = u64::MAX;

/// Transport-internal events.
pub enum ScaleEv {
    /// The current time slice expired.
    SliceEnd {
        /// Guards against stale timers after external switches.
        epoch: u64,
    },
    /// A worker finished a request; post the response write.
    SendResponse {
        /// Destination client.
        client: ClientId,
        /// Echoed sequence number.
        seq: u64,
        /// Response payload.
        payload: Bytes,
    },
    /// A staggered warmup fetch is due (fetches are spread across the
    /// slice so the read posts do not evict the serving group's QP
    /// contexts all at once).
    Fetch {
        /// Client whose staged batch to pull.
        client: ClientId,
        /// Pool the batch lands in.
        pool_idx: usize,
        /// Slice epoch the fetch was planned in; stale fetches are
        /// dropped.
        epoch: u64,
    },
    /// A staggered post-recovery reconnect is due for `client` (the
    /// server's control plane re-establishes connections serially).
    Reconnect {
        /// Client whose connection to re-establish.
        client: ClientId,
    },
}

// What the engine's queue holds when the harness drives this transport,
// moved by value on every push, pop and cascade: `ScaleEv` must not be
// what makes it outgrow the fabric's own events (96 bytes, asserted
// there; past 128 each move becomes a `memcpy` call).
const _: () = assert!(
    std::mem::size_of::<rpc_core::driver::Ev<rpc_core::harness::HarnessEv<ScaleEv>>>() <= 96
);

/// The ScaleRPC transport.
pub struct ScaleRpc<H: ServerHandler> {
    cfg: ScaleRpcConfig,
    geom: BlockPool,
    /// The two physical pools (processing/warmup roles swap).
    pools: [MrId; 2],
    pool_pair: PoolPair,
    endpoint_mr: MrId,
    served: Vec<Served>,
    ends: Vec<ClientEnd>,
    /// `clients × slots`: the seq each client's staging block holds valid,
    /// or [`UNSTAGED`] — the client's own record of its memory (Fig. 7).
    staged: Vec<u64>,
    life: Lifecycle,
    server_cq: CqId,
    plan: GroupPlan,
    /// `client → (group, zone)` under `plan`, rebuilt wherever `plan` is
    /// assigned: the per-request path looks a client up instead of
    /// scanning the groups.
    zones: Vec<Option<(usize, usize)>>,
    /// Index of the group currently being processed.
    cur: usize,
    slice_epoch: u64,
    rotations: u32,
    scheduler: Scheduler,
    stats_cur: Vec<ClientStats>,
    stats_last: Vec<ClientStats>,
    /// Outstanding warmup RDMA reads:
    /// wr_id → (client, pool index, zone, slice epoch at post).
    pending_reads: DetHashMap<WrId, (ClientId, usize, usize, u64)>,
    /// Slice epoch at which each (pool, zone) was last used as a fetch
    /// target. A group replan can map two clients onto one zone across
    /// plan versions; fetching both in close succession would overwrite
    /// the first client's staged requests before the switch scan reads
    /// them. A reservation blocks the second fetch (which simply retries
    /// at the client's next warm phase, its endpoint entry intact).
    zone_reserved: [Vec<u64>; 2],
    workers: WorkerPool,
    /// Dedicated thread for legacy-mode (long-running) requests.
    legacy_thread: FifoResource,
    /// Call types observed to run longer than half a slice; §3.5 routes
    /// their subsequent invocations to the legacy thread.
    legacy_types: DetHashSet<u16>,
    handler: H,
    /// Payload of the request being executed: copied out of the pool
    /// once (the handler also gets the fabric that owns the pool), into
    /// a buffer that is reused.
    request: Vec<u8>,
    overhead: ClientOverhead,
    post_cpu: SimDuration,
    pool_check: SimDuration,
    tracer: Tracer,
    /// Trace ids of in-flight requests (observability only).
    traces: TraceTable,
    /// Explicit context notifications posted (observability).
    pub ctx_notifies: u64,
    /// Warmup RDMA reads posted (observability).
    pub warmup_fetches: u64,
    /// Requests executed in legacy mode (observability).
    pub legacy_requests: u64,
    /// Requests found by the post-switch zone scan (observability).
    pub scan_requests: u64,
    /// Requests that arrived as direct writes (observability).
    pub direct_requests: u64,
    /// Duplicate request executions suppressed (observability).
    pub dup_drops: u64,
    /// `(time, group count)` at every dynamic-scheduler replan — the
    /// re-convergence measurement for churn experiments (how long after
    /// a disturbance the group structure settles).
    pub replan_history: Vec<(SimTime, usize)>,
}

impl<H: ServerHandler> ScaleRpc<H> {
    /// Builds the transport: two group-sized physical pools, the endpoint
    /// region, and one RC connection per client.
    pub fn new(fabric: &mut Fabric, cluster: &Cluster, cfg: ScaleRpcConfig, handler: H) -> Self {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        let n = cluster.clients();
        // Zones must fit the largest group the split/merge band allows.
        let zones = (cfg.group_size * 3 / 2 + 2).min(n.max(1) + 1);
        let geom = BlockPool::new(zones, cfg.slots, cfg.block_size);
        let pools = [
            fabric
                .register_mr(cluster.server, geom.bytes())
                .expect("pool 0"),
            fabric
                .register_mr(cluster.server, geom.bytes())
                .expect("pool 1"),
        ];
        let endpoint_mr = fabric
            .register_mr(cluster.server, n * ENTRY)
            .expect("endpoint region");
        let server_cq = fabric.create_cq(cluster.server).expect("server cq");
        let mut scheduler = Scheduler::new(cfg.group_size, cfg.time_slice, cfg.dynamic_scheduling);
        if cfg.tenant_isolate {
            assert_eq!(cfg.tenant_of.len(), n, "tenant_of needs one tag per client");
            scheduler = scheduler.with_tenants(cfg.tenant_of.clone());
        }
        let plan = scheduler.initial_plan(n);
        let zones = zone_table(&plan, n);
        let mut served = Vec::with_capacity(n);
        let mut ends = Vec::with_capacity(n);
        let (mut qps, mut first) = (Vec::with_capacity(n), None);
        for c in 0..n {
            let cnode = cluster.node_of(c);
            let local_mr = fabric
                .register_mr(cnode, (2 * cfg.slots + 1) * cfg.block_size)
                .expect("client region");
            // Consecutive, as `client_of_region` assumes.
            assert_eq!(local_mr.index() - *first.get_or_insert(local_mr.index()), c);
            let ccq = fabric.create_cq(cnode).expect("client cq");
            let server_qp = fabric
                .create_qp(cluster.server, Transport::Rc, server_cq, server_cq)
                .expect("server qp");
            let client_qp = fabric
                .create_qp(cnode, Transport::Rc, ccq, ccq)
                .expect("client qp");
            if !cfg.lazy_connect {
                // Eager (seed) setup: connections exist before time zero,
                // their cost outside the measured run.
                fabric.connect(server_qp, client_qp).expect("connect");
            }
            served.push(Served::new(server_qp, local_mr));
            ends.push(ClientEnd::new(client_qp, local_mr, cfg.slots));
            qps.push((server_qp, client_qp));
        }
        let p = fabric.params();
        ScaleRpc {
            geom,
            pools,
            pool_pair: PoolPair::new(),
            endpoint_mr,
            served,
            ends,
            staged: vec![UNSTAGED; n * cfg.slots],
            life: Lifecycle::new(cfg.lazy_connect, cfg.elastic, qps),
            server_cq,
            plan,
            zones,
            cur: 0,
            slice_epoch: 0,
            rotations: 0,
            scheduler,
            stats_cur: vec![ClientStats::default(); n],
            stats_last: vec![ClientStats::default(); n],
            pending_reads: DetHashMap::default(),
            zone_reserved: [vec![u64::MAX; geom.zones], vec![u64::MAX; geom.zones]],
            workers: WorkerPool::new(cluster.spec().server_threads),
            legacy_thread: FifoResource::new(),
            legacy_types: DetHashSet::default(),
            handler,
            request: Vec::new(),
            overhead: ClientOverhead {
                per_post: p.post_cpu + SimDuration::nanos(25),
                per_response: p.pool_check_cpu + SimDuration::nanos(10),
                // Pool-based RC client: the response is one local
                // cacheline check, there is no dispatch machinery.
                per_dispatch: SimDuration::ZERO,
            },
            post_cpu: p.post_cpu,
            pool_check: p.pool_check_cpu,
            tracer: fabric.tracer().clone(),
            traces: TraceTable::new(fabric),
            ctx_notifies: 0,
            warmup_fetches: 0,
            legacy_requests: 0,
            scan_requests: 0,
            direct_requests: 0,
            dup_drops: 0,
            replan_history: Vec::new(),
            cfg,
        }
    }

    /// The currently active group plan (for tests and experiments).
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// Completed full rotations over all groups.
    pub fn rotations(&self) -> u32 {
        self.rotations
    }

    /// Compact post-mortem of one client's transport-side state, for
    /// triage of a client the harness reports as stuck.
    pub fn client_diag(&self, fabric: &Fabric, client: ClientId) -> String {
        let end = self.end_diag(client);
        format!(
            "client {client}: {end} {}",
            self.server_diag(client, fabric)
        )
    }

    /// Immutable access to the server-side handler (post-run inspection).
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

impl<H: ServerHandler> RpcTransport for ScaleRpc<H> {
    type Ev = ScaleEv;

    fn init(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        self.start(cx);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, ScaleEv>, out: &mut Vec<Response>) {
        match up {
            Upcall::MemWrite {
                mr, offset, len, ..
            } => {
                if mr == self.pools[0] || mr == self.pools[1] {
                    self.on_pool_write(mr, offset, len, cx);
                } else if mr == self.endpoint_mr {
                    if let Some(client) = self.on_entry_write(offset, cx) {
                        self.publish_settled(client);
                    }
                } else if let Some(client) = self.client_of_region(mr) {
                    self.land(client, offset, cx, out);
                }
            }
            Upcall::Completion { cq, wc, .. } => self.on_read_done(cq, wc, cx),
            Upcall::ConnEstablished { qp, .. } => {
                if let Some((client, pending)) = self.life.established(qp, cx) {
                    for (seq, payload) in pending {
                        self.dispatch(client, seq, payload, cx);
                    }
                }
            }
        }
    }

    fn on_app(&mut self, ev: ScaleEv, cx: &mut Cx<'_, ScaleEv>, _out: &mut Vec<Response>) {
        match ev {
            ScaleEv::SliceEnd { epoch } => self.context_switch(epoch, cx),
            ScaleEv::Fetch {
                client,
                pool_idx,
                epoch,
            } => self.fetch_client(client, pool_idx, epoch, cx),
            ScaleEv::Reconnect { client } => self.life.reconnect_due(client, cx),
            ScaleEv::SendResponse {
                client,
                seq,
                payload,
            } => self.send_response(client, seq, payload, cx),
        }
    }

    fn submit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, ScaleEv>,
        _out: &mut Vec<Response>,
    ) {
        self.traces.open(client, seq, cx.fabric);
        if let Some(payload) = self.life.admit(client, seq, payload, cx) {
            self.dispatch(client, seq, payload, cx);
        }
    }

    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, ScaleEv>) {
        match ev {
            LifecycleEv::ServerCrash => {
                self.life.crash();
                self.cancel_staged(cx.fabric);
                self.crash(cx.fabric);
            }
            LifecycleEv::ServerRecover => {
                self.life.recover(cx);
                for c in 0..self.served.len() {
                    self.forget_client(c, cx);
                    self.publish_settled(c);
                }
                // The crash invalidated the old epoch's timers.
                self.restart_slices(cx);
            }
            LifecycleEv::ConnReset(c) => {
                self.life.reset(c, cx);
                self.forget_client(c, cx);
                self.publish_settled(c);
            }
            LifecycleEv::Abandon { client, seq } => self.abandon(client, seq, cx.fabric),
        }
    }

    fn client_overhead(&self) -> ClientOverhead {
        self.overhead
    }

    fn name(&self) -> &'static str {
        "ScaleRPC"
    }
}

impl<H: ServerHandler> rpc_core::transport::OneSidedAccess for ScaleRpc<H> {
    fn client_qp(&self, client: ClientId) -> Option<QpId> {
        Some(self.client_qp_of(client))
    }
}
