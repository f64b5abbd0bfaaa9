//! The ScaleRPC server/client transport (§3 of the paper, end to end).
//!
//! One [`ScaleRpc`] value embodies both sides of the protocol — the
//! `RPCServer` (pools, scheduler, workers, warmup engine) and every
//! `RPCClient` state machine — wired to the simulated fabric. All
//! *timing* flows through the fabric (RDMA verbs, NIC/LLC models, worker
//! CPU resources); shared Rust state is used only for metadata a real
//! deployment exchanges at connection setup (region ids, zone
//! assignments).
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

use bytes::Bytes;
use rdma_fabric::{
    CqId, Fabric, MrId, PostInfo, QpId, RemoteAddr, Transport, Upcall, WcOpcode, WorkRequest, WrId,
};
use rpc_core::cluster::{ClientId, Cluster};
use rpc_core::driver::Cx;
use rpc_core::message::{MsgBuf, FLAG_CTX_SWITCH, HEADER};
use rpc_core::pool::BlockPool;
use rpc_core::transport::{ClientOverhead, LifecycleEv, Response, RpcTransport, ServerHandler};
use rpc_core::workers::WorkerPool;
use simcore::{DetHashMap, DetHashSet};
use simcore::{FifoResource, Fsm, SimDuration, SimTime, Transitions};
use simtrace::{InstantKind, Stage, TraceId, Tracer};

use crate::client::{ClientFsm, SubmitAction};
use crate::config::ScaleRpcConfig;
use crate::scheduler::{ClientStats, GroupPlan, Scheduler};
use crate::vpool::PoolPair;

/// Endpoint-entry stride in the endpoint region (per client).
const ENTRY: usize = 32;
/// Sequence number that marks a pure context-switch notification.
const NOTIFY_SEQ: u64 = u64::MAX;

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

/// Where a client's connection stands (the elastic control plane).
///
/// Eager (seed) deployments are `Ready` from construction and never
/// leave it on the steady-state path, so the variants are free there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// No connection; the next submit triggers establishment.
    Absent,
    /// Setup in flight; submits are buffered until `ConnEstablished`.
    Pending,
    /// Both QPs at RTS; the data path is open.
    Ready,
}

impl Transitions for ConnState {
    /// Every edge but `Absent → Ready`: the data path opens only after
    /// an establishment this transport started (the stale-`ConnRts` bug).
    fn allows(self, to: Self) -> bool {
        use ConnState::*;
        matches!(
            (self, to),
            (Absent, Pending) | (Pending, Ready | Absent) | (Ready, Pending | Absent)
        )
    }
}

struct PerClient {
    server_qp: QpId,
    client_qp: QpId,
    /// Client-local region: `slots` staging blocks, then `slots + 1`
    /// response blocks (the last is the control block for explicit
    /// notifications).
    local_mr: MrId,
    fsm: ClientFsm,
    /// Responses not yet posted for this client (piggyback bookkeeping).
    inflight_responses: usize,
    /// Set at a context switch; the next response carries the event.
    needs_ctx: bool,
    /// Server-side mirror of the endpoint entry's Valid flag.
    entry_valid: bool,
    /// An endpoint-entry write is on the wire (suppresses duplicates).
    publish_inflight: bool,
    /// Slice epoch of the last warmup fetch (suppresses duplicate
    /// fetches within one slice).
    last_fetch_epoch: u64,
    /// Whether the server answered this client during the current slice.
    served_this_slice: bool,
    /// Highest request sequence executed for this client.
    seq_high: u64,
    /// Bitmap over `seq_high - i` (bit i) of recently executed sequences,
    /// used to drop duplicate executions when a warmup re-fetch copies a
    /// staged request whose response is still in flight. Handlers with
    /// side effects (locks, transactions) need exactly-once execution.
    seq_window: SeqWindow,
    /// Connection state (the elastic control plane).
    conn: Fsm<ConnState>,
    /// Requests submitted while the connection was down or being set up,
    /// flushed in order on `ConnEstablished`.
    pending: Vec<(u64, Bytes)>,
    /// Response-replay cache. A retransmitted request whose original
    /// *response* was lost (sent into a crash window, or on the wire
    /// when churn tore the client's QP down) hits the `seq_window`
    /// duplicate guard — exactly-once execution — and without this
    /// cache the duplicate would be dropped silently, stranding the
    /// client. Populated for every response when `cfg.elastic` (chaos
    /// runs), and always for sends intercepted while `down`; replayed
    /// only once a lifecycle event has occurred, so steady-state
    /// duplicate handling stays bit-exact.
    resp_cache: Vec<(u64, Bytes)>,
}

/// Per-client response-replay cache depth: bounds accumulation across
/// repeated crash windows (one window holds at most `slots` entries).
const RESP_CACHE: usize = 256;

/// Sliding 1024-bit executed-sequence bitmap: bit `back` records whether
/// `seq_high - back` was executed. 1024 bits (vs the seed's 128) leaves
/// ample slack for multi-outstanding clients that stride sequence
/// numbers across window slots (see `scaletx`): a slot stalled behind a
/// slice boundary can fall hundreds of seqs behind its siblings without
/// being misclassified as a duplicate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SeqWindow {
    words: [u64; SEQ_WINDOW_WORDS],
}

const SEQ_WINDOW_WORDS: usize = 16;
/// Width of the duplicate-detection window in bits.
const SEQ_WINDOW_BITS: u64 = (SEQ_WINDOW_WORDS as u64) * 64;

impl SeqWindow {
    /// Ages every recorded seq by `n` (the new high moved forward).
    fn shift_up(&mut self, n: u64) {
        if n >= SEQ_WINDOW_BITS {
            self.words = [0; SEQ_WINDOW_WORDS];
            return;
        }
        let word_shift = (n / 64) as usize;
        let bit_shift = (n % 64) as u32;
        for i in (0..SEQ_WINDOW_WORDS).rev() {
            let mut w = if i >= word_shift {
                self.words[i - word_shift] << bit_shift
            } else {
                0
            };
            if bit_shift > 0 && i > word_shift {
                w |= self.words[i - word_shift - 1] >> (64 - bit_shift);
            }
            self.words[i] = w;
        }
    }

    fn test(&self, back: u64) -> bool {
        (self.words[(back / 64) as usize] >> (back % 64)) & 1 != 0
    }

    fn set(&mut self, back: u64) {
        self.words[(back / 64) as usize] |= 1 << (back % 64);
    }
}

/// Each client's `(group, zone)` under `plan`: the first group listing
/// it and its position there — what [`GroupPlan::group_of`] followed by
/// a position scan of that group finds.
fn zone_table(plan: &GroupPlan, clients: usize) -> Vec<Option<(usize, usize)>> {
    let mut table = vec![None; clients];
    for (g, members) in plan.groups.iter().enumerate() {
        for (z, &c) in members.iter().enumerate() {
            if let Some(entry @ None) = table.get_mut(c) {
                *entry = Some((g, z));
            }
        }
    }
    table
}

/// The ScaleRPC transport.
pub struct ScaleRpc<H: ServerHandler> {
    cfg: ScaleRpcConfig,
    geom: BlockPool,
    /// The two physical pools (processing/warmup roles swap).
    pools: [MrId; 2],
    pool_pair: PoolPair,
    endpoint_mr: MrId,
    clients: Vec<PerClient>,
    local_index: DetHashMap<MrId, ClientId>,
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
    /// Trace ids of in-flight requests, keyed `(client, seq)`. Pure
    /// observability metadata (like zone assignments, state a real
    /// deployment would carry in its headers); never read by the
    /// protocol. Populated only while tracing is enabled.
    trace_ids: DetHashMap<(ClientId, u64), TraceId>,
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
    /// Reverse map from QPs to their owning client, for routing
    /// `ConnEstablished` upcalls.
    qp_index: DetHashMap<QpId, ClientId>,
    /// The server is crashed: its QPs are errored, posts toward it drop
    /// and server-side timers/upcalls are suppressed until recovery.
    down: bool,
    /// A lifecycle event (crash, churn, reconnect) has occurred this
    /// run; gates response replay so steady-state duplicate handling
    /// stays bit-exact.
    elastic_seen: bool,
    /// Posts dropped because a QP was torn down or not yet connected
    /// (observability; always 0 on a healthy run).
    pub dropped_posts: u64,
    /// Lost responses re-sent from the replay cache (observability).
    pub replayed_responses: u64,
    /// `(time, group count)` at every dynamic-scheduler replan — the
    /// re-convergence measurement for churn experiments (how long after
    /// a disturbance the group structure settles).
    pub replan_history: Vec<(SimTime, usize)>,
}

impl<H: ServerHandler> ScaleRpc<H> {
    /// Builds the transport: two group-sized physical pools, the endpoint
    /// region, and one RC connection per client.
    pub fn new(fabric: &mut Fabric, cluster: &Cluster, cfg: ScaleRpcConfig, handler: H) -> Self {
        cfg.validate();
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
        let mut clients = Vec::with_capacity(n);
        let mut local_index = DetHashMap::default();
        let mut qp_index = DetHashMap::default();
        for c in 0..n {
            let cnode = cluster.node_of(c);
            let local_mr = fabric
                .register_mr(cnode, (2 * cfg.slots + 1) * cfg.block_size)
                .expect("client region");
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
            local_index.insert(local_mr, c);
            qp_index.insert(server_qp, c);
            qp_index.insert(client_qp, c);
            clients.push(PerClient {
                server_qp,
                client_qp,
                local_mr,
                // One FSM window slot per message slot: the client can
                // keep at most `slots` requests in flight before staging
                // blocks would collide.
                fsm: ClientFsm::with_window(cfg.slots),
                inflight_responses: 0,
                needs_ctx: false,
                entry_valid: false,
                publish_inflight: false,
                last_fetch_epoch: u64::MAX,
                served_this_slice: false,
                seq_high: 0,
                seq_window: SeqWindow::default(),
                conn: Fsm::new(if cfg.lazy_connect {
                    ConnState::Absent
                } else {
                    ConnState::Ready
                }),
                pending: Vec::new(),
                resp_cache: Vec::new(),
            });
        }
        let p = fabric.params();
        ScaleRpc {
            geom,
            pools,
            pool_pair: PoolPair::new(),
            endpoint_mr,
            clients,
            local_index,
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
            trace_ids: DetHashMap::default(),
            ctx_notifies: 0,
            warmup_fetches: 0,
            legacy_requests: 0,
            scan_requests: 0,
            direct_requests: 0,
            dup_drops: 0,
            qp_index,
            down: false,
            elastic_seen: false,
            dropped_posts: 0,
            replayed_responses: 0,
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
    /// liveness triage (the scenario fuzzer prints this for any client
    /// the harness reports as stuck).
    pub fn client_diag(&self, fabric: &Fabric, client: ClientId) -> String {
        let st = &self.clients[client];
        let slots: Vec<String> = (0..self.cfg.slots)
            .filter_map(|s| {
                let mr = fabric.mr(st.local_mr).ok()?;
                let raw = mr.read(self.staging_off(s), self.cfg.block_size).ok()?;
                let (h, _) = MsgBuf::decode_rpc(raw)?;
                Some(format!("slot{s}=seq{}", h.seq))
            })
            .collect();
        let entry_word = fabric
            .mr(self.endpoint_mr)
            .and_then(|mr| mr.read_u64(client * ENTRY + 16))
            .unwrap_or(u64::MAX);
        let wnd: Vec<u64> = st
            .fsm
            .window()
            .iter_in_flight()
            .map(|(_, f)| f.seq)
            .collect();
        format!(
            "client {client}: fsm={:?} inflight={:?} entry_valid={} entry_word={} \
             publish_inflight={} needs_ctx={} inflight_responses={} last_fetch_epoch={} \
             group={:?} cur={} epoch={} staged=[{}]",
            st.fsm.state(),
            wnd,
            st.entry_valid,
            entry_word,
            st.publish_inflight,
            st.needs_ctx,
            st.inflight_responses,
            st.last_fetch_epoch,
            self.plan.group_of(client),
            self.cur,
            self.slice_epoch,
            slots.join(",")
        )
    }

    // ---- geometry helpers -------------------------------------------------

    /// Offset of a client's staging block `slot` in its local region.
    fn staging_off(&self, slot: usize) -> usize {
        slot * self.cfg.block_size
    }

    /// Offset of a client's response block `slot` (control block when
    /// `slot == slots`).
    fn resp_off(&self, slot: usize) -> usize {
        (self.cfg.slots + slot) * self.cfg.block_size
    }

    fn zone_of(&self, client: ClientId) -> Option<(usize /*group*/, usize /*zone*/)> {
        self.zones.get(client).copied().flatten()
    }

    fn group_of_pool(&self, pool_idx: usize) -> usize {
        if pool_idx == self.pool_pair.processing() {
            self.cur
        } else {
            (self.cur + 1) % self.plan.groups.len()
        }
    }

    /// Posts a work request, tolerating a torn-down or not-yet-ready QP:
    /// on a healthy run this behaves exactly like an `.expect`ing post;
    /// under churn the post is dropped and counted instead of panicking,
    /// and the harness retry layer re-drives the lost work.
    fn post_or_drop(
        &mut self,
        qp: QpId,
        wr: WorkRequest,
        signaled: bool,
        cx: &mut Cx<'_, ScaleEv>,
    ) -> Option<PostInfo> {
        match cx.post(qp, wr, signaled, None) {
            Ok(info) => Some(info),
            Err(_) => {
                self.dropped_posts += 1;
                None
            }
        }
    }

    // ---- client side -------------------------------------------------------

    /// Picks the staging block for `seq`. The natural slot is
    /// `seq % slots`, but a windowed client's outstanding sequences need
    /// not be consecutive: one request can stall while its window
    /// siblings complete and are replaced, until a fresh sequence maps to
    /// the stalled request's slot and would overwrite its staged bytes
    /// before any warmup fetch reads them — stranding it forever. Probe
    /// forward to the first slot not holding a *different, still
    /// in-flight* request (stale already-answered copies are fair game).
    /// `window <= slots`, so a free slot always exists.
    fn staging_slot_for(&self, client: ClientId, seq: u64, fabric: &Fabric) -> usize {
        let base = self.geom.slot_of_seq(seq);
        let st = &self.clients[client];
        if st.fsm.window().capacity() <= 1 {
            return base; // synchronous client: at most one staged request
        }
        for probe in 0..self.cfg.slots {
            let s = (base + probe) % self.cfg.slots;
            let staged_seq = fabric
                .mr(st.local_mr)
                .ok()
                .and_then(|mr| mr.read(self.staging_off(s), self.cfg.block_size).ok())
                .and_then(MsgBuf::decode_rpc)
                .map(|(h, _)| h.seq);
            let occupied = staged_seq.is_some_and(|ss| {
                ss != seq && st.fsm.window().iter_in_flight().any(|(_, f)| f.seq == ss)
            });
            if !occupied {
                return s;
            }
        }
        base
    }

    fn stage_request(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: &[u8],
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        // Compose the message into the local staging block: an ordinary
        // CPU store, no verbs.
        let slot = self.staging_slot_for(client, seq, cx.fabric);
        let (enc_off, bytes) = MsgBuf::encode_rpc(client, seq, 0, payload, self.cfg.block_size)
            .expect("request fits block");
        let off = self.staging_off(slot) + enc_off;
        cx.fabric
            .mr_mut(self.clients[client].local_mr)
            .expect("local mr")
            .write(off, &bytes)
            .expect("staging write");
    }

    fn publish_entry(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.clients[client].publish_inflight = true;
        // <req_addr, batch_size> tuple, Valid last (RDMA writes land in
        // increasing address order).
        let mut entry = [0u8; 24];
        entry[0..8].copy_from_slice(&0u64.to_le_bytes()); // staging offset
        entry[8..12].copy_from_slice(&(self.cfg.slots as u32).to_le_bytes());
        entry[16..24].copy_from_slice(&1u64.to_le_bytes()); // valid
        self.post_or_drop(
            self.clients[client].client_qp,
            WorkRequest::Write {
                data: Bytes::copy_from_slice(&entry),
                remote: RemoteAddr::new(self.endpoint_mr, client * ENTRY),
                imm: None,
            },
            false,
            cx,
        );
    }

    fn direct_write(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: &[u8],
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        let Some((_, zone)) = self.zone_of(client) else {
            return;
        };
        let zone = zone.min(self.geom.zones - 1);
        let slot = self.geom.slot_of_seq(seq);
        let (enc_off, bytes) = MsgBuf::encode_rpc(client, seq, 0, payload, self.cfg.block_size)
            .expect("request fits block");
        let pool = self.pools[self.pool_pair.processing()];
        let remote = RemoteAddr::new(pool, self.geom.offset(zone, slot) + enc_off);
        self.post_or_drop(
            self.clients[client].client_qp,
            WorkRequest::Write {
                data: bytes,
                remote,
                imm: None,
            },
            false,
            cx,
        );
    }

    // ---- server side: warmup ----------------------------------------------

    /// Fetches a client's staged batch with an RDMA read into `pool_idx`'s
    /// zone for that client.
    fn fetch_client(&mut self, client: ClientId, pool_idx: usize, cx: &mut Cx<'_, ScaleEv>) {
        let Some((_, zone)) = self.zone_of(client) else {
            return;
        };
        let zone = zone.min(self.geom.zones - 1);
        if self.clients[client].last_fetch_epoch == self.slice_epoch {
            return; // already fetched this slice
        }
        // Deferred-scan fetches (into the warmup pool) park data in the
        // zone until the context switch; a second fetch into the same
        // zone before that scan (possible across group replans) would
        // overwrite the first client's staged requests. Block it — the
        // entry stays valid and the client is fetched at its next warm
        // phase instead. Eager fetches into the processing pool are
        // consumed on completion and need no reservation.
        if pool_idx == self.pool_pair.warmup() {
            if self.zone_reserved[pool_idx][zone] != u64::MAX {
                return;
            }
            self.zone_reserved[pool_idx][zone] = self.slice_epoch;
        }
        self.clients[client].last_fetch_epoch = self.slice_epoch;
        self.clients[client].entry_valid = false;
        // Clear the entry's Valid flag in server memory.
        cx.fabric
            .mr_mut(self.endpoint_mr)
            .expect("endpoint mr")
            .write(client * ENTRY + 16, &0u64.to_le_bytes())
            .expect("entry clear");
        let Some(info) = self.post_or_drop(
            self.clients[client].server_qp,
            WorkRequest::Read {
                local_mr: self.pools[pool_idx],
                local_offset: self.geom.offset(zone, 0),
                remote: RemoteAddr::new(self.clients[client].local_mr, 0),
                len: self.geom.zone_bytes(),
            },
            true,
            cx,
        ) else {
            // QP torn down under us: the fetch is lost; the client
            // republishes (or the retry layer re-drives) after recovery.
            return;
        };
        self.warmup_fetches += 1;
        self.tracer.instant(
            InstantKind::WarmupFetchIssue,
            cx.now,
            client as u64,
            self.slice_epoch,
        );
        self.pending_reads
            .insert(info.wr_id, (client, pool_idx, zone, self.slice_epoch));
    }

    /// Starts warming every member of the group owning `pool_idx` whose
    /// endpoint entry is valid. Fetch posts are staggered over the first
    /// 60 % of the slice: bursting them would momentarily flood the NIC
    /// cache with the warm group's QP contexts and evict the serving
    /// group's, stalling the very responses the slice exists to send.
    fn warm_group(&mut self, pool_idx: usize, cx: &mut Cx<'_, ScaleEv>) {
        let group = self.group_of_pool(pool_idx);
        let members = self.plan.groups[group].clone();
        let slice = self.plan.slices[self.cur.min(self.plan.slices.len() - 1)];
        let span = SimDuration::nanos(slice.as_nanos() * 6 / 10);
        let n = members.len().max(1) as u64;
        for (i, c) in members.into_iter().enumerate() {
            if self.clients[c].entry_valid {
                let delay = SimDuration::nanos(span.as_nanos() * i as u64 / n);
                cx.after(
                    delay,
                    ScaleEv::Fetch {
                        client: c,
                        pool_idx,
                        epoch: self.slice_epoch,
                    },
                );
            }
        }
    }

    // ---- server side: request execution -------------------------------------

    /// Decodes and executes the message in `(pool_mr, block_start)`,
    /// charging the owning worker. `touched` is the byte range the DMA
    /// write covered (for LLC accounting on direct arrivals).
    fn execute_block(
        &mut self,
        pool_mr: MrId,
        zone: usize,
        block_start: usize,
        touched: Option<(usize, usize)>,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        // Consume the message, duplicate or not, so the scan moves on
        // (stateless pool: clearing Valid is the only write needed; the
        // next occupant simply overwrites).
        let region = cx.fabric.mr_mut(pool_mr).expect("pool mr");
        let Some((header, payload)) = MsgBuf::take_rpc(region, block_start, self.cfg.block_size)
        else {
            return;
        };
        payload.clone_into(&mut self.request);
        let client = header.client_id as usize;
        if client >= self.clients.len() {
            return;
        }
        // Exactly-once guard: a warmup re-fetch can deliver a staged
        // request a second time; executing it again would repeat handler
        // side effects (§3.5's re-execution hazard).
        if header.seq != NOTIFY_SEQ && !self.record_seq(client, header.seq) {
            self.dup_drops += 1;
            // After a lifecycle disturbance, a duplicate may be the
            // retransmission of a request whose *response* was lost
            // (crash window, churned QP): answer from the replay cache
            // instead of stranding the client. The handler does not run
            // again — exactly-once execution holds.
            if self.elastic_seen {
                let hit = self.clients[client]
                    .resp_cache
                    .iter()
                    .find(|e| e.0 == header.seq)
                    .map(|e| e.1.clone());
                if let Some(resp) = hit {
                    self.replayed_responses += 1;
                    self.clients[client].inflight_responses += 1;
                    self.clients[client].served_this_slice = true;
                    let service = self.pool_check + self.post_cpu;
                    let w = self.workers.owner_of(zone);
                    let done = self.workers.run(w, cx.now, service);
                    cx.at(
                        done,
                        ScaleEv::SendResponse {
                            client,
                            seq: header.seq,
                            payload: resp,
                        },
                    );
                }
            }
            return;
        }
        let msg_len = HEADER + self.request.len();
        let (touch_off, touch_len) = touched.unwrap_or((
            block_start,
            (msg_len + rpc_core::message::TRAILER).min(self.cfg.block_size),
        ));
        let read_cost = cx
            .fabric
            .cpu_access(pool_mr, touch_off, touch_len)
            .expect("pool access");
        self.stats_cur[client].ops += 1;
        self.stats_cur[client].bytes += msg_len as u64;
        self.clients[client].inflight_responses += 1;
        self.clients[client].served_this_slice = true;
        let (resp, handler_cost) = self.handler.handle(client, &self.request, cx.fabric);
        let service = self.pool_check + read_cost + handler_cost + self.post_cpu;
        // §3.5: a call that runs longer than ~half a slice risks being cut
        // by a context switch; its first execution is recorded and later
        // invocations of the same call type run on a dedicated thread in
        // legacy mode. Explicitly flagged requests go there directly.
        let slice_half = SimDuration::nanos(self.cfg.time_slice.as_nanos() / 2);
        let is_legacy = header.is_legacy() || self.legacy_types.contains(&header.call_type);
        if handler_cost > slice_half && self.legacy_types.insert(header.call_type) {
            self.tracer.instant(
                InstantKind::LegacyDemotion,
                cx.now,
                header.call_type as u64,
                handler_cost.as_nanos(),
            );
        }
        let done = if is_legacy {
            self.legacy_requests += 1;
            self.legacy_thread.acquire(cx.now, service).complete
        } else {
            let w = self.workers.owner_of(zone);
            self.workers.run(w, cx.now, service)
        };
        if let Some(&tid) = self.trace_ids.get(&(client, header.seq)) {
            // Includes queueing behind the zone's worker, so slice-wait
            // shows up in the stage breakdown.
            self.tracer
                .span(tid, Stage::Handler, cx.now, done, client as u64);
        }
        cx.at(
            done,
            ScaleEv::SendResponse {
                client,
                seq: header.seq,
                payload: resp,
            },
        );
    }

    /// Scans one zone of a pool for valid messages (used right after a
    /// context switch on the fresh processing pool).
    fn scan_zone(&mut self, pool_idx: usize, zone: usize, cx: &mut Cx<'_, ScaleEv>) {
        let pool_mr = self.pools[pool_idx];
        let mut empty_checks = 0u64;
        for slot in 0..self.cfg.slots {
            let block_start = self.geom.offset(zone, slot);
            let valid = {
                let mr = cx.fabric.mr(pool_mr).expect("pool mr");
                MsgBuf::is_valid(
                    mr.read(block_start, self.cfg.block_size)
                        .expect("block bounds"),
                )
            };
            if valid {
                self.scan_requests += 1;
                self.execute_block(pool_mr, zone, block_start, None, cx);
            } else {
                empty_checks += 1;
            }
        }
        if empty_checks > 0 {
            // Workers still pay to poll empty blocks.
            let w = self.workers.owner_of(zone);
            self.workers.run(w, cx.now, self.pool_check * empty_checks);
        }
    }

    /// Records `seq` for `client`; returns `false` when it was already
    /// executed (duplicate). The window is 1024 bits wide
    /// ([`SEQ_WINDOW_BITS`]): far more than the slot count bounds
    /// in-flight requests to, so a strided multi-outstanding client slot
    /// that stalls across slices still lands inside the window.
    fn record_seq(&mut self, client: ClientId, seq: u64) -> bool {
        let st = &mut self.clients[client];
        if seq > st.seq_high {
            let shift = seq - st.seq_high;
            st.seq_window.shift_up(shift);
            st.seq_window.set(0);
            st.seq_high = seq;
            true
        } else {
            let back = st.seq_high - seq;
            if back >= SEQ_WINDOW_BITS {
                return false; // ancient: certainly a duplicate
            }
            if st.seq_window.test(back) {
                false
            } else {
                st.seq_window.set(back);
                true
            }
        }
    }

    // ---- server side: context switch ----------------------------------------

    fn context_switch(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        self.tracer.instant(
            InstantKind::SliceEnd,
            cx.now,
            self.cur as u64,
            self.slice_epoch,
        );
        let outgoing = self.plan.groups[self.cur].clone();
        // Collect slice statistics and arrange notifications.
        for c in outgoing {
            let st = &mut self.clients[c];
            if st.served_this_slice {
                if st.inflight_responses > 0 {
                    // Piggyback on the next outgoing response.
                    st.needs_ctx = true;
                } else {
                    self.post_ctx_notify(c, cx);
                }
            }
            self.clients[c].served_this_slice = false;
            self.stats_last[c] = self.stats_cur[c];
            self.stats_cur[c] = ClientStats::default();
        }
        // Advance: warmup pool becomes the processing pool.
        self.slice_epoch += 1;
        self.cur = (self.cur + 1) % self.plan.groups.len();
        self.pool_pair.swap();
        if self.cur == 0 {
            self.rotations += 1;
            if self.scheduler.dynamic && self.rotations.is_multiple_of(self.cfg.regroup_rotations) {
                let before = self.plan.groups.len();
                self.plan = self.scheduler.replan(&self.stats_last);
                self.zones = zone_table(&self.plan, self.clients.len());
                let after = self.plan.groups.len();
                self.replan_history.push((cx.now, after));
                self.tracer.instant(
                    InstantKind::GroupReprioritize,
                    cx.now,
                    self.rotations as u64,
                    after as u64,
                );
                if after > before {
                    self.tracer.instant(
                        InstantKind::GroupSplit,
                        cx.now,
                        before as u64,
                        after as u64,
                    );
                } else if after < before {
                    self.tracer.instant(
                        InstantKind::GroupMerge,
                        cx.now,
                        before as u64,
                        after as u64,
                    );
                }
            }
        }
        self.tracer.instant(
            InstantKind::GroupSwitch,
            cx.now,
            self.cur as u64,
            self.rotations as u64,
        );
        self.tracer.instant(
            InstantKind::SliceStart,
            cx.now,
            self.cur as u64,
            self.slice_epoch,
        );
        // Process whatever warmup fetched into the new pool. All zones
        // are scanned (not just the incoming group's): a regroup may have
        // shifted zone assignments after a fetch was posted, and the
        // polling workers sweep their whole zones regardless. Scanning
        // consumes the parked data, so the pool's fetch reservations
        // lift.
        for z in 0..self.geom.zones {
            self.scan_zone(self.pool_pair.processing(), z, cx);
        }
        self.zone_reserved[self.pool_pair.processing()].fill(u64::MAX);
        // Begin warming the next group into the freed pool.
        self.warm_group(self.pool_pair.warmup(), cx);
        // Arm the next slice timer.
        let slice = self.plan.slices[self.cur.min(self.plan.slices.len() - 1)];
        cx.after(
            slice,
            ScaleEv::SliceEnd {
                epoch: self.slice_epoch,
            },
        );
    }

    fn post_ctx_notify(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.ctx_notifies += 1;
        let (enc_off, bytes) = MsgBuf::encode_rpc(
            client,
            NOTIFY_SEQ,
            FLAG_CTX_SWITCH,
            b"",
            self.cfg.block_size,
        )
        .expect("notify fits");
        let remote = RemoteAddr::new(
            self.clients[client].local_mr,
            self.resp_off(self.cfg.slots) + enc_off,
        );
        self.post_or_drop(
            self.clients[client].server_qp,
            WorkRequest::Write {
                data: bytes,
                remote,
                imm: None,
            },
            false,
            cx,
        );
    }

    // ---- client side: response handling --------------------------------------

    fn handle_client_memwrite(
        &mut self,
        client: ClientId,
        offset: usize,
        cx: &mut Cx<'_, ScaleEv>,
        out: &mut Vec<Response>,
    ) {
        let block = offset / self.cfg.block_size;
        if block < self.cfg.slots {
            // A write into the staging area can only be the server's
            // warmup read... which never writes. Ignore defensively.
            return;
        }
        let local_mr = self.clients[client].local_mr;
        let block_start = block * self.cfg.block_size;
        let region = cx.fabric.mr_mut(local_mr).expect("local mr");
        let Some((header, payload)) = MsgBuf::take_rpc(region, block_start, self.cfg.block_size)
        else {
            return;
        };
        if header.seq == NOTIFY_SEQ {
            self.clients[client].fsm.on_ctx_notify();
            // Re-arm (asynchronous clients only, so the synchronous
            // timeline stays bit-exact): with requests still in flight —
            // staged but not yet served — jump straight back to WARMUP
            // and make sure the endpoint entry advertises the staged
            // tail instead of stranding it.
            if self.cfg.client_window > 1 && self.clients[client].fsm.rearm() {
                let st = &self.clients[client];
                if !st.entry_valid && !st.publish_inflight {
                    self.publish_entry(client, cx);
                }
            }
            return;
        }
        let payload = Bytes::copy_from_slice(payload);
        if self.clients[client]
            .fsm
            .complete(header.seq, header.is_ctx_switch())
            .is_none()
        {
            // Untracked (window overcommit fallback in `submit`): apply
            // the bare Fig. 7 transition.
            self.clients[client].fsm.on_response(header.is_ctx_switch());
        }
        if let Some(tid) = self.trace_ids.remove(&(client, header.seq)) {
            self.tracer.end(tid, Stage::Response, cx.now);
        }
        // Clear the staging copy of this request so a later warmup read
        // cannot re-fetch it. The copy normally sits at `seq % slots`,
        // but collision probing (see `staging_slot_for`) may have placed
        // it in a neighbouring slot, so scan for the block holding this
        // sequence; slots staging *other* requests are left untouched.
        for s in 0..self.cfg.slots {
            let stage_block = self.staging_off(s);
            let staged_seq = {
                let mr = cx.fabric.mr(local_mr).expect("local mr");
                let raw = mr
                    .read(stage_block, self.cfg.block_size)
                    .expect("staging bounds");
                MsgBuf::decode_rpc(raw).map(|(h, _)| h.seq)
            };
            if staged_seq == Some(header.seq) {
                let region = cx.fabric.mr_mut(local_mr).expect("local mr");
                MsgBuf::clear_valid(region, stage_block, self.cfg.block_size);
            }
        }
        // A delivered response can never need replay again: the client
        // FSM has completed this sequence, so no retransmission of it
        // will arrive. Pruning keeps the bounded replay cache holding
        // only *undelivered* responses — the exact failover replay set —
        // instead of letting steady traffic evict the stuck entries
        // (lowest-seq eviction would discard precisely the oldest,
        // still-unacknowledged request a retry is about to ask for).
        self.clients[client]
            .resp_cache
            .retain(|e| e.0 != header.seq);
        out.push(Response {
            client,
            seq: header.seq,
            payload,
        });
    }

    /// Drives one request through the client FSM and onto the wire (the
    /// post-connection-setup half of `submit`).
    fn dispatch(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        tid: TraceId,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        // Track the request in the FSM's in-flight window (per-slot
        // TraceIds). A retransmission of a sequence the window already
        // tracks must not claim a second slot; should a caller overcommit
        // past the slot count, fall back to the untracked Fig. 7
        // transition so the state machine itself never diverges.
        let action = if self.clients[client].fsm.window().contains(seq) {
            self.clients[client].fsm.on_submit()
        } else {
            self.clients[client]
                .fsm
                .submit(seq, tid)
                .unwrap_or_else(|| self.clients[client].fsm.on_submit())
        };
        match action {
            SubmitAction::DirectWrite => self.direct_write(client, seq, &payload, cx),
            SubmitAction::StageAndPublish => {
                self.stage_request(client, seq, &payload, cx);
                self.publish_entry(client, cx);
            }
            SubmitAction::StageOnly => {
                self.stage_request(client, seq, &payload, cx);
                // If the entry was already consumed this cycle (and no
                // publish is on the wire), republish so the batch is not
                // stranded until the next rotation.
                if !self.clients[client].entry_valid && !self.clients[client].publish_inflight {
                    self.publish_entry(client, cx);
                }
            }
        }
    }

    // ---- elastic control plane ---------------------------------------------

    /// Kicks off a modelled connection establishment for `client`. While
    /// the server is crashed the attempt fails verb-side; the client
    /// stays `Pending` with its requests buffered and `recover`
    /// re-drives the setup.
    fn begin_connect(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.clients[client].conn.set(ConnState::Pending);
        let (cq, sq) = (
            self.clients[client].client_qp,
            self.clients[client].server_qp,
        );
        // The deferred-setup path models the full control-plane cost
        // (QP create + RTS transition) before `ConnEstablished` fires.
        let _ = cx.connect_deferred(cq, sq);
    }

    /// Both ends of `qp`'s connection reached RTS: open the data path
    /// and flush requests buffered during setup, in submission order.
    fn on_conn_established(&mut self, qp: QpId, cx: &mut Cx<'_, ScaleEv>) {
        let Some(&client) = self.qp_index.get(&qp) else {
            return;
        };
        if self.clients[client].conn.get() != ConnState::Pending {
            // Only an establishment this transport is waiting for may
            // open the data path. A stale `ConnRts` — from a setup that
            // predates a connection churn — can land while the client
            // is parked in `Absent` (lazy mode: churn during an earlier
            // setup, then a second churn with nothing buffered).
            // Accepting it would transition Absent → Ready with none of
            // the re-setup cost paid, violating `conn_reset`'s contract
            // that the full establishment runs before the next request
            // flows. The fabric did move the QPs to RTS, so put them
            // back to Reset or the next `begin_connect` would fail and
            // strand the client in `Pending` forever.
            if self.clients[client].conn.get() == ConnState::Absent {
                let (sq, cq) = (
                    self.clients[client].server_qp,
                    self.clients[client].client_qp,
                );
                let _ = cx.fabric.reset_qp(sq);
                let _ = cx.fabric.reset_qp(cq);
            }
            return;
        }
        self.clients[client].conn.set(ConnState::Ready);
        let pending = std::mem::take(&mut self.clients[client].pending);
        for (seq, payload) in pending {
            let tid = self
                .trace_ids
                .get(&(client, seq))
                .copied()
                .unwrap_or_default();
            self.dispatch(client, seq, payload, tid, cx);
        }
    }

    /// Clears server-side per-client connection state (endpoint entry,
    /// fetch/publish bookkeeping) that refers to a connection that no
    /// longer exists. Memory regions survive — this is the warm-restart
    /// model.
    fn forget_conn_state(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        cx.fabric
            .mr_mut(self.endpoint_mr)
            .expect("endpoint mr")
            .write(client * ENTRY + 16, &0u64.to_le_bytes())
            .expect("entry scrub");
        let st = &mut self.clients[client];
        st.entry_valid = false;
        st.publish_inflight = false;
        st.last_fetch_epoch = u64::MAX;
        st.inflight_responses = 0;
        st.needs_ctx = false;
    }

    /// Connection churn for one client: both QPs torn down (in-flight
    /// packets drop) and re-established, the full setup cost paid before
    /// the client's next request flows.
    fn conn_reset(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        let (sq, cq) = (
            self.clients[client].server_qp,
            self.clients[client].client_qp,
        );
        // Tear both ends down, then bring them back to Reset so a fresh
        // establishment can run (the legal Error → Reset → RTS path).
        let _ = cx.fabric.destroy_qp(sq);
        let _ = cx.fabric.destroy_qp(cq);
        let _ = cx.fabric.reset_qp(sq);
        let _ = cx.fabric.reset_qp(cq);
        self.forget_conn_state(client, cx);
        if self.down {
            // Reconnection waits for server recovery.
            self.clients[client].conn.set(ConnState::Pending);
        } else if self.cfg.lazy_connect && self.clients[client].pending.is_empty() {
            // Lazy clients with nothing buffered reconnect on demand.
            self.clients[client].conn.set(ConnState::Absent);
        } else {
            self.begin_connect(client, cx);
        }
    }

    /// Warm server restart after a crash: QPs leave the error state,
    /// connections are re-established (staggered — the control plane
    /// brings them up serially), and the slice schedule restarts.
    fn recover(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        self.down = false;
        let setup = cx.fabric.params().conn_setup_cpu();
        for c in 0..self.clients.len() {
            let (sq, cq) = (self.clients[c].server_qp, self.clients[c].client_qp);
            let _ = cx.fabric.reset_qp(sq);
            let _ = cx.fabric.reset_qp(cq);
            self.forget_conn_state(c, cx);
            if self.cfg.lazy_connect && self.clients[c].pending.is_empty() {
                self.clients[c].conn.set(ConnState::Absent);
            } else {
                self.clients[c].conn.set(ConnState::Pending);
                // One connection per setup interval: client c re-admits
                // after c serial establishments.
                cx.after(
                    SimDuration::nanos(setup.as_nanos() * c as u64),
                    ScaleEv::Reconnect { client: c },
                );
            }
        }
        // Restart the slice schedule; the crash invalidated the old
        // epoch's timers.
        let slice = self.plan.slices[self.cur.min(self.plan.slices.len() - 1)];
        cx.after(
            slice,
            ScaleEv::SliceEnd {
                epoch: self.slice_epoch,
            },
        );
    }

    /// Remembers `payload` as the response to `(client, seq)` for
    /// post-loss replay. Bounded; evicts the oldest (lowest) sequence.
    fn cache_response(st: &mut PerClient, seq: u64, payload: Bytes) {
        if let Some(e) = st.resp_cache.iter_mut().find(|e| e.0 == seq) {
            e.1 = payload;
            return;
        }
        if st.resp_cache.len() >= RESP_CACHE {
            if let Some(i) = (0..st.resp_cache.len()).min_by_key(|&i| st.resp_cache[i].0) {
                st.resp_cache.swap_remove(i);
            }
        }
        st.resp_cache.push((seq, payload));
    }
}

impl<H: ServerHandler> ScaleRpc<H> {
    /// Immutable access to the server-side handler (post-run inspection).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Mutable access to the server-side handler (setup/preload).
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
    }
}

impl<H: ServerHandler> RpcTransport for ScaleRpc<H> {
    type Ev = ScaleEv;

    fn init(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        // Arm the first slice timer; warmup begins as entries arrive.
        // Multi-server deployments align (or deliberately stagger) their
        // schedules through the configured offset.
        let slice = self.plan.slices[0] + self.cfg.first_slice_offset;
        self.tracer
            .instant(InstantKind::SliceStart, cx.now, self.cur as u64, 0);
        cx.after(slice, ScaleEv::SliceEnd { epoch: 0 });
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, ScaleEv>, out: &mut Vec<Response>) {
        match up {
            Upcall::MemWrite {
                mr, offset, len, ..
            } => {
                if mr == self.pools[0] || mr == self.pools[1] {
                    if self.down {
                        return; // crashed server: nothing polls the pools
                    }
                    // Direct request arrival into a pool.
                    let Some((zone, _slot)) = self.geom.locate(offset) else {
                        return;
                    };
                    let block_start = (offset / self.cfg.block_size) * self.cfg.block_size;
                    self.direct_requests += 1;
                    self.execute_block(mr, zone, block_start, Some((offset, len)), cx);
                } else if mr == self.endpoint_mr {
                    if self.down {
                        return; // crashed server: the warmup engine is dead
                    }
                    let client = offset / ENTRY;
                    if client >= self.clients.len() {
                        return;
                    }
                    // Validate the entry in server memory.
                    let valid = cx
                        .fabric
                        .mr(self.endpoint_mr)
                        .expect("endpoint mr")
                        .read_u64(client * ENTRY + 16)
                        .map(|v| v == 1)
                        .unwrap_or(false);
                    if !valid {
                        return;
                    }
                    self.clients[client].entry_valid = true;
                    self.clients[client].publish_inflight = false;
                    // Eagerly fetch when the client's group is currently
                    // being served or warmed; otherwise the entry waits
                    // for the group's warm phase.
                    if let Some((g, _)) = self.zone_of(client) {
                        let warm_group = (self.cur + 1) % self.plan.groups.len();
                        if g == self.cur {
                            self.fetch_client(client, self.pool_pair.processing(), cx);
                        } else if g == warm_group {
                            self.fetch_client(client, self.pool_pair.warmup(), cx);
                        }
                    }
                } else if let Some(&client) = self.local_index.get(&mr) {
                    self.handle_client_memwrite(client, offset, cx, out);
                }
            }
            Upcall::Completion { cq, wc, .. } => {
                if self.down || cq != self.server_cq || wc.opcode != WcOpcode::RdmaRead {
                    return;
                }
                // A warmup fetch completed.
                let Some((client, pool_idx, zone, posted_epoch)) =
                    self.pending_reads.remove(&wc.wr_id)
                else {
                    return;
                };
                self.tracer.instant(
                    InstantKind::WarmupFetchDone,
                    cx.now,
                    client as u64,
                    posted_epoch,
                );
                if pool_idx == self.pool_pair.processing() {
                    // In-slice fetch for the serving group: execute now.
                    self.scan_zone(pool_idx, zone, cx);
                } else if posted_epoch != self.slice_epoch {
                    // Posted as an eager in-slice fetch but the context
                    // switch beat the read: the pool's role flipped, the
                    // switch scan already ran, and no reservation guards
                    // this zone — consume the data immediately or a later
                    // warm fetch would overwrite it.
                    self.scan_zone(pool_idx, zone, cx);
                }
                // Same-epoch warmup-pool fetches wait for the context
                // switch (their zones are reserved until its scan).
            }
            Upcall::ConnEstablished { qp, .. } => {
                self.on_conn_established(qp, cx);
            }
        }
    }

    fn on_app(&mut self, ev: ScaleEv, cx: &mut Cx<'_, ScaleEv>, _out: &mut Vec<Response>) {
        match ev {
            ScaleEv::SliceEnd { epoch } => {
                if epoch == self.slice_epoch {
                    self.context_switch(cx);
                }
            }
            ScaleEv::Fetch {
                client,
                pool_idx,
                epoch,
            } => {
                // Drop stale fetch timers from a previous slice and
                // fetches whose entry was already consumed eagerly.
                if !self.down && epoch == self.slice_epoch && self.clients[client].entry_valid {
                    self.fetch_client(client, pool_idx, cx);
                }
            }
            ScaleEv::Reconnect { client } => {
                if !self.down && self.clients[client].conn.get() == ConnState::Pending {
                    self.begin_connect(client, cx);
                }
            }
            ScaleEv::SendResponse {
                client,
                seq,
                payload,
            } => {
                if self.cfg.elastic || self.down {
                    Self::cache_response(&mut self.clients[client], seq, payload.clone());
                }
                if self.down {
                    // The response is computed but the server died before
                    // the write could be posted — the canonical lost-
                    // response window. The cache above answers the
                    // retransmission after recovery.
                    let st = &mut self.clients[client];
                    st.inflight_responses = st.inflight_responses.saturating_sub(1);
                    return;
                }
                let st = &mut self.clients[client];
                st.inflight_responses = st.inflight_responses.saturating_sub(1);
                let mut flags = 0;
                if st.needs_ctx {
                    st.needs_ctx = false;
                    flags |= FLAG_CTX_SWITCH;
                }
                let (enc_off, bytes) =
                    MsgBuf::encode_rpc(client, seq, flags, &payload, self.cfg.block_size)
                        .expect("response fits block");
                let slot = self.geom.slot_of_seq(seq);
                let remote =
                    RemoteAddr::new(self.clients[client].local_mr, self.resp_off(slot) + enc_off);
                if let Some(&tid) = self.trace_ids.get(&(client, seq)) {
                    // Closed when the write lands at the client.
                    self.tracer
                        .begin(tid, Stage::Response, cx.now, client as u64);
                    cx.fabric.set_trace_ctx(tid);
                }
                self.post_or_drop(
                    self.clients[client].server_qp,
                    WorkRequest::Write {
                        data: bytes,
                        remote,
                        imm: None,
                    },
                    false,
                    cx,
                );
            }
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
        let tid = cx.fabric.trace_ctx();
        if tid != 0 {
            self.trace_ids.insert((client, seq), tid);
        }
        match self.clients[client].conn.get() {
            ConnState::Ready => self.dispatch(client, seq, payload, tid, cx),
            ConnState::Pending => {
                // Setup (or recovery) in flight: buffer, dedup retries.
                let st = &mut self.clients[client];
                if !st.pending.iter().any(|(s, _)| *s == seq) {
                    st.pending.push((seq, payload));
                }
            }
            ConnState::Absent => {
                // Lazy establishment: the first RPC pays the setup cost.
                self.clients[client].pending.push((seq, payload));
                self.begin_connect(client, cx);
            }
        }
    }

    fn on_lifecycle(&mut self, ev: LifecycleEv, cx: &mut Cx<'_, ScaleEv>) {
        self.elastic_seen = true;
        match ev {
            LifecycleEv::ServerCrash => {
                self.down = true;
                // Invalidate every in-flight slice timer and planned
                // fetch; drop warmup reads that will never complete.
                self.slice_epoch += 1;
                self.pending_reads.clear();
                self.zone_reserved[0].fill(u64::MAX);
                self.zone_reserved[1].fill(u64::MAX);
                for c in 0..self.clients.len() {
                    // Buffer submits until recovery re-establishes the
                    // connection (posting would only drop at the NIC).
                    self.clients[c].conn.set(ConnState::Pending);
                    // Cancel requests the crash stranded client-side:
                    // buffered-for-flush and staged-but-unserved ones.
                    // Letting them flow after recovery would execute
                    // requests whose issuer already presumed them dead —
                    // a failover retry re-sends the same sequence (the
                    // dedup window keeps that exactly-once), but an
                    // application that aborted and re-issued under a new
                    // identity (scaletx) would leak the side effects
                    // (locks) of the zombie request.
                    self.clients[c].pending.clear();
                    let region = cx.fabric.mr_mut(self.clients[c].local_mr);
                    let region = region.expect("local mr");
                    for s in 0..self.cfg.slots {
                        MsgBuf::clear_valid(region, self.staging_off(s), self.cfg.block_size);
                    }
                }
                // Warm restart reformats the message rings: a request a
                // pre-crash warmup fetch already copied into the pools
                // would otherwise be executed by the post-recovery zone
                // scan — the same zombie hazard as the staging blocks
                // above, one copy further downstream.
                for pool_mr in self.pools {
                    let region = cx.fabric.mr_mut(pool_mr).expect("pool mr");
                    for z in 0..self.geom.zones {
                        for s in 0..self.cfg.slots {
                            MsgBuf::clear_valid(
                                region,
                                self.geom.offset(z, s),
                                self.cfg.block_size,
                            );
                        }
                    }
                }
            }
            LifecycleEv::ServerRecover => self.recover(cx),
            LifecycleEv::ConnReset(c) => self.conn_reset(c, cx),
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
    fn client_qp(&self, client: ClientId) -> Option<rdma_fabric::QpId> {
        Some(self.clients[client].client_qp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_table_is_group_of_plus_position() {
        let initial = Scheduler::new(40, SimDuration::micros(100), true).initial_plan(130);
        // A client listed twice resolves to its first listing; 7 and 9 are
        // in no group.
        let overlapping = GroupPlan {
            groups: vec![vec![3, 1, 4], vec![1, 5, 3, 2, 6], vec![8, 0]],
            slices: vec![SimDuration::micros(100); 3],
        };
        for (plan, clients) in [(initial, 130), (overlapping, 10)] {
            let table = zone_table(&plan, clients);
            assert_eq!(table.len(), clients);
            for (c, &entry) in table.iter().enumerate() {
                let scanned = plan
                    .group_of(c)
                    .map(|g| (g, plan.groups[g].iter().position(|&m| m == c).unwrap()));
                assert_eq!(entry, scanned, "client {c}");
            }
        }
    }

    #[test]
    fn conn_state_table_is_the_audited_edge_list() {
        use ConnState::*;
        // Verbatim from the static audit's table, `Absent->Pending->Ready,
        // Ready->Pending, Pending->Absent, Ready->Absent`.
        let table = [
            (Absent, Pending),
            (Pending, Ready),
            (Ready, Pending),
            (Pending, Absent),
            (Ready, Absent),
        ];
        let all = [Absent, Pending, Ready];
        for from in all {
            for to in all.into_iter().filter(|&to| to != from) {
                let listed = table.contains(&(from, to));
                assert_eq!(from.allows(to), listed, "{from:?} -> {to:?}");
            }
            assert!(table.iter().any(|&(f, _)| f == from), "dead end {from:?}");
        }
    }

    /// The stale-`ConnRts` shape: a client parked in `Absent` must not
    /// have its data path opened.
    #[test]
    #[should_panic(expected = "ConnState transition Absent -> Ready")]
    fn absent_to_ready_dies_on_the_transition_assert() {
        let mut conn = Fsm::new(ConnState::Absent);
        conn.set(ConnState::Pending);
        conn.set(ConnState::Pending);
        conn.set(ConnState::Absent);
        conn.set(ConnState::Ready);
    }
}
