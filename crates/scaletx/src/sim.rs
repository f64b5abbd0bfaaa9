//! The ScaleTX deployment: coordinators, three participants, and the
//! protocol state machine over any RPC transport.
//!
//! Coordinators are *multi-outstanding*: each keeps up to
//! [`TxConfig::window`] transactions in flight, one per slot, with
//! independent execute/validate/log/commit pipelines and per-slot
//! abort/retry. This is the asynchronous client of §3.6.1 applied to OCC:
//! while one slot's transaction waits out a time slice in which its group
//! is not served, the other slots keep the coordinator's connections and
//! CPU busy. `window = 1` reproduces the synchronous coordinator
//! event-for-event.

use crate::participant::TxParticipant;
use crate::proto::{self, TxResponseView};
use crate::workload::{TxKind, TxSpec, TxWorkload};
use bytes::Bytes;
use rdma_fabric::{
    Fabric, FabricParams, MrId, NodeId, RemoteAddr, Upcall, WcOpcode, WcStatus, WorkRequest, WrId,
};
use rpc_core::cluster::{ClientCpu, Cluster, ClusterSpec};
use rpc_core::driver::{Cx, Logic};
use rpc_core::inject::{self, FaultEv, Injection, ScenarioError, ScenarioSpec};
use rpc_core::metrics::Window;
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{LifecycleEv, OneSidedAccess, Response, RpcTransport};
use simcore::stats::Histogram;
use simcore::{DetHashMap, DetHashSet};
use simcore::{DetRng, Fsm, SimDuration, SimTime, Transitions};

/// Message slots the transports expose per client; the transaction
/// window stripes sequence numbers across them, so it must divide this.
const TRANSPORT_SLOTS: usize = 8;

/// How long a replay runs past its measured window. A transaction is up
/// to four round-trip phases and each can wait a whole rotation of
/// ScaleRPC's groups, so the RPC runs' [`DRAIN`](rpc_core::DRAIN)
/// leaves slots busy and keys locked that are merely unfinished.
const TX_DRAIN: SimDuration = SimDuration::millis(12);

/// Deployment and workload configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TxConfig {
    /// Number of coordinators (the paper evaluates 80 and 160).
    pub coordinators: usize,
    /// Number of participant servers (3 in the paper).
    pub servers: usize,
    /// Client machines shared by the coordinators.
    pub client_machines: usize,
    /// The workload.
    pub workload: TxWorkload,
    /// Use one-sided verbs for validation and commit where the transport
    /// allows it (`false` reproduces the `*-O` RPC-only ablation).
    pub one_sided: bool,
    /// Value slot size in the KV store.
    pub value_size: usize,
    /// Items preloaded per server.
    pub keys_per_server: u64,
    /// Initial value for preloaded items (little-endian i64).
    pub initial_balance: i64,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measured run length.
    pub run: SimDuration,
    /// Coordinator-side CPU per network operation, as a multiple of the
    /// transport's raw post/poll cost. Covers request marshalling, OCC
    /// bookkeeping and response parsing; it is what makes UD transports'
    /// chattier client side (post recv + CQ poll per message) bind at
    /// the paper's coordinator counts.
    pub coord_cpu_mult: u64,
    /// Outstanding transactions per coordinator (the asynchronous window
    /// of §3.6.1). Must divide the transports' 8 message slots, i.e. be
    /// one of 1/2/4/8: wire sequence numbers are striped as
    /// `issue * window + slot` so concurrent slots never collide on a
    /// message slot (`seq % 8`). `1` is the seed's synchronous
    /// coordinator, reproduced event-for-event.
    pub window: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig {
            coordinators: 80,
            servers: 3,
            client_machines: 8,
            workload: TxWorkload::ObjectStore {
                reads: 3,
                writes: 1,
                keys_per_server: 10_000,
                servers: 3,
            },
            one_sided: true,
            value_size: 40,
            keys_per_server: 10_000,
            initial_balance: 1_000,
            warmup: SimDuration::millis(2),
            run: SimDuration::millis(6),
            coord_cpu_mult: 8,
            window: 4,
            seed: 23,
        }
    }
}

/// Results of a transaction run.
#[derive(Clone, Debug)]
pub struct TxMetrics {
    /// Transactions committed inside the window.
    pub committed: u64,
    /// Aborts (lock conflicts + validation failures) inside the window.
    pub aborted: u64,
    /// Commit latency histogram (first attempt → commit), nanoseconds.
    pub latency: Histogram,
    /// Per-window-slot commit latency, indexed by the coordinator slot
    /// the transaction ran in. At `W = 1` only slot 0 fills; deeper
    /// windows expose how much extra queueing the later slots absorb.
    pub slot_latency: Vec<Histogram>,
    measured: Window,
}

impl TxMetrics {
    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        self.measured.rate(self.committed)
    }

    /// Transactions attempted inside the window (commits + aborts; a
    /// retried transaction counts once per attempt).
    pub fn attempts(&self) -> u64 {
        self.committed + self.aborted
    }

    /// Abort ratio (aborts / attempts).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// Median commit latency in microseconds.
    pub fn median_us(&self) -> f64 {
        self.latency.median() as f64 / 1e3
    }

    /// Commit-latency quantile in microseconds over the whole window
    /// (`q = 0.5` → p50, `q = 0.99` → p99).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1e3
    }

    /// Commit-latency quantile in microseconds for one window slot, or
    /// `None` when that slot committed nothing inside the measurement
    /// window (e.g. slots beyond `W`, or a starved pipeline).
    pub fn slot_quantile_us(&self, slot: usize, q: f64) -> Option<f64> {
        let h = self.slot_latency.get(slot)?;
        if h.count() == 0 {
            None
        } else {
            Some(h.quantile(q) as f64 / 1e3)
        }
    }
}

/// Coordinator protocol phases (per transaction slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    /// Begin is gated on the coordinator thread (ignore duplicate
    /// `Start` events until it runs).
    Starting,
    Execute,
    Validate,
    Log,
    Commit,
    Unlocking,
}

impl Transitions for Phase {
    /// Out-edges per phase: the commit path `Idle → Starting → Execute
    /// → Validate → Log → Commit → Idle`, its shortcuts (no reads:
    /// `Execute → Log`; one-sided or read-only commit straight to
    /// `Idle`; run over: `Starting → Idle`) and the abort exits through
    /// `Unlocking` or straight to `Idle`. An abort leaves every phase
    /// before `Commit` — `Log` too, when a participant crash loses a log
    /// record (`settle`); `Commit` always commits.
    fn allows(self, to: Self) -> bool {
        use Phase::*;
        matches!(
            (self, to),
            (Idle, Starting)
                | (Starting, Execute | Idle)
                | (Execute, Validate | Log | Unlocking | Idle)
                | (Validate, Log | Unlocking | Idle)
                | (Log, Commit | Unlocking | Idle)
                | (Commit, Idle)
                | (Unlocking, Idle)
        )
    }
}

/// What a coordinator keeps of one executed item.
#[derive(Clone, Copy)]
struct Executed {
    key: u64,
    version: u64,
    item_off: u64,
    /// The value as the workloads read it: its first eight bytes
    /// (zero-padded) as a little-endian `i64`.
    value: i64,
}

/// One in-flight transaction pipeline. The vectors are cleared and
/// refilled per transaction, never dropped, so a slot allocates only
/// until each has grown to the workload's largest set.
struct TxSlot {
    spec: TxSpec,
    phase: Fsm<Phase>,
    pending: usize,
    /// Items the Execute responses returned so far, in arrival order.
    exec: Vec<Executed>,
    /// New value of each `spec.writes()` key, set when logging starts.
    new_values: Vec<[u8; 8]>,
    phase_ok: bool,
    /// Servers where write-set locks were acquired (bit `s`).
    locked_servers: u64,
    first_started: SimTime,
}

impl TxSlot {
    fn executed(&self, key: u64) -> Option<&Executed> {
        self.exec.iter().find(|e| e.key == key)
    }

    /// `(key, lock?)` of `spec`'s keys on shard `s` of `servers`: the
    /// reads, then the writes.
    fn keys_on(&self, s: usize, servers: usize) -> impl Iterator<Item = (u64, bool)> + Clone + '_ {
        let reads = on_shard(self.spec.reads(), s, servers).map(|k| (k, false));
        reads.chain(on_shard(self.spec.writes(), s, servers).map(|k| (k, true)))
    }

    /// `(key, new value)` of the write set on shard `s` of `servers`.
    fn writes_on(&self, s: usize, servers: usize) -> impl Iterator<Item = (u64, &[u8])> + Clone {
        let writes = self.spec.writes().iter().zip(&self.new_values);
        writes
            .filter(move |(&k, _)| shard_of(k, servers) == s)
            .map(|(&k, v)| (k, &v[..]))
    }
}

struct Coord {
    /// The transaction window: up to `cfg.window` independent pipelines.
    slots: Vec<TxSlot>,
    /// `(server, seq)` of every expected response (stale or duplicate
    /// responses miss and are ignored). A response's slot is `seq %
    /// window`: [`TxSim::submit`] stripes the seqs.
    expected: DetHashSet<(usize, u64)>,
    rng: DetRng,
    /// Per-server issue counters; the wire seq for a submission from
    /// `slot` is `issue[server] * window + slot` — strictly monotonic
    /// per (coordinator, server), unique, and slot-striped modulo the
    /// transports' message slots.
    issue: Vec<u64>,
    scratch_mr: MrId,
}

/// What a coordinator slot does once its thread gets around to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Draw and execute the next transaction.
    Begin,
    /// Start the validation phase.
    Validate,
    /// Start the log phase.
    Log,
    /// Start the commit phase.
    Commit,
    /// Release locks and schedule a retry.
    Abort,
}

/// Internal events.
pub enum TxEv<TEv> {
    /// Forwarded transport event for server `i`.
    Transport(usize, TEv),
    /// Coordinator refills idle transaction slots (begin/retry).
    Start(usize),
    /// A gated phase transition of `(coordinator, slot)` is due.
    Advance(usize, usize, Action),
    /// A timer of the fault layer ([`inject::apply`]): the next entry of
    /// the timeline installed with [`TxSim::set_scenario`] fires, or a
    /// crashed participant's downtime ends.
    Fault(FaultEv),
}

/// The multi-server transaction simulation.
pub struct TxSim<T: RpcTransport + OneSidedAccess> {
    /// One transport per participant server.
    pub transports: Vec<T>,
    /// The KV region of each participant (one-sided target addresses).
    pub kv_mrs: Vec<MrId>,
    coords: Vec<Coord>,
    cfg: TxConfig,
    /// Results.
    pub metrics: TxMetrics,
    /// Outstanding one-sided validation reads:
    /// wr_id → (coordinator, slot, scratch offset, expected version).
    pending_reads: DetHashMap<WrId, (usize, usize, usize, u64)>,
    /// Coordinator machine threads (shared CPU, as in the harness).
    cpu: ClientCpu,
    /// Per-slot scratch stride in bytes (validation read buffers).
    scratch_stride: usize,
    /// Each participant cluster's server node (fault injection target).
    server_nodes: Vec<NodeId>,
    /// Fabric-side faults to inject, sorted by time.
    timeline: Vec<(SimTime, Injection)>,
    /// Requests whose response was synthesized as failed because the
    /// participant crashed while they were outstanding.
    pub crash_failures: u64,
    /// Locks the recovery sweep released across all warm restarts.
    pub locks_swept: u64,
    /// Responses the transports produced and this logic has yet to
    /// dispatch, tagged with their server; drained in place.
    responses: Vec<(usize, Response)>,
    /// The list lent to one transport call (emptied into `responses`).
    lent: Vec<Response>,
}

/// Shard owning `key`.
pub fn shard_of(key: u64, servers: usize) -> usize {
    (key % servers as u64) as usize
}

/// The keys below `total` that [`shard_of`] gives to shard `s` of
/// `servers`, ascending: every `servers`-th key from `s`. Stepping
/// spares set-up a division per key of every shard: about a quarter of
/// `tx_smallbank_160c`'s set-up when it filtered with `shard_of`
/// (PERF_LEDGER.md).
fn keys_of(s: usize, servers: usize, total: u64) -> impl Iterator<Item = u64> + Clone {
    (s as u64..total).step_by(servers)
}

/// Those of `keys` that shard `s` of `servers` owns, in order.
fn on_shard(keys: &[u64], s: usize, servers: usize) -> impl Iterator<Item = u64> + Clone + '_ {
    keys.iter()
        .copied()
        .filter(move |&k| shard_of(k, servers) == s)
}

impl<T: RpcTransport + OneSidedAccess> TxSim<T> {
    /// Builds the deployment. `make_transport` constructs the RPC
    /// transport for one server cluster around its (preloaded)
    /// participant.
    pub fn build(
        fabric: &mut Fabric,
        cfg: TxConfig,
        mut make_transport: impl FnMut(&mut Fabric, &Cluster, TxParticipant, usize) -> T,
    ) -> TxSim<T> {
        assert!(cfg.coordinators > 0);
        assert!(
            (1..=u64::BITS as usize).contains(&cfg.servers),
            "a slot tracks its locked servers in one word"
        );
        assert!(
            cfg.window >= 1 && TRANSPORT_SLOTS.is_multiple_of(cfg.window),
            "window must divide the transports' {TRANSPORT_SLOTS} message slots (1/2/4/8)"
        );
        let machines: Vec<_> = (0..cfg.client_machines)
            .map(|i| fabric.add_node(&format!("coord-machine-{i}")))
            .collect();
        let spec = ClusterSpec {
            server_threads: 10,
            client_machines: cfg.client_machines,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: cfg.coordinators,
        };
        let mut transports = Vec::new();
        let mut kv_mrs = Vec::new();
        let mut server_nodes = Vec::new();
        let mut cpu = None;
        let total_keys = cfg.keys_per_server * cfg.servers as u64;
        for s in 0..cfg.servers {
            let cluster = Cluster::build_shared(
                fabric,
                spec.clone(),
                machines.clone(),
                &format!("participant-{s}"),
            );
            server_nodes.push(cluster.server);
            let capacity = (total_keys / cfg.servers as u64 + cfg.servers as u64 + 8) as u32;
            let mut part = TxParticipant::new(fabric, cluster.server, capacity, cfg.value_size);
            let balance = cfg.initial_balance.to_le_bytes();
            part.load(fabric, keys_of(s, cfg.servers, total_keys), &balance);
            kv_mrs.push(part.kv_mr);
            transports.push(make_transport(fabric, &cluster, part, s));
            // The participants' clusters share their client machines:
            // any one of them models the coordinators' threads.
            cpu.get_or_insert_with(|| ClientCpu::new(cluster));
        }
        let rng = DetRng::new(cfg.seed);
        let coords = (0..cfg.coordinators)
            .map(|c| {
                let machine = machines[c % machines.len()];
                let scratch_mr = fabric.register_mr(machine, 4096).expect("scratch");
                Coord {
                    slots: (0..cfg.window)
                        .map(|_| TxSlot {
                            spec: TxSpec::new(&[], &[], TxKind::ObjStore),
                            phase: Fsm::new(Phase::Idle),
                            pending: 0,
                            exec: Vec::new(),
                            new_values: Vec::new(),
                            phase_ok: true,
                            locked_servers: 0,
                            first_started: SimTime::ZERO,
                        })
                        .collect(),
                    expected: DetHashSet::default(),
                    rng: rng.split(c as u64),
                    issue: vec![0; cfg.servers],
                    scratch_mr,
                }
            })
            .collect();
        let measured = Window::after(cfg.warmup, cfg.run);
        let scratch_stride = 4096 / cfg.window;
        TxSim {
            transports,
            kv_mrs,
            coords,
            metrics: TxMetrics {
                committed: 0,
                aborted: 0,
                latency: Histogram::new(),
                slot_latency: vec![Histogram::new(); cfg.window],
                measured,
            },
            cfg,
            pending_reads: DetHashMap::default(),
            cpu: cpu.expect("at least one participant"),
            scratch_stride,
            server_nodes,
            timeline: Vec::new(),
            crash_failures: 0,
            locks_swept: 0,
            responses: Vec::new(),
            lent: Vec::new(),
        }
    }

    /// Installs a scenario's fault timeline; `server` indexes the
    /// participants. A crashed participant loses every QP it owns (in-
    /// flight packets toward it drop) and warm-restarts after its
    /// downtime — regions and CQs intact, lock table swept, connections
    /// re-established. Coordinators are not a scenario population yet:
    /// the spec is validated for zero clients, which rejects every
    /// client-range event, and for this deployment's participants. Must
    /// be called before the sim runs.
    pub fn set_scenario(&mut self, spec: ScenarioSpec) -> Result<(), ScenarioError> {
        spec.validate(0, self.cfg.servers)?;
        self.timeline = spec.timeline;
        Ok(())
    }

    /// Globally unique lock owner for `(coordinator, slot)`. The
    /// participant stores `txid + 1` in the lock word, so two slots of
    /// one coordinator must never share a txid.
    fn txid(&self, c: usize, slot: usize) -> u64 {
        (c * self.cfg.window + slot) as u64
    }

    /// Charges the coordinator's machine thread for `ops` network
    /// operations of client-side work and schedules `action` for `slot`
    /// when the thread gets to it.
    fn gate(
        &mut self,
        c: usize,
        slot: usize,
        ops: usize,
        action: Action,
        cx: &mut Cx<'_, TxEv<T::Ev>>,
    ) {
        let oh = self.transports[0].client_overhead();
        let per_op = SimDuration::nanos(
            (oh.per_post.as_nanos() + oh.per_response.as_nanos()) * self.cfg.coord_cpu_mult,
        );
        let grant = self.cpu.acquire(c, cx.now, per_op * ops.max(1) as u64);
        cx.at(grant.complete, TxEv::Advance(c, slot, action));
    }

    /// When measurement (and new transactions) stop.
    pub fn stop_at(&self) -> SimTime {
        self.metrics.measured.end
    }

    /// Replays the deployment on `fabric` — warm-up, measured window,
    /// a 12 ms drain ([`ShardedSim::replay`]).
    pub fn replay(self, fabric: Fabric) -> ShardedSim<Self> {
        let measured = self.metrics.measured;
        let mut sim = ShardedSim::new_sequential(fabric, self);
        sim.replay(measured, TX_DRAIN, &[]);
        sim
    }

    /// Transaction slots currently occupied (not idle) across all
    /// coordinators. After the post-stop drain this must reach zero — a
    /// non-zero count means a slot's pipeline deadlocked.
    pub fn busy_slots(&self) -> usize {
        self.coords
            .iter()
            .flat_map(|co| co.slots.iter())
            .filter(|s| s.phase.get() != Phase::Idle)
            .count()
    }

    /// Whether one-sided phases are active (requires both the config flag
    /// and a transport that exposes RC connections).
    fn one_sided_active(&self) -> bool {
        self.cfg.one_sided && self.transports[0].client_qp(0).is_some()
    }

    /// Sends `req` to `server` for `(c, slot)`. Responses the transport
    /// hands back at once queue behind the caller's other submissions:
    /// it calls [`dispatch_responses`](Self::dispatch_responses) after
    /// the last one, as every event handler does.
    fn submit(
        &mut self,
        server: usize,
        c: usize,
        slot: usize,
        req: Bytes,
        cx: &mut Cx<'_, TxEv<T::Ev>>,
    ) {
        let base = self.coords[c].issue[server];
        self.coords[c].issue[server] += 1;
        let seq = base * self.cfg.window as u64 + slot as u64;
        self.coords[c].expected.insert((server, seq));
        self.coords[c].slots[slot].pending += 1;
        self.with_transport(server, cx, |t, tcx, out| t.submit(c, seq, req, tcx, out));
    }

    /// Runs one call into transport `s`, lending it the response list.
    fn with_transport(
        &mut self,
        s: usize,
        cx: &mut Cx<'_, TxEv<T::Ev>>,
        call: impl FnOnce(&mut T, &mut Cx<'_, T::Ev>, &mut Vec<Response>),
    ) {
        let (transport, lent) = (&mut self.transports[s], &mut self.lent);
        with_indexed_cx(cx, s, |tcx| call(transport, tcx, lent));
        // Most calls complete nothing.
        if !self.lent.is_empty() {
            self.responses.extend(self.lent.drain(..).map(|r| (s, r)));
        }
    }

    fn begin_tx(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        if cx.now >= self.stop_at() {
            self.coords[c].slots[slot].phase.set(Phase::Idle);
            return;
        }
        let txid = self.txid(c, slot);
        let coord = &mut self.coords[c];
        let sl = &mut coord.slots[slot];
        self.cfg.workload.next_tx(&mut coord.rng, &mut sl.spec);
        sl.phase.set(Phase::Execute);
        sl.pending = 0;
        sl.exec.clear();
        sl.phase_ok = true;
        sl.locked_servers = 0;
        sl.first_started = cx.now;
        // R∪W items go out grouped by shard, in shard order.
        for s in 0..self.cfg.servers {
            let sl = &mut self.coords[c].slots[slot];
            let items = sl.keys_on(s, self.cfg.servers);
            if items.clone().next().is_none() {
                continue;
            }
            let req = proto::execute_request(txid, items);
            if on_shard(sl.spec.writes(), s, self.cfg.servers)
                .next()
                .is_some()
            {
                sl.locked_servers |= 1 << s;
            }
            self.submit(s, c, slot, req, cx);
        }
        self.dispatch_responses(cx);
    }

    fn abort_and_retry(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        if self.metrics.measured.contains(cx.now) {
            self.metrics.aborted += 1;
        }
        let locked = std::mem::take(&mut self.coords[c].slots[slot].locked_servers);
        let holds = |s: usize| locked & (1 << s) != 0;
        // Locks acquired during execution must be released. With RC
        // transports a one-sided write of zero to each lock word does it
        // without server involvement; otherwise an Unlock RPC.
        if self.one_sided_active() {
            for i in 0..self.coords[c].slots[slot].spec.writes().len() {
                let sl = &self.coords[c].slots[slot];
                let k = sl.spec.writes()[i];
                let s = shard_of(k, self.cfg.servers);
                // Items whose Execute response never arrived (their
                // server failed) carry no address and hold no lock.
                let Some(item_off) = sl.executed(k).map(|e| e.item_off) else {
                    continue;
                };
                if !holds(s) {
                    continue;
                }
                let qp = self.transports[s].client_qp(c).expect("one-sided active");
                with_indexed_cx(cx, s, |tcx| {
                    // A refused post means the QP is re-establishing
                    // after a crash — the restart's lock sweep already
                    // freed whatever this write would have.
                    let _ = tcx.post(
                        qp,
                        WorkRequest::Write {
                            data: Bytes::copy_from_slice(&0u64.to_le_bytes()),
                            remote: RemoteAddr::new(self.kv_mrs[s], item_off as usize + 8),
                            imm: None,
                        },
                        false,
                        None,
                    );
                });
            }
            self.schedule_retry(c, slot, cx);
        } else if locked == 0 {
            self.schedule_retry(c, slot, cx);
        } else {
            let txid = self.txid(c, slot);
            self.coords[c].slots[slot].phase.set(Phase::Unlocking);
            self.coords[c].slots[slot].pending = 0;
            for s in (0..self.cfg.servers).filter(|&s| holds(s)) {
                let writes = self.coords[c].slots[slot].spec.writes();
                let req = proto::unlock_request(txid, on_shard(writes, s, self.cfg.servers));
                self.submit(s, c, slot, req, cx);
            }
            self.dispatch_responses(cx);
        }
    }

    fn schedule_retry(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        self.coords[c].slots[slot].phase.set(Phase::Idle);
        let backoff = SimDuration::nanos(2_000 + self.coords[c].rng.below(8_000));
        cx.after(backoff, TxEv::Start(c));
    }

    fn commit_done(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        let latency = cx
            .now
            .saturating_since(self.coords[c].slots[slot].first_started);
        if self.metrics.measured.contains(cx.now) {
            self.metrics.committed += 1;
            self.metrics.latency.record_duration(latency);
            self.metrics.slot_latency[slot].record_duration(latency);
        }
        self.coords[c].slots[slot].phase.set(Phase::Idle);
        cx.at(cx.now, TxEv::Start(c));
    }

    /// Starts the validation phase (or skips ahead when R is empty).
    fn start_validate(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        if self.coords[c].slots[slot].spec.reads().is_empty() {
            self.start_log(c, slot, cx);
            return;
        }
        self.coords[c].slots[slot].phase.set(Phase::Validate);
        self.coords[c].slots[slot].pending = 0;
        self.coords[c].slots[slot].phase_ok = true;
        if self.one_sided_active() {
            // One 8-byte RDMA read per read-set version (§4.2 step 2).
            // Each slot owns a disjoint stride of the scratch buffer so
            // concurrent validations never clobber each other.
            for i in 0..self.coords[c].slots[slot].spec.reads().len() {
                let sl = &self.coords[c].slots[slot];
                let k = sl.spec.reads()[i];
                let s = shard_of(k, self.cfg.servers);
                let Executed {
                    item_off, version, ..
                } = *sl.executed(k).expect("the read set was executed");
                let qp = self.transports[s].client_qp(c).expect("one-sided active");
                let scratch_off = slot * self.scratch_stride + i * 8;
                assert!(
                    i * 8 + 8 <= self.scratch_stride,
                    "read set too large for per-slot scratch stride"
                );
                let scratch = self.coords[c].scratch_mr;
                let posted = with_indexed_cx(cx, s, |tcx| {
                    tcx.post(
                        qp,
                        WorkRequest::Read {
                            local_mr: scratch,
                            local_offset: scratch_off,
                            remote: RemoteAddr::new(self.kv_mrs[s], item_off as usize),
                            len: 8,
                        },
                        true,
                        None,
                    )
                });
                match posted {
                    Ok(info) => {
                        self.coords[c].slots[slot].pending += 1;
                        self.pending_reads
                            .insert(info.wr_id, (c, slot, scratch_off, version));
                    }
                    Err(_) => {
                        // The QP is re-establishing after a crash: the
                        // read cannot run, the validation fails.
                        self.coords[c].slots[slot].phase_ok = false;
                    }
                }
            }
            if self.coords[c].slots[slot].pending == 0 {
                // Every read refused at post time.
                self.settle(c, slot, cx);
            }
        } else {
            for s in 0..self.cfg.servers {
                let sl = &self.coords[c].slots[slot];
                let items = on_shard(sl.spec.reads(), s, self.cfg.servers).map(|k| {
                    let e = sl.executed(k).expect("the read set was executed");
                    (k, e.version)
                });
                if items.clone().next().is_none() {
                    continue;
                }
                let req = proto::validate_request(items);
                self.submit(s, c, slot, req, cx);
            }
            self.dispatch_responses(cx);
        }
    }

    /// Derives the write set's new values from the executed ones, into
    /// the slot's scratch.
    fn compute_new_values(&mut self, c: usize, slot: usize) {
        let sl = &mut self.coords[c].slots[slot];
        let mut new_values = std::mem::take(&mut sl.new_values);
        let old = |k: u64| sl.executed(k).expect("R∪W was executed").value;
        let new = sl.spec.writes().iter().map(|&k| sl.spec.new_value(k, &old));
        new_values.clear();
        new_values.extend(new.map(i64::to_le_bytes));
        sl.new_values = new_values;
    }

    /// Sends the write set's `(key, new value)`s to every shard holding
    /// part of it, in shard order: as redo records, or to be installed.
    fn submit_writes(
        &mut self,
        c: usize,
        slot: usize,
        install: bool,
        cx: &mut Cx<'_, TxEv<T::Ev>>,
    ) {
        let txid = self.txid(c, slot);
        for s in 0..self.cfg.servers {
            let items = self.coords[c].slots[slot].writes_on(s, self.cfg.servers);
            if items.clone().next().is_none() {
                continue;
            }
            let req = if install {
                proto::commit_request(txid, items)
            } else {
                proto::log_request(txid, items)
            };
            self.submit(s, c, slot, req, cx);
        }
        self.dispatch_responses(cx);
    }

    fn start_log(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        if self.coords[c].slots[slot].spec.writes().is_empty() {
            // Read-only transaction: validated means committed.
            self.commit_done(c, slot, cx);
            return;
        }
        self.coords[c].slots[slot].phase.set(Phase::Log);
        self.coords[c].slots[slot].pending = 0;
        self.compute_new_values(c, slot);
        self.submit_writes(c, slot, false, cx);
    }

    fn start_commit(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        if self.one_sided_active() {
            // §4.2 step 3: install each write with one RDMA write carrying
            // version+1, a cleared lock and the value — and don't wait.
            for i in 0..self.coords[c].slots[slot].spec.writes().len() {
                let sl = &self.coords[c].slots[slot];
                let (k, v) = (sl.spec.writes()[i], sl.new_values[i]);
                let s = shard_of(k, self.cfg.servers);
                let e = *sl.executed(k).expect("the write set was executed");
                let img = Bytes::build(mica_kv::ITEM_HEADER + v.len(), |img| {
                    mica_kv::item::write_commit_image(img, k, e.version + 1, &v)
                });
                let qp = self.transports[s].client_qp(c).expect("one-sided active");
                let kv_mr = self.kv_mrs[s];
                with_indexed_cx(cx, s, |tcx| {
                    // Refused while the QP re-establishes after a crash:
                    // the install is lost, exactly like an in-flight
                    // write dropped by the crash itself. The restart's
                    // sweep already released the item's lock.
                    let _ = tcx.post(
                        qp,
                        WorkRequest::Write {
                            data: img,
                            remote: RemoteAddr::new(kv_mr, e.item_off as usize),
                            imm: None,
                        },
                        false,
                        None,
                    );
                });
            }
            self.commit_done(c, slot, cx);
        } else {
            self.coords[c].slots[slot].phase.set(Phase::Commit);
            self.coords[c].slots[slot].pending = 0;
            self.submit_writes(c, slot, true, cx);
        }
    }

    /// Ends the phase of `(c, slot)` once its last outstanding request
    /// or read has settled — answered, refused at post time or failed by
    /// a participant crash. The outcome follows from `(phase, phase_ok)`
    /// alone, never from which answer landed last: Execute, Validate and
    /// Log go on only if every answer was good (a lost log record
    /// aborts); Commit always commits, as the decision was taken when
    /// every participant logged; Unlocking retries.
    fn settle(&mut self, c: usize, slot: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        let sl = &self.coords[c].slots[slot];
        let (ops, action) = match sl.phase.get() {
            Phase::Commit => return self.commit_done(c, slot, cx),
            Phase::Unlocking => return self.schedule_retry(c, slot, cx),
            _ if !sl.phase_ok => (2, Action::Abort),
            Phase::Execute => (sl.exec.len() + 1, Action::Validate),
            Phase::Validate => (sl.spec.reads().len(), Action::Log),
            Phase::Log => (sl.spec.writes().len(), Action::Commit),
            p @ (Phase::Idle | Phase::Starting) => unreachable!("{p:?} awaits nothing"),
        };
        self.gate(c, slot, ops, action, cx);
    }

    fn on_response(&mut self, server: usize, resp: Response, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        let c = resp.client;
        if !self.coords[c].expected.remove(&(server, resp.seq)) {
            return; // stale or duplicate
        }
        let slot = (resp.seq % self.cfg.window as u64) as usize;
        let sl = &mut self.coords[c].slots[slot];
        sl.pending -= 1;
        match (sl.phase.get(), TxResponseView::decode(&resp.payload)) {
            (Phase::Execute, Some(TxResponseView::Execute { all_ok, items })) if all_ok => {
                sl.exec.extend(items.map(|it| {
                    let mut b = [0u8; 8];
                    let n = it.value.len().min(8);
                    b[..n].copy_from_slice(&it.value[..n]);
                    Executed {
                        key: it.key,
                        version: it.version,
                        item_off: it.item_off,
                        value: i64::from_le_bytes(b),
                    }
                }));
            }
            (Phase::Execute, Some(TxResponseView::Execute { .. })) => {
                sl.phase_ok = false;
                // This server acquired nothing (it rolled back).
                sl.locked_servers &= !(1 << server);
            }
            (Phase::Validate, Some(TxResponseView::Validate { ok })) => sl.phase_ok &= ok,
            (Phase::Log | Phase::Commit | Phase::Unlocking, Some(TxResponseView::Ok)) => {}
            // An answer the phase cannot read fails it.
            _ => sl.phase_ok = false,
        }
        if sl.pending == 0 {
            self.settle(c, slot, cx);
        }
    }

    /// Hands every queued response to its slot. Nothing in the loop
    /// reaches a transport, so the list does not grow while it is out
    /// of `self`.
    fn dispatch_responses(&mut self, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        let mut responses = std::mem::take(&mut self.responses);
        for (server, r) in responses.drain(..) {
            self.on_response(server, r, cx);
        }
        self.responses = responses;
    }

    /// A one-sided validation read completed: check the version. `ok` is
    /// false for error completions (the participant crashed under the
    /// read) — the stale scratch bytes must not be compared, the
    /// validation simply fails.
    fn on_read_done(&mut self, wr_id: WrId, ok: bool, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        let Some((c, slot, scratch_off, expect)) = self.pending_reads.remove(&wr_id) else {
            return;
        };
        let matches = ok
            && cx
                .fabric
                .mr(self.coords[c].scratch_mr)
                .expect("scratch")
                .read_u64(scratch_off)
                .expect("aligned")
                == expect;
        let sl = &mut self.coords[c].slots[slot];
        sl.phase_ok &= matches;
        sl.pending -= 1;
        if sl.pending == 0 {
            self.settle(c, slot, cx);
        }
    }

    /// Fails every outstanding request toward crashed server `s`: the
    /// request (or its response) was lost with the server's QPs, or sits
    /// staged in pool memory nothing will poll. Each failure is an answer
    /// that fails its phase — the slot's locks at `s` die with the lock
    /// table, and a lost unlock is finished by the restart's lock sweep —
    /// and transport `s` is told the seq is abandoned, as no response
    /// will complete it now.
    fn fail_expected_toward(&mut self, s: usize, cx: &mut Cx<'_, TxEv<T::Ev>>) {
        for c in 0..self.coords.len() {
            let mut seqs: Vec<u64> = self.coords[c]
                .expected
                .iter()
                .filter(|k| k.0 == s)
                .map(|k| k.1)
                .collect();
            seqs.sort_unstable();
            for seq in seqs {
                self.coords[c].expected.remove(&(s, seq));
                let abandon = LifecycleEv::Abandon { client: c, seq };
                with_indexed_cx(cx, s, |tcx| self.transports[s].on_lifecycle(abandon, tcx));
                self.crash_failures += 1;
                let slot = (seq % self.cfg.window as u64) as usize;
                let sl = &mut self.coords[c].slots[slot];
                sl.pending -= 1;
                sl.phase_ok = false;
                sl.locked_servers &= !(1 << s);
                if sl.pending == 0 {
                    self.settle(c, slot, cx);
                }
            }
        }
    }

    /// Offsets of the item slots in a participant's `len`-byte KV region.
    fn slot_offsets(&self, len: usize) -> impl Iterator<Item = usize> {
        let slot_bytes = mica_kv::KvTable::slot_bytes_for(self.cfg.value_size);
        (0..len / slot_bytes).map(move |i| i * slot_bytes)
    }

    /// KV items left locked on any participant. After the drain this
    /// must be zero — a lock that outlived its transaction leaked.
    pub fn locked_keys(&self, fabric: &Fabric) -> usize {
        self.kv_mrs
            .iter()
            .map(|&mr| {
                let mem = fabric.mr(mr).expect("kv region").as_slice();
                self.slot_offsets(mem.len())
                    .filter(|&off| mica_kv::item::read_lock(mem, off) != 0)
                    .count()
            })
            .sum()
    }

    /// Participant `s` is about to warm-restart. The region survived,
    /// but the coordinator sessions its lock words name did not: every
    /// lock is presumed abandoned and swept before the transport
    /// re-admits traffic (requests buffered during the outage flush once
    /// their connection re-establishes).
    fn sweep_locks(&mut self, s: usize, fabric: &mut Fabric) {
        let mem = fabric
            .mr_mut(self.kv_mrs[s])
            .expect("kv region")
            .as_mut_slice();
        for off in self.slot_offsets(mem.len()) {
            if mica_kv::item::read_lock(mem, off) != 0 {
                mica_kv::item::write_lock(mem, off, 0);
                self.locks_swept += 1;
            }
        }
    }
}

impl<T: RpcTransport + OneSidedAccess> Logic for TxSim<T> {
    type Ev = TxEv<T::Ev>;

    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        for s in 0..self.transports.len() {
            with_indexed_cx(cx, s, |tcx| self.transports[s].init(tcx));
        }
        for c in 0..self.coords.len() {
            let jitter = self.coords[c].rng.below(3_000);
            cx.at(SimTime(jitter), TxEv::Start(c));
        }
        inject::arm(&self.timeline, cx, TxEv::Fault);
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>) {
        // One-sided validation completions are ours. Error completions
        // for lost reads come back with the generic `Send` opcode, so
        // ownership is decided by the (fabric-globally unique) wr_id.
        if let Upcall::Completion { ref wc, .. } = up {
            if self.pending_reads.contains_key(&wc.wr_id)
                && (wc.opcode == WcOpcode::RdmaRead || wc.status != WcStatus::Success)
            {
                let (id, ok) = (wc.wr_id, wc.status == WcStatus::Success);
                self.on_read_done(id, ok, cx);
                return;
            }
        }
        // Everything else is a transport's. What happens on a
        // participant's server node concerns that participant's
        // transport alone; the coordinator machines are shared, so an
        // upcall there is offered to every transport (they ignore
        // upcalls that are not theirs).
        let (Upcall::Completion { node, .. }
        | Upcall::MemWrite { node, .. }
        | Upcall::ConnEstablished { node, .. }) = up;
        match self.server_nodes.iter().position(|&n| n == node) {
            Some(s) => self.with_transport(s, cx, |t, tcx, out| t.on_upcall(up, tcx, out)),
            None => {
                for s in 0..self.transports.len() {
                    self.with_transport(s, cx, |t, tcx, out| t.on_upcall(up.clone(), tcx, out));
                }
            }
        }
        self.dispatch_responses(cx);
    }

    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>) {
        match ev {
            TxEv::Transport(s, tev) => {
                self.with_transport(s, cx, |t, tcx, out| t.on_app(tev, tcx, out));
                self.dispatch_responses(cx);
            }
            TxEv::Start(c) => {
                // Refill every idle slot of the window.
                for slot in 0..self.coords[c].slots.len() {
                    if self.coords[c].slots[slot].phase.get() == Phase::Idle {
                        self.coords[c].slots[slot].phase.set(Phase::Starting);
                        self.gate(c, slot, 2, Action::Begin, cx);
                    }
                }
            }
            TxEv::Advance(c, slot, action) => match action {
                Action::Begin => self.begin_tx(c, slot, cx),
                Action::Validate => self.start_validate(c, slot, cx),
                Action::Log => self.start_log(c, slot, cx),
                Action::Commit => self.start_commit(c, slot, cx),
                Action::Abort => self.abort_and_retry(c, slot, cx),
            },
            TxEv::Fault(ev) => {
                if let FaultEv::Recover(s) = ev {
                    self.sweep_locks(s, cx.fabric);
                }
                // The fault layer does the fabric and transport side; a
                // crash also orphans this logic's outstanding requests.
                let fired = inject::apply(
                    ev,
                    &self.timeline,
                    &self.server_nodes,
                    &mut self.transports,
                    cx,
                    TxEv::Fault,
                    TxEv::Transport,
                );
                if let Some(Injection::ServerCrash { server, .. }) = fired {
                    self.fail_expected_toward(server, cx);
                }
            }
        }
    }
}

/// Adapts the Cx event type for transport `index`.
fn with_indexed_cx<TEv, R>(
    cx: &mut Cx<'_, TxEv<TEv>>,
    index: usize,
    f: impl FnOnce(&mut Cx<'_, TEv>) -> R,
) -> R {
    cx.scoped(move |ev| TxEv::Transport(index, ev), f)
}

/// The ScaleRPC operating point for transaction deployments.
///
/// An OCC transaction is a multi-round-trip dialogue (Execute →
/// Validate → Log → Commit), so a coordinator extracts far fewer
/// completions per scheduling quantum than a closed-loop echo client:
/// every phase boundary that straddles a context switch costs a full
/// group rotation. The RPC default of 100 µs (tuned for single-shot
/// echoes, Fig. 11(a)) makes a 4-phase transaction pay that rotation
/// tax several times per commit; quadrupling the slice amortizes it
/// while the asynchronous window keeps the duty-cycle loss bounded.
pub fn tx_scale_cfg() -> scalerpc::ScaleRpcConfig {
    scalerpc::ScaleRpcConfig {
        time_slice: SimDuration::micros(400),
        ..Default::default()
    }
}

/// Convenience: build and run a ScaleTX deployment over ScaleRPC with the
/// given slice stagger (0 = globally synchronized schedules).
pub fn run_scalerpc_tx(
    cfg: TxConfig,
    scale_cfg: scalerpc::ScaleRpcConfig,
    stagger: SimDuration,
) -> ShardedSim<TxSim<scalerpc::ScaleRpc<TxParticipant>>> {
    run_scalerpc_tx_with(cfg, scale_cfg, stagger, |_| {})
}

/// [`run_scalerpc_tx`] with a pre-run hook on the built [`TxSim`] —
/// the place to install faults ([`TxSim::set_scenario`]) before the
/// timeline starts.
pub fn run_scalerpc_tx_with(
    cfg: TxConfig,
    scale_cfg: scalerpc::ScaleRpcConfig,
    stagger: SimDuration,
    setup: impl FnOnce(&mut TxSim<scalerpc::ScaleRpc<TxParticipant>>),
) -> ShardedSim<TxSim<scalerpc::ScaleRpc<TxParticipant>>> {
    let mut fabric = Fabric::new(FabricParams::default());
    let window = cfg.window;
    let mut tx = TxSim::build(&mut fabric, cfg, |fabric, cluster, part, s| {
        let mut sc = scale_cfg.clone();
        sc.first_slice_offset = SimDuration::nanos(stagger.as_nanos() * s as u64);
        // The RPC client keeps as many requests open as the transaction
        // window can have outstanding per server (ctx-switch re-arming
        // comes along with it); `check` refuses one past `slots`.
        sc.client_window = sc.client_window.max(window);
        scalerpc::ScaleRpc::new(fabric, cluster, sc, part)
    });
    setup(&mut tx);
    tx.replay(fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_table_is_the_audited_edge_list() {
        use Phase::*;
        // Verbatim from the static audit's table:
        // `Idle->Starting->Execute->Validate->Log->Commit->Idle`,
        // `Starting->Idle, Execute->Log, Execute->Unlocking, Execute->Idle`,
        // `Validate->Unlocking, Validate->Idle, Log->Idle, Unlocking->Idle`.
        // Plus one edge that table wrongly omitted (its `from(...)`
        // claim at `abort_and_retry` was hand-written, not inferred): a
        // participant crash that loses a log record aborts the slot out
        // of Log, and with RPC unlocks that abort goes through
        // Unlocking. A crash in Commit commits, so `Commit → Unlocking`
        // is not an edge.
        let table = [
            (Log, Unlocking),
            (Idle, Starting),
            (Starting, Execute),
            (Execute, Validate),
            (Validate, Log),
            (Log, Commit),
            (Commit, Idle),
            (Starting, Idle),
            (Execute, Log),
            (Execute, Unlocking),
            (Execute, Idle),
            (Validate, Unlocking),
            (Validate, Idle),
            (Log, Idle),
            (Unlocking, Idle),
        ];
        let all = [Idle, Starting, Execute, Validate, Log, Commit, Unlocking];
        for from in all {
            for to in all.into_iter().filter(|&to| to != from) {
                let listed = table.contains(&(from, to));
                assert_eq!(from.allows(to), listed, "{from:?} -> {to:?}");
            }
            assert!(table.iter().any(|&(f, _)| f == from), "dead end {from:?}");
        }
    }

    /// `keys_of` enumerates exactly the keys `shard_of` sends to a shard.
    #[test]
    fn keys_of_lists_what_shard_of_assigns() {
        for servers in 1..=7 {
            for total in [0, 1, 6, 7, 8, 100] {
                for s in 0..servers {
                    let want: Vec<u64> =
                        (0..total).filter(|&k| shard_of(k, servers) == s).collect();
                    let got: Vec<u64> = keys_of(s, servers, total).collect();
                    assert_eq!(got, want, "shard {s} of {servers}, {total} keys");
                }
            }
        }
    }
}
