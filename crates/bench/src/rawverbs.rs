//! Raw verb microbenchmarks (no RPC layer) for Fig. 1(b) and Fig. 3.
//!
//! Reproduces the paper's §2 measurements: 10 server threads move
//! 32-byte messages to/from a varying number of clients.
//!
//! - **outbound write**: the server RC-writes to each client in turn —
//!   the access pattern that thrashes the NIC's QP cache and collapses
//!   from ~20 Mops/s to ~2 Mops/s;
//! - **inbound write**: clients RC-write into per-client blocks of a
//!   server pool — insensitive to client count but sensitive to the pool
//!   working set exceeding the LLC (Fig. 3(b)). Client-count sweeps use
//!   message-sized blocks (the consumer reads what the NIC delivered);
//!   the 4 KB default block belongs to the Fig. 3(b) block-size sweep;
//! - **UD send**: the server sends datagrams from its 10 thread QPs —
//!   flat regardless of client count.

use rdma_fabric::{
    Fabric, FabricParams, MrId, NodeId, QpId, RemoteAddr, Transport, Upcall, WcOpcode, WorkRequest,
};
use rpc_core::driver::{Cx, Logic};
use rpc_core::metrics::Window;
use rpc_core::sharded::ShardedSim;
use simcore::{DetHashMap, SimDuration, SimTime};

/// Which verb pattern to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawVerbKind {
    /// Server → clients RC write.
    OutboundWrite,
    /// Clients → server RC write.
    InboundWrite,
    /// Server → clients UD send.
    UdSend,
}

/// Raw-verb experiment configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawVerbConfig {
    /// The verb pattern.
    pub kind: RawVerbKind,
    /// Number of remote clients.
    pub clients: usize,
    /// Message size in bytes (32 in the paper).
    pub msg_size: usize,
    /// Pool block size at the receiver (inbound experiments; Fig. 3(b)
    /// sweeps this).
    pub block_size: usize,
    /// Message blocks per client in the inbound pool (20 in Fig. 3(b)).
    pub blocks_per_client: usize,
    /// Server threads (10 in the paper).
    pub server_threads: usize,
    /// Outstanding verbs per server thread / per client.
    pub window: usize,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measured run length.
    pub run: SimDuration,
}

impl Default for RawVerbConfig {
    fn default() -> Self {
        RawVerbConfig {
            kind: RawVerbKind::OutboundWrite,
            clients: 40,
            msg_size: 32,
            block_size: 4096,
            blocks_per_client: 20,
            server_threads: 10,
            window: 4,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(4),
        }
    }
}

/// Measured outcome.
#[derive(Clone, Copy, Debug)]
pub struct RawVerbResult {
    /// Verb throughput in Mops/s.
    pub mops: f64,
    /// Server-side PCIe read rate in Mops/s (`PCIeRdCur`).
    pub pcie_rd_mops: f64,
    /// Server-side Write-Allocate rate in Mops/s (`PCIeItoM`).
    pub pcie_itom_mops: f64,
    /// Server-side CPU L3 miss rate over the measured window.
    pub l3_miss_rate: f64,
    /// Completed verbs inside the measured window.
    pub ops: u64,
    /// Simulator events processed over the whole run (perf accounting).
    pub events: u64,
    /// Raw server `PCIeRdCur` count over the window (determinism witness).
    pub pcie_rd: u64,
    /// Raw server `PCIeItoM` count over the window (determinism witness).
    pub pcie_itom: u64,
}

struct ThreadState {
    qp_cursor: usize,
    /// Clients owned by this thread (fixed partition, precomputed —
    /// rebuilding it per post would put an O(clients) allocation on the
    /// hot path).
    clients: Vec<usize>,
}

/// The closed loop of every raw-verb experiment over one server.
struct RawVerbLogic {
    cfg: RawVerbConfig,
    /// The node whose PCIe counters the run reports, snapshotted when
    /// the window opens.
    server: NodeId,
    /// Outbound: server-side QPs per client; inbound: client-side QPs.
    qps: Vec<QpId>,
    /// Outbound/UD: destination regions or QPs per client.
    client_mrs: Vec<MrId>,
    client_ud_qps: Vec<QpId>,
    /// Completing QP → its index in `qps` / in `client_ud_qps`. Built
    /// once: every completion looks its poster up here.
    poster: DetHashMap<QpId, usize>,
    ud_receiver: DetHashMap<QpId, usize>,
    /// Inbound: the server pool the clients write into.
    pool: Option<MrId>,
    threads: Vec<ThreadState>,
    /// Per-client next block cursor (inbound).
    block_cursor: Vec<usize>,
    /// Verbs completed inside the window.
    ops: u64,
    measured: Window,
    counter_base: Option<(u64, u64)>,
}

enum RvEv {
    /// A server thread (outbound/UD) or client (inbound) posts its next
    /// verb; payload identifies the poster.
    Post(usize),
    /// Snapshot counters at the start of the measurement window.
    SnapshotCounters,
}

impl RawVerbLogic {
    fn new(
        cfg: RawVerbConfig,
        server: NodeId,
        qps: Vec<QpId>,
        client_mrs: Vec<MrId>,
        client_ud_qps: Vec<QpId>,
        pool: Option<MrId>,
    ) -> Self {
        RawVerbLogic {
            server,
            client_mrs,
            poster: qps.iter().copied().zip(0..).collect(),
            ud_receiver: client_ud_qps.iter().copied().zip(0..).collect(),
            qps,
            client_ud_qps,
            threads: (0..cfg.server_threads)
                .map(|t| ThreadState {
                    qp_cursor: 0,
                    clients: (0..cfg.clients)
                        .filter(|c| c % cfg.server_threads == t)
                        .collect(),
                })
                .collect(),
            block_cursor: vec![0; cfg.clients],
            ops: 0,
            pool,
            measured: Window::after(cfg.warmup, cfg.run),
            counter_base: None,
            cfg,
        }
    }

    /// When every run of the loop stops: the end of the window plus a
    /// 1 ms drain.
    fn deadline(&self) -> SimTime {
        self.measured.end + SimDuration::millis(1)
    }

    fn record(&mut self, now: SimTime) {
        if self.measured.contains(now) {
            self.ops += 1;
        }
    }

    fn post_outbound(&mut self, thread: usize, cx: &mut Cx<'_, RvEv>) {
        if cx.now >= self.measured.end {
            return;
        }
        if self.threads[thread].clients.is_empty() {
            return;
        }
        let cursor = self.threads[thread].qp_cursor;
        self.threads[thread].qp_cursor = cursor + 1;
        let c = self.threads[thread].clients[cursor % self.threads[thread].clients.len()];
        match self.cfg.kind {
            RawVerbKind::OutboundWrite => {
                cx.post(
                    self.qps[c],
                    WorkRequest::Write {
                        data: bytes::Bytes::from(vec![0xA5; self.cfg.msg_size]),
                        remote: RemoteAddr::new(self.client_mrs[c], 0),
                        imm: None,
                    },
                    true,
                    None,
                )
                .expect("outbound write");
            }
            RawVerbKind::UdSend => {
                cx.post(
                    // One UD QP per server thread.
                    self.qps[thread],
                    WorkRequest::Send {
                        data: bytes::Bytes::from(vec![0xA5; self.cfg.msg_size]),
                        imm: None,
                    },
                    true,
                    Some(self.client_ud_qps[c]),
                )
                .expect("ud send");
            }
            RawVerbKind::InboundWrite => unreachable!("inbound posts from clients"),
        }
    }

    fn post_inbound(&mut self, client: usize, cx: &mut Cx<'_, RvEv>) {
        if cx.now >= self.measured.end {
            return;
        }
        let blocks = self.cfg.blocks_per_client;
        let cursor = self.block_cursor[client];
        self.block_cursor[client] = cursor + 1;
        let block = (client * blocks + cursor % blocks) * self.cfg.block_size;
        cx.post(
            self.qps[client],
            WorkRequest::Write {
                data: bytes::Bytes::from(vec![0x5A; self.cfg.msg_size]),
                remote: RemoteAddr::new(self.pool.expect("inbound pool"), block),
                imm: None,
            },
            true,
            None,
        )
        .expect("inbound write");
    }
}

impl Logic for RawVerbLogic {
    type Ev = RvEv;

    fn init(&mut self, cx: &mut Cx<'_, RvEv>) {
        cx.at(self.measured.start, RvEv::SnapshotCounters);
        // Initial posts are staggered: releasing every window at t=0
        // would lock the deterministic simulation into synchronized
        // waves that no real benchmark sustains (start-up jitter smears
        // them out within microseconds on hardware).
        let mut slot = 0u64;
        match self.cfg.kind {
            RawVerbKind::OutboundWrite | RawVerbKind::UdSend => {
                for t in 0..self.threads.len() {
                    for _ in 0..self.cfg.window {
                        cx.at(SimTime(slot * 45), RvEv::Post(t));
                        slot += 1;
                    }
                }
            }
            RawVerbKind::InboundWrite => {
                for _k in 0..self.cfg.window {
                    for c in 0..self.cfg.clients {
                        cx.at(SimTime(slot * 45), RvEv::Post(c));
                        slot += 1;
                    }
                }
            }
        }
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, RvEv>) {
        match (self.cfg.kind, up) {
            // Outbound / UD: the poster's completion re-arms the window.
            (RawVerbKind::OutboundWrite, Upcall::Completion { wc, .. })
                if wc.opcode == WcOpcode::RdmaWrite =>
            {
                // Map the completing QP back to its client's thread.
                if let Some(&c) = self.poster.get(&wc.qp) {
                    self.record(cx.now);
                    self.post_outbound(c % self.threads.len(), cx);
                }
            }
            (RawVerbKind::UdSend, Upcall::Completion { wc, .. }) if wc.opcode == WcOpcode::Send => {
                if let Some(&t) = self.poster.get(&wc.qp) {
                    self.record(cx.now);
                    self.post_outbound(t, cx);
                }
            }
            (RawVerbKind::UdSend, Upcall::Completion { wc, .. }) if wc.opcode == WcOpcode::Recv => {
                // Client replenishes its receive ring.
                if let Some(&c) = self.ud_receiver.get(&wc.qp) {
                    cx.fabric
                        .post_recv(wc.qp, self.client_mrs[c], 0, 4096)
                        .expect("replenish");
                }
            }
            // Inbound: the landing at the server both counts and (to
            // model the consuming CPU of Fig. 3(b)) touches the LLC; the
            // client's completion re-arms its window.
            (RawVerbKind::InboundWrite, Upcall::MemWrite { mr, offset, .. }) => {
                if self.pool != Some(mr) {
                    return;
                }
                self.record(cx.now);
                // The consuming server reads the message's whole block
                // (the RPC stacks above operate block-granular). With
                // large blocks these reads pollute the LLC, evicting the
                // lines the NIC writes to and forcing Write-Allocates —
                // the Fig. 3(b) mechanism.
                let block_start = offset - offset % self.cfg.block_size;
                let _ = cx.fabric.cpu_access(mr, block_start, self.cfg.block_size);
            }
            (RawVerbKind::InboundWrite, Upcall::Completion { wc, .. })
                if wc.opcode == WcOpcode::RdmaWrite =>
            {
                if let Some(&c) = self.poster.get(&wc.qp) {
                    self.post_inbound(c, cx);
                }
            }
            _ => {}
        }
    }

    fn on_app(&mut self, ev: RvEv, cx: &mut Cx<'_, RvEv>) {
        match ev {
            RvEv::Post(i) => match self.cfg.kind {
                RawVerbKind::InboundWrite => self.post_inbound(i, cx),
                _ => self.post_outbound(i, cx),
            },
            RvEv::SnapshotCounters => {
                let c = cx.fabric.counters(self.server).expect("server");
                self.counter_base = Some((c.get("PCIeRdCur"), c.get("PCIeItoM")));
                let _ = cx.fabric.reset_llc_stats(self.server);
            }
        }
    }
}

/// Runs one raw-verb experiment.
pub fn run_raw_verbs(cfg: RawVerbConfig) -> RawVerbResult {
    let mut fabric = Fabric::new(FabricParams::default());
    let server = fabric.add_node("server");
    let server_cq = fabric.create_cq(server).expect("cq");

    let mut qps = Vec::new();
    let mut client_mrs = Vec::new();
    let mut client_ud_qps = Vec::new();
    let mut pool = None;

    match cfg.kind {
        RawVerbKind::OutboundWrite => {
            for c in 0..cfg.clients {
                let node = fabric.add_node(&format!("c{c}"));
                let ccq = fabric.create_cq(node).expect("cq");
                let mr = fabric.register_mr(node, 4096).expect("mr");
                let sqp = fabric
                    .create_qp(server, Transport::Rc, server_cq, server_cq)
                    .expect("qp");
                let cqp = fabric.create_qp(node, Transport::Rc, ccq, ccq).expect("qp");
                fabric.connect(sqp, cqp).expect("connect");
                qps.push(sqp);
                client_mrs.push(mr);
            }
        }
        RawVerbKind::InboundWrite => {
            let mr = fabric
                .register_mr(server, cfg.clients * cfg.blocks_per_client * cfg.block_size)
                .expect("pool");
            pool = Some(mr);
            for c in 0..cfg.clients {
                let node = fabric.add_node(&format!("c{c}"));
                let ccq = fabric.create_cq(node).expect("cq");
                let sqp = fabric
                    .create_qp(server, Transport::Rc, server_cq, server_cq)
                    .expect("qp");
                let cqp = fabric.create_qp(node, Transport::Rc, ccq, ccq).expect("qp");
                fabric.connect(sqp, cqp).expect("connect");
                qps.push(cqp);
            }
        }
        RawVerbKind::UdSend => {
            for _ in 0..cfg.server_threads {
                let qp = fabric
                    .create_qp(server, Transport::Ud, server_cq, server_cq)
                    .expect("qp");
                qps.push(qp);
            }
            for c in 0..cfg.clients {
                let node = fabric.add_node(&format!("c{c}"));
                let ccq = fabric.create_cq(node).expect("cq");
                let qp = fabric.create_qp(node, Transport::Ud, ccq, ccq).expect("qp");
                let mr = fabric.register_mr(node, 64 * 4096).expect("mr");
                for i in 0..64 {
                    fabric.post_recv(qp, mr, i * 4096, 4096).expect("recv");
                }
                client_ud_qps.push(qp);
                client_mrs.push(mr);
            }
        }
    }

    let logic = RawVerbLogic::new(cfg, server, qps, client_mrs, client_ud_qps, pool);
    let deadline = logic.deadline();
    let mut sim = ShardedSim::new_sequential(fabric, logic);
    sim.run_sequential(deadline);
    let (logic, fabric) = (sim.logic(0), sim.fabric(0));
    let ops = logic.ops;
    let per_mops = |n: u64| logic.measured.rate(n) / 1e6;
    let counters = fabric.counters(server).expect("server");
    let (rd0, itom0) = logic.counter_base.unwrap_or((0, 0));
    let pcie_rd = counters.get("PCIeRdCur").saturating_sub(rd0);
    let pcie_itom = counters.get("PCIeItoM").saturating_sub(itom0);
    RawVerbResult {
        mops: per_mops(ops),
        pcie_rd_mops: per_mops(pcie_rd),
        pcie_itom_mops: per_mops(pcie_itom),
        l3_miss_rate: fabric.llc_miss_rate(server).unwrap_or(0.0),
        ops,
        events: sim.events(),
        pcie_rd,
        pcie_itom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: RawVerbKind, clients: usize) -> RawVerbResult {
        run_raw_verbs(RawVerbConfig {
            kind,
            clients,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(2),
            ..Default::default()
        })
    }

    #[test]
    fn outbound_write_collapses_with_clients() {
        let few = quick(RawVerbKind::OutboundWrite, 10);
        let many = quick(RawVerbKind::OutboundWrite, 400);
        assert!(few.mops > 12.0, "peak too low: {:.2}", few.mops);
        assert!(many.mops < few.mops * 0.25, "no collapse: {:.2}", many.mops);
        // The PCIe read rate must exceed the write rate under thrash
        // (Fig. 3(a): "far higher than that of the RC write").
        assert!(many.pcie_rd_mops > many.mops * 1.5);
    }

    #[test]
    fn inbound_write_is_flat_in_clients() {
        let few = quick(RawVerbKind::InboundWrite, 20);
        let many = quick(RawVerbKind::InboundWrite, 200);
        assert!(few.mops > 25.0, "inbound peak too low: {:.2}", few.mops);
        assert!(
            many.mops > few.mops * 0.8,
            "inbound should stay flat: {:.2} vs {:.2}",
            few.mops,
            many.mops
        );
    }

    #[test]
    fn inbound_write_flat_past_200_with_message_sized_blocks() {
        // The Fig. 1(b) client sweep: 32-byte messages in message-sized
        // (line-granular) pool blocks. The consuming CPU reads exactly
        // the delivered line, so the working set stays small and the
        // curve holds flat past 200 clients — the paper's shape. (With
        // the 4 KB Fig. 3(b) default this sagged ~37 % by 400 clients:
        // the consumer read 64× the delivered bytes and overflowed the
        // modelled LLC.)
        let cfg = |clients| RawVerbConfig {
            kind: RawVerbKind::InboundWrite,
            clients,
            block_size: 64,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(2),
            ..Default::default()
        };
        let at200 = run_raw_verbs(cfg(200));
        let at400 = run_raw_verbs(cfg(400));
        assert!(at200.mops > 25.0, "inbound peak too low: {:.2}", at200.mops);
        assert!(
            at400.mops > at200.mops * 0.95,
            "inbound sagged past 200 clients: {:.2} vs {:.2}",
            at200.mops,
            at400.mops
        );
    }

    #[test]
    fn inbound_collapses_with_big_blocks_fig3b() {
        // 400 clients × 20 blocks: 128 B blocks ≈ 1 MB (fits the LLC),
        // 4 KB blocks ≈ 32 MB (exceeds it).
        let small = run_raw_verbs(RawVerbConfig {
            kind: RawVerbKind::InboundWrite,
            clients: 400,
            block_size: 128,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(2),
            ..Default::default()
        });
        let large = run_raw_verbs(RawVerbConfig {
            kind: RawVerbKind::InboundWrite,
            clients: 400,
            block_size: 8192,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(2),
            ..Default::default()
        });
        assert!(
            large.mops < small.mops * 0.6,
            "big blocks should collapse: {:.2} vs {:.2}",
            small.mops,
            large.mops
        );
        assert!(large.l3_miss_rate > small.l3_miss_rate + 0.3);
        assert!(large.pcie_itom_mops > small.pcie_itom_mops * 2.0);
    }

    #[test]
    fn ud_send_is_flat() {
        let few = quick(RawVerbKind::UdSend, 10);
        let many = quick(RawVerbKind::UdSend, 400);
        assert!(few.mops > 6.0, "UD too slow: {:.2}", few.mops);
        assert!(
            many.mops > few.mops * 0.85,
            "UD should be flat: {:.2} vs {:.2}",
            few.mops,
            many.mops
        );
    }
}
