//! The `raw_inbound_8k_400c` workload: clients RC-write 32-byte
//! messages into per-client 8 KB blocks of a server pool whose working
//! set overflows the LLC (Fig. 3(b)).
//!
//! `scalerpc_bench::rawverbs::run_raw_verbs` runs the same pattern, but
//! its `Logic` is private, takes no seed, builds and runs in one call
//! and keeps no latency. This logic posts the same verbs through the
//! same public `Fabric`/`Cx` API — with [`Inputs::canonical`] it replays
//! `run_raw_verbs`' `(events, ops)` exactly, which a test pins — and
//! adds what the benchmark needs: seeded inputs, set-up apart from the
//! run, and the post-to-completion latency of every verb.

use rdma_fabric::{
    Fabric, MrId, NodeId, QpId, RemoteAddr, Transport, Upcall, WcOpcode, WorkRequest,
};
use rpc_core::driver::{Cx, Logic};
use simcore::stats::Histogram;
use simcore::{DetHashMap, DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// Shape of the run (everything but the seeded inputs).
#[derive(Clone, Debug)]
pub struct Config {
    /// Writing clients.
    pub clients: usize,
    /// Bytes per message.
    pub msg_size: usize,
    /// Bytes per pool block.
    pub block_size: usize,
    /// Pool blocks per client.
    pub blocks_per_client: usize,
    /// Outstanding writes per client.
    pub window: usize,
    /// Excluded from measurement.
    pub warmup: SimDuration,
    /// Measured window.
    pub run: SimDuration,
}

/// What the seed decides: when each client posts the first write of
/// each of its window slots, and the block it starts at.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `(client, nanoseconds)` of every initial post, `window` per
    /// client, in scheduling order.
    pub first_posts: Vec<(usize, u64)>,
    /// Per client, the first block cursor.
    pub first_block: Vec<usize>,
}

impl Inputs {
    /// `run_raw_verbs`' fixed inputs: initial posts 45 ns apart in
    /// client order (releasing every window at t = 0 would lock the run
    /// into synchronized waves), every client from block 0.
    pub fn canonical(cfg: &Config) -> Inputs {
        Inputs {
            first_posts: (0..cfg.window * cfg.clients)
                .map(|slot| (slot % cfg.clients, slot as u64 * 45))
                .collect(),
            first_block: vec![0; cfg.clients],
        }
    }

    /// Inputs drawn from `seed`: the same start-up span, with every
    /// initial post at a random instant inside it (the start-up jitter
    /// of real clients, as the RPC harness draws it), and a random
    /// first block.
    pub fn seeded(cfg: &Config, seed: u64) -> Inputs {
        let mut rng = DetRng::new(seed);
        let span = (cfg.window * cfg.clients) as u64 * 45;
        Inputs {
            first_posts: (0..cfg.window * cfg.clients)
                .map(|slot| (slot % cfg.clients, rng.below(span)))
                .collect(),
            first_block: (0..cfg.clients)
                .map(|_| rng.below(cfg.blocks_per_client as u64) as usize)
                .collect(),
        }
    }
}

/// Events of [`InboundWrite`].
pub enum Ev {
    /// A client posts its next write.
    Post(usize),
    /// The measured window begins: the LLC statistics restart (which
    /// needs `&mut Fabric`, so it cannot be done from outside).
    WindowStart,
}

/// The closed-loop inbound-write logic.
pub struct InboundWrite {
    cfg: Config,
    inputs: Inputs,
    /// The server node.
    pub server: NodeId,
    pool: MrId,
    qps: Vec<QpId>,
    client_of: DetHashMap<QpId, usize>,
    cursor: Vec<usize>,
    posted_at: Vec<VecDeque<SimTime>>,
    window_start: SimTime,
    window_end: SimTime,
    /// Writes that landed at the server inside the window.
    pub ops: u64,
    /// Writes posted over the whole run.
    pub posted: u64,
    /// Writes whose completion reached the client, whole run.
    pub completed: u64,
    /// Post-to-completion latency (ns) of writes completing inside the
    /// window.
    pub latency: Histogram,
}

impl InboundWrite {
    /// Adds the server, its pool and one connected client node per
    /// client to `fabric`.
    pub fn build(fabric: &mut Fabric, cfg: Config, inputs: Inputs) -> InboundWrite {
        assert_eq!(inputs.first_posts.len(), cfg.window * cfg.clients);
        assert_eq!(inputs.first_block.len(), cfg.clients);
        let server = fabric.add_node("server");
        let server_cq = fabric.create_cq(server).expect("cq");
        let pool = fabric
            .register_mr(server, cfg.clients * cfg.blocks_per_client * cfg.block_size)
            .expect("pool");
        let mut qps = Vec::with_capacity(cfg.clients);
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
        let window_start = SimTime::ZERO + cfg.warmup;
        InboundWrite {
            server,
            pool,
            client_of: qps.iter().enumerate().map(|(c, &q)| (q, c)).collect(),
            qps,
            cursor: inputs.first_block.clone(),
            posted_at: vec![VecDeque::with_capacity(cfg.window); cfg.clients],
            window_start,
            window_end: window_start + cfg.run,
            ops: 0,
            posted: 0,
            completed: 0,
            latency: Histogram::new(),
            cfg,
            inputs,
        }
    }

    /// When the measured window (and posting) ends.
    pub fn stop_at(&self) -> SimTime {
        self.window_end
    }

    /// When the measured window begins.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.window_start && t <= self.window_end
    }

    fn post(&mut self, client: usize, cx: &mut Cx<'_, Ev>) {
        if cx.now >= self.window_end {
            return;
        }
        let blocks = self.cfg.blocks_per_client;
        let cursor = self.cursor[client];
        self.cursor[client] = cursor + 1;
        let block = (client * blocks + cursor % blocks) * self.cfg.block_size;
        cx.post(
            self.qps[client],
            WorkRequest::Write {
                data: bytes::Bytes::from(vec![0x5A; self.cfg.msg_size]),
                remote: RemoteAddr::new(self.pool, block),
                imm: None,
            },
            true,
            None,
        )
        .expect("inbound write");
        self.posted += 1;
        self.posted_at[client].push_back(cx.now);
    }
}

impl Logic for InboundWrite {
    type Ev = Ev;

    fn init(&mut self, cx: &mut Cx<'_, Ev>) {
        cx.at(self.window_start, Ev::WindowStart);
        for &(client, at_ns) in &self.inputs.first_posts {
            cx.at(SimTime(at_ns), Ev::Post(client));
        }
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Ev>) {
        match up {
            Upcall::MemWrite { mr, offset, .. } if mr == self.pool => {
                if self.in_window(cx.now) {
                    self.ops += 1;
                }
                // The consuming server reads the message's whole block;
                // with 8 KB blocks these reads evict the lines the NIC
                // writes to and force Write-Allocates (Fig. 3(b)).
                let block_start = offset - offset % self.cfg.block_size;
                let _ = cx.fabric.cpu_access(mr, block_start, self.cfg.block_size);
            }
            Upcall::Completion { wc, .. } if wc.opcode == WcOpcode::RdmaWrite => {
                if let Some(&c) = self.client_of.get(&wc.qp) {
                    self.completed += 1;
                    // RC completes in post order per connection.
                    if let Some(t0) = self.posted_at[c].pop_front() {
                        if self.in_window(cx.now) {
                            self.latency.record_duration(cx.now.saturating_since(t0));
                        }
                    }
                    self.post(c, cx);
                }
            }
            _ => {}
        }
    }

    fn on_app(&mut self, ev: Ev, cx: &mut Cx<'_, Ev>) {
        match ev {
            Ev::Post(c) => self.post(c, cx),
            Ev::WindowStart => {
                let _ = cx.fabric.reset_llc_stats(self.server);
            }
        }
    }
}
