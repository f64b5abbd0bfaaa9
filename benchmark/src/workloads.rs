//! The five workloads, built from the crates' public constructors.
//!
//! Every workload has the same three steps, which the report times
//! apart: [`prepare`] (set-up: fabric, cluster, transports, drivers,
//! `ShardedSim::new_sequential`, which runs `init`), [`Replay::run`]
//! (warm-up, measured window and a 3 ms drain through
//! `run_sequential`) and [`Replay::finish`] (read results, check
//! outputs). All are closed loops on one host thread: each simulated
//! client waits for its reply, and client counts are load inside the
//! model.

use crate::inbound::{self, InboundWrite};
use crate::metrics::WORKLOADS;
use crate::spans::{within, Layer, Probe};
use crate::wrap::{TimedHandler, TimedLogic, TimedTransport};
use rdma_fabric::{Fabric, FabricParams, NodeId};
use rpc_baselines::RawWrite;
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::driver::Logic;
use rpc_core::harness::{Harness, HarnessConfig, RequestGen};
use rpc_core::inject::ScenarioSpec;
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{EchoHandler, RpcTransport, ServerHandler};
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scaletx::sim::shard_of;
use scaletx::workload::{checking_key, savings_key};
use scaletx::{TxConfig, TxParticipant, TxSim, TxWorkload};
use simcore::stats::Histogram;
use simcore::{SimDuration, SimTime};
use simscenario::{compile, Compiled, Scenario};
use simtrace::Tracer;

/// Simulated time a workload runs past its window so in-flight work
/// completes (the figure binaries use the same drain).
const DRAIN: SimDuration = SimDuration::millis(3);
/// The transaction workload's drain. A transaction is up to four
/// round-trip phases and each can wait a whole rotation of the four
/// 400 us group slices, so 3 ms leaves slots busy and keys locked that
/// are merely unfinished, not stuck.
const TX_DRAIN: SimDuration = SimDuration::millis(12);

/// The scenario file behind `scn_churn_cycles`.
pub const CHURN_CYCLES_TOML: &str = include_str!("../workloads/churn_cycles.toml");

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `rpc_scalerpc_400c_b8`
    RpcScalerpc,
    /// `rpc_rawwrite_400c_b1`
    RpcRawwrite,
    /// `raw_inbound_8k_400c`
    RawInbound,
    /// `tx_smallbank_160c`
    TxSmallbank,
    /// `scn_churn_cycles`
    ScnChurn,
}

impl Workload {
    /// All workloads, in round-robin order (that of
    /// [`WORKLOADS`](crate::metrics::WORKLOADS)).
    pub const ALL: [Workload; 5] = [
        Workload::RpcScalerpc,
        Workload::RpcRawwrite,
        Workload::RawInbound,
        Workload::TxSmallbank,
        Workload::ScnChurn,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(warmup, run)` of the full-size workload, sized so the latency
    /// histogram holds at least 30 000 samples and one replay takes
    /// about a host-second.
    fn windows(self) -> (SimDuration, SimDuration) {
        let ms = SimDuration::millis;
        match self {
            Workload::RpcScalerpc => (ms(2), ms(20)),
            Workload::RpcRawwrite => (ms(2), ms(80)),
            Workload::RawInbound => (ms(1), ms(6)),
            Workload::TxSmallbank => (ms(2), ms(6)),
            Workload::ScnChurn => (ms(1), ms(20)),
        }
    }

    /// `(events, ops)` of the full-size workload at seed 42. The
    /// simulator is deterministic, so any other value means the
    /// simulated behaviour changed.
    pub fn pinned_fingerprint(self) -> (u64, u64) {
        match self {
            Workload::RpcScalerpc => (1_996_534, 211_888),
            Workload::RpcRawwrite => (1_771_110, 156_706),
            Workload::RawInbound => (321_917, 68_247),
            Workload::TxSmallbank => (1_240_137, 24_112),
            Workload::ScnChurn => (2_636_691, 207_306),
        }
    }
}

/// The seed whose fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// How much of each workload's measured window to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizing {
    /// The windows the contract measures.
    Full,
    /// A quarter of the window: `--quick` smoke runs.
    Quick,
    /// At most 4 ms of window: the run recorded by the crates' tracer,
    /// which keeps seven spans per RPC in memory.
    Traced,
}

impl Sizing {
    fn run(self, full: SimDuration) -> SimDuration {
        match self {
            Sizing::Full => full,
            Sizing::Quick => SimDuration::nanos(full.as_nanos() / 4),
            Sizing::Traced => full.min(SimDuration::millis(4)),
        }
    }
}

/// Exact per-layer counters read through the crates' public accessors.
pub type Counters = Vec<(&'static str, f64)>;

/// What one replay produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Events the engine processed, set-up to drained.
    pub events: u64,
    /// Operations completed inside the measured window: RPCs, verbs on
    /// the raw workload, committed transactions on the tx workload.
    pub ops: u64,
    /// The measured window.
    pub window: SimDuration,
    /// Per-batch / per-verb / per-commit latency (ns) of the window.
    pub latency: Histogram,
    /// Operations started over the whole run.
    pub attempted: u64,
    /// Of those, operations that never completed.
    pub failed: u64,
    /// Output checks that did not hold (empty when correct).
    pub violations: Vec<String>,
    /// Per-layer counters, by `BENCHMARK.json` name.
    pub counters: Counters,
}

/// A workload that is set up and ready to replay.
pub trait Replay {
    /// Replays warm-up, measured window and drain.
    fn run(&mut self);
    /// Reads the results and checks the outputs.
    fn finish(self: Box<Self>) -> Outcome;
}

/// Sets `workload` up for `seed`. `P` decides whether the `Timed*`
/// wrappers record spans; an enabled `tracer` is installed on the
/// fabric (it records only in a build with the `trace` feature).
pub fn prepare<P: Probe + 'static>(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    tracer: &Tracer,
) -> Box<dyn Replay> {
    let (warmup, full) = workload.windows();
    let run = sizing.run(full);
    let mut fabric = Fabric::new(FabricParams::default());
    if tracer.is_enabled() {
        fabric.set_tracer(tracer.clone());
    }
    match workload {
        Workload::RpcScalerpc | Workload::RpcRawwrite => {
            // The fig08 points of `scalerpc_bench::rpcbench::run_rpc`.
            let cluster = Cluster::build(
                &mut fabric,
                ClusterSpec {
                    server_threads: 10,
                    client_machines: 11,
                    threads_per_machine: 8,
                    cores_per_machine: 8,
                    clients: 400,
                },
            );
            let hcfg = HarnessConfig {
                batch_size: if workload == Workload::RpcScalerpc {
                    8
                } else {
                    1
                },
                request_size: 32,
                warmup,
                run,
                think: vec![ThinkTime::None],
                seed,
                window: 1,
                nthreads: 1,
                retry: None,
            };
            if workload == Workload::RpcScalerpc {
                let t = scalerpc::<P>(&mut fabric, &cluster, ScaleRpcConfig::default());
                rpc_replay::<_, P>(fabric, cluster, t, hcfg, None, None)
            } else {
                let t = rawwrite::<P>(&mut fabric, &cluster);
                rpc_replay::<_, P>(fabric, cluster, t, hcfg, None, None)
            }
        }
        Workload::ScnChurn => {
            let sc = churn_scenario(seed, sizing);
            let Compiled::Rpc(c) = compile(&sc).expect("churn_cycles.toml compiles") else {
                panic!("churn_cycles.toml is an rpc scenario");
            };
            let cluster = Cluster::build(&mut fabric, c.cluster.clone());
            let scale = c.scale.clone().expect("scalerpc config compiled");
            let t = scalerpc::<P>(&mut fabric, &cluster, scale);
            let gen = c.make_gen();
            rpc_replay::<_, P>(fabric, cluster, t, c.harness, Some(c.spec), Some(gen))
        }
        Workload::TxSmallbank => {
            // The Fig. 16 SmallBank point of the figure binaries
            // (`figures::run_tx_system`), over ScaleRPC with one-sided
            // validation and commit — but with two transactions
            // outstanding per coordinator where the figure has four. At
            // window 4 about one seed in sixty leaves a transaction in
            // `Execute` with a response that never comes (seed 1026;
            // RPC-only: nine in sixty), which is a bug in the crates and
            // not this benchmark's to carry; window 2 still runs the
            // asynchronous pipeline and left no slot busy on 1 860 seeds.
            let cfg = TxConfig {
                coordinators: 160,
                servers: 3,
                client_machines: 8,
                workload: TxWorkload::smallbank(50_000, 3),
                one_sided: true,
                value_size: 8,
                keys_per_server: 50_000 * 2 * 3 / 3 + 2,
                initial_balance: 1_000,
                warmup,
                run,
                coord_cpu_mult: 8,
                window: 2,
                seed,
            };
            let window = cfg.window;
            let tx = TxSim::build(&mut fabric, cfg.clone(), |fabric, cluster, part, _| {
                let mut sc = scaletx::tx_scale_cfg();
                sc.client_window = sc.client_window.max(window.min(sc.slots));
                TimedTransport::<_, P>::new(ScaleRpc::new(
                    fabric,
                    cluster,
                    sc,
                    TimedHandler::<_, P>::new(part),
                ))
            });
            let stop = tx.stop_at();
            let servers = (0..cfg.servers)
                .map(|s| fabric.mr_node(tx.kv_mrs[s]).expect("kv region"))
                .collect();
            Box::new(TxReplay {
                sim: ShardedSim::new_sequential(fabric, TimedLogic::<_, P>::new(tx)),
                cfg,
                phases: Phases::new(servers, SimTime::ZERO + warmup, stop, TX_DRAIN),
            })
        }
        Workload::RawInbound => {
            let cfg = inbound::Config {
                clients: 400,
                msg_size: 32,
                block_size: 8192,
                blocks_per_client: 20,
                window: 4,
                warmup,
                run,
            };
            let inputs = inbound::Inputs::seeded(&cfg, seed);
            let logic = InboundWrite::build(&mut fabric, cfg, inputs);
            let phases = Phases::new(
                vec![logic.server],
                logic.window_start(),
                logic.stop_at(),
                DRAIN,
            );
            Box::new(RawReplay {
                sim: ShardedSim::new_sequential(fabric, TimedLogic::<_, P>::new(logic)),
                phases,
            })
        }
    }
}

/// `churn_cycles.toml` with `seed`; shorter sizings cut `run_us` and
/// keep the events that still fall inside the run.
pub fn churn_scenario(seed: u64, sizing: Sizing) -> Scenario {
    let mut sc = Scenario::parse(CHURN_CYCLES_TOML).expect("churn_cycles.toml parses");
    sc.seed = seed;
    sc.run_us = match sizing {
        Sizing::Full => sc.run_us,
        // One whole cycle (churn at 1.5 ms … reconnect at 4 ms).
        Sizing::Quick | Sizing::Traced => 5_000,
    };
    let end = sc.warmup_us + sc.run_us;
    sc.events.retain(|e| e.at_us < end);
    sc
}

type Echo<P> = TimedHandler<EchoHandler, P>;

fn scalerpc<P: Probe>(
    fabric: &mut Fabric,
    cluster: &Cluster,
    cfg: ScaleRpcConfig,
) -> TimedTransport<ScaleRpc<Echo<P>>, P> {
    let handler = TimedHandler::new(EchoHandler::default());
    TimedTransport::new(ScaleRpc::new(fabric, cluster, cfg, handler))
}

fn rawwrite<P: Probe>(
    fabric: &mut Fabric,
    cluster: &Cluster,
) -> TimedTransport<RawWrite<Echo<P>>, P> {
    let handler = TimedHandler::new(EchoHandler::default());
    TimedTransport::new(RawWrite::new(fabric, cluster, 8, 4096, handler))
}

// ---- server-side counters over the measured window ----------------------

/// Cumulative server counters at one instant, summed over the servers.
#[derive(Clone, Copy, Debug, Default)]
struct Snap {
    pcie_rd: u64,
    pcie_itom: u64,
    tx_busy: SimDuration,
    rx_busy: SimDuration,
}

/// The three stretches of every replay — warm-up, measured window,
/// drain — with the event count and the servers' counters at the two
/// edges of the window.
struct Phases {
    servers: Vec<NodeId>,
    window_start: SimTime,
    stop: SimTime,
    drain: SimDuration,
    events: u64,
    at_start: Snap,
    at_stop: Snap,
}

impl Phases {
    fn new(servers: Vec<NodeId>, window_start: SimTime, stop: SimTime, drain: SimDuration) -> Self {
        Phases {
            servers,
            window_start,
            stop,
            drain,
            events: 0,
            at_start: Snap::default(),
            at_stop: Snap::default(),
        }
    }

    fn run<P: Probe, L: Logic>(&mut self, sim: &mut ShardedSim<L>) {
        fn engine<P: Probe, L: Logic>(sim: &mut ShardedSim<L>, until: SimTime) -> u64 {
            within::<P, _>(Layer::Engine, || sim.run_sequential(until))
        }
        self.events += engine::<P, L>(sim, self.window_start);
        self.at_start = self.snap(sim.fabric(0));
        self.events += engine::<P, L>(sim, self.stop);
        self.at_stop = self.snap(sim.fabric(0));
        self.events += engine::<P, L>(sim, self.stop + self.drain);
    }

    fn snap(&self, fabric: &Fabric) -> Snap {
        let mut s = Snap::default();
        for &node in &self.servers {
            let c = fabric.counters(node).expect("server node");
            s.pcie_rd += c.get("PCIeRdCur");
            s.pcie_itom += c.get("PCIeItoM");
            let (tx, rx) = fabric.nic_busy(node).expect("server node");
            s.tx_busy += tx;
            s.rx_busy += rx;
        }
        s
    }

    /// The `rdma-fabric.*` counters: PCIe traffic per op and NIC engine
    /// occupancy over the measured window, and the whole-run QP-cache
    /// hit and LLC miss rates (the accessors are cumulative), averaged
    /// over the servers.
    fn counters(&self, fabric: &Fabric, ops: u64, out: &mut Counters) {
        let (from, to) = (self.at_start, self.at_stop);
        let n = self.servers.len() as f64;
        let window = self.stop.saturating_since(self.window_start).as_secs_f64();
        let per_op = |d: u64| d as f64 / ops.max(1) as f64;
        let busy = |a: SimDuration, b: SimDuration| b.saturating_sub(a).as_secs_f64() / window / n;
        let mean = |f: &dyn Fn(NodeId) -> f64| self.servers.iter().map(|&s| f(s)).sum::<f64>() / n;
        out.extend([
            (
                "rdma-fabric.nic_hit_rate",
                mean(&|s| fabric.nic_hit_rate(s).expect("server node")),
            ),
            (
                "rdma-fabric.llc_miss_rate",
                mean(&|s| fabric.llc_miss_rate(s).expect("server node")),
            ),
            (
                "rdma-fabric.pcie_rd_per_op",
                per_op(to.pcie_rd - from.pcie_rd),
            ),
            (
                "rdma-fabric.pcie_itom_per_op",
                per_op(to.pcie_itom - from.pcie_itom),
            ),
            ("rdma-fabric.nic_tx_busy", busy(from.tx_busy, to.tx_busy)),
            ("rdma-fabric.nic_rx_busy", busy(from.rx_busy, to.rx_busy)),
        ]);
    }
}

// ---- closed-loop RPC (harness) workloads --------------------------------

/// Transport-specific counters of the RPC workloads.
trait TransportCounters {
    fn transport_counters(&self, out: &mut Counters);
}

impl<H: ServerHandler, P> TransportCounters for TimedTransport<ScaleRpc<H>, P> {
    fn transport_counters(&self, out: &mut Counters) {
        out.push(("scalerpc.rotations", self.inner.rotations() as f64));
        out.push(("scalerpc.groups", self.inner.plan().groups.len() as f64));
    }
}

impl<H: ServerHandler, P> TransportCounters for TimedTransport<RawWrite<H>, P> {
    fn transport_counters(&self, _: &mut Counters) {}
}

struct RpcReplay<T: RpcTransport, P: Probe> {
    sim: ShardedSim<TimedLogic<Harness<T>, P>>,
    phases: Phases,
}

fn rpc_replay<T, P>(
    fabric: Fabric,
    cluster: Cluster,
    transport: T,
    hcfg: HarnessConfig,
    scenario: Option<ScenarioSpec>,
    gen: Option<Box<dyn RequestGen>>,
) -> Box<dyn Replay>
where
    T: RpcTransport + TransportCounters + 'static,
    P: Probe + 'static,
{
    let server = cluster.server;
    let window_start = SimTime::ZERO + hcfg.warmup;
    let mut harness = match gen {
        Some(gen) => Harness::with_generator(transport, cluster, hcfg, gen),
        None => Harness::new(transport, cluster, hcfg),
    };
    if let Some(spec) = scenario {
        harness.set_scenario(spec).expect("compiled scenario spec");
    }
    let stop = harness.stop_at();
    Box::new(RpcReplay {
        sim: ShardedSim::new_sequential(fabric, TimedLogic::<_, P>::new(harness)),
        phases: Phases::new(vec![server], window_start, stop, DRAIN),
    })
}

impl<T: RpcTransport + TransportCounters, P: Probe> Replay for RpcReplay<T, P> {
    fn run(&mut self) {
        self.phases.run::<P, _>(&mut self.sim);
    }

    fn finish(self: Box<Self>) -> Outcome {
        let h = &self.sim.logic(0).inner;
        let m = &h.metrics;
        let (issued, completed, in_flight) = (h.issued(), h.completed(), h.in_flight());
        let stuck = h.stuck_clients().len();
        let mut violations = Vec::new();
        if issued != completed + in_flight {
            violations.push(format!(
                "conservation: issued {issued} != completed {completed} + in flight {in_flight}"
            ));
        }
        if stuck != 0 || in_flight != 0 {
            violations.push(format!(
                "{stuck} clients stuck with {in_flight} requests after the drain"
            ));
        }
        let mut counters: Counters = vec![
            ("rpc-core.issued", issued as f64),
            ("rpc-core.completed", completed as f64),
            ("rpc-core.retries", h.retries() as f64),
            ("rpc-core.in_flight_end", in_flight as f64),
            ("rpc-core.stuck_clients", stuck as f64),
        ];
        h.transport.transport_counters(&mut counters);
        self.phases
            .counters(self.sim.fabric(0), m.ops, &mut counters);
        Outcome {
            events: self.phases.events,
            ops: m.ops,
            window: m.window(),
            latency: m.batch_latency.clone(),
            attempted: issued,
            failed: in_flight,
            violations,
            counters,
        }
    }
}

// ---- ScaleTX ------------------------------------------------------------

type TxTransport<P> = TimedTransport<ScaleRpc<TimedHandler<TxParticipant, P>>, P>;

struct TxReplay<P: Probe> {
    sim: ShardedSim<TimedLogic<TxSim<TxTransport<P>>, P>>,
    cfg: TxConfig,
    phases: Phases,
}

impl<P: Probe> Replay for TxReplay<P> {
    fn run(&mut self) {
        self.phases.run::<P, _>(&mut self.sim);
    }

    fn finish(self: Box<Self>) -> Outcome {
        let tx = &self.sim.logic(0).inner;
        let fabric = self.sim.fabric(0);
        let m = &tx.metrics;
        let busy = tx.busy_slots();
        // Lock sweep, as the scenario fuzzer's invariant does it: every
        // account's two items must be unlocked after the drain.
        let TxWorkload::SmallBank {
            accounts_per_server,
            servers,
            ..
        } = self.cfg.workload
        else {
            panic!("tx_smallbank_160c runs SmallBank");
        };
        let locked = (0..accounts_per_server * servers / 2)
            .flat_map(|a| [checking_key(a), savings_key(a)])
            .filter(|&key| {
                let part = &tx.transports[shard_of(key, self.cfg.servers)]
                    .inner
                    .handler()
                    .inner;
                part.peek(fabric, key).is_some_and(|item| item.lock != 0)
            })
            .count();
        let mut violations = Vec::new();
        if busy != 0 {
            violations.push(format!("{busy} transaction slots busy after the drain"));
        }
        if locked != 0 {
            violations.push(format!("{locked} keys locked after the drain"));
        }
        let mut counters: Counters = vec![
            ("scaletx.committed", m.committed as f64),
            ("scaletx.aborted", m.aborted as f64),
            ("scaletx.abort_rate", m.abort_rate()),
            ("scaletx.busy_slots_end", busy as f64),
            (
                "scalerpc.rotations",
                tx.transports
                    .iter()
                    .map(|t| t.inner.rotations() as f64)
                    .sum(),
            ),
            (
                "scalerpc.groups",
                tx.transports[0].inner.plan().groups.len() as f64,
            ),
        ];
        self.phases.counters(fabric, m.committed, &mut counters);
        Outcome {
            events: self.phases.events,
            ops: m.committed,
            window: self.cfg.run,
            latency: m.latency.clone(),
            // A transaction that aborts is retried until it commits and
            // its latency runs from the first attempt, so the unit of
            // work is the transaction; one still in a slot after the
            // drain never finished.
            attempted: m.committed + busy as u64,
            failed: busy as u64,
            violations,
            counters,
        }
    }
}

// ---- raw inbound writes -------------------------------------------------

struct RawReplay<P: Probe> {
    sim: ShardedSim<TimedLogic<InboundWrite, P>>,
    phases: Phases,
}

impl<P: Probe> Replay for RawReplay<P> {
    fn run(&mut self) {
        self.phases.run::<P, _>(&mut self.sim);
    }

    fn finish(self: Box<Self>) -> Outcome {
        let l = &self.sim.logic(0).inner;
        let window = l.stop_at().saturating_since(l.window_start());
        let mut violations = Vec::new();
        let lost = l.posted - l.completed;
        if lost != 0 {
            violations.push(format!(
                "{lost} writes without a completion after the drain"
            ));
        }
        let mut counters = Counters::new();
        self.phases
            .counters(self.sim.fabric(0), l.ops, &mut counters);
        Outcome {
            events: self.phases.events,
            ops: l.ops,
            window,
            latency: l.latency.clone(),
            attempted: l.posted,
            failed: lost,
            violations,
            counters,
        }
    }
}
