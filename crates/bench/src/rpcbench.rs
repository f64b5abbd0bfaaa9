//! The one place a transport name becomes a running point.
//!
//! [`TransportKind`] is the workspace's transport tag. Two builders own
//! the `match` on it: [`run_harness`] wires a closed-loop harness point
//! (the echo benchmark of Fig. 8–12 through [`run_rpc`], Octopus' mdtest
//! of Fig. 1(a)/13 through [`run_mdtest`], and every rpc scenario), and
//! [`run_tx`] a ScaleTX deployment (Fig. 16). Both build the baselines
//! with the one geometry (`BASELINE_SLOTS` × [`BASELINE_BLOCK`]).
//! ScaleRPC clients get a message-slot window as deep as the harness's
//! (or, through [`run_scalerpc_tx`], as the transaction window).

use octofs::{FsOp, MdsHandler, MdtestGen};
use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{FixedSizeGen, Harness, HarnessConfig, RequestGen};
use rpc_core::inject::ScenarioSpec;
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{EchoHandler, OneSidedAccess, RpcTransport, ServerHandler};
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scaletx::sim::{run_scalerpc_tx, tx_scale_cfg};
use scaletx::{TxConfig, TxMetrics, TxParticipant, TxSim};
use simcore::stats::CdfPoint;
use simcore::SimDuration;

/// Message slots per client in the baselines' static pools.
const BASELINE_SLOTS: usize = 8;

/// Bytes per message block in the baselines' pools and rings.
pub const BASELINE_BLOCK: usize = 4096;

/// Which RPC implementation serves a point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// ScaleRPC, the paper's system.
    #[default]
    ScaleRpc,
    /// RawWrite baseline.
    RawWrite,
    /// HERD baseline.
    Herd,
    /// FaSST baseline.
    Fasst,
    /// Octopus' self-identified RPC.
    SelfRpc,
}

impl TransportKind {
    /// The four transports of Fig. 8/9 (Table 2 plus ScaleRPC).
    pub const FIG8: [TransportKind; 4] = [
        TransportKind::ScaleRpc,
        TransportKind::RawWrite,
        TransportKind::Herd,
        TransportKind::Fasst,
    ];

    /// Display name as used in the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::ScaleRpc => "ScaleRPC",
            TransportKind::RawWrite => "RawWrite",
            TransportKind::Herd => "HERD",
            TransportKind::Fasst => "FaSST",
            TransportKind::SelfRpc => "SelfRPC",
        }
    }
}

/// One benchmark point.
#[derive(Clone, Debug)]
pub struct RpcRunConfig {
    /// The transport.
    pub kind: TransportKind,
    /// The ScaleRPC configuration (read only when `kind` is ScaleRPC).
    pub scale: ScaleRpcConfig,
    /// Number of coroutine clients.
    pub clients: usize,
    /// Physical client machines.
    pub machines: usize,
    /// Threads per client machine.
    pub threads_per_machine: usize,
    /// Server worker threads.
    pub server_threads: usize,
    /// Requests per batch.
    pub batch: usize,
    /// Outstanding-request window per client (`1` = the synchronous
    /// batch client; `> 1` enables the asynchronous pipeline and
    /// requires `batch == 1`). ScaleRPC runs additionally get
    /// `client_window` set so context-switch re-arming engages.
    pub window: usize,
    /// Per-client think times.
    pub think: Vec<ThinkTime>,
    /// Warmup.
    pub warmup: SimDuration,
    /// Measured run.
    pub run: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for RpcRunConfig {
    fn default() -> Self {
        RpcRunConfig {
            kind: TransportKind::ScaleRpc,
            scale: ScaleRpcConfig::default(),
            clients: 40,
            machines: 11,
            threads_per_machine: 8,
            server_threads: 10,
            batch: 1,
            window: 1,
            think: vec![ThinkTime::None],
            warmup: SimDuration::millis(2),
            run: SimDuration::millis(6),
            seed: 42,
        }
    }
}

impl RpcRunConfig {
    /// Drives this point's cluster and client loop with `request_size`-byte
    /// requests from `gen`, served by `handler`.
    fn drive<H: ServerHandler>(
        &self,
        request_size: usize,
        handler: H,
        gen: Box<dyn RequestGen>,
    ) -> RpcRunResult {
        let cluster = ClusterSpec {
            server_threads: self.server_threads,
            client_machines: self.machines,
            threads_per_machine: self.threads_per_machine,
            cores_per_machine: 8,
            clients: self.clients,
        };
        let harness = HarnessConfig {
            batch_size: self.batch,
            request_size,
            warmup: self.warmup,
            run: self.run,
            think: self.think.clone(),
            seed: self.seed,
            window: self.window,
            nthreads: 1,
            retry: None,
        };
        let spec = ScenarioSpec::empty(self.clients);
        let (kind, scale) = (self.kind, self.scale.clone());
        run_harness(kind, scale, cluster, harness, handler, gen, spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Measured outcome of one harness-driven point.
#[derive(Clone, Debug)]
pub struct RpcRunResult {
    /// Throughput in Mops/s.
    pub mops: f64,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Median batch latency (µs).
    pub median_us: f64,
    /// Mean batch latency (µs).
    pub mean_us: f64,
    /// Maximum batch latency (µs).
    pub max_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// Latency CDF (values in ns).
    pub cdf: Vec<CdfPoint>,
    /// Server `PCIeRdCur` rate over the window (Mops/s).
    pub pcie_rd_mops: f64,
    /// Server `PCIeItoM` rate over the window (Mops/s).
    pub pcie_itom_mops: f64,
    /// Completed RPCs inside the measured window.
    pub ops: u64,
    /// Simulator events processed over the whole run (perf accounting).
    pub events: u64,
    /// Requests submitted over the whole run.
    pub issued: u64,
    /// Responses retired over the whole run.
    pub completed: u64,
    /// Requests still outstanding after the drain.
    pub in_flight: u64,
    /// Clients holding in-flight requests after the drain.
    pub stuck: usize,
    /// Failover retransmissions posted over the whole run.
    pub retries: u64,
    /// Responses retired per client over the whole run, in client order.
    pub completed_by_client: Vec<u64>,
}

/// Runs one echo benchmark point (32-byte requests).
pub fn run_rpc(cfg: RpcRunConfig) -> RpcRunResult {
    cfg.drive(32, EchoHandler::default(), Box::new(FixedSizeGen::new(32)))
}

/// Configuration of one mdtest phase run.
#[derive(Clone, Debug)]
pub struct MdtestRun {
    /// Number of clients.
    pub clients: usize,
    /// The metadata operation under test.
    pub op: FsOp,
    /// The RPC subsystem.
    pub transport: TransportKind,
    /// Files preloaded per client directory.
    pub files_per_dir: usize,
    /// Requests in flight per client.
    pub batch: usize,
    /// Measured run length.
    pub run: SimDuration,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
}

impl Default for MdtestRun {
    fn default() -> Self {
        MdtestRun {
            clients: 80,
            op: FsOp::Stat,
            transport: TransportKind::ScaleRpc,
            files_per_dir: 64,
            batch: 1,
            run: SimDuration::millis(6),
            warmup: SimDuration::millis(2),
        }
    }
}

/// Runs one mdtest phase against a preloaded metadata server.
pub fn run_mdtest(cfg: &MdtestRun) -> RpcRunResult {
    let mut handler = MdsHandler::new();
    handler.preload(cfg.clients, cfg.files_per_dir);
    let gen = MdtestGen::new(cfg.op, cfg.files_per_dir as u64);
    let point = RpcRunConfig {
        kind: cfg.transport,
        clients: cfg.clients,
        batch: cfg.batch,
        warmup: cfg.warmup,
        run: cfg.run,
        seed: 17,
        ..Default::default()
    };
    point.drive(64, handler, Box::new(gen))
}

/// Builds the `kind` transport for `cluster` and `harness`, replays the
/// closed loop with `spec` installed (the empty spec is bit-identical
/// to none) and reads the result. `scale` is read only for ScaleRPC.
pub fn run_harness<H: ServerHandler>(
    kind: TransportKind,
    mut scale: ScaleRpcConfig,
    cluster: ClusterSpec,
    harness: HarnessConfig,
    handler: H,
    gen: Box<dyn RequestGen>,
    spec: ScenarioSpec,
) -> Result<RpcRunResult, String> {
    let (slots, block) = (BASELINE_SLOTS, BASELINE_BLOCK);
    // ScaleRPC clients keep the harness window's requests open (context-
    // switch re-arming comes along); `validate` refuses one past `slots`.
    scale.client_window = scale.client_window.max(harness.window);
    let p = Point {
        cluster,
        harness,
        gen,
        spec,
    };
    match kind {
        TransportKind::ScaleRpc => p.replay(|f, c| ScaleRpc::new(f, c, scale, handler)),
        TransportKind::RawWrite => p.replay(|f, c| RawWrite::new(f, c, slots, block, handler)),
        TransportKind::Herd => p.replay(|f, c| Herd::new(f, c, slots, block, handler)),
        TransportKind::Fasst => p.replay(|f, c| Fasst::new(f, c, block, handler)),
        TransportKind::SelfRpc => p.replay(|f, c| SelfRpc::new(f, c, slots, block, handler)),
    }
}

/// A harness point short of its transport.
struct Point {
    cluster: ClusterSpec,
    harness: HarnessConfig,
    gen: Box<dyn RequestGen>,
    spec: ScenarioSpec,
}

impl Point {
    /// Replays the point over the transport `build` makes.
    fn replay<T: RpcTransport>(
        self,
        build: impl FnOnce(&mut Fabric, &Cluster) -> T,
    ) -> Result<RpcRunResult, String> {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, self.cluster);
        let transport = build(&mut fabric, &cluster);
        let mut h = Harness::try_with_generator(transport, cluster, self.harness, self.gen)
            .map_err(|e| format!("invalid harness config: {e}"))?;
        h.set_scenario(self.spec)
            .map_err(|e| format!("invalid scenario spec: {e}"))?;
        let (sim, over_window) = h.replay(fabric);
        let h = sim.logic(0);
        let m = &h.metrics;
        let per_mops = |counter| m.measured.rate(over_window.get(counter)) / 1e6;
        Ok(RpcRunResult {
            mops: m.mops(),
            ops_per_sec: m.ops_per_sec(),
            median_us: m.median_us(),
            mean_us: m.mean_us(),
            max_us: m.max_us(),
            p99_us: m.quantile_us(0.99),
            cdf: m.latency_cdf(),
            pcie_rd_mops: per_mops("PCIeRdCur"),
            pcie_itom_mops: per_mops("PCIeItoM"),
            ops: m.ops,
            events: sim.events(),
            issued: h.issued(),
            completed: h.completed(),
            in_flight: h.in_flight(),
            stuck: h.stuck_clients().len(),
            retries: h.retries(),
            completed_by_client: h.completed_by_client().to_vec(),
        })
    }
}

/// Measured outcome of one ScaleTX deployment.
#[derive(Clone, Debug)]
pub struct TxRunResult {
    /// Coordinator-side metrics over the window.
    pub metrics: TxMetrics,
    /// Simulator events processed over the whole run.
    pub events: u64,
    /// Coordinator slots still busy after the drain.
    pub busy_slots: usize,
    /// KV items left locked after the drain.
    pub locked_keys: usize,
}

/// Builds and replays a ScaleTX deployment over the `kind` transport,
/// ScaleRPC through [`run_scalerpc_tx`] at [`tx_scale_cfg`] with every
/// server on one schedule.
pub fn run_tx(kind: TransportKind, cfg: TxConfig) -> TxRunResult {
    let (slots, block) = (BASELINE_SLOTS, BASELINE_BLOCK);
    match kind {
        TransportKind::ScaleRpc => {
            tx_result(&run_scalerpc_tx(cfg, tx_scale_cfg(), SimDuration::ZERO))
        }
        TransportKind::RawWrite => {
            replay_tx(cfg, |f, c, p, _| RawWrite::new(f, c, slots, block, p))
        }
        TransportKind::Herd => replay_tx(cfg, |f, c, p, _| Herd::new(f, c, slots, block, p)),
        TransportKind::Fasst => replay_tx(cfg, |f, c, p, _| Fasst::new(f, c, block, p)),
        TransportKind::SelfRpc => replay_tx(cfg, |f, c, p, _| SelfRpc::new(f, c, slots, block, p)),
    }
}

/// Replays a deployment over the transport `make` builds per server.
fn replay_tx<T: RpcTransport + OneSidedAccess>(
    cfg: TxConfig,
    make: impl FnMut(&mut Fabric, &Cluster, TxParticipant, usize) -> T,
) -> TxRunResult {
    let mut fabric = Fabric::new(FabricParams::default());
    let tx = TxSim::build(&mut fabric, cfg, make);
    tx_result(&tx.replay(fabric))
}

/// Reads a replayed deployment's result.
fn tx_result<T: RpcTransport + OneSidedAccess>(sim: &ShardedSim<TxSim<T>>) -> TxRunResult {
    let tx = sim.logic(0);
    TxRunResult {
        metrics: tx.metrics.clone(),
        events: sim.events(),
        busy_slots: tx.busy_slots(),
        locked_keys: tx.locked_keys(sim.fabric(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_produces_sane_numbers() {
        let r = run_rpc(RpcRunConfig {
            clients: 16,
            machines: 2,
            warmup: SimDuration::micros(300),
            run: SimDuration::millis(1),
            ..Default::default()
        });
        assert!(r.mops > 0.5, "{:?}", r.mops);
        assert!(r.median_us > 1.0 && r.median_us < 1_000.0);
        assert!(!r.cdf.is_empty());
        assert_eq!(r.issued, r.completed + r.in_flight);
        assert_eq!(r.completed_by_client.len(), 16);
    }
}
