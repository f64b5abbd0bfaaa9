//! Shared RPC benchmark runner for Fig. 8–12.

use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::transport::{EchoHandler, RpcTransport};
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::stats::CdfPoint;
use simcore::SimDuration;

/// Which RPC implementation to benchmark.
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// ScaleRPC with the given configuration.
    ScaleRpc(ScaleRpcConfig),
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
    /// Display name as used in the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::ScaleRpc(_) => "ScaleRPC",
            TransportKind::RawWrite => "RawWrite",
            TransportKind::Herd => "HERD",
            TransportKind::Fasst => "FaSST",
            TransportKind::SelfRpc => "SelfRPC",
        }
    }

    /// The four transports of Fig. 8/9 (Table 2 plus ScaleRPC).
    pub fn fig8_set() -> Vec<TransportKind> {
        vec![
            TransportKind::ScaleRpc(ScaleRpcConfig::default()),
            TransportKind::RawWrite,
            TransportKind::Herd,
            TransportKind::Fasst,
        ]
    }
}

/// One benchmark point.
#[derive(Clone, Debug)]
pub struct RpcRunConfig {
    /// The transport.
    pub kind: TransportKind,
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
            kind: TransportKind::ScaleRpc(ScaleRpcConfig::default()),
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

/// Measured outcome of one point.
#[derive(Clone, Debug)]
pub struct RpcRunResult {
    /// Throughput in Mops/s.
    pub mops: f64,
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
}

/// Runs one benchmark point.
pub fn run_rpc(cfg: RpcRunConfig) -> RpcRunResult {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: cfg.server_threads,
            client_machines: cfg.machines,
            threads_per_machine: cfg.threads_per_machine,
            cores_per_machine: 8,
            clients: cfg.clients,
        },
    );
    let hcfg = HarnessConfig {
        batch_size: cfg.batch,
        request_size: 32,
        warmup: cfg.warmup,
        run: cfg.run,
        think: cfg.think.clone(),
        seed: cfg.seed,
        window: cfg.window,
        nthreads: 1,
        retry: None,
    };
    let echo = EchoHandler::default();
    match cfg.kind {
        TransportKind::ScaleRpc(mut sc) => {
            sc.client_window = sc.client_window.max(cfg.window.min(sc.slots));
            let t = ScaleRpc::new(&mut fabric, &cluster, sc, echo);
            drive(Harness::new(t, cluster, hcfg), fabric)
        }
        TransportKind::RawWrite => {
            let t = RawWrite::new(&mut fabric, &cluster, 8, 4096, echo);
            drive(Harness::new(t, cluster, hcfg), fabric)
        }
        TransportKind::Herd => {
            let t = Herd::new(&mut fabric, &cluster, 8, 4096, echo);
            drive(Harness::new(t, cluster, hcfg), fabric)
        }
        TransportKind::Fasst => {
            let t = Fasst::new(&mut fabric, &cluster, 4096, echo);
            drive(Harness::new(t, cluster, hcfg), fabric)
        }
        TransportKind::SelfRpc => {
            let t = SelfRpc::new(&mut fabric, &cluster, 8, 4096, echo);
            drive(Harness::new(t, cluster, hcfg), fabric)
        }
    }
}

/// Replays one harness and reads the result.
fn drive<T: RpcTransport>(h: Harness<T>, fabric: Fabric) -> RpcRunResult {
    let (sim, over_window) = h.replay(fabric);
    let m = &sim.logic(0).metrics;
    let per_mops = |counter| m.measured.rate(over_window.get(counter)) / 1e6;
    RpcRunResult {
        mops: m.mops(),
        median_us: m.median_us(),
        mean_us: m.mean_us(),
        max_us: m.max_us(),
        p99_us: m.quantile_us(0.99),
        cdf: m.latency_cdf(),
        pcie_rd_mops: per_mops("PCIeRdCur"),
        pcie_itom_mops: per_mops("PCIeItoM"),
        ops: m.ops,
        events: sim.events(),
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
    }
}
