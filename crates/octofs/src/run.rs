//! Turn-key mdtest experiment runner.
//!
//! Used by the Fig. 1(a) and Fig. 13 benchmarks and by integration tests:
//! build the cluster, preload the MDS, pick a transport, run one mdtest
//! phase, return the measured throughput.

use crate::handler::MdsHandler;
use crate::mdtest::MdtestGen;
use crate::proto::FsOp;
use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::transport::RpcTransport;
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::SimDuration;

/// Which RPC subsystem the MDS runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdsTransport {
    /// ScaleRPC (the paper's contribution).
    ScaleRpc,
    /// Octopus' original self-identified RPC.
    SelfRpc,
    /// The FaRM-style RawWrite baseline.
    RawWrite,
}

impl MdsTransport {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MdsTransport::ScaleRpc => "ScaleRPC",
            MdsTransport::SelfRpc => "selfRPC",
            MdsTransport::RawWrite => "RawWrite",
        }
    }
}

/// Configuration of one mdtest phase run.
#[derive(Clone, Debug)]
pub struct MdtestRun {
    /// Number of clients.
    pub clients: usize,
    /// The metadata operation under test.
    pub op: FsOp,
    /// The RPC subsystem.
    pub transport: MdsTransport,
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
            transport: MdsTransport::ScaleRpc,
            files_per_dir: 64,
            batch: 1,
            run: SimDuration::millis(6),
            warmup: SimDuration::millis(2),
        }
    }
}

/// Result of one run.
#[derive(Clone, Copy, Debug)]
pub struct MdtestResult {
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Operations completed in the window.
    pub ops: u64,
    /// Median latency in microseconds.
    pub median_us: f64,
}

/// Executes one mdtest phase and returns the measured throughput.
pub fn run_mdtest(cfg: &MdtestRun) -> MdtestResult {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: cfg.clients,
        },
    );
    let mut handler = MdsHandler::new();
    handler.preload(cfg.clients, cfg.files_per_dir);
    let hcfg = HarnessConfig {
        batch_size: cfg.batch,
        request_size: 64,
        warmup: cfg.warmup,
        run: cfg.run,
        think: vec![ThinkTime::None],
        seed: 17,
        window: 1,
        nthreads: 1,
        retry: None,
    };
    let gen = Box::new(MdtestGen::new(cfg.op, cfg.files_per_dir as u64));
    match cfg.transport {
        MdsTransport::ScaleRpc => {
            let t = ScaleRpc::new(&mut fabric, &cluster, ScaleRpcConfig::default(), handler);
            drive(Harness::with_generator(t, cluster, hcfg, gen), fabric)
        }
        MdsTransport::SelfRpc => {
            let t = SelfRpc::new(&mut fabric, &cluster, 8, 4096, handler);
            drive(Harness::with_generator(t, cluster, hcfg, gen), fabric)
        }
        MdsTransport::RawWrite => {
            let t = RawWrite::new(&mut fabric, &cluster, 8, 4096, handler);
            drive(Harness::with_generator(t, cluster, hcfg, gen), fabric)
        }
    }
}

fn drive<T: RpcTransport>(h: Harness<T>, fabric: Fabric) -> MdtestResult {
    let (sim, _) = h.replay(fabric);
    let m = &sim.logic(0).metrics;
    MdtestResult {
        ops_per_sec: m.ops_per_sec(),
        ops: m.ops,
        median_us: m.median_us(),
    }
}
