//! Workspace-level integration: one application workload over every RPC
//! transport, asserting identical application semantics and the paper's
//! relative performance ordering.

use scalerpc_bench::rpcbench::{run_mdtest, MdtestRun, TransportKind};
use scalerpc_repro::octofs::FsOp;
use scalerpc_repro::rdma_fabric::{Fabric, FabricParams};
use scalerpc_repro::rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use scalerpc_repro::rpc_core::cluster::{Cluster, ClusterSpec};
use scalerpc_repro::rpc_core::harness::{Harness, HarnessConfig};
use scalerpc_repro::rpc_core::sharded::ShardedSim;
use scalerpc_repro::rpc_core::transport::{EchoHandler, RpcTransport};
use scalerpc_repro::rpc_core::workload::ThinkTime;
use scalerpc_repro::scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_repro::simcore::SimDuration;

fn spec(clients: usize) -> ClusterSpec {
    ClusterSpec {
        server_threads: 8,
        client_machines: 4,
        threads_per_machine: 6,
        cores_per_machine: 8,
        clients,
    }
}

fn cfg() -> HarnessConfig {
    HarnessConfig {
        batch_size: 4,
        request_size: 32,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(3),
        think: vec![ThinkTime::None],
        seed: 5,
        window: 1,
        nthreads: 1,
        retry: None,
    }
}

fn echo_ops<T, F>(clients: usize, build: F) -> u64
where
    T: RpcTransport,
    F: FnOnce(&mut Fabric, &Cluster) -> T,
{
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, spec(clients));
    let t = build(&mut fabric, &cluster);
    let h = Harness::new(t, cluster, cfg());
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));
    sim.logic(0).metrics.ops
}

#[test]
fn every_transport_serves_the_same_workload() {
    let scale = echo_ops(24, |f, c| {
        ScaleRpc::new(
            f,
            c,
            ScaleRpcConfig {
                group_size: 12,
                ..Default::default()
            },
            EchoHandler::default(),
        )
    });
    let raw = echo_ops(24, |f, c| {
        RawWrite::new(f, c, 8, 2048, EchoHandler::default())
    });
    let herd = echo_ops(24, |f, c| Herd::new(f, c, 8, 2048, EchoHandler::default()));
    let fasst = echo_ops(24, |f, c| Fasst::new(f, c, 2048, EchoHandler::default()));
    let selfr = echo_ops(24, |f, c| {
        SelfRpc::new(f, c, 8, 2048, EchoHandler::default())
    });
    for (name, ops) in [
        ("ScaleRPC", scale),
        ("RawWrite", raw),
        ("HERD", herd),
        ("FaSST", fasst),
        ("SelfRPC", selfr),
    ] {
        assert!(ops > 3_000, "{name} completed only {ops} ops");
    }
}

#[test]
fn paper_ordering_holds_at_scale() {
    // 240 clients, batch 2: ScaleRPC ≳ FaSST ≳ HERD > RawWrite/SelfRPC.
    let mut results = Vec::new();
    let scale =
        echo_at_240(|f, c| ScaleRpc::new(f, c, ScaleRpcConfig::default(), EchoHandler::default()));
    let fasst = echo_at_240(|f, c| Fasst::new(f, c, 4096, EchoHandler::default()));
    let raw = echo_at_240(|f, c| RawWrite::new(f, c, 8, 4096, EchoHandler::default()));
    results.push(("ScaleRPC", scale));
    results.push(("FaSST", fasst));
    results.push(("RawWrite", raw));
    assert!(
        scale as f64 > raw as f64 * 1.5,
        "ScaleRPC must clearly beat RawWrite at scale: {results:?}"
    );
    assert!(
        fasst as f64 > raw as f64 * 1.5,
        "FaSST must clearly beat RawWrite at scale: {results:?}"
    );
}

fn echo_at_240<T, F>(build: F) -> u64
where
    T: RpcTransport,
    F: FnOnce(&mut Fabric, &Cluster) -> T,
{
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 240,
        },
    );
    let t = build(&mut fabric, &cluster);
    let h = Harness::new(
        t,
        cluster,
        HarnessConfig {
            batch_size: 2,
            ..cfg()
        },
    );
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));
    sim.logic(0).metrics.ops
}

#[test]
fn file_system_runs_on_rawwrite_too() {
    // The MDS handler is transport-agnostic: beyond the Fig. 13 pair it
    // also runs on the FaRM-style baseline.
    let r = run_mdtest(&MdtestRun {
        clients: 24,
        op: FsOp::Stat,
        transport: TransportKind::RawWrite,
        run: SimDuration::millis(3),
        warmup: SimDuration::millis(1),
        ..Default::default()
    });
    assert!(r.ops > 2_000, "ops {}", r.ops);
}
