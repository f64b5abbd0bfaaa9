//! Bit-exact pins for the four baseline RPCs of Table 2.
//!
//! `tests/determinism.rs` freezes the raw-verb experiments and ScaleRPC;
//! the baselines were held only by tolerance-banded shape tests (plus
//! the one full-window RawWrite row of that file's hub table). These
//! strings were captured on the commit *before* `crates/rpc-baselines`
//! was rewritten as request path × response path, and must never be
//! re-blessed by a refactor:
//! any change in post order, ring slot order, worker ownership or cost
//! arithmetic shows up as a different event count or latency digit.
//!
//! Each baseline is pinned at a batched point (synchronous client,
//! batch 4) and a windowed point (asynchronous client, window 4) through
//! the benchmark harness, the three pool-based ones once more with the
//! batch larger than the pool so the per-client admission queue is
//! exercised, and each baseline again under every downstream system
//! that runs on it: `octofs` mdtest (custom handler and generator) and
//! ScaleTX (three transports on one fabric, one-sided verbs beside the
//! RPCs on RawWrite, the RPC-only fallback on FaSST).

use octofs::handler::MdsHandler;
use octofs::mdtest::MdtestGen;
use octofs::FsOp;
use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::transport::{EchoHandler, RpcTransport};
use rpc_core::workload::ThinkTime;
use rpc_core::ShardedSim;
use scalerpc_bench::rpcbench::{run_rpc, RpcRunConfig, TransportKind};
use scaletx::workload::TxWorkload;
use scaletx::{TxConfig, TxSim};
use simcore::SimDuration;

fn rpc_point(kind: TransportKind, batch: usize, window: usize) -> String {
    let name = kind.name();
    let r = run_rpc(RpcRunConfig {
        kind,
        clients: 120,
        batch,
        window,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(2),
        ..Default::default()
    });
    format!(
        "{name} b{batch} w{window}: events={} ops={} mops={} median_us={}",
        r.events, r.ops, r.mops, r.median_us
    )
}

const RPC_GOLDEN: &str = "\
RawWrite b4 w1: events=272194 ops=19036 mops=9.518 median_us=51.199
RawWrite b1 w4: events=299371 ops=18137 mops=9.0685 median_us=53.247
HERD b4 w1: events=294158 ops=20408 mops=10.204 median_us=39.7
HERD b1 w4: events=339349 ops=20407 mops=10.2035 median_us=46.079
FaSST b4 w1: events=279072 ops=19340 mops=9.67 median_us=42.814
FaSST b1 w4: events=321489 ops=19341 mops=9.6705 median_us=49.151
SelfRPC b4 w1: events=272422 ops=19048 mops=9.524 median_us=51.199
SelfRPC b1 w4: events=302121 ops=18306 mops=9.153 median_us=53.247";

#[test]
fn rpc_points_match_the_pre_refactor_capture() {
    let kinds = [
        TransportKind::RawWrite,
        TransportKind::Herd,
        TransportKind::Fasst,
        TransportKind::SelfRpc,
    ];
    let lines: Vec<String> = kinds
        .iter()
        .flat_map(|&k| [rpc_point(k, 4, 1), rpc_point(k, 1, 4)])
        .collect();
    assert_eq!(lines.join("\n"), RPC_GOLDEN);
}

/// The paper's testbed shape with `clients` clients.
fn testbed(fabric: &mut Fabric, clients: usize) -> Cluster {
    Cluster::build(
        fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients,
        },
    )
}

fn harness_cfg(batch_size: usize, request_size: usize) -> HarnessConfig {
    HarnessConfig {
        batch_size,
        request_size,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(2),
        think: vec![ThinkTime::None],
        seed: 17,
        window: 1,
        nthreads: 1,
        retry: None,
    }
}

/// Runs a harness to its drain and formats the pin, event count included.
fn drive<T: RpcTransport>(label: &str, fabric: Fabric, h: Harness<T>) -> String {
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    let events = sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    format!(
        "{label}: events={events} ops={} mops={} median_us={}",
        m.ops,
        m.mops(),
        m.median_us()
    )
}

/// `run_mdtest`'s wiring (80 clients, Stat), driven here so the
/// event count is part of the pin.
fn mdtest_point<T: RpcTransport>(
    name: &str,
    build: impl FnOnce(&mut Fabric, &Cluster, MdsHandler) -> T,
) -> String {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = testbed(&mut fabric, 80);
    let mut handler = MdsHandler::new();
    handler.preload(80, 32);
    let transport = build(&mut fabric, &cluster, handler);
    let gen = Box::new(MdtestGen::new(FsOp::Stat, 32));
    let h = Harness::with_generator(transport, cluster, harness_cfg(1, 64), gen);
    drive(&format!("mdtest stat {name}"), fabric, h)
}

const MDTEST_GOLDEN: &str = "\
mdtest stat SelfRPC: events=228745 ops=13946 mops=6.973 median_us=11.44
mdtest stat RawWrite: events=251251 ops=15315 mops=7.6575 median_us=10.416";

#[test]
fn mdtest_points_match_the_pre_refactor_capture() {
    let lines = [
        mdtest_point("SelfRPC", |f, cl, h| SelfRpc::new(f, cl, 8, 4096, h)),
        mdtest_point("RawWrite", |f, cl, h| RawWrite::new(f, cl, 8, 4096, h)),
    ];
    assert_eq!(lines.join("\n"), MDTEST_GOLDEN);
}

/// Batch 6 into a 2-slot pool: four of every six requests wait in the
/// per-client admission queue and are posted from the response path.
/// `run_rpc` fixes `slots = 8`, so none of its points reaches that code.
fn admission_point<T: RpcTransport>(
    name: &str,
    build: impl FnOnce(&mut Fabric, &Cluster, EchoHandler) -> T,
) -> String {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = testbed(&mut fabric, 40);
    let transport = build(&mut fabric, &cluster, EchoHandler::default());
    let h = Harness::new(transport, cluster, harness_cfg(6, 32));
    drive(&format!("admission {name} slots2 b6"), fabric, h)
}

const ADMISSION_GOLDEN: &str = "\
admission RawWrite slots2 b6: events=309120 ops=22080 mops=11.04 median_us=21.712
admission HERD slots2 b6: events=286552 ops=20418 mops=10.209 median_us=19.455
admission SelfRPC slots2 b6: events=271040 ops=19374 mops=9.687 median_us=24.784";

#[test]
fn admission_queue_points_match_the_pre_refactor_capture() {
    let lines = [
        admission_point("RawWrite", |f, cl, h| RawWrite::new(f, cl, 2, 1024, h)),
        admission_point("HERD", |f, cl, h| Herd::new(f, cl, 2, 1024, h)),
        admission_point("SelfRPC", |f, cl, h| SelfRpc::new(f, cl, 2, 1024, h)),
    ];
    assert_eq!(lines.join("\n"), ADMISSION_GOLDEN);
}

/// The `works_over_baseline_transports_too` configuration of
/// `crates/scaletx/tests/tx_e2e.rs`.
fn tx_point<T>(
    name: &str,
    build: impl FnMut(&mut Fabric, &Cluster, scaletx::TxParticipant, usize) -> T,
) -> String
where
    T: RpcTransport + rpc_core::transport::OneSidedAccess,
{
    let cfg = TxConfig {
        coordinators: 16,
        servers: 3,
        client_machines: 4,
        workload: TxWorkload::ObjectStore {
            reads: 2,
            writes: 1,
            keys_per_server: 400,
            servers: 3,
        },
        one_sided: true,
        value_size: 8,
        keys_per_server: 400,
        initial_balance: 1_000,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(4),
        coord_cpu_mult: 8,
        seed: 23,
        window: 1,
    };
    let mut fabric = Fabric::new(FabricParams::default());
    let tx = TxSim::build(&mut fabric, cfg, build);
    let stop = tx.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, tx);
    let events = sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    format!(
        "tx {name}: events={events} committed={} aborted={} tps={} median_us={}",
        m.committed,
        m.aborted,
        m.tps(),
        m.median_us()
    )
}

const TX_GOLDEN: &str = "\
tx RawWrite one-sided: events=207490 committed=3469 aborted=89 tps=867250 median_us=16.127
tx FaSST rpc-only: events=137908 committed=1911 aborted=37 tps=477750 median_us=29.183";

#[test]
fn scaletx_points_match_the_pre_refactor_capture() {
    let lines = [
        // RawWrite clients own RC QPs: validation and commit go one-sided.
        tx_point("RawWrite one-sided", |f, cl, part, _| {
            RawWrite::new(f, cl, 8, 2048, part)
        }),
        // FaSST has none: the same request silently runs RPC-only.
        tx_point("FaSST rpc-only", |f, cl, part, _| {
            Fasst::new(f, cl, 2048, part)
        }),
    ];
    assert_eq!(lines.join("\n"), TX_GOLDEN);
}
