//! End-to-end closed-loop runs of every baseline transport through the
//! shared harness.

use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{EchoHandler, RpcTransport};
use rpc_core::workload::ThinkTime;
use simcore::SimDuration;

fn spec(clients: usize) -> ClusterSpec {
    ClusterSpec {
        server_threads: 4,
        client_machines: 2,
        threads_per_machine: 4,
        cores_per_machine: 8,
        clients,
    }
}

fn cfg(batch: usize) -> HarnessConfig {
    HarnessConfig {
        batch_size: batch,
        request_size: 32,
        warmup: SimDuration::micros(200),
        run: SimDuration::millis(1),
        think: vec![ThinkTime::None],
        seed: 7,
        window: 1,
        nthreads: 1,
        retry: None,
    }
}

fn run_transport<T, F>(clients: usize, batch: usize, build: F) -> (f64, u64)
where
    T: RpcTransport,
    F: FnOnce(&mut Fabric, &Cluster) -> T,
{
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, spec(clients));
    let transport = build(&mut fabric, &cluster);
    let harness = Harness::new(transport, cluster, cfg(batch));
    let stop = harness.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, harness);
    sim.run_sequential(stop + SimDuration::millis(2));
    let m = &sim.logic(0).metrics;
    (m.mops(), m.ops)
}

#[test]
fn rawwrite_echo_round_trips() {
    let (mops, ops) = run_transport(8, 1, |f, c| {
        RawWrite::new(f, c, 8, 1024, EchoHandler::default())
    });
    assert!(ops > 500, "too few ops: {ops}");
    assert!(mops > 0.5, "throughput too low: {mops} Mops/s");
}

#[test]
fn rawwrite_batching_increases_throughput() {
    let (m1, _) = run_transport(8, 1, |f, c| {
        RawWrite::new(f, c, 8, 1024, EchoHandler::default())
    });
    let (m8, _) = run_transport(8, 8, |f, c| {
        RawWrite::new(f, c, 8, 1024, EchoHandler::default())
    });
    assert!(
        m8 > m1 * 1.5,
        "batching should pipeline: batch1={m1:.2} batch8={m8:.2}"
    );
}

#[test]
fn herd_echo_round_trips() {
    let (mops, ops) = run_transport(8, 1, |f, c| {
        Herd::new(f, c, 8, 1024, EchoHandler::default())
    });
    assert!(ops > 500, "too few ops: {ops}");
    assert!(mops > 0.5, "throughput too low: {mops} Mops/s");
}

#[test]
fn fasst_echo_round_trips() {
    let (mops, ops) = run_transport(8, 1, |f, c| Fasst::new(f, c, 1024, EchoHandler::default()));
    assert!(ops > 500, "too few ops: {ops}");
    assert!(mops > 0.5, "throughput too low: {mops} Mops/s");
}

#[test]
fn selfrpc_echo_round_trips() {
    let (mops, ops) = run_transport(8, 1, |f, c| {
        SelfRpc::new(f, c, 8, 1024, EchoHandler::default())
    });
    assert!(ops > 500, "too few ops: {ops}");
    assert!(mops > 0.5, "throughput too low: {mops} Mops/s");
}

#[test]
fn rawwrite_collapses_with_many_clients_fasst_does_not() {
    // The headline scalability contrast (Fig. 8 left, in miniature).
    let few = 16;
    let many = 400;
    let spec_many = ClusterSpec {
        server_threads: 8,
        client_machines: 8,
        threads_per_machine: 6,
        cores_per_machine: 8,
        clients: many,
    };
    let spec_few = ClusterSpec {
        server_threads: 8,
        client_machines: 8,
        threads_per_machine: 6,
        cores_per_machine: 8,
        clients: few,
    };

    let run_raw = |sp: ClusterSpec| {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, sp);
        let t = RawWrite::new(&mut fabric, &cluster, 4, 1024, EchoHandler::default());
        let h = Harness::new(t, cluster, cfg(1));
        let stop = h.stop_at();
        let mut sim = ShardedSim::new_sequential(fabric, h);
        sim.run_sequential(stop + SimDuration::millis(2));
        sim.logic(0).metrics.mops()
    };
    let run_fasst = |sp: ClusterSpec| {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, sp);
        let t = Fasst::new(&mut fabric, &cluster, 1024, EchoHandler::default());
        let h = Harness::new(t, cluster, cfg(1));
        let stop = h.stop_at();
        let mut sim = ShardedSim::new_sequential(fabric, h);
        sim.run_sequential(stop + SimDuration::millis(2));
        sim.logic(0).metrics.mops()
    };

    // Batch 1: no same-connection response runs to amortize the misses.
    let raw_few = run_raw(spec_few.clone());
    let raw_many = run_raw(spec_many.clone());
    let fasst_few = run_fasst(spec_few);
    let fasst_many = run_fasst(spec_many);

    // RawWrite must lose a large fraction of its throughput; FaSST must
    // hold (paper: RawWrite 20→2 Mops/s, FaSST flat).
    assert!(
        raw_many < raw_few * 0.6,
        "RawWrite should collapse: few={raw_few:.2} many={raw_many:.2}"
    );
    assert!(
        fasst_many > fasst_few * 0.7,
        "FaSST should stay flat: few={fasst_few:.2} many={fasst_many:.2}"
    );
}
