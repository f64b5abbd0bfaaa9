//! The paper's third scalability cost, measured: the memory a server
//! registers against its client count (PAPER.md §1, "static mapping
//! allocates buffers proportional to client count").
//!
//! ScaleRPC's virtualized mapping re-uses one pair of physical pools, so
//! once its zones cover the largest group its registration grows only by
//! the 32-byte endpoint entry per client. RawWrite's static mapping gives
//! every client its own `slots × block` request zone, 32 KB at the
//! benchmark geometry. Both bands are read from registration alone; a
//! short run then checks the fabric's stored-bytes count against it.

use scalerpc_repro::rdma_fabric::{Fabric, FabricParams, NodeId};
use scalerpc_repro::rpc_baselines::RawWrite;
use scalerpc_repro::rpc_core::cluster::{Cluster, ClusterSpec};
use scalerpc_repro::rpc_core::harness::{Harness, HarnessConfig};
use scalerpc_repro::rpc_core::sharded::ShardedSim;
use scalerpc_repro::rpc_core::transport::{EchoHandler, RpcTransport};
use scalerpc_repro::rpc_core::workload::ThinkTime;
use scalerpc_repro::scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_repro::simcore::SimDuration;

/// RawWrite's request slots per client and block size: the benchmark
/// geometry (`rpcbench`'s `BASELINE_SLOTS` × `BASELINE_BLOCK`).
const SLOTS: usize = 8;
const BLOCK: usize = 4096;

/// The Fig. 8 testbed: 10 server threads, 11 client machines of 8 threads.
fn spec(clients: usize) -> ClusterSpec {
    ClusterSpec {
        server_threads: 10,
        client_machines: 11,
        threads_per_machine: 8,
        cores_per_machine: 8,
        clients,
    }
}

/// A fabric with `clients` clients registered by `build`, and the cluster.
fn registered<T>(
    clients: usize,
    build: impl FnOnce(&mut Fabric, &Cluster) -> T,
) -> (Fabric, Cluster, T) {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, spec(clients));
    let t = build(&mut fabric, &cluster);
    (fabric, cluster, t)
}

fn scalerpc(f: &mut Fabric, c: &Cluster) -> ScaleRpc<EchoHandler> {
    ScaleRpc::new(f, c, ScaleRpcConfig::default(), EchoHandler::default())
}

fn rawwrite(f: &mut Fabric, c: &Cluster) -> RawWrite<EchoHandler> {
    RawWrite::new(f, c, SLOTS, BLOCK, EchoHandler::default())
}

/// The server's registered bytes with `clients` clients.
fn server_registered<T>(clients: usize, build: impl FnOnce(&mut Fabric, &Cluster) -> T) -> usize {
    let (fabric, cluster, _) = registered(clients, build);
    fabric.registered_bytes(cluster.server).unwrap()
}

#[test]
fn scalerpc_registration_stops_growing_with_clients() {
    let (at_120, at_400) = (
        server_registered(120, scalerpc),
        server_registered(400, scalerpc),
    );
    let per_client = at_400.saturating_sub(at_120) as f64 / 280.0;
    assert!(
        at_400 >= at_120 && per_client <= 64.0,
        "ScaleRPC server: {at_120} B at 120 clients, {at_400} B at 400 \
         ({per_client:.1} B per client)"
    );
}

#[test]
fn rawwrite_registration_grows_by_a_zone_per_client() {
    let (at_120, at_400) = (
        server_registered(120, rawwrite),
        server_registered(400, rawwrite),
    );
    let per_client = at_400.saturating_sub(at_120) as f64 / 280.0;
    let zone = (SLOTS * BLOCK) as f64;
    assert!(
        (per_client - zone).abs() <= zone * 0.01,
        "RawWrite server: {at_120} B at 120 clients, {at_400} B at 400 \
         ({per_client:.1} B per client, want {zone} within 1 %)"
    );
}

/// Replays a short echo run and checks every node stored no more bytes
/// than it registered, and the server stored some.
fn stored_within_registered<T: RpcTransport>(build: impl FnOnce(&mut Fabric, &Cluster) -> T) {
    let (fabric, cluster, t) = registered(120, build);
    let nodes = 1 + cluster.machines.len();
    let server = cluster.server;
    let h = Harness::new(
        t,
        cluster,
        HarnessConfig {
            batch_size: 2,
            request_size: 32,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(2),
            think: vec![ThinkTime::None],
            seed: 3,
            window: 1,
            nthreads: 1,
            retry: None,
        },
    );
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(1));
    assert!(sim.logic(0).metrics.ops > 0, "the run served nothing");
    let fabric = sim.fabric(0);
    for node in (0..nodes as u32).map(NodeId) {
        let (stored, registered) = (
            fabric.stored_bytes(node).unwrap(),
            fabric.registered_bytes(node).unwrap(),
        );
        assert!(
            stored <= registered,
            "{node:?} stored {stored} B of {registered} B registered"
        );
    }
    assert!(fabric.stored_bytes(server).unwrap() > 0);
}

#[test]
fn scalerpc_stores_no_more_than_it_registers() {
    stored_within_registered(scalerpc);
}

#[test]
fn rawwrite_stores_no_more_than_it_registers() {
    stored_within_registered(rawwrite);
}
