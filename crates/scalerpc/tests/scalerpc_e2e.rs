//! End-to-end ScaleRPC runs through the closed-loop harness.

use rdma_fabric::{Fabric, FabricParams};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::EchoHandler;
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::{SimDuration, SimTime};

fn spec(clients: usize, machines: usize) -> ClusterSpec {
    ClusterSpec {
        server_threads: 10,
        client_machines: machines,
        threads_per_machine: 8,
        cores_per_machine: 8,
        clients,
    }
}

fn cfg(batch: usize, run_ms: u64) -> HarnessConfig {
    HarnessConfig {
        batch_size: batch,
        request_size: 32,
        warmup: SimDuration::millis(2),
        run: SimDuration::millis(run_ms),
        think: vec![ThinkTime::None],
        seed: 11,
        window: 1,
        nthreads: 1,
        retry: None,
    }
}

fn run_scale(
    clients: usize,
    machines: usize,
    batch: usize,
    scfg: ScaleRpcConfig,
) -> (f64, u64, ShardedSim<Harness<ScaleRpc<EchoHandler>>>) {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, spec(clients, machines));
    let t = ScaleRpc::new(&mut fabric, &cluster, scfg, EchoHandler::default());
    let h = Harness::new(t, cluster, cfg(batch, 6));
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));
    let mops = sim.logic(0).metrics.mops();
    let ops = sim.logic(0).metrics.ops;
    (mops, ops, sim)
}

#[test]
fn small_cluster_round_trips() {
    let scfg = ScaleRpcConfig {
        group_size: 8,
        slots: 8,
        block_size: 1024,
        ..Default::default()
    };
    let (mops, ops, sim) = run_scale(16, 2, 4, scfg);
    let t = &sim.logic(0).transport;
    assert!(ops > 2_000, "too few ops: {ops}");
    assert!(mops > 0.5, "throughput too low: {mops:.2}");
    assert!(t.rotations() > 10, "scheduler must rotate groups");
    assert!(t.warmup_fetches > 0, "warmup must fetch staged batches");
}

#[test]
fn context_switches_notify_idle_clients() {
    let scfg = ScaleRpcConfig {
        group_size: 4,
        slots: 8,
        block_size: 1024,
        time_slice: SimDuration::micros(50),
        ..Default::default()
    };
    let (_, ops, sim) = run_scale(12, 2, 1, scfg);
    let t = &sim.logic(0).transport;
    assert!(ops > 500, "too few ops: {ops}");
    // With batch 1, responses usually drain before the switch, so
    // explicit notifications must appear.
    assert!(
        t.ctx_notifies > 10,
        "expected explicit context notifications, got {}",
        t.ctx_notifies
    );
}

#[test]
fn scalerpc_stays_flat_as_clients_grow() {
    // The paper's headline: ScaleRPC keeps near-constant throughput from
    // 40 to 400 clients (Fig. 8) because only one group's QPs and one
    // pool's addresses are hot at a time.
    let scfg = ScaleRpcConfig::default(); // group 40, slice 100us, 4 KB
    let (few, _, _) = run_scale(40, 11, 8, scfg.clone());
    let (many, _, _) = run_scale(240, 11, 8, scfg);
    assert!(
        many > few * 0.7,
        "ScaleRPC should stay flat: 40cl={few:.2} 240cl={many:.2}"
    );
    assert!(few > 3.0, "40-client throughput too low: {few:.2}");
}

#[test]
fn scalerpc_beats_rawwrite_at_scale() {
    use rpc_baselines::RawWrite;
    // Batch 2 keeps RawWrite from amortizing its QP-cache misses over
    // long same-connection response runs, exposing the full gap.
    let clients = 240;
    let scale = run_scale(clients, 11, 2, ScaleRpcConfig::default()).0;
    let raw = {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, spec(clients, 11));
        let t = RawWrite::new(&mut fabric, &cluster, 8, 4096, EchoHandler::default());
        let h = Harness::new(t, cluster, cfg(2, 6));
        let stop = h.stop_at();
        let mut sim = ShardedSim::new_sequential(fabric, h);
        sim.run_sequential(stop + SimDuration::millis(3));
        sim.logic(0).metrics.mops()
    };
    assert!(
        scale > raw * 1.5,
        "ScaleRPC ({scale:.2}) must beat RawWrite ({raw:.2}) at {clients} clients"
    );
}

#[test]
fn bimodal_latency_distribution() {
    // Fig. 9: most requests are fast (served within the slice), a tail
    // waits for its group's turn — median far below max.
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, spec(120, 11));
    let t = ScaleRpc::new(
        &mut fabric,
        &cluster,
        ScaleRpcConfig::default(),
        EchoHandler::default(),
    );
    let h = Harness::new(t, cluster, cfg(1, 8));
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    assert!(m.ops > 5_000, "too few ops: {}", m.ops);
    let median = m.median_us();
    let max = m.max_us();
    assert!(
        max > median * 10.0,
        "expected a heavy tail: median={median:.1}us max={max:.1}us"
    );
    assert!(median < 30.0, "median should be fast: {median:.1}us");
}

#[test]
fn group_sweep_has_interior_peak_shape() {
    // Miniature Fig. 11(b): tiny groups cannot saturate; the default
    // group does better.
    let run_with_group = |g: usize| {
        run_scale(
            80,
            11,
            8,
            ScaleRpcConfig {
                group_size: g,
                ..Default::default()
            },
        )
        .0
    };
    let tiny = run_with_group(5);
    let mid = run_with_group(40);
    assert!(
        mid > tiny * 1.3,
        "group 40 ({mid:.2}) should beat group 5 ({tiny:.2})"
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_scale(24, 3, 4, ScaleRpcConfig::default()).1;
    let b = run_scale(24, 3, 4, ScaleRpcConfig::default()).1;
    assert_eq!(a, b, "identical configs must reproduce identical op counts");
}

#[test]
fn run_ends_cleanly_no_stuck_clients() {
    // Every client that started a batch must eventually drain: after the
    // grace period the sim must go quiescent (no livelock of timers
    // other than slice timers, which stop rescheduling only with the
    // transport alive — so instead check op counts grow with run time).
    let short = {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, spec(20, 2));
        let t = ScaleRpc::new(
            &mut fabric,
            &cluster,
            ScaleRpcConfig {
                group_size: 10,
                ..Default::default()
            },
            EchoHandler::default(),
        );
        let h = Harness::new(t, cluster, cfg(4, 2));
        let stop = h.stop_at();
        let mut sim = ShardedSim::new_sequential(fabric, h);
        sim.run_sequential(stop + SimDuration::millis(3));
        sim.logic(0).metrics.ops
    };
    let long = {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = Cluster::build(&mut fabric, spec(20, 2));
        let t = ScaleRpc::new(
            &mut fabric,
            &cluster,
            ScaleRpcConfig {
                group_size: 10,
                ..Default::default()
            },
            EchoHandler::default(),
        );
        let h = Harness::new(t, cluster, cfg(4, 8));
        let stop = h.stop_at();
        let mut sim = ShardedSim::new_sequential(fabric, h);
        sim.run_sequential(stop + SimDuration::millis(3));
        sim.logic(0).metrics.ops
    };
    assert!(
        long as f64 > short as f64 * 2.5,
        "throughput must be sustained: 2ms={short} 8ms={long}"
    );
    let _ = SimTime::ZERO;
}
