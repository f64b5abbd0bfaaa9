//! Multi-pod workload: the one shape the engine runs on several threads.
//!
//! The hub-shaped workloads (Figs. 1, 3, 8) funnel every message
//! through one server node, so there is nothing to run in parallel:
//! they execute on one engine thread (DESIGN.md §10). Real RDMA
//! deployments are rarely one hub: a rack runs many independent server
//! *pods* (one ScaleRPC/KV instance per machine, disjoint client sets).
//! This module models that shape directly — `pods` independent inbound
//! RC-write closed loops with no cross-pod traffic — which the engine
//! executes in *isolated* mode: one shard per pod, each straight to the
//! deadline, pods spread over the thread pool. Per-pod results are
//! bit-identical to the sequential engine at any `nthreads` (the pods
//! never interact), making this the workload behind `simperf
//! --nthreads`.

use crate::rawverbs::{RawVerbConfig, RawVerbKind, RawVerbLogic, RvEv};
use rdma_fabric::{Fabric, FabricParams, NodeId, Transport};
use rpc_core::sharded::{AppRoute, ShardSpec, ShardedSim};
use simcore::SimDuration;
use std::sync::Arc;

/// Configuration of the multi-pod sweep.
#[derive(Clone, Debug)]
pub struct PodsConfig {
    /// Number of independent server pods.
    pub pods: usize,
    /// Closed-loop clients per pod.
    pub clients_per_pod: usize,
    /// Outstanding writes per client.
    pub window: usize,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Pool block size at each pod server.
    pub block_size: usize,
    /// Message blocks per client in a pod's pool.
    pub blocks_per_client: usize,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Measured run length.
    pub run: SimDuration,
    /// Engine threads. `1` runs the sequential engine; more run one
    /// shard per pod in isolated mode on a thread pool — per-pod
    /// counters are bit-identical either way.
    pub nthreads: usize,
}

impl Default for PodsConfig {
    fn default() -> Self {
        PodsConfig {
            pods: 8,
            clients_per_pod: 25,
            window: 4,
            msg_size: 32,
            block_size: 512,
            blocks_per_client: 16,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(9),
            nthreads: 1,
        }
    }
}

/// Measured outcome of one multi-pod run.
#[derive(Clone, Debug)]
pub struct PodsResult {
    /// Aggregate verb throughput over all pods, Mops/s.
    pub mops: f64,
    /// Completed verbs inside the measured window, all pods.
    pub ops: u64,
    /// Per-pod completed verbs (determinism witness — must match the
    /// sequential engine pod-for-pod).
    pub pod_ops: Vec<u64>,
    /// Simulator events processed over the whole run.
    pub events: u64,
}

/// Runs the multi-pod experiment: the inbound closed loop of
/// [`run_raw_verbs`](crate::rawverbs::run_raw_verbs) over `pods` pools,
/// each pod's server landing the writes of its own clients.
pub fn run_pods(cfg: PodsConfig) -> PodsResult {
    let mut fabric = Fabric::new(FabricParams::default());
    let mut servers: Vec<NodeId> = Vec::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut client_nodes: Vec<NodeId> = Vec::new();
    let mut client_qps = Vec::new();
    let mut pool_mrs = Vec::new();

    for p in 0..cfg.pods {
        let server = fabric.add_node(&format!("pod{p}"));
        servers.push(server);
        let mut group = vec![server];
        let scq = fabric.create_cq(server).expect("cq");
        let pool = fabric
            .register_mr(
                server,
                cfg.clients_per_pod * cfg.blocks_per_client * cfg.block_size,
            )
            .expect("pool");
        pool_mrs.push(pool);
        for c in 0..cfg.clients_per_pod {
            let node = fabric.add_node(&format!("p{p}c{c}"));
            client_nodes.push(node);
            group.push(node);
            let ccq = fabric.create_cq(node).expect("cq");
            let sqp = fabric
                .create_qp(server, Transport::Rc, scq, scq)
                .expect("qp");
            let cqp = fabric.create_qp(node, Transport::Rc, ccq, ccq).expect("qp");
            fabric.connect(sqp, cqp).expect("connect");
            client_qps.push(cqp);
        }
        groups.push(group);
    }

    let nthreads = cfg.nthreads.max(1);
    let loop_cfg = RawVerbConfig {
        kind: RawVerbKind::InboundWrite,
        clients: cfg.pods * cfg.clients_per_pod,
        msg_size: cfg.msg_size,
        block_size: cfg.block_size,
        blocks_per_client: cfg.blocks_per_client,
        window: cfg.window,
        warmup: cfg.warmup,
        run: cfg.run,
        ..Default::default()
    };
    // No PCIe report, so no counter node and no snapshot event.
    let logic = RawVerbLogic::new(loop_cfg, None, client_qps, vec![], vec![], pool_mrs);
    // Pods never exchange messages, so multi-threaded runs use isolated
    // mode: one shard per pod, straight to the deadline.
    let spec = if nthreads == 1 {
        ShardSpec::sequential(servers.iter().chain(&client_nodes).copied().collect())
    } else {
        ShardSpec { groups, nthreads }
    };
    let deadline = logic.deadline();
    // Every app event is a client's post; it executes where the client lives.
    let route: AppRoute<RvEv> = Arc::new(move |ev| match ev {
        RvEv::Post(i) => client_nodes[*i],
        RvEv::SnapshotCounters => unreachable!("no counter node, no snapshot"),
    });
    let mut sim = ShardedSim::new(fabric, logic, spec, route);
    sim.run_until(deadline);
    // Each pod's counters are authoritative only on the shard that owns
    // the pod's server (in sequential mode that is shard 0 for all).
    let pod_ops: Vec<u64> = servers
        .iter()
        .enumerate()
        .map(|(p, &s)| sim.logic(sim.shard_of(s)).ops[p])
        .collect();
    let ops: u64 = pod_ops.iter().sum();
    PodsResult {
        mops: sim.logic(0).measured.rate(ops) / 1e6,
        ops,
        pod_ops,
        events: sim.events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(nthreads: usize) -> PodsConfig {
        PodsConfig {
            pods: 4,
            clients_per_pod: 10,
            warmup: SimDuration::micros(200),
            run: SimDuration::micros(400),
            nthreads,
            ..Default::default()
        }
    }

    #[test]
    fn pods_make_progress_and_balance() {
        let r = run_pods(quick_cfg(1));
        assert!(r.ops > 1_000, "ops {}", r.ops);
        let (min, max) = (
            *r.pod_ops.iter().min().unwrap(),
            *r.pod_ops.iter().max().unwrap(),
        );
        // Identical pods: the closed loops must stay near-symmetric.
        assert!(min * 10 >= max * 9, "pod skew: {:?}", r.pod_ops);
    }

    #[test]
    fn isolated_mode_matches_the_sequential_engine_pod_for_pod() {
        let seq = run_pods(quick_cfg(1));
        for nthreads in [2, 4] {
            let par = run_pods(quick_cfg(nthreads));
            assert_eq!(par.pod_ops, seq.pod_ops, "nthreads={nthreads}");
            assert_eq!(par.events, seq.events, "nthreads={nthreads}");
        }
    }
}
