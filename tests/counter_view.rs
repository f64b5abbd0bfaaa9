//! Counter-view equivalence: the name-ordered `(name, value)` listing a
//! report reads off a node must not depend on how the fabric stores its
//! counters.
//!
//! The goldens below were captured on the string-keyed `CounterSet`
//! (the commit before the typed `Counter` array) and pin names, order,
//! zero-valued-but-touched entries and the `snapshot` / `delta_since` /
//! `merge` results of two short runs: closed-loop inbound 8 KB RC
//! writes (Fig. 3(b) shape) and a ScaleRPC echo run (Fig. 8 shape).

use bytes::Bytes;
use rdma_fabric::{Fabric, FabricEvent, FabricParams, RemoteAddr, Transport, Upcall, WorkRequest};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::EchoHandler;
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::stats::CounterSet;
use simcore::{EventQueue, SimDuration, SimTime};

fn listing(c: &CounterSet) -> String {
    c.iter()
        .map(|(name, v)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Window-start snapshot, window delta, end-of-run totals, and the
/// snapshot with the delta merged back in (must equal the totals).
fn views(at_start: CounterSet, at_end: CounterSet) -> String {
    let delta = at_end.delta_since(&at_start);
    let mut merged = at_start.snapshot();
    merged.merge(&delta);
    assert_eq!(merged, at_end, "snapshot + delta must rebuild the totals");
    format!(
        "start: {}\ndelta: {}\nend: {}",
        listing(&at_start),
        listing(&delta),
        listing(&at_end)
    )
}

/// 100 clients, each writing its own twenty 8 KB blocks of a server
/// pool round-robin, one signaled write outstanding per client.
fn inbound_views() -> String {
    const CLIENTS: usize = 100;
    const BLOCKS: usize = 20;
    const BLOCK: usize = 8192;
    let mut fabric = Fabric::new(FabricParams::default());
    let server = fabric.add_node("server");
    let pool = fabric
        .register_mr(server, CLIENTS * BLOCKS * BLOCK)
        .expect("pool");
    let scq = fabric.create_cq(server).expect("cq");
    let mut qps = Vec::new();
    for i in 0..CLIENTS {
        let node = fabric.add_node(&format!("c{i}"));
        let cq = fabric.create_cq(node).expect("cq");
        let qp = fabric.create_qp(node, Transport::Rc, cq, cq).expect("qp");
        let sqp = fabric
            .create_qp(server, Transport::Rc, scq, scq)
            .expect("qp");
        fabric.connect(qp, sqp).expect("connect");
        qps.push(qp);
    }
    let payload = Bytes::from(vec![0xA5u8; BLOCK]);
    let mut queue: EventQueue<FabricEvent> = EventQueue::new();
    let mut staged: Vec<(SimTime, FabricEvent)> = Vec::new();
    let mut next_block = vec![0usize; CLIENTS];
    let mut write = |fabric: &mut Fabric, staged: &mut Vec<_>, now: SimTime, c: usize| {
        let block = c * BLOCKS + next_block[c] % BLOCKS;
        next_block[c] += 1;
        fabric
            .post(
                now,
                qps[c],
                WorkRequest::Write {
                    data: payload.clone(),
                    remote: RemoteAddr::new(pool, block * BLOCK),
                    imm: None,
                },
                true,
                None,
                &mut |t, ev| staged.push((t, ev)),
            )
            .expect("post");
    };
    for c in 0..CLIENTS {
        write(&mut fabric, &mut staged, SimTime(c as u64 * 37), c);
    }
    let mut upcalls = Vec::new();
    let mut at_start = None;
    let window_start = SimTime::ZERO + SimDuration::micros(300);
    let stop = SimTime::ZERO + SimDuration::micros(900);
    loop {
        for (t, ev) in staged.drain(..) {
            queue.push(t, ev);
        }
        let Some((now, ev)) = queue.pop() else { break };
        if at_start.is_none() && now >= window_start {
            at_start = Some(fabric.counters(server).expect("server").snapshot());
        }
        fabric.handle(now, ev, &mut |t, ev| staged.push((t, ev)), &mut upcalls);
        for up in upcalls.drain(..) {
            if let Upcall::Completion { wc, .. } = up {
                let c = qps.iter().position(|&q| q == wc.qp).expect("client qp");
                if now < stop {
                    write(&mut fabric, &mut staged, now, c);
                }
            }
        }
    }
    let at_end = fabric.counters(server).expect("server").snapshot();
    views(at_start.expect("run reaches the window"), at_end)
}

/// 120-client ScaleRPC echo (three groups), 1 ms warm-up + 2 ms window.
fn scalerpc_views() -> String {
    let warmup = SimDuration::millis(1);
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 120,
        },
    );
    let server = cluster.server;
    let transport = ScaleRpc::new(
        &mut fabric,
        &cluster,
        ScaleRpcConfig::default(),
        EchoHandler::default(),
    );
    let harness = Harness::new(
        transport,
        cluster,
        HarnessConfig {
            batch_size: 8,
            request_size: 32,
            warmup,
            run: SimDuration::millis(2),
            think: vec![ThinkTime::None],
            seed: 1,
            window: 1,
            nthreads: 1,
            retry: None,
        },
    );
    let stop = harness.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, harness);
    sim.run_sequential(SimTime::ZERO + warmup);
    let at_start = sim.fabric(0).counters(server).expect("server").snapshot();
    sim.run_sequential(stop + SimDuration::millis(3));
    let at_end = sim.fabric(0).counters(server).expect("server").snapshot();
    views(at_start, at_end)
}

const INBOUND_GOLDEN: &str = "\
start: DdioAllocBursts=927 DmaHitDdio=0 DmaHitMain=0 ItoM=118656 PCIeItoM=118656 RFO=0 RxMsgs=927\n\
delta: DdioAllocBursts=2296 DmaHitDdio=619 DmaHitMain=0 ItoM=216192 PCIeItoM=215573 RFO=0 RxMsgs=1689\n\
end: DdioAllocBursts=3223 DmaHitDdio=619 DmaHitMain=0 ItoM=334848 PCIeItoM=334229 RFO=0 RxMsgs=2616";

const SCALERPC_GOLDEN: &str = "\
start: DdioAllocBursts=140 DmaHitDdio=1058 DmaHitMain=6626 ItoM=224256 NicQpMiss=499 PCIeItoM=41020 PCIeRdCur=11677 RFO=7744 RxMsgs=7744 TxVerbs=10684\n\
delta: DdioAllocBursts=0 DmaHitDdio=542 DmaHitMain=17678 ItoM=297984 NicQpMiss=704 PCIeItoM=0 PCIeRdCur=25027 RFO=18220 RxMsgs=18220 TxVerbs=23614\n\
end: DdioAllocBursts=140 DmaHitDdio=1600 DmaHitMain=24304 ItoM=522240 NicQpMiss=1203 PCIeItoM=41020 PCIeRdCur=36704 RFO=25964 RxMsgs=25964 TxVerbs=34298";

#[test]
fn inbound_counter_view_matches_string_keyed_golden() {
    assert_eq!(inbound_views(), INBOUND_GOLDEN);
}

#[test]
fn scalerpc_counter_view_matches_string_keyed_golden() {
    assert_eq!(scalerpc_views(), SCALERPC_GOLDEN);
}
