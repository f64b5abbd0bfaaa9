//! Regression tests for elastic control-plane races.
//!
//! Surfaced by auditing `ConnState` against its transition table (the
//! table has no `Absent → Ready` edge): the only way
//! `on_conn_established` can satisfy it is by refusing establishments
//! the transport is not waiting for. The table is now
//! `ConnState::allows`, asserted on every write, so reverting that
//! guard makes this test die on the transition assert.

use rdma_fabric::{Fabric, FabricParams};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig, RetryPolicy};
use rpc_core::inject::{ClientStart, Injection, ScenarioSpec};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::EchoHandler;
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::{SimDuration, SimTime};

/// A stale `ConnRts` — scheduled by a setup that a connection churn
/// later tore down — must not open the data path of a lazy client
/// parked in `Absent`.
///
/// The window, with the default 25 µs setup CPU + 5 µs RTS latency:
///
/// 1. t≈0: the lazy client's first submit buffers the request and
///    begins a connect (`ConnRts` A due at ~30 µs).
/// 2. 10 µs: churn #1 resets the QPs; the buffered request re-drives
///    `begin_connect` (`ConnRts` B due at ~40 µs).
/// 3. ~30 µs: `ConnRts` A finds both QPs back in `Reset`, establishes,
///    and flushes the buffer — the client is `Ready`, `pending` empty.
/// 4. 35 µs: churn #2 resets the QPs again; nothing is buffered, so
///    the lazy client parks in `Absent`.
/// 5. ~40 µs: the stale `ConnRts` B finds both QPs in `Reset` and the
///    fabric establishes them — but the transport never asked for this
///    connection. Accepting it would move `Absent -> Ready` with no
///    setup paid by the next request.
///
/// With the guard in place the client re-pays a full establishment
/// when the retry policy retransmits the churned-away request, so the
/// client's node records exactly three `ConnSetupsStarted`. The buggy
/// guard (early-return only on `Ready`) records two: the post-churn
/// traffic rides the stale establishment for free.
#[test]
fn stale_establishment_after_double_churn_is_rejected() {
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 2,
            client_machines: 1,
            threads_per_machine: 1,
            cores_per_machine: 1,
            clients: 1,
        },
    );
    let client_node = cluster.node_of(0);
    let scfg = ScaleRpcConfig {
        group_size: 1,
        slots: 8,
        block_size: 1024,
        lazy_connect: true,
        elastic: true,
        ..Default::default()
    };
    let t = ScaleRpc::new(&mut fabric, &cluster, scfg, EchoHandler::default());
    let hcfg = HarnessConfig {
        batch_size: 1,
        request_size: 32,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(2),
        think: vec![ThinkTime::None],
        seed: 7,
        window: 2,
        nthreads: 1,
        retry: Some(RetryPolicy::default()),
    };
    let mut h = Harness::new(t, cluster, hcfg);
    h.set_scenario(ScenarioSpec {
        // Pin the wake so the churn times sit inside the setup window.
        starts: vec![ClientStart::At(SimTime::ZERO)],
        timeline: vec![
            (SimTime(10_000), Injection::ConnChurn { first: 0, last: 0 }),
            (SimTime(35_000), Injection::ConnChurn { first: 0, last: 0 }),
        ],
    })
    .expect("valid scenario");
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));

    // The run converges: the churned-away requests are retransmitted
    // and the closed loop keeps completing work afterwards.
    assert!(sim.logic(0).metrics.ops > 0, "no completed ops");
    assert_eq!(
        sim.logic(0).stuck_clients(),
        Vec::<usize>::new(),
        "client stranded after double churn"
    );

    // Three paid setups: the first submit, churn #1's re-drive, and
    // the post-churn-#2 retransmission. The stale establishment at
    // ~40 µs must not stand in for the third.
    let started = sim
        .fabric(0)
        .counters(client_node)
        .expect("client node counters")
        .get("ConnSetupsStarted");
    assert_eq!(
        started, 3,
        "expected 3 connection setups (stale establishment rejected), got {started}"
    );
}
