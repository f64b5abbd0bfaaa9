//! ScaleTX over ScaleRPC while one participant crashes three times: a
//! transaction window of W outstanding transactions per coordinator must
//! drain with every slot idle and every key unlocked.
//!
//! At a crash `TxSim` gives up the seqs its coordinators had toward the
//! server and tells ScaleRPC it abandoned each one, so the client window
//! stops holding them. Before it did, W = 4 and W = 8 filled that window
//! with seqs nobody awaited, and the next submit panicked.

use rpc_core::inject::{Injection, ScenarioSpec};
use scalerpc::ScaleRpcConfig;
use scaletx::sim::run_scalerpc_tx_with;
use scaletx::workload::TxWorkload;
use scaletx::TxConfig;
use simcore::{SimDuration, SimTime};

/// 24 SmallBank coordinators over 3 servers with a window of `window`
/// transactions; server 1 crashes for 200 µs at 1.5, 2.5 and 3.5 ms.
/// Asserts the drained run committed, and left no slot busy and no key
/// locked.
fn crash_three_times(window: usize) {
    let cfg = TxConfig {
        coordinators: 24,
        servers: 3,
        client_machines: 2,
        workload: TxWorkload::smallbank(300, 3),
        one_sided: true,
        value_size: 8,
        keys_per_server: 300,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(5),
        seed: 31,
        window,
        ..Default::default()
    };
    let scale_cfg = ScaleRpcConfig {
        group_size: 16,
        slots: 8,
        block_size: 2048,
        ..Default::default()
    };
    let crash = Injection::ServerCrash {
        server: 1,
        down: SimDuration::micros(200),
    };
    let timeline = [1_500, 2_500, 3_500]
        .map(|us| (SimTime::ZERO + SimDuration::micros(us), crash))
        .to_vec();
    let sim = run_scalerpc_tx_with(cfg, scale_cfg, SimDuration::ZERO, |tx| {
        tx.set_scenario(ScenarioSpec {
            starts: Vec::new(),
            timeline,
        })
        .expect("three crashes of a participant that exists");
    });
    let tx = sim.logic(0);
    assert!(
        tx.metrics.committed > 0,
        "nothing committed at W = {window}"
    );
    assert_eq!(tx.busy_slots(), 0, "slots stuck at W = {window}");
    assert_eq!(
        tx.locked_keys(sim.fabric(0)),
        0,
        "keys left locked at W = {window}"
    );
}

#[test]
fn window_one_drains_after_three_crashes() {
    crash_three_times(1);
}

#[test]
fn window_two_drains_after_three_crashes() {
    crash_three_times(2);
}

#[test]
fn window_four_drains_after_three_crashes() {
    crash_three_times(4);
}

#[test]
fn window_eight_drains_after_three_crashes() {
    crash_three_times(8);
}
