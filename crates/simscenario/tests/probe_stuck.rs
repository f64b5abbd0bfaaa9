//! Liveness regression for the windowed ScaleRpc path: a group_size-20
//! deployment of 80 four-deep clients must drain completely. This is the
//! smallest configuration found (by the scenario fuzzer's conservation
//! invariant) to strand a request in the seed's windowed client path.
//! The second case adds a server crash and retries, so the colliding
//! stages are cancelled wholesale and re-staged by retransmissions (the
//! client's staging table must follow its staging blocks through both;
//! debug builds check that after every stage and clear). The third runs
//! 160 clients whose window fills all four message slots across a crash:
//! a retry buffered while the connection is down, whose original
//! response lands before the reconnect flushes the buffer, must not be
//! re-dispatched into a full window. The last two churn every client's
//! connection with no `retry_timeout_us` in the scenario: the teardown
//! drops the requests in flight, so only the retry timeout a lifecycle
//! event arms by default brings them back (without it 80 four-deep
//! clients strand 241 requests, and 80 synchronous ones in groups of 40
//! strand 28 clients).

use rdma_fabric::{Fabric, FabricParams};
use rpc_core::cluster::Cluster;
use rpc_core::harness::Harness;
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::EchoHandler;
use scalerpc::ScaleRpc;
use simcore::SimDuration;
use simscenario::{compile, Compiled, Scenario};

/// The colliding configuration's workload keys.
const GROUP20: &str = "group_size = 20\nwindow = 4\n";

/// Every client's connection torn down mid-run.
const CHURN_ALL: &str = "[[event]]\nat_us = 3000\nkind = \"conn_churn\"\npopulation = \"all\"\n";

/// Runs a ScaleRPC deployment of `clients` clients, with `workload` and
/// `events` TOML appended to its tables, and asserts that it drains.
fn run_drains_clean(clients: usize, workload: &str, events: &str) {
    let sc = Scenario::parse(&format!(
        "[scenario]\nname = \"probe\"\nseed = 42\nwarmup_us = 1000\nrun_us = 5000\n\n\
         [workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\n{workload}\n\
         [[population]]\nname = \"all\"\nclients = {clients}\n\n{events}",
    ))
    .unwrap();
    let Compiled::Rpc(c) = compile(&sc).unwrap() else {
        panic!("rpc scenario expected")
    };
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, c.cluster.clone());
    let t = ScaleRpc::new(
        &mut fabric,
        &cluster,
        c.scale.clone().unwrap(),
        EchoHandler::default(),
    );
    let mut h = Harness::try_with_generator(t, cluster, c.harness.clone(), c.make_gen()).unwrap();
    h.set_scenario(c.spec.clone()).unwrap();
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(3));
    let h = sim.logic(0);
    let stuck = h.stuck_clients();
    for &cid in &stuck {
        eprintln!("{}", h.transport.client_diag(sim.fabric(0), cid));
    }
    assert_eq!(
        h.in_flight(),
        0,
        "stranded requests: issued={} completed={} stuck={:?}",
        h.issued(),
        h.completed(),
        stuck
    );
    assert!(stuck.is_empty());
}

#[test]
fn windowed_group20_run_drains_clean() {
    run_drains_clean(80, GROUP20, "");
}

#[test]
fn windowed_group20_run_drains_clean_across_a_server_crash() {
    run_drains_clean(
        80,
        &format!("{GROUP20}retry_timeout_us = 300\n"),
        "[[event]]\nat_us = 3000\nkind = \"server_crash\"\ndown_us = 100\n",
    );
}

#[test]
fn full_window_retries_buffered_across_a_crash_are_not_flushed_twice() {
    run_drains_clean(
        160,
        &format!("{GROUP20}slots = 4\nretry_timeout_us = 100\n"),
        "[[event]]\nat_us = 3000\nkind = \"server_crash\"\ndown_us = 100\n",
    );
}

#[test]
fn windowed_group20_run_drains_clean_across_conn_churn_without_a_retry_timeout() {
    run_drains_clean(80, GROUP20, CHURN_ALL);
}

#[test]
fn synchronous_group40_run_drains_clean_across_conn_churn_without_a_retry_timeout() {
    run_drains_clean(80, "group_size = 40\n", CHURN_ALL);
}
