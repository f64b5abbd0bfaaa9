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
//!
//! The `#[ignore]`d cases are open bugs (ROADMAP item H): four seeds of
//! `scenario fuzz --seeds 4200`, as the fuzzer shrank them, that leave a
//! ScaleRPC client with requests in flight even after a 300 ms drain.

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
    let sc = format!(
        "[scenario]\nname = \"probe\"\nseed = 42\nwarmup_us = 1000\nrun_us = 5000\n\n\
         [workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\n{workload}\n\
         [[population]]\nname = \"all\"\nclients = {clients}\n\n{events}",
    );
    drains_clean(&sc, SimDuration::millis(3));
}

/// Runs the ScaleRPC scenario `toml` until `drain` past its window and
/// asserts that no request is left in flight.
fn drains_clean(toml: &str, drain: SimDuration) {
    let sc = Scenario::parse(toml).unwrap();
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
    sim.run_sequential(stop + drain);
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

// Open bugs found by `scenario fuzz --seeds 4200`, each the fuzzer's
// shrunk reproduction of its seed.

const FUZZ_2663: &str = r#"
[scenario]
name = "fuzz-2663"
seed = 4091615842
warmup_us = 0
run_us = 149

[workload]
kind = "rpc"
transport = "scalerpc"
machines = 3
threads_per_machine = 4
server_threads = 7
batch = 4
window = 1
group_size = 8
time_slice_us = 50
slots = 8
block_size = 4096
dynamic = true
regroup_rotations = 4
tenant_isolate = false
lazy_connect = false
retry_timeout_us = 0

[[population]]
name = "pop0"
clients = 5
tenant = 0
arrival = "immediate"
think = "none"
size = 32

[[population]]
name = "pop1"
clients = 12
tenant = 1
arrival = "at"
start_us = 143
think = "none"
size = 32
"#;

const FUZZ_2956: &str = r#"
[scenario]
name = "fuzz-2956"
seed = 484328856
warmup_us = 0
run_us = 128

[workload]
kind = "rpc"
transport = "scalerpc"
machines = 3
threads_per_machine = 4
server_threads = 7
batch = 1
window = 1
group_size = 8
time_slice_us = 50
slots = 8
block_size = 4096
dynamic = true
regroup_rotations = 4
tenant_isolate = false
lazy_connect = true
retry_timeout_us = 0

[[population]]
name = "pop0"
clients = 3
tenant = 0
arrival = "poisson"
rate_per_ms = 67.0
from_us = 10
think = "none"
size = 32

[[population]]
name = "pop1"
clients = 14
tenant = 1
arrival = "immediate"
think = "none"
size = 32
"#;

const FUZZ_2775: &str = r#"
[scenario]
name = "fuzz-2775"
seed = 1671395695
warmup_us = 0
run_us = 749

[workload]
kind = "rpc"
transport = "scalerpc"
machines = 2
threads_per_machine = 4
server_threads = 7
batch = 1
window = 2
group_size = 8
time_slice_us = 50
slots = 8
block_size = 4096
dynamic = true
regroup_rotations = 4
tenant_isolate = false
lazy_connect = true
retry_timeout_us = 300

[[population]]
name = "pop1"
clients = 1
tenant = 1
arrival = "immediate"
think = "none"
size = 32

[[event]]
at_us = 629
kind = "server_pause"
dur_us = 96

[[event]]
at_us = 685
kind = "conn_churn"
population = "pop1"
"#;

const FUZZ_1923: &str = r#"
[scenario]
name = "fuzz-1923"
seed = 3354830555
warmup_us = 0
run_us = 923

[workload]
kind = "rpc"
transport = "scalerpc"
machines = 2
threads_per_machine = 4
server_threads = 6
batch = 1
window = 4
group_size = 16
time_slice_us = 50
slots = 8
block_size = 4096
dynamic = false
regroup_rotations = 4
tenant_isolate = false
lazy_connect = false
retry_timeout_us = 300

[[population]]
name = "pop0"
clients = 4
tenant = 0
arrival = "immediate"
think = "none"
size_min = 32
size_max = 1024
size_theta = 1.1

[[population]]
name = "pop2"
clients = 7
tenant = 2
arrival = "poisson"
rate_per_ms = 114.0
from_us = 48
think = "uniform"
think_lo_us = 1
think_hi_us = 3
size = 32

[[event]]
at_us = 475
kind = "link_degrade"
num = 4
den = 1
extra_ns = 403

[[event]]
at_us = 1020
kind = "server_crash"
down_us = 73
"#;

/// Fuzz seed 2663. No chaos event. Twelve clients join at 143 µs of a
/// 149 µs run; one stays in Warmup with its batch of 4 staged after the
/// server consumed its endpoint entry (`entry_valid` false,
/// `last_fetch_epoch` 3).
#[test]
#[ignore = "open bug: ROADMAP item H"]
fn fuzz_seed_2663_a_late_joiner_with_requests_staged_is_not_stranded() {
    drains_clean(FUZZ_2663, SimDuration::millis(300));
}

/// Fuzz seed 2956. No chaos event. As in seed 2663, with lazy
/// connections: one client of 17 stays in Warmup with its first request
/// staged after the server consumed its entry (`last_fetch_epoch` 1).
#[test]
#[ignore = "open bug: ROADMAP item H"]
fn fuzz_seed_2956_a_lazily_connected_client_is_not_stranded_in_warmup() {
    drains_clean(FUZZ_2956, SimDuration::millis(300));
}

/// Fuzz seed 2775. A lazily connected client's connection is churned
/// during a `server_pause`; it stays in Warmup with `publish_inflight`
/// set and two requests staged, and the server never fetches its entry.
#[test]
#[ignore = "open bug: ROADMAP item H"]
fn fuzz_seed_2775_conn_churn_during_a_server_pause_does_not_strand_a_lazy_client() {
    drains_clean(FUZZ_2775, SimDuration::millis(300));
}

/// Fuzz seed 1923. The link degrades at 475 µs and the server crashes at
/// 1 020 µs, after the 923 µs window; one four-deep client stays in
/// Warmup with `publish_inflight` set and two requests staged, as in
/// seed 2775.
#[test]
#[ignore = "open bug: ROADMAP item H"]
fn fuzz_seed_1923_a_crash_after_the_window_on_a_degraded_link_does_not_strand_a_client() {
    drains_clean(FUZZ_1923, SimDuration::millis(300));
}
