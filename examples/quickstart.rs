//! Quickstart: run a ScaleRPC echo service on a simulated cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This sets up the paper's shape of deployment — one `RPCServer` with 10
//! worker threads, client machines running coroutine-style clients — and
//! drives a closed loop of 32-byte echo RPCs through ScaleRPC, printing
//! throughput, latency and the internal mechanism counters (warmup
//! fetches, context-switch notifications).

use scalerpc_repro::rdma_fabric::{Fabric, FabricParams};
use scalerpc_repro::rpc_core::cluster::{Cluster, ClusterSpec};
use scalerpc_repro::rpc_core::harness::{Harness, HarnessConfig};
use scalerpc_repro::rpc_core::transport::EchoHandler;
use scalerpc_repro::rpc_core::workload::ThinkTime;
use scalerpc_repro::scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_repro::simcore::SimDuration;

fn main() {
    // 1. A simulated RDMA fabric calibrated to the paper's testbed
    //    (ConnectX-3 FDR, Xeon E5-2650 v4).
    let mut fabric = Fabric::new(FabricParams::default());

    // 2. The cluster: one server, 11 client machines, 120 clients.
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

    // 3. ScaleRPC with the paper's defaults: 40-client groups, 100 µs
    //    time slices, 4 KB message blocks, priority scheduling on.
    let transport = ScaleRpc::new(
        &mut fabric,
        &cluster,
        ScaleRpcConfig::default(),
        EchoHandler::default(),
    );

    // 4. A closed-loop workload: every client keeps a batch of 8 echo
    //    RPCs in flight (the paper's asynchronous AsyncCall/PollCompletion
    //    pattern).
    let harness = Harness::new(
        transport,
        cluster,
        HarnessConfig {
            batch_size: 8,
            request_size: 32,
            warmup: SimDuration::millis(2),
            run: SimDuration::millis(8),
            think: vec![ThinkTime::None],
            seed: 1,
            window: 1,
            nthreads: 1,
            retry: None,
        },
    );

    // 5. Run the simulation — warm-up, measured window, drain — and
    //    report.
    let (sim, _) = harness.replay(fabric);

    let m = &sim.logic(0).metrics;
    println!("ScaleRPC echo, 120 clients, batch 8");
    println!("  throughput : {:.2} Mops/s", m.mops());
    println!("  median lat : {:.1} us", m.median_us());
    println!("  p99 lat    : {:.1} us", m.quantile_us(0.99));
    println!("  max lat    : {:.1} us", m.max_us());
    let t = &sim.logic(0).transport;
    println!("  rotations  : {}", t.rotations());
    println!("  warmup RDMA reads      : {}", t.warmup_fetches);
    println!("  explicit ctx notifies  : {}", t.ctx_notifies);
    println!("  scan-found requests    : {}", t.scan_requests);
    println!("  direct-write requests  : {}", t.direct_requests);
}
