//! Regression test for the per-op report nondeterminism that the
//! `disallowed-types` ban in `clippy.toml` keeps from coming back.
//!
//! `MdsHandler.completed` used to be a `std::collections::HashMap`,
//! whose `RandomState` is seeded per *instance*: two handlers serving
//! the same workload in the same process produced per-op reports in
//! different orders, and the same run produced different report text
//! process-to-process. The field is now a `BTreeMap`, so the report is
//! a pure function of the completed-op multiset.

use octofs::handler::MdsHandler;
use octofs::proto::{FsOp, FsRequest};
use rpc_core::transport::ServerHandler;
use simcore::DetRng;

/// Builds the request stream for one simulated run: every client
/// creates, stats, lists, and removes its files, with the interleaving
/// across clients shuffled by `seed` (standing in for the arrival-order
/// differences two differently-seeded harness runs produce).
fn run_with_arrival_order(seed: u64) -> MdsHandler {
    let mut requests = Vec::new();
    for client in 0..8usize {
        for file in 0..16u64 {
            let path = format!("/c{client}/f{file}");
            requests.push(FsRequest {
                op: FsOp::Mknod,
                path: path.clone(),
            });
            requests.push(FsRequest {
                op: FsOp::Stat,
                path: path.clone(),
            });
            requests.push(FsRequest {
                op: FsOp::Readdir,
                path: format!("/c{client}"),
            });
            requests.push(FsRequest {
                op: FsOp::Rmnod,
                path,
            });
        }
    }
    // Shuffle only the *order in which clients appear*, keeping each
    // path's Mknod → Stat/Readdir → Rmnod dependency intact, by sorting
    // on a seeded per-client key.
    let mut rng = DetRng::new(seed);
    let mut client_keys: Vec<u64> = (0..8).map(|_| rng.below(u64::MAX)).collect();
    client_keys.dedup();
    let mut order: Vec<usize> = (0..8).collect();
    order.sort_by_key(|&c| client_keys[c % client_keys.len()]);

    let mut handler = MdsHandler::new();
    let mut fabric = rdma_fabric::Fabric::new(rdma_fabric::FabricParams::default());
    let per_client = requests.len() / 8;
    for &client in &order {
        for req in &requests[client * per_client..(client + 1) * per_client] {
            handler.handle(client, &req.encode(), &mut fabric);
        }
    }
    handler
}

#[test]
fn report_identical_across_differently_seeded_runs() {
    let a = run_with_arrival_order(17);
    let b = run_with_arrival_order(9999);
    // Same completed-op multiset…
    assert_eq!(a.failures, 0);
    assert_eq!(b.failures, 0);
    // …must yield byte-identical reports, independent of arrival order
    // and of each handler's identity. With the pre-fix HashMap the
    // *entry order* of the two reports disagreed with high probability.
    assert_eq!(a.op_report(), b.op_report());
    assert_eq!(a.report_line(), b.report_line());
    // And the order is the paper's figure order, pinned.
    let ops: Vec<FsOp> = a.op_report().iter().map(|&(op, _)| op).collect();
    assert_eq!(
        ops,
        vec![FsOp::Mknod, FsOp::Rmnod, FsOp::Stat, FsOp::Readdir]
    );
    assert_eq!(a.report_line(), "Mknod=128 Rmnod=128 Stat=128 ReadDir=128");
}

#[test]
fn report_is_pure_function_of_counts() {
    // Two handlers fed the same ops in reversed global order (a stronger
    // scramble than the seeded interleave above).
    let mut fwd = MdsHandler::new();
    let mut rev = MdsHandler::new();
    let mut fabric = rdma_fabric::Fabric::new(rdma_fabric::FabricParams::default());
    let mut reqs = Vec::new();
    for f in 0..32u64 {
        reqs.push(FsRequest {
            op: FsOp::Mknod,
            path: format!("/c0/f{f}"),
        });
    }
    for f in 0..32u64 {
        reqs.push(FsRequest {
            op: FsOp::Stat,
            path: format!("/c0/f{f}"),
        });
    }
    for r in &reqs {
        fwd.handle(0, &r.encode(), &mut fabric);
    }
    // Reversed: all Stats fail (files not yet created)? No — reverse
    // only within each op block so every Stat still follows its Mknod.
    for r in reqs[..32].iter().rev().chain(reqs[32..].iter().rev()) {
        rev.handle(0, &r.encode(), &mut fabric);
    }
    assert_eq!(fwd.failures, 0);
    assert_eq!(rev.failures, 0);
    assert_eq!(fwd.op_report(), rev.op_report());
    assert_eq!(fwd.report_line(), "Mknod=32 Stat=32");
}
