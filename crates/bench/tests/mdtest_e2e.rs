//! End-to-end metadata benchmarks over real transports (miniature
//! versions of Fig. 1(a) and Fig. 13).

use octofs::FsOp;
use scalerpc_bench::rpcbench::{run_mdtest, MdtestRun, RpcRunResult, TransportKind};
use simcore::SimDuration;

fn quick(op: FsOp, transport: TransportKind, clients: usize) -> RpcRunResult {
    run_mdtest(&MdtestRun {
        clients,
        op,
        transport,
        files_per_dir: 32,
        // mdtest issues one metadata op at a time per client.
        batch: 1,
        run: SimDuration::millis(4),
        warmup: SimDuration::millis(2),
    })
}

#[test]
fn stat_round_trips_on_both_transports() {
    for t in [TransportKind::ScaleRpc, TransportKind::SelfRpc] {
        let r = quick(FsOp::Stat, t, 24);
        assert!(r.ops > 2_000, "{}: too few ops {}", t.name(), r.ops);
    }
}

#[test]
fn mknod_is_software_bound() {
    // Write-oriented metadata ops are dominated by file-system work, so
    // the transport barely matters (paper: 5–6.5% difference).
    let scale = quick(FsOp::Mknod, TransportKind::ScaleRpc, 120);
    let selfr = quick(FsOp::Mknod, TransportKind::SelfRpc, 120);
    let ratio = scale.ops_per_sec / selfr.ops_per_sec;
    assert!(
        (0.85..1.4).contains(&ratio),
        "Mknod should be nearly transport-independent: ratio={ratio:.2}"
    );
}

#[test]
fn stat_gains_from_scalerpc_at_scale() {
    // Read-oriented ops are network-bound: at 120 clients selfRPC's RC
    // responses thrash the NIC cache and ScaleRPC pulls far ahead
    // (paper: 50–90% on average over 80 and 120 clients).
    let scale = quick(FsOp::Stat, TransportKind::ScaleRpc, 120);
    let selfr = quick(FsOp::Stat, TransportKind::SelfRpc, 120);
    assert!(
        scale.ops_per_sec > selfr.ops_per_sec * 1.3,
        "ScaleRPC {} vs selfRPC {} ops/s",
        scale.ops_per_sec,
        selfr.ops_per_sec
    );
}

#[test]
fn selfrpc_stat_collapses_with_clients_fig1a() {
    // Fig. 1(a): Octopus' Stat throughput drops by ~half from 40 to 120
    // clients.
    let at40 = quick(FsOp::Stat, TransportKind::SelfRpc, 40);
    let at120 = quick(FsOp::Stat, TransportKind::SelfRpc, 120);
    assert!(
        at120.ops_per_sec < at40.ops_per_sec * 0.75,
        "expected a significant drop: 40cl={:.0} 120cl={:.0}",
        at40.ops_per_sec,
        at120.ops_per_sec
    );
}

#[test]
fn readdir_returns_entries() {
    let r = quick(FsOp::Readdir, TransportKind::ScaleRpc, 24);
    assert!(r.ops > 1_000, "too few ops: {}", r.ops);
}

#[test]
fn rmnod_completes() {
    let r = quick(FsOp::Rmnod, TransportKind::ScaleRpc, 16);
    assert!(r.ops > 500, "too few ops: {}", r.ops);
}
