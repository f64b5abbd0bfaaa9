//! Conformance to the paper's figure shapes: the relations a figure
//! shows, asserted on the simulated cells that draw it, with bands taken
//! from the paper rather than from the simulator's current numbers.
//!
//! Fig. 8 (left, batch 1): as clients grow from 40 to 400, ScaleRPC
//! holds its throughput while RawWrite collapses — the NIC's QP cache
//! thrashes for RawWrite, and ScaleRPC's connection grouping keeps the
//! active set inside it.

use scalerpc_bench::rpcbench::{run_rpc, RpcRunConfig, TransportKind};

/// Mops/s of the Fig. 8 batch-1 cell for `kind` at `clients`.
fn fig08_cell(kind: TransportKind, clients: usize) -> f64 {
    run_rpc(RpcRunConfig {
        kind,
        clients,
        batch: 1,
        ..Default::default()
    })
    .mops
}

#[test]
fn fig08_scalerpc_holds_while_rawwrite_collapses() {
    let scale = [40, 400].map(|c| fig08_cell(TransportKind::ScaleRpc, c));
    let raw = [40, 400].map(|c| fig08_cell(TransportKind::RawWrite, c));
    let cells = format!("ScaleRPC {scale:?} RawWrite {raw:?} Mops/s at 40 and 400 clients");
    assert!(scale[1] >= 0.75 * scale[0], "ScaleRPC must hold: {cells}");
    assert!(raw[1] <= 0.3 * raw[0], "RawWrite must collapse: {cells}");
    assert!(
        scale[1] >= 3.0 * raw[1],
        "ScaleRPC must lead at 400: {cells}"
    );
}
