//! Conformance to the paper's figure shapes: the relations a figure
//! shows, asserted on the simulated cells that draw it, with bands taken
//! from the paper rather than from the simulator's current numbers.
//!
//! Fig. 8 (left, batch 1): as clients grow from 40 to 400, ScaleRPC
//! holds its throughput while RawWrite collapses — the NIC's QP cache
//! thrashes for RawWrite, and ScaleRPC's connection grouping keeps the
//! active set inside it. Fig. 10 reads the server's PCIe counters on
//! the same cells, Fig. 9 the latency distribution at 120 clients.
//! Fig. 1(b) and Fig. 3(b) are the raw-verb measurements that motivate
//! it: the QP-cache collapse of outbound writes, and the LLC overflow of
//! large inbound blocks.

use scalerpc_bench::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind};
use scalerpc_bench::rpcbench::{run_rpc, RpcRunConfig, RpcRunResult, TransportKind};

/// The Fig. 8 batch-1 cell for `kind` at `clients` (Fig. 9 and Fig. 10
/// run the same configuration).
fn fig08_cell(kind: TransportKind, clients: usize) -> RpcRunResult {
    run_rpc(RpcRunConfig {
        kind,
        clients,
        batch: 1,
        ..Default::default()
    })
}

#[test]
fn fig08_scalerpc_holds_while_rawwrite_collapses() {
    let scale = [40, 400].map(|c| fig08_cell(TransportKind::ScaleRpc, c).mops);
    let raw = [40, 400].map(|c| fig08_cell(TransportKind::RawWrite, c).mops);
    let cells = format!("ScaleRPC {scale:?} RawWrite {raw:?} Mops/s at 40 and 400 clients");
    assert!(scale[1] >= 0.75 * scale[0], "ScaleRPC must hold: {cells}");
    assert!(raw[1] <= 0.3 * raw[0], "RawWrite must collapse: {cells}");
    assert!(
        scale[1] >= 3.0 * raw[1],
        "ScaleRPC must lead at 400: {cells}"
    );
}

/// Fig. 10, on Fig. 8's cells: past 40 clients RawWrite's server reads
/// far more over PCIe (`PCIeRdCur`) than it completes — the QP contexts
/// its NIC cache misses are fetched from host memory — while ScaleRPC's
/// reads track its throughput at 40 and at 400 clients.
#[test]
fn fig10_rawwrite_reads_spike_while_scalerpc_tracks_throughput() {
    let ratio = |kind, clients| {
        let r = fig08_cell(kind, clients);
        r.pcie_rd_mops / r.mops
    };
    let raw = [40, 400].map(|c| ratio(TransportKind::RawWrite, c));
    let scale = [40, 400].map(|c| ratio(TransportKind::ScaleRpc, c));
    let cells = format!(
        "PCIeRdCur / throughput: RawWrite {raw:.2?} ScaleRPC {scale:.2?} at 40 and 400 clients"
    );
    assert!(raw[0] <= 1.2, "RawWrite reads 1:1 at 40: {cells}");
    assert!(raw[1] >= 2.0, "RawWrite reads must spike at 400: {cells}");
    assert!(
        scale.iter().all(|&r| r <= 1.5),
        "ScaleRPC reads must track throughput: {cells}"
    );
}

/// Fig. 9, batch 1 at 120 clients: ScaleRPC is bimodal — most requests
/// finish well under the baselines' medians, the rest wait out a group
/// rotation, a slice-bounded tail — while RawWrite, HERD and FaSST are
/// unimodal (the paper: ~4 µs for ScaleRPC against 10–19 µs).
#[test]
fn fig09_scalerpc_is_bimodal_while_baselines_are_unimodal() {
    // FIG8 lists ScaleRPC first, then the three baselines.
    let [scale, baselines @ ..] =
        TransportKind::FIG8.map(|kind| (kind.name(), fig08_cell(kind, 120)));
    let (p50, p99) = (scale.1.median_us, scale.1.p99_us);
    let others: Vec<_> = baselines
        .iter()
        .map(|(name, r)| format!("{name} {:.2}/{:.2}", r.median_us, r.p99_us))
        .collect();
    let cells = format!(
        "median/p99 µs: ScaleRPC {p50:.2}/{p99:.2}, {}",
        others.join(", ")
    );
    let lowest = baselines
        .iter()
        .map(|(_, r)| r.median_us)
        .fold(f64::INFINITY, f64::min);
    assert!(p50 <= 0.5 * lowest, "ScaleRPC's median must lead: {cells}");
    assert!(
        p99 >= 10.0 * p50,
        "ScaleRPC must have its slice tail: {cells}"
    );
    for (name, r) in &baselines {
        assert!(
            r.p99_us <= 1.5 * r.median_us,
            "{name} must be unimodal: {cells}"
        );
    }
}

/// The Fig. 1(b) cell of `kind` at `clients`: 32-byte messages into
/// message-sized pool blocks, as the figure's client sweep runs them.
fn fig01b_cell(kind: RawVerbKind, clients: usize) -> f64 {
    run_raw_verbs(RawVerbConfig {
        kind,
        clients,
        block_size: 64,
        ..Default::default()
    })
    .mops
}

/// Fig. 1(b): from 40 to 800 clients, outbound RC writes collapse (the
/// server's NIC thrashes its QP cache, ~20 → ~2 Mops/s in the paper),
/// UD sends stay flat, and inbound RC writes hold. The inbound bound is
/// one-sided: the simulated curve sags about 12 % by 800 clients where
/// the paper's stays flat (EXPERIMENTS.md).
#[test]
fn fig01b_outbound_collapses_while_ud_and_inbound_hold() {
    let [out, ud, inb] = [
        RawVerbKind::OutboundWrite,
        RawVerbKind::UdSend,
        RawVerbKind::InboundWrite,
    ]
    .map(|kind| [40, 800].map(|c| fig01b_cell(kind, c)));
    let cells = format!("outbound {out:?} UD {ud:?} inbound {inb:?} Mops/s at 40 and 800 clients");
    assert!(out[1] <= 0.2 * out[0], "outbound must collapse: {cells}");
    assert!(
        (ud[1] - ud[0]).abs() <= 0.1 * ud[0],
        "UD must stay flat: {cells}"
    );
    assert!(inb[1] >= 0.85 * inb[0], "inbound must hold: {cells}");
}

/// Fig. 3(b): at 400 clients × 20 blocks, inbound RC writes into 8 KB
/// blocks overflow the LLC: the server's CPU misses on most of what the
/// NIC wrote, and throughput falls to well under half of the 128 B
/// cell's, where the pool fits and nearly nothing misses.
#[test]
fn fig03b_large_blocks_overflow_the_llc() {
    let [small, large] = [128, 8192].map(|block_size| {
        run_raw_verbs(RawVerbConfig {
            kind: RawVerbKind::InboundWrite,
            clients: 400,
            block_size,
            ..Default::default()
        })
    });
    let cells = format!(
        "128 B: {:.2} Mops/s, L3 miss {:.2}; 8 KB: {:.2} Mops/s, L3 miss {:.2}",
        small.mops, small.l3_miss_rate, large.mops, large.l3_miss_rate
    );
    assert!(
        large.mops <= 0.5 * small.mops,
        "throughput must fall: {cells}"
    );
    assert!(small.l3_miss_rate <= 0.1, "128 B must fit the LLC: {cells}");
    assert!(large.l3_miss_rate >= 0.5, "8 KB must overflow it: {cells}");
}
