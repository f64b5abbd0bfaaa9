//! Golden determinism regression: the simulator must produce
//! bit-identical results run-to-run *and* match the frozen golden
//! values captured from the seed implementation.
//!
//! The three configurations exercise every hot-path data structure that
//! the performance overhaul rewrote — the indexed event queue, the
//! random-replacement cache models (the address-indexed LLC/DDIO line
//! index and the `QpId`-indexed NIC cache), and the
//! vector-backed counter set — across both raw-verb experiments
//! (Fig. 1-style outbound, Fig. 3-style inbound) and a full ScaleRPC
//! transport run (Fig. 8-style). Any change to eviction order, event
//! ordering, or RNG draw sequence shows up here as a counter diff.

use scalerpc_bench::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind};
use scalerpc_bench::rpcbench::{run_rpc, RpcRunConfig, TransportKind};
use simcore::SimDuration;

/// Formats the full counter set of one sweep as a single comparable
/// line (exact `{}` formatting, so float comparisons are bit-exact).
fn sweep_fingerprint() -> String {
    let a = run_raw_verbs(RawVerbConfig {
        kind: RawVerbKind::OutboundWrite,
        clients: 50,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(1),
        ..Default::default()
    });
    let b = run_raw_verbs(RawVerbConfig {
        kind: RawVerbKind::InboundWrite,
        clients: 200,
        block_size: 8192,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(1),
        ..Default::default()
    });
    let c = run_rpc(RpcRunConfig {
        kind: TransportKind::ScaleRpc,
        clients: 80,
        batch: 4,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(2),
        ..Default::default()
    });
    format!(
        "outbound50: ops={} events={} pcie_rd={} pcie_itom={} l3={}\n\
         inbound200: ops={} events={} pcie_rd={} pcie_itom={} l3={}\n\
         scalerpc80: ops={} events={} mops={} median_us={}",
        a.ops,
        a.events,
        a.pcie_rd,
        a.pcie_itom,
        a.l3_miss_rate,
        b.ops,
        b.events,
        b.pcie_rd,
        b.pcie_itom,
        b.l3_miss_rate,
        c.ops,
        c.events,
        c.mops,
        c.median_us,
    )
}

/// Golden values captured from the pre-overhaul seed implementation
/// (BinaryHeap event queue, HashMap-backed random caches) and verified
/// unchanged by the indexed-heap / open-addressing rewrite.
const GOLDEN: &str = "outbound50: ops=17241 events=136461 pcie_rd=17243 pcie_itom=0 l3=0\n\
     inbound200: ops=22573 events=164833 pcie_rd=0 pcie_itom=4898 l3=0.2574714887880863\n\
     scalerpc80: ops=21972 events=301075 mops=10.986 median_us=14.591";

#[test]
fn golden_sweep_is_deterministic_and_matches_seed() {
    let first = sweep_fingerprint();
    let second = sweep_fingerprint();
    assert_eq!(first, second, "same config must be byte-identical per run");
    assert_eq!(first, GOLDEN, "counters drifted from the frozen goldens");
}

fn raw_row(cfg: RawVerbConfig) -> (u64, u64) {
    let r = run_raw_verbs(cfg);
    (r.events, r.ops)
}

fn rpc_row(cfg: RpcRunConfig) -> (u64, u64) {
    let r = run_rpc(cfg);
    (r.events, r.ops)
}

/// The five full-window hub runs whose `(events, ops)` every hot-path PR
/// since the timing wheel (PR 15) has reproduced: Fig. 1(b)'s NIC-cache
/// thrash, Fig. 3(b)'s LLC overflow, and ScaleRPC batched, RawWrite and
/// ScaleRPC windowed at Fig. 8's 400 clients.
///
/// Housekeeping rule: a red row means the simulated trace moved. A PR
/// that moves one says why in its first paragraph, or it has a bug; the
/// values are never re-captured to make a refactor pass.
#[test]
fn full_window_hub_rows_reproduce_their_events_and_ops() {
    let scalerpc_400c = |batch, window| RpcRunConfig {
        kind: TransportKind::ScaleRpc,
        clients: 400,
        batch,
        window,
        warmup: SimDuration::millis(2),
        run: SimDuration::millis(6),
        ..Default::default()
    };
    let rows = [
        (
            "fig01b_outbound_800c",
            raw_row(RawVerbConfig {
                kind: RawVerbKind::OutboundWrite,
                clients: 800,
                warmup: SimDuration::millis(1),
                run: SimDuration::millis(4),
                ..Default::default()
            }),
            (38_813, 7_724),
        ),
        (
            "fig03b_inbound_8k_400c",
            raw_row(RawVerbConfig {
                kind: RawVerbKind::InboundWrite,
                clients: 400,
                block_size: 8192,
                warmup: SimDuration::millis(1),
                run: SimDuration::millis(4),
                ..Default::default()
            }),
            (231_277, 45_601),
        ),
        (
            "fig08_scalerpc_400c_b8",
            rpc_row(scalerpc_400c(8, 1)),
            (652_653, 58_056),
        ),
        (
            "fig08_rawwrite_400c_b1",
            rpc_row(RpcRunConfig {
                kind: TransportKind::RawWrite,
                clients: 400,
                batch: 1,
                warmup: SimDuration::millis(2),
                run: SimDuration::millis(6),
                ..Default::default()
            }),
            (176_605, 11_751),
        ),
        (
            "fig08_scalerpc_400c_w4",
            rpc_row(scalerpc_400c(1, 4)),
            (384_257, 21_641),
        ),
    ];
    for (name, got, want) in rows {
        assert_eq!(got, want, "{name}: (events, ops) moved");
    }
}
