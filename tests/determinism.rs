//! Golden determinism regression: the simulator must produce
//! bit-identical results run-to-run *and* match the frozen golden
//! values captured from the seed implementation.
//!
//! The three configurations exercise every hot-path data structure that
//! the performance overhaul rewrote — the indexed event queue, the
//! random-replacement cache models (the address-indexed LLC/DDIO line
//! index and the open-addressed `RandomSet` of the NIC cache), and the
//! vector-backed counter set — across both raw-verb experiments
//! (Fig. 1-style outbound, Fig. 3-style inbound) and a full ScaleRPC
//! transport run (Fig. 8-style). Any change to eviction order, event
//! ordering, or RNG draw sequence shows up here as a counter diff.

use scalerpc::ScaleRpcConfig;
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
        kind: TransportKind::ScaleRpc(ScaleRpcConfig::default()),
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
