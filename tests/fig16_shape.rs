//! Fig. 16 shape regression: the asynchronous multi-outstanding
//! coordinator closes the paper's headline transaction result.
//!
//! With the default window (W = 4) ScaleTX must beat every baseline at
//! 160 coordinators on both write-bearing workloads — the paper's
//! §6.4 claim. With W = 1 (the seed's synchronous coordinator) the UD
//! systems must stay ahead, reproducing the pre-window ordering: the
//! gap was a duty-cycle artifact of single-outstanding coordinators,
//! not a property of the protocol.
//!
//! Runs are miniatures of the `fig16` bench cells (1 ms warmup, 3 ms
//! window, reduced key counts) — large enough that the orderings above
//! are stable, small enough for CI.

use scalerpc_bench::rpcbench::{run_tx, TransportKind};
use scalerpc_repro::scaletx::{TxConfig, TxWorkload};
use scalerpc_repro::simcore::SimDuration;

const COORDINATORS: usize = 160;

fn r3w1() -> (TxWorkload, u64, usize) {
    (
        TxWorkload::ObjectStore {
            reads: 3,
            writes: 1,
            keys_per_server: 10_000,
            servers: 3,
        },
        10_000,
        40,
    )
}

fn smallbank() -> (TxWorkload, u64, usize) {
    (TxWorkload::smallbank(20_000, 3), 20_000 * 2 * 3 / 3 + 2, 8)
}

fn cfg(
    workload: TxWorkload,
    keys: u64,
    value_size: usize,
    one_sided: bool,
    window: usize,
) -> TxConfig {
    TxConfig {
        coordinators: COORDINATORS,
        servers: 3,
        client_machines: 8,
        workload,
        one_sided,
        value_size,
        keys_per_server: keys,
        initial_balance: 1_000,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(3),
        coord_cpu_mult: 8,
        window,
        seed: 31,
    }
}

/// The figure's own runner on one cell: `kind` under the transaction
/// layer, validation and commit one-sided or not.
fn tps(
    workload: &(TxWorkload, u64, usize),
    kind: TransportKind,
    one_sided: bool,
    window: usize,
) -> f64 {
    let (w, keys, vs) = workload.clone();
    run_tx(kind, cfg(w, keys, vs, one_sided, window))
        .metrics
        .tps()
}

/// The UD and RawWrite baselines; RawWrite alone validates and commits
/// one-sided, as in `fig16`.
const BASELINES: [(TransportKind, bool); 3] = [
    (TransportKind::RawWrite, true),
    (TransportKind::Herd, false),
    (TransportKind::Fasst, false),
];

/// The least lead ScaleTX must keep at W = 4 over ScaleTX-O, RawWrite,
/// HERD and FaSST (fractions of their tx/s), on r3w1 then SmallBank:
/// about half of what these cells read (r3w1 +11 / +16 / +32 / +32 %,
/// SmallBank +12 / +47 / +25 / +25 %, seed 31). The paper's margins are
/// larger (EXPERIMENTS.md), so the floors bound that deviation one-sided:
/// the margins may grow toward the paper's but not silently shrink.
const MARGIN_FLOORS: [[f64; 4]; 2] = [[0.05, 0.08, 0.16, 0.16], [0.06, 0.23, 0.12, 0.12]];

/// Fig. 16 at 160 coordinators with the default window: ScaleTX beats
/// RawWrite, HERD, FaSST and its own RPC-only ablation on read-write
/// and SmallBank, each by at least its floor in [`MARGIN_FLOORS`].
#[test]
fn default_window_scaletx_beats_every_baseline_at_160() {
    let window = TxConfig::default().window;
    assert!(window > 1, "default TxConfig window must be asynchronous");
    for ((name, wl), floors) in [("r3w1", r3w1()), ("smallbank", smallbank())]
        .into_iter()
        .zip(MARGIN_FLOORS)
    {
        let scaletx = tps(&wl, TransportKind::ScaleRpc, true, window);
        let margins: Vec<_> = [("ScaleTX-O", TransportKind::ScaleRpc, false)]
            .into_iter()
            .chain(BASELINES.map(|(kind, one_sided)| (kind.name(), kind, one_sided)))
            .map(|(label, kind, one_sided)| {
                let tx = tps(&wl, kind, one_sided, window);
                (label, tx, scaletx / tx - 1.0)
            })
            .collect();
        let cells = margins
            .iter()
            .map(|(label, tx, m)| format!("{label} {tx:.0} ({:+.1} %)", 100.0 * m))
            .collect::<Vec<_>>()
            .join(", ");
        let cells = format!("{name} at W={window}: ScaleTX {scaletx:.0} tx/s, {cells}");
        println!("{cells}");
        for ((label, _, margin), floor) in margins.iter().zip(floors) {
            assert!(
                *margin >= floor,
                "{name}: ScaleTX must lead {label} by ≥ {:.0} %: {cells}",
                100.0 * floor
            );
        }
    }
}

/// The same cells with W = 1 reproduce the seed's ordering: the
/// synchronous coordinator idles out the slices where its group is not
/// served, and every UD baseline stays ahead of ScaleTX.
#[test]
fn window_one_reproduces_the_seed_ordering() {
    for (name, wl) in [("r3w1", r3w1()), ("smallbank", smallbank())] {
        let scaletx = tps(&wl, TransportKind::ScaleRpc, true, 1);
        assert!(scaletx > 0.0, "{name}: W=1 ScaleTX did no work");
        for (kind, one_sided) in BASELINES {
            let base = tps(&wl, kind, one_sided, 1);
            assert!(
                base > scaletx,
                "{name}: {} {base:.0} <= ScaleTX {scaletx:.0} tx/s at W=1 \
                 — the duty-cycle deviation should only close with the window open",
                kind.name()
            );
        }
    }
}
