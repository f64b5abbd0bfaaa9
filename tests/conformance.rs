//! Conformance to the paper's figure shapes: the relations a figure
//! shows, asserted on the simulated cells that draw it, with bands taken
//! from the paper rather than from the simulator's current numbers.
//!
//! Fig. 8 (left, batch 1): as clients grow from 40 to 400, ScaleRPC
//! holds its throughput while RawWrite collapses — the NIC's QP cache
//! thrashes for RawWrite, and ScaleRPC's connection grouping keeps the
//! active set inside it. Fig. 10 reads the server's PCIe counters on
//! the same cells, Fig. 9 the latency distribution at 120 clients;
//! FaSST holds from 120 clients on, and HERD, which the paper has sag,
//! must at least not rise.
//! Fig. 8 (right) spreads 40 clients over 1–5 machines: the UD RPCs
//! need ≥ 4 to saturate the server. Fig. 11 sweeps ScaleRPC's time slice
//! and group size, Fig. 12 its dynamic scheduling, and Fig. 13 runs
//! Octopus' metadata server over it. Fig. 1(b) and Fig. 3(b) are the
//! raw-verb measurements that motivate it all: the QP-cache collapse of
//! outbound writes, and the LLC overflow of large inbound blocks.

use scalerpc_bench::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind};
use scalerpc_bench::rpcbench::{
    run_mdtest, run_rpc, MdtestRun, RpcRunConfig, RpcRunResult, TransportKind,
};
use scalerpc_repro::octofs::FsOp;
use scalerpc_repro::rpc_core::workload::ThinkTime;
use scalerpc_repro::scalerpc::ScaleRpcConfig;
use scalerpc_repro::simcore::{DetRng, SimDuration};

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

/// Fig. 8 (left, batch 1): FaSST holds its throughput from 120 to 400
/// clients — UD needs no per-client connection state — and HERD must not
/// rise. At 40 both are bound by the clients' CPU (the cell is Fig. 8
/// right's five-machine one), so the flat range starts at 120. The paper
/// has HERD sag at high counts; the simulated one stays flat (its 12.8 MB
/// request pool still fits the LLC; EXPERIMENTS.md), so its bound is
/// one-sided on that deviation: it may sag toward the paper but not climb.
#[test]
fn fig08_fasst_holds_and_herd_does_not_rise() {
    let fasst = [120, 400].map(|c| fig08_cell(TransportKind::Fasst, c).mops);
    let herd = [120, 400].map(|c| fig08_cell(TransportKind::Herd, c).mops);
    let cells = format!("FaSST {fasst:.2?} HERD {herd:.2?} Mops/s at 120 and 400 clients");
    assert!(
        (0.9..=1.1).contains(&(fasst[1] / fasst[0])),
        "FaSST must hold within ±10 %: {cells}"
    );
    assert!(herd[1] <= 1.05 * herd[0], "HERD must not rise: {cells}");
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

/// The Fig. 8 (right, batch 8) cell for `kind`: 40 client threads
/// spread over `machines` client machines.
fn fig08_machines_cell(kind: TransportKind, machines: usize) -> f64 {
    run_rpc(RpcRunConfig {
        kind,
        clients: 40,
        machines,
        threads_per_machine: 40usize.div_ceil(machines),
        batch: 8,
        ..Default::default()
    })
    .mops
}

/// Fig. 8 (right, batch 8): RawWrite saturates the server from one
/// client machine, while the UD RPCs' per-op client CPU caps them until
/// ≥ 4 machines share the load. The paper has ScaleRPC saturate with ≤ 2
/// machines too; the simulated one reaches 0.73× its 5-machine
/// throughput at 2 (EXPERIMENTS.md), so its bound is one-sided on that
/// deviation.
#[test]
fn fig08_right_ud_rpcs_need_four_machines() {
    let raw = [1, 5].map(|m| fig08_machines_cell(TransportKind::RawWrite, m));
    let [herd, fasst] = [TransportKind::Herd, TransportKind::Fasst]
        .map(|k| [1, 4, 5].map(|m| fig08_machines_cell(k, m)));
    let scale = [2, 5].map(|m| fig08_machines_cell(TransportKind::ScaleRpc, m));
    let cells = format!(
        "Mops/s: RawWrite {raw:.2?} at 1/5 machines, HERD {herd:.2?} and FaSST {fasst:.2?} at 1/4/5, \
         ScaleRPC {scale:.2?} at 2/5"
    );
    assert!(
        raw[0] >= 0.9 * raw[1],
        "RawWrite must saturate on one machine: {cells}"
    );
    for (name, [one, four, five]) in [("HERD", herd), ("FaSST", fasst)] {
        assert!(
            one <= 0.5 * five,
            "{name} must be client-bound on one machine: {cells}"
        );
        assert!(
            four >= 0.9 * five,
            "{name} must saturate at four machines: {cells}"
        );
    }
    assert!(
        scale[0] >= 0.7 * scale[1],
        "ScaleRPC must near saturation at two machines: {cells}"
    );
}

/// The Fig. 11(a) cell: 80 clients, batch 1, in groups of 40 with a
/// `slice_us` time slice.
fn fig11a_cell(slice_us: u64) -> RpcRunResult {
    run_rpc(RpcRunConfig {
        scale: ScaleRpcConfig {
            time_slice: SimDuration::micros(slice_us),
            ..Default::default()
        },
        clients: 80,
        batch: 1,
        ..Default::default()
    })
}

/// Fig. 11(a): a longer time slice amortizes the group switch — 250 µs
/// beats 30 µs, with diminishing returns past 100 µs (the paper's
/// default) — and inflates the worst wait for a group's turn.
#[test]
fn fig11a_longer_slices_raise_throughput_and_the_tail() {
    let [s30, s100, s250] = [30, 100, 250].map(fig11a_cell);
    let cells = format!(
        "Mops/s {:.2} / {:.2} / {:.2}, max latency {:.1} / {:.1} / {:.1} µs at 30 / 100 / 250 µs slices",
        s30.mops, s100.mops, s250.mops, s30.max_us, s100.max_us, s250.max_us
    );
    assert!(
        s250.mops >= 1.1 * s30.mops,
        "longer slices must pay: {cells}"
    );
    assert!(
        s100.mops >= 0.9 * s250.mops,
        "100 µs must be near the plateau: {cells}"
    );
    assert!(
        s250.max_us >= 1.5 * s100.max_us,
        "longer slices must stretch the tail: {cells}"
    );
}

/// Fig. 11(b): two groups of `g` clients at batch 8. Small groups pay
/// the switch too often; the optimum is an interior plateau around 40,
/// and 70 does no better (serving and warming QPs overflow the NIC
/// cache).
#[test]
fn fig11b_group_size_has_an_interior_optimum() {
    let [g10, g40, g70] = [10, 40, 70].map(|g| {
        run_rpc(RpcRunConfig {
            scale: ScaleRpcConfig {
                group_size: g,
                ..Default::default()
            },
            clients: 2 * g,
            batch: 8,
            ..Default::default()
        })
        .mops
    });
    let cells = format!("Mops/s {g10:.2} / {g40:.2} / {g70:.2} at groups 10 / 40 / 70");
    assert!(g40 >= 1.1 * g10, "group 40 must beat group 10: {cells}");
    assert!(g70 <= g40, "group 70 must not beat group 40: {cells}");
}

/// Fig. 12: 120 clients whose think times follow a Gaussian mix of
/// spread `sigma`, under static or dynamic (priority) scheduling.
fn fig12_cell(sigma: f64, dynamic: bool) -> f64 {
    let mut rng = DetRng::new(99);
    let think = ThinkTime::gaussian_mix(120, SimDuration::micros(150), sigma, &mut rng);
    run_rpc(RpcRunConfig {
        scale: ScaleRpcConfig {
            dynamic_scheduling: dynamic,
            regroup_rotations: 2,
            ..Default::default()
        },
        clients: 120,
        batch: 4,
        think,
        run: SimDuration::millis(10),
        ..Default::default()
    })
    .mops
}

/// Fig. 12: regrouping busy clients together beats the static schedule
/// (the paper: +9 % / +10 % at σ 0.8 / 1.0). The simulated gain
/// overshoots (+55 % / +45 %, EXPERIMENTS.md); the upper bounds keep that
/// deviation from growing unseen.
#[test]
fn fig12_dynamic_scheduling_beats_static() {
    for (sigma, most) in [(0.8, 1.60), (1.0, 1.50)] {
        let [st, dy] = [false, true].map(|dynamic| fig12_cell(sigma, dynamic));
        let cells = format!("σ {sigma}: static {st:.2}, dynamic {dy:.2} Mops/s");
        assert!(dy >= 1.05 * st, "dynamic must win: {cells}");
        assert!(
            dy <= most * st,
            "the overshoot must not grow past {most}×: {cells}"
        );
    }
}

/// Fig. 13, mdtest at 120 clients: ScaleRPC's gain over selfRPC on
/// Octopus' metadata server splits by operation. Mknod and Rmnod are
/// bound by the server's software path and gain little; Stat and
/// ReadDir are bound by the transport and gain much (the paper: +50 % and
/// +90 %). ReadDir's simulated +22 % is the deviation its floor bounds.
#[test]
fn fig13_reads_gain_while_writes_hold() {
    let gain = |op| {
        let [selfrpc, scale] = [TransportKind::SelfRpc, TransportKind::ScaleRpc].map(|transport| {
            run_mdtest(&MdtestRun {
                clients: 120,
                op,
                transport,
                ..Default::default()
            })
            .ops_per_sec
        });
        scale / selfrpc
    };
    let [mknod, rmnod, stat, readdir] =
        [FsOp::Mknod, FsOp::Rmnod, FsOp::Stat, FsOp::Readdir].map(gain);
    let cells = format!(
        "ScaleRPC / selfRPC: Mknod {mknod:.3}, Rmnod {rmnod:.3}, Stat {stat:.3}, ReadDir {readdir:.3}"
    );
    for (name, g) in [("Mknod", mknod), ("Rmnod", rmnod)] {
        assert!((0.95..=1.15).contains(&g), "{name} must hold: {cells}");
    }
    for (name, g) in [("Stat", stat), ("ReadDir", readdir)] {
        assert!(g >= 1.15, "{name} must gain: {cells}");
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
