//! One function per paper table/figure.
//!
//! Each function prints the same rows/series the paper reports and saves
//! a CSV under `target/figures/`. Absolute values are simulated; see
//! `EXPERIMENTS.md` for the paper-vs-measured shape record. A sweep is a
//! [`grid`] of points, so each table reads its rows straight from it.

use crate::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind, RawVerbResult};
use crate::report::{mops, us, Table};
use crate::rpcbench::{run_mdtest, run_rpc, run_tx, MdtestRun, RpcRunConfig, TransportKind};
use crate::runner::{full_sweeps, grid, parallel_map};
use octofs::FsOp;
use rpc_baselines::UdChunk;
use rpc_core::workload::ThinkTime;
use scalerpc::ScaleRpcConfig;
use scaletx::workload::TxWorkload;
use scaletx::{TxConfig, TxMetrics};
use simcore::{DetRng, SimDuration};

fn client_counts() -> Vec<usize> {
    if full_sweeps() {
        vec![40, 80, 120, 160, 200, 240, 320, 400]
    } else {
        vec![40, 120, 240, 400]
    }
}

/// Table 1: verbs and MTU per transport mode (validated against the
/// fabric's capability checks).
pub fn table1() {
    use rdma_fabric::Transport::{Rc, Uc, Ud};
    let mut t = Table::new(
        "Table 1: RDMA verbs and MTU sizes in different modes",
        &["mode", "send/recv", "write/imm", "read/atomic", "MTU"],
    );
    for (m, mtu) in [(Rc, "2 GB"), (Uc, "2 GB"), (Ud, "4 KB")] {
        t.row(vec![
            m.name().to_string(),
            tick(m.supports_send()),
            tick(m.supports_write()),
            tick(m.supports_read_atomic()),
            mtu.to_string(),
        ]);
    }
    t.emit("table1");
}

fn tick(b: bool) -> String {
    if b { "yes" } else { "no" }.to_string()
}

/// A table row: `label`, then `cells`.
fn row_of(label: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Fig. 1(a): Octopus metadata throughput over self-identified RPC as
/// clients grow — the motivating collapse.
pub fn fig01a() {
    let clients = [40usize, 80, 120];
    let kops = grid(&clients, &FsOp::all(), |&clients, &op| {
        let r = run_mdtest(&MdtestRun {
            clients,
            op,
            transport: TransportKind::SelfRpc,
            ..Default::default()
        });
        r.ops_per_sec / 1e3
    });
    let mut t = Table::new(
        "Fig 1(a): Octopus metadata throughput (selfRPC), Kops/s",
        &["clients", "Mknod", "Rmnod", "Stat", "ReadDir"],
    );
    for (c, row) in clients.iter().zip(kops) {
        t.row(row_of(c, row.iter().map(|v| format!("{v:.0}"))));
    }
    t.emit("fig01a");
}

/// Every raw verb `kind` at each client count, moving 32-byte messages
/// (the client sweeps of Fig. 1(b) and 3(a)).
fn raw_client_sweep(clients: &[usize], kinds: &[RawVerbKind]) -> Vec<Vec<RawVerbResult>> {
    grid(clients, kinds, |&clients, &kind| {
        run_raw_verbs(RawVerbConfig {
            kind,
            clients,
            // The client-count sweeps move 32-byte messages, so the
            // pool uses message-sized (line-granular) blocks — the
            // consuming CPU reads exactly what the NIC delivered.
            // The 4 KB default belongs to the Fig. 3(b) block-size
            // sweep; reading a 4 KB block per 32 B message inflated
            // the consumer's working set 64× and sagged the inbound
            // curve past 200 clients (EXPERIMENTS.md, Fig. 1(b)).
            block_size: 64,
            ..Default::default()
        })
    })
}

/// Fig. 1(b): raw verb throughput vs. number of clients.
pub fn fig01b() {
    let clients: Vec<usize> = if full_sweeps() {
        vec![10, 20, 40, 80, 150, 200, 400, 800]
    } else {
        vec![10, 40, 150, 400, 800]
    };
    let kinds = [
        RawVerbKind::OutboundWrite,
        RawVerbKind::InboundWrite,
        RawVerbKind::UdSend,
    ];
    let results = raw_client_sweep(&clients, &kinds);
    let mut t = Table::new(
        "Fig 1(b): raw RDMA verb throughput, Mops/s",
        &["clients", "outbound write", "inbound write", "UD send"],
    );
    for (c, row) in clients.iter().zip(results) {
        t.row(row_of(c, row.iter().map(|r| mops(r.mops))));
    }
    t.emit("fig01b");
}

/// Fig. 3(a): in/outbound RC write throughput and the PCIe read rate.
pub fn fig03a() {
    let clients: Vec<usize> = if full_sweeps() {
        vec![10, 20, 40, 80, 150, 200, 400, 800]
    } else {
        vec![10, 40, 150, 400]
    };
    let kinds = [RawVerbKind::OutboundWrite, RawVerbKind::InboundWrite];
    let results = raw_client_sweep(&clients, &kinds);
    let mut t = Table::new(
        "Fig 3(a): RC write throughput vs PCIe read rate, Mops/s",
        &[
            "clients",
            "outbound",
            "outbound PCIeRdCur",
            "inbound",
            "inbound PCIeRdCur",
        ],
    );
    for (c, row) in clients.iter().zip(results) {
        let cells = row.iter().flat_map(|r| [r.mops, r.pcie_rd_mops]);
        t.row(row_of(c, cells.map(mops)));
    }
    t.emit("fig03a");
}

/// Fig. 3(b): inbound RC write throughput and L3 miss rate vs message
/// block size (400 clients × 20 blocks).
pub fn fig03b() {
    let blocks: Vec<usize> = if full_sweeps() {
        vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384]
    } else {
        vec![128, 512, 2048, 8192]
    };
    let results = parallel_map(blocks.clone(), |block_size| {
        run_raw_verbs(RawVerbConfig {
            kind: RawVerbKind::InboundWrite,
            clients: 400,
            block_size,
            ..Default::default()
        })
    });
    let mut t = Table::new(
        "Fig 3(b): inbound RC write vs block size (400 clients x 20 blocks)",
        &["block", "Mops/s", "L3 miss rate", "PCIeItoM Mops/s"],
    );
    for (b, r) in blocks.iter().zip(results) {
        t.row(vec![
            format!("{b}B"),
            mops(r.mops),
            format!("{:.2}", r.l3_miss_rate),
            mops(r.pcie_itom_mops),
        ]);
    }
    t.emit("fig03b");
}

/// One Fig. 8 table: the four transports' throughput at each `x`, the
/// point at `x` being `point(x)`.
fn fig08_table(
    title: &str,
    csv: &str,
    x_name: &str,
    xs: &[usize],
    point: impl Fn(usize) -> RpcRunConfig + Sync,
) {
    let kinds = TransportKind::FIG8;
    let results = grid(xs, &kinds, |&x, &kind| {
        run_rpc(RpcRunConfig { kind, ..point(x) }).mops
    });
    let mut header = vec![x_name];
    header.extend(kinds.map(TransportKind::name));
    let mut t = Table::new(title, &header);
    for (x, row) in xs.iter().zip(results) {
        t.row(row_of(x, row.into_iter().map(mops)));
    }
    t.emit(csv);
}

/// Fig. 8 (left): throughput vs clients for all transports, batch 1/8.
pub fn fig08_clients() {
    for batch in [1usize, 8] {
        fig08_table(
            &format!("Fig 8 (left, batch {batch}): throughput vs clients, Mops/s"),
            &format!("fig08_clients_batch{batch}"),
            "clients",
            &client_counts(),
            |clients| RpcRunConfig {
                clients,
                batch,
                ..Default::default()
            },
        );
    }
}

/// Fig. 8 (right): throughput vs number of physical client machines with
/// 40 client threads total.
///
/// After the synchronous batch 1/8 tables come asynchronous clients
/// sweeping the outstanding-request window. This is the configuration
/// the paper's own client loops run in — W requests pipelined per client
/// instead of synchronous batches. Windowed ScaleRPC clients recover
/// batch-8-level throughput from single-request posts (the window hides
/// the group-rotation wait); all transports receive the same window for
/// fairness.
pub fn fig08_machines() {
    for (batch, window) in [(1usize, 1usize), (8, 1), (1, 2), (1, 4), (1, 8)] {
        let (mode, csv) = if window == 1 {
            (format!("batch {batch}"), format!("batch{batch}"))
        } else {
            (format!("async window {window}"), format!("window{window}"))
        };
        fig08_table(
            &format!("Fig 8 (right, {mode}): 40 client threads over N machines, Mops/s"),
            &format!("fig08_machines_{csv}"),
            "machines",
            &[1, 2, 3, 4, 5],
            |machines| RpcRunConfig {
                clients: 40,
                machines,
                threads_per_machine: 40usize.div_ceil(machines),
                batch,
                window,
                ..Default::default()
            },
        );
    }
}

/// Fig. 9: latency distribution at 120 clients (batch 1 and 8).
pub fn fig09() {
    for batch in [1usize, 8] {
        let kinds = TransportKind::FIG8;
        let results = parallel_map(kinds.to_vec(), |kind| {
            run_rpc(RpcRunConfig {
                kind,
                clients: 120,
                batch,
                ..Default::default()
            })
        });
        let mut t = Table::new(
            &format!("Fig 9 (batch {batch}, 120 clients): latency and throughput"),
            &["RPC", "median us", "avg us", "p99 us", "max us", "Mops/s"],
        );
        for (kind, r) in kinds.iter().zip(&results) {
            let latencies = [r.median_us, r.mean_us, r.p99_us, r.max_us].map(us);
            t.row(row_of(
                kind.name(),
                latencies.into_iter().chain([mops(r.mops)]),
            ));
        }
        t.emit(&format!("fig09_batch{batch}"));
        // CDF curves (a few representative points per transport).
        let mut cdf_t = Table::new(
            &format!("Fig 9 CDF (batch {batch}): latency us at fraction"),
            &["RPC", "p10", "p50", "p90", "p99", "p999"],
        );
        for (kind, r) in kinds.iter().zip(&results) {
            let q = |frac: f64| {
                r.cdf
                    .iter()
                    .find(|p| p.fraction >= frac)
                    .map(|p| p.value as f64 / 1e3)
                    .unwrap_or(0.0)
            };
            let fracs = [0.10, 0.50, 0.90, 0.99, 0.999];
            cdf_t.row(row_of(kind.name(), fracs.map(|f| us(q(f)))));
        }
        cdf_t.emit(&format!("fig09_cdf_batch{batch}"));
    }
}

/// Fig. 10: hardware counters, RawWrite vs ScaleRPC.
pub fn fig10() {
    let clients: Vec<usize> = if full_sweeps() {
        vec![40, 80, 120, 160, 240, 320, 400]
    } else {
        vec![40, 120, 240, 400]
    };
    let kinds = [TransportKind::RawWrite, TransportKind::ScaleRpc];
    let results = grid(&clients, &kinds, |&clients, &kind| {
        run_rpc(RpcRunConfig {
            kind,
            clients,
            batch: 1,
            ..Default::default()
        })
    });
    let mut t = Table::new(
        "Fig 10: throughput and PCIe counters, RawWrite vs ScaleRPC (Mops/s)",
        &[
            "clients",
            "Raw tput",
            "Raw PCIeRdCur",
            "Raw PCIeItoM",
            "Scale tput",
            "Scale PCIeRdCur",
            "Scale PCIeItoM",
        ],
    );
    for (c, row) in clients.iter().zip(results) {
        let cells = row
            .iter()
            .flat_map(|r| [r.mops, r.pcie_rd_mops, r.pcie_itom_mops]);
        t.row(row_of(c, cells.map(mops)));
    }
    t.emit("fig10");
}

/// Fig. 11(a): sensitivity to the time-slice length (80 clients, group
/// 40, batch 1).
pub fn fig11a() {
    let slices: Vec<u64> = if full_sweeps() {
        vec![30, 50, 75, 100, 150, 200, 250]
    } else {
        vec![30, 60, 100, 180, 250]
    };
    let results = parallel_map(slices.clone(), |slice_us| {
        run_rpc(RpcRunConfig {
            scale: ScaleRpcConfig {
                time_slice: SimDuration::micros(slice_us),
                ..Default::default()
            },
            clients: 80,
            batch: 1,
            ..Default::default()
        })
    });
    let mut t = Table::new(
        "Fig 11(a): time-slice sensitivity (80 clients, group 40)",
        &["slice us", "Mops/s", "max latency us"],
    );
    for (s, r) in slices.iter().zip(results) {
        t.row(vec![s.to_string(), mops(r.mops), us(r.max_us)]);
    }
    t.emit("fig11a");
}

/// Fig. 11(b): sensitivity to the group size (two groups of clients).
pub fn fig11b() {
    let groups: Vec<usize> = if full_sweeps() {
        vec![10, 20, 30, 40, 50, 60, 70]
    } else {
        vec![10, 20, 40, 55, 70]
    };
    let results = parallel_map(groups.clone(), |g| {
        run_rpc(RpcRunConfig {
            scale: ScaleRpcConfig {
                group_size: g,
                ..Default::default()
            },
            clients: 2 * g, // two groups, as in the paper
            batch: 8,
            ..Default::default()
        })
    });
    let mut t = Table::new(
        "Fig 11(b): group-size sensitivity (two groups)",
        &["group", "Mops/s"],
    );
    for (g, r) in groups.iter().zip(results) {
        t.row(vec![g.to_string(), mops(r.mops)]);
    }
    t.emit("fig11b");
}

/// Fig. 12: dynamic vs static scheduling under skewed client behaviour.
pub fn fig12() {
    let sigmas = [0.8f64, 1.0];
    let results = grid(&sigmas, &[false, true], |&sigma, &dynamic| {
        let mut rng = DetRng::new(99);
        let think = ThinkTime::gaussian_mix(120, SimDuration::micros(150), sigma, &mut rng);
        let r = run_rpc(RpcRunConfig {
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
        });
        r.mops
    });
    let mut t = Table::new(
        "Fig 12: priority scheduling under Gaussian access-frequency skew",
        &["sigma", "Static Mops/s", "Dynamic Mops/s", "gain"],
    );
    for (sigma, row) in sigmas.iter().zip(results) {
        let (st, dy) = (row[0], row[1]);
        t.row(vec![
            format!("{sigma:.1}"),
            mops(st),
            mops(dy),
            format!("{:+.1}%", (dy / st - 1.0) * 100.0),
        ]);
    }
    t.emit("fig12");
}

/// Fig. 13: DFS metadata performance, selfRPC vs ScaleRPC.
pub fn fig13() {
    let clients = [40usize, 80, 120];
    let ops = FsOp::all();
    let cells: Vec<(FsOp, usize)> = ops
        .iter()
        .flat_map(|&op| clients.map(|c| (op, c)))
        .collect();
    let kinds = [TransportKind::SelfRpc, TransportKind::ScaleRpc];
    let kops = grid(&cells, &kinds, |&(op, clients), &transport| {
        let r = run_mdtest(&MdtestRun {
            clients,
            op,
            transport,
            ..Default::default()
        });
        r.ops_per_sec / 1e3
    });
    for (op, rows) in ops.iter().zip(kops.chunks(clients.len())) {
        let mut t = Table::new(
            &format!("Fig 13 ({}): metadata throughput, Kops/s", op.name()),
            &["clients", "selfRPC", "ScaleRPC", "gain"],
        );
        for (c, row) in clients.iter().zip(rows) {
            let (s, sc) = (row[0], row[1]);
            t.row(vec![
                c.to_string(),
                format!("{s:.0}"),
                format!("{sc:.0}"),
                format!("{:+.0}%", (sc / s - 1.0) * 100.0),
            ]);
        }
        t.emit(&format!("fig13_{}", op.name().to_lowercase()));
    }
}

/// The five transaction systems of Fig. 16: label, RPC transport and
/// whether validation and commit go one-sided.
const TX_SYSTEMS: [(&str, TransportKind, bool); 5] = [
    ("RawWrite", TransportKind::RawWrite, true),
    ("HERD", TransportKind::Herd, false),
    ("FaSST", TransportKind::Fasst, false),
    ("ScaleTX-O", TransportKind::ScaleRpc, false),
    ("ScaleTX", TransportKind::ScaleRpc, true),
];

/// One Fig. 16 cell: `system` (a [`TX_SYSTEMS`] entry) running
/// `workload` with `coordinators` coordinators of `window` slots each.
fn run_tx_system(
    &(_, kind, one_sided): &(&str, TransportKind, bool),
    workload: &TxWorkload,
    coordinators: usize,
    window: usize,
) -> TxMetrics {
    let (keys, value_size) = match *workload {
        TxWorkload::ObjectStore {
            keys_per_server, ..
        } => (keys_per_server, 40),
        TxWorkload::SmallBank {
            accounts_per_server,
            servers,
            ..
        } => (accounts_per_server * 2 * servers / 3 + 2, 8),
    };
    let cfg = TxConfig {
        coordinators,
        servers: 3,
        client_machines: 8,
        workload: workload.clone(),
        one_sided,
        value_size,
        keys_per_server: keys,
        initial_balance: 1_000,
        warmup: SimDuration::millis(2),
        run: SimDuration::millis(6),
        coord_cpu_mult: 8,
        window,
        seed: 31,
    };
    run_tx(kind, cfg)
}

/// Fig. 16: transaction throughput — object store (read-only and
/// read-write) and SmallBank, 80 and 160 coordinators.
pub fn fig16() {
    let scenarios: Vec<(&str, TxWorkload)> = vec![
        (
            "object store r=4 w=0 (read-only)",
            TxWorkload::ObjectStore {
                reads: 4,
                writes: 0,
                keys_per_server: 20_000,
                servers: 3,
            },
        ),
        (
            "object store r=3 w=1",
            TxWorkload::ObjectStore {
                reads: 3,
                writes: 1,
                keys_per_server: 20_000,
                servers: 3,
            },
        ),
        (
            "SmallBank (85% updates, 4%/60% hot)",
            TxWorkload::smallbank(if full_sweeps() { 1_000_000 } else { 50_000 }, 3),
        ),
    ];
    let window = TxConfig::default().window;
    for (name, workload) in scenarios {
        let results = grid(&TX_SYSTEMS, &[80usize, 160], |system, &coords| {
            run_tx_system(system, &workload, coords, window)
        });
        let mut t = Table::new(
            &format!("Fig 16: {name}, Ktx/s (latency at 160 coords)"),
            &["system", "80 coords", "160 coords", "p50 us", "p99 us"],
        );
        for ((label, _, _), row) in TX_SYSTEMS.iter().zip(&results) {
            let (at80, at160) = (&row[0], &row[1]);
            t.row(vec![
                label.to_string(),
                format!("{:.0}", at80.tps() / 1e3),
                format!("{:.0}", at160.tps() / 1e3),
                format!("{:.1}", at160.quantile_us(0.5)),
                format!("{:.1}", at160.quantile_us(0.99)),
            ]);
        }
        t.emit(&format!(
            "fig16_{}",
            name.split(' ').next().unwrap_or("x").to_lowercase()
        ));
    }
}

/// Fig. 16 companion: sweep the coordinator's outstanding-transaction
/// window at 160 coordinators on the read-write object store. Shows the
/// duty-cycle argument directly: at `W = 1` a ScaleTX coordinator idles
/// whenever its group is not served, while the UD systems (always
/// served) win; opening the window fills ScaleTX's slice gaps with the
/// other slots' work until it overtakes.
pub fn fig16_window() {
    let workload = TxWorkload::ObjectStore {
        reads: 3,
        writes: 1,
        keys_per_server: 20_000,
        servers: 3,
    };
    let windows = [1usize, 2, 4, 8];
    let results = grid(&TX_SYSTEMS, &windows, |system, &window| {
        run_tx_system(system, &workload, 160, window)
    });
    let mut t = Table::new(
        "Fig 16 (window sweep): object store r=3 w=1, 160 coordinators, Ktx/s",
        &["system", "W=1", "W=2", "W=4", "W=8"],
    );
    for ((label, _, _), row) in TX_SYSTEMS.iter().zip(&results) {
        t.row(row_of(
            label,
            row.iter().map(|m| format!("{:.0}", m.tps() / 1e3)),
        ));
    }
    t.emit("fig16_window");

    // Per-slot commit latency at the deepest window: slot 0 is the
    // front of every coordinator's pipeline; later slots only run while
    // earlier ones are in flight, so their tails price the queueing a
    // deeper window adds.
    let deepest = windows[windows.len() - 1];
    let mut lt = Table::new(
        &format!("Fig 16 (window sweep): per-slot commit p50/p99 at W={deepest}, us"),
        &["system", "slot", "p50 us", "p99 us", "commits"],
    );
    for ((label, _, _), row) in TX_SYSTEMS.iter().zip(&results) {
        let m = &row[windows.len() - 1];
        for slot in 0..deepest {
            let (p50, p99) = match (
                m.slot_quantile_us(slot, 0.5),
                m.slot_quantile_us(slot, 0.99),
            ) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            lt.row(vec![
                label.to_string(),
                slot.to_string(),
                format!("{p50:.1}"),
                format!("{p99:.1}"),
                m.slot_latency[slot].count().to_string(),
            ]);
        }
    }
    lt.emit("fig16_window_slots");
}

/// §5.1: ordered large-transfer bandwidth, UD 4 KB chunking vs RC.
pub fn fig_ud_bw() {
    let (ud, rc) = UdChunk::compare(4 << 20);
    let mut t = Table::new(
        "Sec 5.1: single-thread ordered 4 MB transfer bandwidth",
        &["scheme", "GB/s", "fraction of RC"],
    );
    t.row(vec![
        "UD 4KB chunked".into(),
        format!("{ud:.2}"),
        format!("{:.1}%", ud / rc * 100.0),
    ]);
    t.row(vec![
        "RC single write".into(),
        format!("{rc:.2}"),
        "100%".into(),
    ]);
    t.emit("fig_ud_bw");
}

/// Every figure by the name `all_figures` takes on its command line, in
/// the order it runs them all.
pub const FIGURES: [(&str, fn()); 11] = [
    ("table1", table1),
    ("fig01", || {
        fig01a();
        fig01b()
    }),
    ("fig03", || {
        fig03a();
        fig03b()
    }),
    ("fig08", || {
        fig08_clients();
        fig08_machines()
    }),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", || {
        fig11a();
        fig11b()
    }),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig16", || {
        fig16();
        fig16_window()
    }),
    ("fig_ud_bw", fig_ud_bw),
];
