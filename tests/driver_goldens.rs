//! Bit-exact pins for the drivers that sit on top of the client side.
//!
//! `tests/baseline_goldens.rs` freezes the baseline transports; these
//! strings freeze the *drivers* — the ScaleTX crash → recover path, and
//! the mdtest / ScaleTX runners over the transports
//! `baseline_goldens.rs` does not reach. They were
//! captured on the commit *before* fault effects, client CPU, the
//! measured window and the replay loop moved into `rpc-core` (PR 17),
//! and must never be re-blessed by a refactor: a change in event push
//! order, CPU charge arithmetic, window edges or drain length shows up
//! as a different count.

use octofs::handler::MdsHandler;
use octofs::mdtest::MdtestGen;
use octofs::FsOp;
use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::Herd;
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::inject::{Injection, ScenarioSpec};
use rpc_core::workload::ThinkTime;
use rpc_core::ShardedSim;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_bench::rpcbench::{run_mdtest, MdtestRun, TransportKind};
use scaletx::sim::{run_scalerpc_tx, run_scalerpc_tx_with};
use scaletx::workload::TxWorkload;
use scaletx::{TxConfig, TxSim};
use simcore::{SimDuration, SimTime};

/// The deployment of `tests/failure_injection.rs`'
/// `lock_holder_crash_frees_locks_and_replays_bit_exactly`.
fn crash_cfg() -> (TxConfig, ScaleRpcConfig) {
    let cfg = TxConfig {
        coordinators: 16,
        servers: 3,
        client_machines: 2,
        workload: TxWorkload::ObjectStore {
            reads: 1,
            writes: 2,
            keys_per_server: 8,
            servers: 3,
        },
        one_sided: true,
        value_size: 8,
        keys_per_server: 8,
        initial_balance: 0,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(5),
        coord_cpu_mult: 8,
        seed: 31,
        window: 2,
    };
    let scale = ScaleRpcConfig {
        group_size: 16,
        slots: 8,
        block_size: 2048,
        ..Default::default()
    };
    (cfg, scale)
}

/// The crash line was re-recorded once, for a behaviour fix rather than
/// a refactor: the coordinators now tell ScaleRPC which seqs they gave
/// up at the crash (`LifecycleEv::Abandon`), so those seqs stop keeping
/// a client window non-empty, and a context switch stops re-arming and
/// republishing for them (events 105 480 → 103 942, committed 352 → 344,
/// aborted 2 187 → 2 163). Both lines were re-recorded once more when
/// `TxSim::replay`'s drain grew from the RPC runs' 3 ms to a
/// transaction's 12 ms: each gained exactly 180 events in the longer
/// tail, and nothing else moved.
const TX_CRASH_GOLDEN: &str = "\
tx lock-holder crash: events=104122 committed=344 aborted=2163 crash_failures=8 locks_swept=2 busy_slots=0
tx steady: events=132748 committed=500 aborted=2932 crash_failures=0 locks_swept=0 busy_slots=0";

#[test]
fn scaletx_crash_recovery_matches_the_pre_refactor_capture() {
    let (cfg, scale) = crash_cfg();
    // Participant 1 dies at 2 613 µs holding locks and is down 500 µs.
    let mut spec = ScenarioSpec::empty(0);
    spec.timeline = vec![(
        SimTime::ZERO + SimDuration::micros(2_613),
        Injection::ServerCrash {
            server: 1,
            down: SimDuration::micros(500),
        },
    )];
    let crashed = run_scalerpc_tx_with(cfg.clone(), scale.clone(), SimDuration::ZERO, |tx| {
        tx.set_scenario(spec).expect("fault timeline accepted")
    });
    let steady = run_scalerpc_tx(cfg, scale, SimDuration::ZERO);
    let line = |label: &str, sim: &ShardedSim<TxSim<ScaleRpc<scaletx::TxParticipant>>>| {
        let l = sim.logic(0);
        format!(
            "tx {label}: events={} committed={} aborted={} crash_failures={} locks_swept={} busy_slots={}",
            sim.events(),
            l.metrics.committed,
            l.metrics.aborted,
            l.crash_failures,
            l.locks_swept,
            l.busy_slots()
        )
    };
    let lines = [line("lock-holder crash", &crashed), line("steady", &steady)];
    assert_eq!(lines.join("\n"), TX_CRASH_GOLDEN);
}

const MDTEST_GOLDEN: &str = "\
run_mdtest stat ScaleRPC: ops=14766 ops_per_sec=7383000 median_us=5.247
run_mdtest stat selfRPC: ops=13946 ops_per_sec=6973000 median_us=11.44
run_mdtest stat RawWrite: ops=15315 ops_per_sec=7657500 median_us=10.416
mdtest stat ScaleRPC: events=240050 ops=14766 mops=7.383 median_us=5.247";

#[test]
fn mdtest_points_match_the_pre_refactor_capture() {
    // `run_mdtest` itself, on each RPC subsystem the capture picked,
    // under the capture's labels.
    let mut lines: Vec<String> = [
        (TransportKind::ScaleRpc, "ScaleRPC"),
        (TransportKind::SelfRpc, "selfRPC"),
        (TransportKind::RawWrite, "RawWrite"),
    ]
    .into_iter()
    .map(|(transport, label)| {
        let r = run_mdtest(&MdtestRun {
            clients: 80,
            op: FsOp::Stat,
            transport,
            files_per_dir: 32,
            batch: 1,
            run: SimDuration::millis(2),
            warmup: SimDuration::millis(1),
        });
        format!(
            "run_mdtest stat {label}: ops={} ops_per_sec={} median_us={}",
            r.ops, r.ops_per_sec, r.median_us
        )
    })
    .collect();
    // And its ScaleRPC wiring driven here, the way `baseline_goldens.rs`
    // drives SelfRPC and RawWrite, so the event count is part of the pin.
    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 80,
        },
    );
    let mut handler = MdsHandler::new();
    handler.preload(80, 32);
    let transport = ScaleRpc::new(&mut fabric, &cluster, ScaleRpcConfig::default(), handler);
    let hcfg = HarnessConfig {
        batch_size: 1,
        request_size: 64,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(2),
        think: vec![ThinkTime::None],
        seed: 17,
        window: 1,
        nthreads: 1,
        retry: None,
    };
    let gen = Box::new(MdtestGen::new(FsOp::Stat, 32));
    let h = Harness::with_generator(transport, cluster, hcfg, gen);
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    let events = sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    lines.push(format!(
        "mdtest stat ScaleRPC: events={events} ops={} mops={} median_us={}",
        m.ops,
        m.mops(),
        m.median_us()
    ));
    assert_eq!(lines.join("\n"), MDTEST_GOLDEN);
}

const TX_HERD_GOLDEN: &str = "\
tx HERD: events=141040 committed=1955 aborted=45 tps=488750 median_us=28.159";

#[test]
fn scaletx_over_herd_matches_the_pre_refactor_capture() {
    // The `tx_point` configuration of `baseline_goldens.rs`, over the
    // one baseline it leaves out. HERD's clients own UC QPs, so the
    // one-sided request silently runs RPC-only, as on FaSST.
    let cfg = TxConfig {
        coordinators: 16,
        servers: 3,
        client_machines: 4,
        workload: TxWorkload::ObjectStore {
            reads: 2,
            writes: 1,
            keys_per_server: 400,
            servers: 3,
        },
        one_sided: true,
        value_size: 8,
        keys_per_server: 400,
        initial_balance: 1_000,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(4),
        coord_cpu_mult: 8,
        seed: 23,
        window: 1,
    };
    let mut fabric = Fabric::new(FabricParams::default());
    let tx = TxSim::build(&mut fabric, cfg, |f, cl, part, _| {
        Herd::new(f, cl, 8, 2048, part)
    });
    let stop = tx.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, tx);
    let events = sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    let line = format!(
        "tx HERD: events={events} committed={} aborted={} tps={} median_us={}",
        m.committed,
        m.aborted,
        m.tps(),
        m.median_us()
    );
    assert_eq!(line, TX_HERD_GOLDEN);
}
