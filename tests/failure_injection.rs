//! Failure injection across crates: torn-down connections, legacy-mode
//! requests, lock storms, and protocol abuse.

use bytes::Bytes;
use scalerpc_repro::rdma_fabric::{
    CqId, Fabric, FabricParams, RemoteAddr, Transport, Upcall, VerbError, Wc, WcStatus, WorkRequest,
};
use scalerpc_repro::rpc_core::cluster::{Cluster, ClusterSpec};
use scalerpc_repro::rpc_core::harness::{Harness, HarnessConfig, DEFAULT_RETRY_TIMEOUT};
use scalerpc_repro::rpc_core::inject::{Injection, ScenarioSpec};
use scalerpc_repro::rpc_core::sharded::ShardedSim;
use scalerpc_repro::rpc_core::transport::{EchoHandler, ServerHandler};
use scalerpc_repro::rpc_core::workload::ThinkTime;
use scalerpc_repro::scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_repro::simcore::{SimDuration, SimTime};
use scalerpc_repro::simtrace::query::TraceQuery;
use scalerpc_repro::simtrace::{InstantKind, Tracer};
use simscenario::{compile, Compiled, Scenario};

/// The completions among `ups` for `cq`, in delivery order.
fn completions(ups: &[Upcall], cq: CqId) -> Vec<Wc> {
    ups.iter()
        .filter_map(|u| match u {
            Upcall::Completion { cq: c, wc, .. } if *c == cq => Some(*wc),
            _ => None,
        })
        .collect()
}

/// A handler whose every call is long-running: forces §3.5 legacy mode.
struct SlowHandler;

impl ServerHandler for SlowHandler {
    fn handle(
        &mut self,
        _client: usize,
        request: &[u8],
        _fabric: &mut Fabric,
    ) -> (Bytes, SimDuration) {
        // Far longer than half a 100 µs time slice.
        (
            Bytes::copy_from_slice(&request[..request.len().min(16)]),
            SimDuration::micros(120),
        )
    }
}

#[test]
fn long_running_rpcs_move_to_legacy_mode() {
    // The deployment is described declaratively; the compiled configs
    // must match the hand-built originals this test used before the
    // scenario layer existed.
    let toml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/legacy_slow.toml"
    ))
    .expect("scenario file");
    let sc = Scenario::parse(&toml).expect("scenario parses");
    let Compiled::Rpc(c) = compile(&sc).expect("scenario compiles") else {
        panic!("legacy_slow.toml must compile to an rpc run");
    };
    assert_eq!(
        c.cluster,
        ClusterSpec {
            server_threads: 4,
            client_machines: 2,
            threads_per_machine: 4,
            cores_per_machine: 8,
            clients: 8,
        }
    );
    assert_eq!(
        c.harness,
        HarnessConfig {
            batch_size: 1,
            request_size: 32,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(6),
            think: vec![ThinkTime::None],
            seed: 3,
            window: 1,
            nthreads: 1,
            retry: None,
        }
    );
    assert_eq!(
        c.scale,
        Some(ScaleRpcConfig {
            group_size: 4,
            ..Default::default()
        })
    );
    assert!(c.spec.is_empty(), "no chaos events in this scenario");

    let mut fabric = Fabric::new(FabricParams::default());
    let cluster = Cluster::build(&mut fabric, c.cluster.clone());
    let t = ScaleRpc::new(
        &mut fabric,
        &cluster,
        c.scale.clone().expect("scalerpc config"),
        SlowHandler,
    );
    let h = Harness::new(t, cluster, c.harness.clone());
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    sim.run_sequential(stop + SimDuration::millis(4));
    let t = &sim.logic(0).transport;
    assert!(
        t.legacy_requests > 10,
        "slow calls must migrate to the legacy thread, got {}",
        t.legacy_requests
    );
    // A single legacy thread at ~120 µs per call sustains ~8 Kops/s; the
    // point is liveness, not rate.
    assert!(sim.logic(0).metrics.ops > 20, "system must stay live");
}

#[test]
fn posts_on_torn_down_qps_error_cleanly() {
    let mut fabric = Fabric::new(FabricParams::default());
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let cq_a = fabric.create_cq(a).unwrap();
    let cq_b = fabric.create_cq(b).unwrap();
    let qa = fabric.create_qp(a, Transport::Rc, cq_a, cq_a).unwrap();
    let qb = fabric.create_qp(b, Transport::Rc, cq_b, cq_b).unwrap();
    fabric.connect(qa, qb).unwrap();
    let mr = fabric.register_mr(b, 64).unwrap();

    fabric.destroy_qp(qa).unwrap();
    let sched = |_: scalerpc_repro::simcore::SimTime, _| {};
    let err = fabric
        .post(
            SimTime::ZERO,
            qa,
            WorkRequest::Write {
                data: Bytes::from_static(b"x"),
                remote: RemoteAddr::new(mr, 0),
                imm: None,
            },
            true,
            None,
            &mut |t, e| sched(t, e),
        )
        .unwrap_err();
    assert!(matches!(err, VerbError::InvalidQpState { .. }));
}

#[test]
fn remote_errors_reach_the_requester_not_the_victim() {
    // A buggy client writing out of bounds must hurt only itself.
    let mut fabric = Fabric::new(FabricParams::default());
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let cq_a = fabric.create_cq(a).unwrap();
    let cq_b = fabric.create_cq(b).unwrap();
    let qa = fabric.create_qp(a, Transport::Rc, cq_a, cq_a).unwrap();
    let qb = fabric.create_qp(b, Transport::Rc, cq_b, cq_b).unwrap();
    fabric.connect(qa, qb).unwrap();
    let mr = fabric.register_mr(b, 64).unwrap();

    let mut staged = Vec::new();
    fabric
        .post(
            SimTime::ZERO,
            qa,
            WorkRequest::Write {
                data: Bytes::from(vec![1u8; 128]), // exceeds the region
                remote: RemoteAddr::new(mr, 0),
                imm: None,
            },
            true,
            None,
            &mut |t, e| staged.push((t, e)),
        )
        .unwrap();
    let mut queue = scalerpc_repro::simcore::EventQueue::new();
    for (t, e) in staged {
        queue.push(t, e);
    }
    let mut pending = Vec::new();
    let mut ups = Vec::new();
    while let Some((t, ev)) = queue.pop() {
        fabric.handle(t, ev, &mut |at, e| pending.push((at, e)), &mut ups);
        for (at, e) in pending.drain(..) {
            queue.push(at, e);
        }
    }
    let wcs = completions(&ups, cq_a);
    assert_eq!(wcs.len(), 1);
    assert_eq!(wcs[0].status, WcStatus::RemoteAccessError);
    // The victim's memory was untouched.
    assert_eq!(&*fabric.mr(mr).unwrap().read(0, 64).unwrap(), &[0u8; 64]);
}

#[test]
fn windowed_lock_storm_converges_without_stuck_slots() {
    // The same hot-set storm with four concurrent transaction slots per
    // coordinator: abort/retry under W > 1 must neither deadlock a slot
    // (every pipeline returns to Idle after the drain) nor leave a lock
    // held, and slots must not double-commit each other's write sets
    // (txids are slot-unique, so a stuck/foreign lock would show up as
    // a non-zero lock word below).
    use scalerpc_repro::scaletx::sim::run_scalerpc_tx;
    use scalerpc_repro::scaletx::workload::TxWorkload;
    use scalerpc_repro::scaletx::TxConfig;

    let cfg = TxConfig {
        coordinators: 32,
        servers: 3,
        client_machines: 4,
        workload: TxWorkload::ObjectStore {
            reads: 1,
            writes: 2,
            keys_per_server: 4, // 12 keys total: extreme contention
            servers: 3,
        },
        one_sided: true,
        value_size: 8,
        keys_per_server: 4,
        initial_balance: 0,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(5),
        coord_cpu_mult: 8,
        seed: 13,
        window: 4,
    };
    let sim = run_scalerpc_tx(
        cfg,
        ScaleRpcConfig {
            group_size: 16,
            slots: 8,
            block_size: 2048,
            ..Default::default()
        },
        SimDuration::ZERO,
    );
    let m = &sim.logic(0).metrics;
    // 128 concurrent transactions on 12 keys abort far more often than
    // the synchronous storm; the bar is liveness, not rate.
    assert!(m.committed > 100, "committed {}", m.committed);
    assert!(
        m.aborted > 50,
        "contention must cause aborts: {}",
        m.aborted
    );
    assert_eq!(
        sim.logic(0).busy_slots(),
        0,
        "coordinator slots still busy after the drain — pipeline deadlock"
    );
    assert_eq!(
        sim.logic(0).locked_keys(sim.fabric(0)),
        0,
        "keys left locked"
    );
}

#[test]
fn windowed_smallbank_holds_serializability_witnesses() {
    // SmallBank with four outstanding transactions per coordinator on a
    // hot account set: after the drain every account must be unlocked
    // and untorn (8 bytes, decodable), the same witnesses the W = 1
    // suite pins — concurrency inside one coordinator must not weaken
    // them.
    use scalerpc_repro::scaletx::sim::{run_scalerpc_tx, shard_of};
    use scalerpc_repro::scaletx::workload::{checking_key, savings_key, TxWorkload};
    use scalerpc_repro::scaletx::TxConfig;

    let mut workload = TxWorkload::smallbank(100, 3);
    if let TxWorkload::SmallBank { hot_prob, .. } = &mut workload {
        *hot_prob = 1.0; // maximize conflicts on the hot set
    }
    let cfg = TxConfig {
        coordinators: 24,
        servers: 3,
        client_machines: 4,
        workload,
        one_sided: true,
        value_size: 8,
        keys_per_server: 400,
        initial_balance: 1_000,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(4),
        coord_cpu_mult: 8,
        seed: 23,
        window: 4,
    };
    let sim = run_scalerpc_tx(
        cfg,
        ScaleRpcConfig {
            group_size: 20,
            slots: 8,
            block_size: 2048,
            ..Default::default()
        },
        SimDuration::ZERO,
    );
    assert!(
        sim.logic(0).metrics.committed > 500,
        "committed {}",
        sim.logic(0).metrics.committed
    );
    assert_eq!(sim.logic(0).busy_slots(), 0, "slot deadlock after drain");
    assert_eq!(
        sim.logic(0).locked_keys(sim.fabric(0)),
        0,
        "keys stuck locked"
    );
    let total_accounts = (400u64 * 3) / 2;
    for a in 0..total_accounts {
        for key in [checking_key(a), savings_key(a)] {
            let part = sim.logic(0).transports[shard_of(key, 3)].handler();
            let it = part.peek(sim.fabric(0), key).expect("account exists");
            assert_eq!(it.value.len(), 8, "torn value");
        }
    }
}

/// Fingerprint of one chaos-injected closed-loop run, plus the
/// conservation invariants every such run must satisfy after the drain.
struct ChaosRun {
    events: u64,
    ops: u64,
    retries: u64,
    node_crashes: u64,
}

/// Runs the standard 8-client ScaleRPC deployment, its clients posting
/// batches of `batch` through a window of `window`, under the given chaos
/// timeline and asserts the recovery invariants: conservation
/// (`issued == completed + in_flight`), a fully drained window
/// (`in_flight == 0`) and no stuck clients.
fn run_chaos(
    retry: Option<SimDuration>,
    timeline: Vec<(SimTime, Injection)>,
    tracer: Option<&Tracer>,
    batch: usize,
    window: usize,
) -> ChaosRun {
    let mut fabric = Fabric::new(FabricParams::default());
    if let Some(t) = tracer {
        fabric.set_tracer(t.clone());
    }
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 4,
            client_machines: 2,
            threads_per_machine: 4,
            cores_per_machine: 8,
            clients: 8,
        },
    );
    let server = cluster.server;
    // Same adjustments the scenario compiler applies to lifecycle runs:
    // deep client windows need matching message-slot windows, and chaos
    // timelines need the response-replay cache (`elastic`) armed.
    let t = ScaleRpc::new(
        &mut fabric,
        &cluster,
        ScaleRpcConfig {
            group_size: 4,
            client_window: window,
            elastic: true,
            ..Default::default()
        },
        EchoHandler::default(),
    );
    let mut h = Harness::new(
        t,
        cluster,
        HarnessConfig {
            batch_size: batch,
            request_size: 32,
            warmup: SimDuration::millis(1),
            run: SimDuration::millis(5),
            think: vec![ThinkTime::None],
            seed: 7,
            window,
            nthreads: 1,
            retry,
        },
    );
    let mut spec = ScenarioSpec::empty(8);
    spec.timeline = timeline;
    h.set_scenario(spec).expect("scenario accepted");
    let stop = h.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, h);
    let events = sim.run_sequential(stop + SimDuration::millis(3));
    let h = sim.logic(0);
    assert_eq!(
        h.issued(),
        h.completed() + h.in_flight(),
        "conservation violated: lost or duplicated RPCs"
    );
    assert_eq!(h.in_flight(), 0, "requests still in flight after drain");
    assert!(
        h.stuck_clients().is_empty(),
        "stuck clients after drain: {:?}",
        h.stuck_clients()
    );
    ChaosRun {
        events,
        ops: h.metrics.ops,
        retries: h.retries(),
        node_crashes: sim.fabric(0).counters(server).unwrap().get("NodeCrashes"),
    }
}

/// The server crashes at `at` and is down 150 µs.
fn server_crash_at(at: SimTime) -> Vec<(SimTime, Injection)> {
    let down = SimDuration::micros(150);
    vec![(at, Injection::ServerCrash { server: 0, down })]
}

#[test]
fn server_crash_mid_window_conserves_and_replays() {
    // The server dies at a non-slice-aligned instant while every client
    // holds a full window of in-flight requests; the retry policy must
    // carry the lost requests across the 150 µs outage without losing
    // or double-counting a single RPC.
    let crash_at = SimTime::ZERO + SimDuration::micros(2_347);
    let timeline = server_crash_at(crash_at);
    let retry = Some(DEFAULT_RETRY_TIMEOUT);

    let base = run_chaos(retry, timeline.clone(), None, 1, 4);
    assert!(base.ops > 0, "closed loop must survive the crash");
    assert!(
        base.retries > 0,
        "requests lost in the crash window must be retransmitted"
    );
    assert_eq!(base.node_crashes, 1, "exactly one crash modelled");

    // Trace-based recovery check: the crash tears connections down,
    // failover timers fire, and recovery pays fresh connection setups.
    let tracer = Tracer::enabled();
    assert!(tracer.is_enabled(), "integration tests build with tracing");
    let traced = run_chaos(retry, timeline, Some(&tracer), 1, 4);
    assert_eq!(
        (traced.events, traced.ops),
        (base.events, base.ops),
        "tracing must observe, never perturb"
    );
    let log = tracer.snapshot().expect("tracer enabled");
    let q = TraceQuery::new(&log);
    assert!(
        q.instants(InstantKind::Failover).next().is_some(),
        "no Failover instants traced"
    );
    assert!(
        q.instants(InstantKind::ConnTeardown)
            .any(|i| i.at >= crash_at),
        "crash must trace ConnTeardown for the torn QPs"
    );
    assert!(
        q.instants(InstantKind::ConnSetup).any(|i| i.at > crash_at),
        "recovery must re-establish connections after the crash"
    );
}

#[test]
fn server_crash_under_synchronous_batches_conserves() {
    // A synchronous client keeps its batch in the same window a windowed
    // one keeps its requests in, so the requests of a batch the crash
    // cut off are retransmitted one by one, and the batch still ends.
    let timeline = server_crash_at(SimTime::ZERO + SimDuration::micros(2_347));
    for batch in [1, 4, 8] {
        let run = run_chaos(
            Some(DEFAULT_RETRY_TIMEOUT),
            timeline.clone(),
            None,
            batch,
            1,
        );
        assert!(run.ops > 0, "batch {batch}: closed loop must survive");
        assert!(run.retries > 0, "batch {batch}: lost requests resent");
        assert_eq!(run.node_crashes, 1, "batch {batch}: one crash");
    }
}

#[test]
fn client_reconnect_mid_slice_pays_setup_and_conserves() {
    // Four clients depart, then rejoin at an instant that falls inside
    // a running time slice. Each rejoining client must re-establish its
    // connection (a traced ConnSetup after the rejoin) and the closed
    // loop must drain to conservation. No retry policy:
    // departure/reconnect must never need failover.
    let rejoin_at = SimTime::ZERO + SimDuration::micros(3_347);
    let timeline = vec![
        (
            SimTime::ZERO + SimDuration::micros(1_900),
            Injection::Depart { first: 2, last: 5 },
        ),
        (rejoin_at, Injection::Reconnect { first: 2, last: 5 }),
    ];

    let base = run_chaos(None, timeline.clone(), None, 1, 4);
    assert!(base.ops > 0, "closed loop must keep completing");
    assert_eq!(base.retries, 0, "reconnect must not trigger failover");

    let tracer = Tracer::enabled();
    assert!(tracer.is_enabled(), "integration tests build with tracing");
    let traced = run_chaos(None, timeline, Some(&tracer), 1, 4);
    assert_eq!(
        (traced.events, traced.ops),
        (base.events, base.ops),
        "tracing must observe, never perturb"
    );
    let log = tracer.snapshot().expect("tracer enabled");
    let q = TraceQuery::new(&log);
    assert!(
        q.instants(InstantKind::ConnSetup)
            .any(|i| i.at >= rejoin_at),
        "rejoining clients must pay fresh connection setup"
    );
}

/// Runs the 16-coordinator, 24-key ScaleTX deployment under `timeline`
/// and asserts the recovery invariants: every slot back to idle, some
/// in-flight phases failed by the crash, the system still committing,
/// and not one lock left behind. Returns the run's fingerprint.
fn tx_chaos_run(timeline: Vec<(SimTime, Injection)>) -> (u64, u64, u64, u64, u64) {
    use scalerpc_repro::scaletx::sim::run_scalerpc_tx_with;
    use scalerpc_repro::scaletx::workload::TxWorkload;
    use scalerpc_repro::scaletx::TxConfig;

    let cfg = TxConfig {
        coordinators: 16,
        servers: 3,
        client_machines: 2,
        workload: TxWorkload::ObjectStore {
            reads: 1,
            writes: 2,
            keys_per_server: 8, // 24 keys: enough contention to hold locks
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
    let spec = ScenarioSpec {
        starts: Vec::new(),
        timeline,
    };
    let sim = run_scalerpc_tx_with(cfg, scale, SimDuration::ZERO, |tx| {
        tx.set_scenario(spec).expect("fault timeline accepted")
    });
    let l = sim.logic(0);
    assert_eq!(l.busy_slots(), 0, "slot deadlock after crash recovery");
    assert!(
        l.crash_failures > 0,
        "the crash must fail some in-flight transaction phases"
    );
    assert!(
        l.metrics.committed > 100,
        "system must keep committing: {}",
        l.metrics.committed
    );
    assert_eq!(
        l.locked_keys(sim.fabric(0)),
        0,
        "keys left locked after the crash"
    );
    (
        sim.events(),
        l.metrics.committed,
        l.metrics.aborted,
        l.crash_failures,
        l.locks_swept,
    )
}

#[test]
fn lock_holder_crash_frees_locks_and_replays_bit_exactly() {
    // A participant crashes mid-run while coordinators hold its locks.
    // The presumed-abort recovery sweep must free every lock the dead
    // transactions left behind (unlock writes posted during the outage
    // drop at the errored QPs), the failed phases must abort-and-retry,
    // and the whole recovery must replay bit-exactly.
    let timeline = vec![(
        SimTime::ZERO + SimDuration::micros(2_613),
        Injection::ServerCrash {
            server: 1,
            down: SimDuration::micros(500),
        },
    )];
    let a = tx_chaos_run(timeline.clone());
    let b = tx_chaos_run(timeline);
    assert_eq!(a, b, "crash recovery must replay bit-exactly");
}

#[test]
fn two_participant_crashes_on_a_degraded_wire_recover_and_replay_bit_exactly() {
    // What the one fault layer buys transaction runs: a timeline. The
    // wire degrades, participant 1 dies, participant 2 dies while 1 is
    // still down, the wire recovers — and the same invariants hold.
    let at = |us| SimTime::ZERO + SimDuration::micros(us);
    let crash = |server, down_us| Injection::ServerCrash {
        server,
        down: SimDuration::micros(down_us),
    };
    let timeline = vec![
        (
            at(1_900),
            Injection::LinkDegrade {
                num: 2,
                den: 1,
                extra: SimDuration::nanos(200),
            },
        ),
        (at(2_613), crash(1, 500)),
        (at(2_900), crash(2, 300)),
        (at(4_000), Injection::LinkRestore),
    ];
    let a = tx_chaos_run(timeline.clone());
    let b = tx_chaos_run(timeline);
    assert_eq!(a, b, "multi-fault recovery must replay bit-exactly");
    assert!(a.4 > 0, "both restarts sweep, at least one finds a lock");
}

#[test]
fn rpc_unlock_abort_after_crash_in_any_phase_stays_inside_the_phase_table() {
    // With `one_sided: false` an aborting slot that still holds locks on
    // surviving servers releases them with Unlock RPCs, so a crash that
    // fails an outstanding Log request takes `Log → Unlocking` — an edge
    // the only other tx crash test (`one_sided: true` above, which
    // unlocks with one-sided writes and goes straight to Idle) never
    // reaches. A crash that fails a Commit request commits (`Commit →
    // Idle`): at 2 425 µs it catches a slot in Commit. Sweeping the crash
    // time lands it in every phase; the always-on transition assert is
    // the oracle.
    use scalerpc_repro::scaletx::sim::run_scalerpc_tx_with;
    use scalerpc_repro::scaletx::workload::TxWorkload;
    use scalerpc_repro::scaletx::TxConfig;

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
        one_sided: false,
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
    let mut crash_failures = 0;
    for at_us in (1_500..=4_500).step_by(25) {
        let mut spec = ScenarioSpec::empty(0);
        spec.timeline = vec![(
            SimTime::ZERO + SimDuration::micros(at_us),
            Injection::ServerCrash {
                server: 1,
                down: SimDuration::micros(500),
            },
        )];
        let sim = run_scalerpc_tx_with(cfg.clone(), scale.clone(), SimDuration::ZERO, |tx| {
            tx.set_scenario(spec).expect("fault timeline accepted")
        });
        crash_failures += sim.logic(0).crash_failures;
    }
    assert!(
        crash_failures > 0,
        "the sweep must fail some in-flight transaction phases"
    );
}

#[test]
fn lock_storm_converges() {
    // Every coordinator hammers the same tiny hot set; the system must
    // keep committing (aborts retried) and leave no stuck locks.
    use scalerpc_repro::scaletx::sim::run_scalerpc_tx;
    use scalerpc_repro::scaletx::workload::TxWorkload;
    use scalerpc_repro::scaletx::TxConfig;

    let cfg = TxConfig {
        coordinators: 32,
        servers: 3,
        client_machines: 4,
        workload: TxWorkload::ObjectStore {
            reads: 1,
            writes: 2,
            keys_per_server: 4, // 12 keys total: extreme contention
            servers: 3,
        },
        one_sided: true,
        value_size: 8,
        keys_per_server: 4,
        initial_balance: 0,
        warmup: SimDuration::millis(1),
        run: SimDuration::millis(5),
        coord_cpu_mult: 8,
        seed: 13,
        window: 1,
    };
    let sim = run_scalerpc_tx(
        cfg,
        ScaleRpcConfig {
            group_size: 16,
            slots: 8,
            block_size: 2048,
            ..Default::default()
        },
        SimDuration::ZERO,
    );
    let m = &sim.logic(0).metrics;
    assert!(m.committed > 200, "committed {}", m.committed);
    assert!(
        m.aborted > 50,
        "contention must cause aborts: {}",
        m.aborted
    );
    // All locks eventually released.
    assert_eq!(
        sim.logic(0).locked_keys(sim.fabric(0)),
        0,
        "keys left locked"
    );
}
