//! The benchmark must not change what it measures: each `Timed*`
//! wrapper, recording spans, replays the bare type's run exactly, the
//! benchmark's inbound-write logic replays `run_raw_verbs`, and the
//! scenario file it owns is valid.

use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::RawWrite;
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::driver::Logic;
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{EchoHandler, RpcTransport};
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use scalerpc_bench::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind};
use scalerpc_benchmark::inbound::{Config, InboundWrite, Inputs};
use scalerpc_benchmark::spans::{self, Layer, Off, On};
use scalerpc_benchmark::workloads::{churn_scenario, prepare, Sizing, Workload, DEFAULT_SEED};
use scalerpc_benchmark::wrap::{TimedHandler, TimedLogic, TimedTransport};
use scaletx::{TxConfig, TxSim, TxWorkload};
use simcore::{SimDuration, SimTime};
use simscenario::{compile, Compiled, EventKind};
use simtrace::Tracer;

fn small_cluster(fabric: &mut Fabric) -> Cluster {
    Cluster::build(
        fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 2,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 16,
        },
    )
}

fn small_harness() -> HarnessConfig {
    HarnessConfig {
        batch_size: 4,
        request_size: 32,
        warmup: SimDuration::micros(300),
        run: SimDuration::millis(1),
        think: vec![ThinkTime::None],
        seed: 5,
        window: 1,
        nthreads: 1,
        retry: None,
    }
}

/// Drains `logic` and returns the engine's event count.
fn drained<L: Logic>(fabric: Fabric, logic: L, until: SimTime) -> (u64, ShardedSim<L>) {
    let mut sim = ShardedSim::new_sequential(fabric, logic);
    let events = sim.run_sequential(until);
    (events, sim)
}

/// `(events, ops, issued)` of a 16-client, 1 ms closed loop over the
/// transport `make` builds, bare and inside every wrapper.
fn rpc_pair<T, W>(
    make: impl Fn(&mut Fabric, &Cluster) -> T,
    wrap: impl Fn(&mut Fabric, &Cluster) -> W,
) -> [(u64, u64, u64); 2]
where
    T: RpcTransport,
    W: RpcTransport,
{
    let until = SimTime::ZERO + SimDuration::micros(300) + SimDuration::millis(4);
    let bare = {
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = small_cluster(&mut fabric);
        let t = make(&mut fabric, &cluster);
        let (events, sim) = drained(fabric, Harness::new(t, cluster, small_harness()), until);
        let h = sim.logic(0);
        (events, h.metrics.ops, h.issued())
    };
    let wrapped = {
        spans::reset();
        let mut fabric = Fabric::new(FabricParams::default());
        let cluster = small_cluster(&mut fabric);
        let t = wrap(&mut fabric, &cluster);
        let logic = TimedLogic::<_, On>::new(Harness::new(t, cluster, small_harness()));
        let (events, sim) = drained(fabric, logic, until);
        let h = &sim.logic(0).inner;
        let (totals, _) = spans::take();
        // The wrappers did see the run.
        assert!(totals[Layer::Driver as usize].calls > 1_000);
        assert!(totals[Layer::Transport as usize].calls > 1_000);
        assert_eq!(totals[Layer::Handler as usize].calls, h.completed());
        (events, h.metrics.ops, h.issued())
    };
    [bare, wrapped]
}

#[test]
fn wrappers_are_neutral_over_scalerpc() {
    let [bare, wrapped] = rpc_pair(
        |f, c| ScaleRpc::new(f, c, ScaleRpcConfig::default(), EchoHandler::default()),
        |f, c| {
            let h = TimedHandler::<_, On>::new(EchoHandler::default());
            TimedTransport::<_, On>::new(ScaleRpc::new(f, c, ScaleRpcConfig::default(), h))
        },
    );
    assert!(bare.1 > 1_000, "{bare:?}");
    assert_eq!(bare, wrapped);
}

#[test]
fn wrappers_are_neutral_over_rawwrite() {
    let [bare, wrapped] = rpc_pair(
        |f, c| RawWrite::new(f, c, 8, 4096, EchoHandler::default()),
        |f, c| {
            let h = TimedHandler::<_, On>::new(EchoHandler::default());
            TimedTransport::<_, On>::new(RawWrite::new(f, c, 8, 4096, h))
        },
    );
    assert!(bare.1 > 1_000, "{bare:?}");
    assert_eq!(bare, wrapped);
}

#[test]
fn wrappers_are_neutral_over_scaletx() {
    let cfg = TxConfig {
        coordinators: 16,
        client_machines: 2,
        workload: TxWorkload::smallbank(600, 3),
        value_size: 8,
        keys_per_server: 600 * 2 * 3 / 3 + 2,
        warmup: SimDuration::micros(300),
        run: SimDuration::millis(1),
        seed: 5,
        ..Default::default()
    };
    let until = SimTime::ZERO + SimDuration::millis(8);
    let bare = {
        let mut fabric = Fabric::new(FabricParams::default());
        let tx = TxSim::build(&mut fabric, cfg.clone(), |f, c, part, _| {
            let mut sc = scaletx::tx_scale_cfg();
            sc.client_window = 4;
            ScaleRpc::new(f, c, sc, part)
        });
        let (events, sim) = drained(fabric, tx, until);
        let m = &sim.logic(0).metrics;
        (events, m.committed, m.aborted, sim.logic(0).busy_slots())
    };
    let wrapped = {
        spans::reset();
        let mut fabric = Fabric::new(FabricParams::default());
        let tx = TxSim::build(&mut fabric, cfg.clone(), |f, c, part, _| {
            let mut sc = scaletx::tx_scale_cfg();
            sc.client_window = 4;
            let h = TimedHandler::<_, On>::new(part);
            TimedTransport::<_, On>::new(ScaleRpc::new(f, c, sc, h))
        });
        let (events, sim) = drained(fabric, TimedLogic::<_, On>::new(tx), until);
        let tx = &sim.logic(0).inner;
        let (totals, _) = spans::take();
        assert!(totals[Layer::Handler as usize].calls > 1_000);
        (
            events,
            tx.metrics.committed,
            tx.metrics.aborted,
            tx.busy_slots(),
        )
    };
    assert!(bare.1 > 500 && bare.3 == 0, "{bare:?}");
    assert_eq!(bare, wrapped);
}

#[test]
fn probes_on_and_off_replay_every_workload_alike() {
    let off = Tracer::disabled();
    for w in Workload::ALL {
        let mut a = prepare::<Off>(w, 9, Sizing::Quick, &off);
        a.run();
        let a = a.finish();
        spans::reset();
        let mut b = prepare::<On>(w, 9, Sizing::Quick, &off);
        b.run();
        let b = b.finish();
        spans::take();
        assert!(a.violations.is_empty(), "{}: {:?}", w.name(), a.violations);
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(
            (a.events, a.ops, a.attempted, a.latency.count()),
            (b.events, b.ops, b.attempted, b.latency.count()),
            "{}",
            w.name()
        );
        assert_eq!(a.counters, b.counters, "{}", w.name());
    }
}

#[test]
fn inbound_logic_with_canonical_inputs_is_run_raw_verbs() {
    let (warmup, run) = (SimDuration::micros(200), SimDuration::micros(800));
    let reference = run_raw_verbs(RawVerbConfig {
        kind: RawVerbKind::InboundWrite,
        clients: 400,
        block_size: 8192,
        warmup,
        run,
        ..Default::default()
    });
    let cfg = Config {
        clients: 400,
        msg_size: 32,
        block_size: 8192,
        blocks_per_client: 20,
        window: 4,
        warmup,
        run,
    };
    let replay = |inputs: Inputs| {
        let mut fabric = Fabric::new(FabricParams::default());
        let logic = InboundWrite::build(&mut fabric, cfg.clone(), inputs);
        let until = logic.stop_at() + SimDuration::millis(1);
        let (events, sim) = drained(fabric, logic, until);
        let l = sim.logic(0);
        assert_eq!(l.posted, l.completed);
        (events, l.ops, l.latency.count(), l.latency.mean().to_bits())
    };
    let (events, ops, samples, _) = replay(Inputs::canonical(&cfg));
    assert_eq!((events, ops), (reference.events, reference.ops));
    assert!(samples > 1_000 && ops > 1_000);
    // The seed changes the inputs, and the inputs change the run (at
    // this size only its latencies: the closed loop is saturated).
    let seeded = |seed| replay(Inputs::seeded(&cfg, seed));
    assert_eq!(seeded(3), seeded(3));
    assert_ne!(seeded(3), seeded(4));
}

#[test]
fn churn_cycles_parses_and_compiles_with_three_cycles() {
    let sc = churn_scenario(DEFAULT_SEED, Sizing::Full);
    let crashes = |sc: &simscenario::Scenario| {
        sc.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ServerCrash { .. }))
            .count()
    };
    assert_eq!((sc.events.len(), crashes(&sc)), (12, 3));
    assert_eq!(sc.total_clients(), 64);
    let Compiled::Rpc(c) = compile(&sc).expect("compiles") else {
        panic!("rpc scenario");
    };
    assert_eq!(c.harness.seed, DEFAULT_SEED);
    assert_eq!(c.harness.run, SimDuration::millis(20));
    assert!(c.harness.retry.is_some());
    assert_eq!(c.spec.timeline.len(), 12);
    // Shorter sizings keep one whole cycle.
    let quick = churn_scenario(7, Sizing::Quick);
    assert_eq!((quick.seed, quick.events.len(), crashes(&quick)), (7, 4, 1));
    assert!(compile(&quick).is_ok());
}
