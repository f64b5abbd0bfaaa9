//! Lowers a validated [`Scenario`] onto the simulator's config types.
//!
//! Compilation is pure: it produces configuration values (plus an
//! injection [`ScenarioSpec`]) and never touches a fabric, so the same
//! compiled scenario can be executed, compared against hand-built
//! configs in tests, or serialized back out. The lowering errors —
//! invalid harness or ScaleRPC configs, pools past their cap, oversized
//! requests — and for hand-built scenarios the parser's key bounds and
//! cross-table checks too surface here as typed [`ScenarioError`]s
//! rather than panics deep inside a run.

use crate::scenario::{
    EventKind, Population, Scenario, ScenarioError, SizeModel, StartModel, ThinkModel,
    TxProfileKind, Workload,
};
use bytes::Bytes;
use rpc_core::cluster::ClusterSpec;
use rpc_core::harness::{HarnessConfig, RequestGen, RetryPolicy};
use rpc_core::inject::{ClientStart, Injection, ScenarioSpec};
use rpc_core::workload::ThinkTime;
use scalerpc::ScaleRpcConfig;
use scalerpc_bench::rawverbs::RawVerbConfig;
use scalerpc_bench::rpcbench::{TransportKind, BASELINE_BLOCK};
use scaletx::sim::{tx_scale_cfg, TxConfig};
use scaletx::workload::TxWorkload as TxWorkloadCfg;
use simcore::{DetRng, SimDuration, SimTime};
use std::sync::Arc;

pub(crate) fn err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        span: None,
        msg: msg.into(),
    }
}

/// A compiled raw-verb scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledRaw {
    /// The microbenchmark configuration.
    pub cfg: RawVerbConfig,
}

/// A compiled closed-loop RPC scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledRpc {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Harness configuration (validated).
    pub harness: HarnessConfig,
    /// Which transport serves the run.
    pub transport: TransportKind,
    /// ScaleRPC configuration when `transport` is
    /// [`TransportKind::ScaleRpc`] (with `client_window` already adjusted
    /// the way the benchmark runner does).
    pub scale: Option<ScaleRpcConfig>,
    /// Client activation plan plus chaos timeline.
    pub spec: ScenarioSpec,
    /// Per-client tenant tags, in client-id order.
    pub tenants: Vec<u32>,
    /// Per-client request-size models, in client-id order.
    pub sizes: Vec<SizeModel>,
}

/// A compiled transaction scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledTx {
    /// Deployment + workload configuration.
    pub tx: TxConfig,
    /// The ScaleRPC operating point the deployment runs over.
    pub scale: ScaleRpcConfig,
}

/// A fully lowered scenario, ready to execute.
#[derive(Clone, Debug, PartialEq)]
pub enum Compiled {
    /// Raw verbs.
    Raw(CompiledRaw),
    /// Closed-loop RPC.
    Rpc(Box<CompiledRpc>),
    /// Transactions.
    Tx(CompiledTx),
}

/// Most clients an rpc scenario may declare. Compilation builds four
/// per-client tables, so the count is checked before any is sized.
pub const MAX_CLIENTS: usize = 1 << 20;

/// Most bytes of message pool a scenario may make a run register.
pub const MAX_POOL_BYTES: usize = 1 << 30;

/// Whether a pool of `clients × blocks × block_size` bytes stays within
/// [`MAX_POOL_BYTES`]: the run sizes its regions from this product of
/// scenario keys, so it is checked, overflow included, before any is.
fn pool_fits(clients: usize, blocks: usize, block_size: usize) -> bool {
    clients
        .checked_mul(blocks)
        .and_then(|b| b.checked_mul(block_size))
        .is_some_and(|bytes| bytes <= MAX_POOL_BYTES)
}

/// One entry per client, in client-id order: `f` of its population.
fn per_client<T: Clone>(sc: &Scenario, f: impl Fn(&Population) -> T) -> Vec<T> {
    let each = sc
        .populations
        .iter()
        .map(|p| std::iter::repeat_n(f(p), p.clients));
    each.flatten().collect()
}

/// Lowers `sc` onto the simulator's configuration types.
pub fn compile(sc: &Scenario) -> Result<Compiled, ScenarioError> {
    // A hand-built `Scenario` (fuzzer, shrinker, benchmark) never met
    // the parser's checks, so they run here: every key's bound and time
    // range (so no conversion below can overflow), then the cross-table
    // rules.
    sc.check(None)?;
    let us = SimDuration::micros;
    let (warmup, run) = (us(sc.warmup_us), us(sc.run_us));
    match &sc.workload {
        Workload::Raw(w) => {
            let p = &sc.populations[0];
            let msg_size = match p.size {
                SizeModel::Fixed(s) => s,
                SizeModel::Zipf { .. } => unreachable!("rejected by check_semantics"),
            };
            if w.block_size == 0 || w.block_size < msg_size {
                return Err(err(format!(
                    "raw workload block_size {} must be positive and hold a {msg_size} B message",
                    w.block_size
                )));
            }
            if !pool_fits(p.clients, w.blocks_per_client, w.block_size) {
                return Err(err(format!(
                    "raw workload pool (clients x blocks_per_client x block_size) \
                     exceeds {MAX_POOL_BYTES} bytes"
                )));
            }
            Ok(Compiled::Raw(CompiledRaw {
                cfg: RawVerbConfig {
                    kind: w.verb,
                    clients: p.clients,
                    msg_size,
                    block_size: w.block_size,
                    blocks_per_client: w.blocks_per_client,
                    server_threads: w.server_threads,
                    window: w.window,
                    warmup,
                    run,
                },
            }))
        }
        Workload::Rpc(w) => {
            let n = sc.total_clients();
            if n > MAX_CLIENTS {
                return Err(err(format!(
                    "rpc workload declares more than {MAX_CLIENTS} clients"
                )));
            }
            let cluster = ClusterSpec {
                server_threads: w.server_threads,
                client_machines: w.machines,
                threads_per_machine: w.threads_per_machine,
                cores_per_machine: 8,
                clients: n,
            };

            // Think times: the harness accepts one entry or one per
            // client; emit per-client entries only when some population
            // actually thinks.
            let think = if sc.populations.iter().all(|p| p.think == ThinkModel::None) {
                vec![ThinkTime::None]
            } else {
                per_client(sc, |p| match p.think {
                    ThinkModel::None => ThinkTime::None,
                    ThinkModel::FixedUs(t) => ThinkTime::Fixed(us(t)),
                    ThinkModel::UniformUs(lo, hi) => ThinkTime::Uniform {
                        lo: us(lo),
                        hi: us(hi),
                    },
                })
            };

            // A uniform fixed size compiles to the classic fixed-size
            // request stream; anything else rides the scenario generator.
            let uniform_size = match sc.populations[0].size {
                SizeModel::Fixed(s)
                    if sc.populations.iter().all(|p| p.size == SizeModel::Fixed(s)) =>
                {
                    Some(s)
                }
                _ => None,
            };

            // Lifecycle events ride the elastic control plane, which only
            // ScaleRPC implements (`on_lifecycle`); the baselines would
            // silently strand clients after a crash.
            let has_lifecycle = sc.events.iter().any(|e| {
                matches!(
                    e.kind,
                    EventKind::ServerCrash { .. }
                        | EventKind::ClientReconnect { .. }
                        | EventKind::ConnChurn { .. }
                )
            });
            if (has_lifecycle || w.lazy_connect) && w.transport != TransportKind::ScaleRpc {
                return Err(err(
                    "lifecycle events and lazy_connect require the scalerpc transport \
                     (the baselines have no reconnect hooks)",
                ));
            }

            // A crash without retries strands every request lost in the
            // crash window, so server_crash arms the default policy when
            // the scenario does not pick its own timeout.
            let has_crash = sc
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::ServerCrash { .. }));
            let retry = if w.retry_timeout_us > 0 {
                Some(RetryPolicy {
                    timeout: us(w.retry_timeout_us),
                    ..Default::default()
                })
            } else if has_crash {
                Some(RetryPolicy::default())
            } else {
                None
            };

            let harness = HarnessConfig {
                batch_size: w.batch,
                request_size: uniform_size.unwrap_or(32),
                warmup,
                run,
                think,
                seed: sc.seed,
                window: w.window,
                nthreads: 1,
                retry,
            };
            harness
                .validate(n)
                .map_err(|e| err(format!("invalid harness config: {e}")))?;

            // Request sizes must fit the transports' message blocks with
            // headroom for headers (the paper's messages are tiny).
            let block = if w.transport == TransportKind::ScaleRpc {
                w.block_size
            } else {
                BASELINE_BLOCK
            };
            for p in &sc.populations {
                let max = match p.size {
                    SizeModel::Fixed(s) => s,
                    SizeModel::Zipf { max, .. } => max,
                };
                if max == 0 || max > block / 2 {
                    return Err(err(format!(
                        "population `{}`: request sizes must be in 1..={} (half a {} B block)",
                        p.name,
                        block / 2,
                        block
                    )));
                }
            }

            let (tenants, sizes) = (per_client(sc, |p| p.tenant), per_client(sc, |p| p.size));

            let scale = if w.transport == TransportKind::ScaleRpc {
                // A client holds one message slot per request in flight;
                // a deeper window would strand the excess for the whole
                // run (the baselines queue it instead).
                if w.window > w.slots {
                    return Err(err(format!(
                        "scalerpc window {} exceeds the {} message slots per client (`slots`)",
                        w.window, w.slots
                    )));
                }
                let mut cfg = ScaleRpcConfig {
                    group_size: w.group_size,
                    time_slice: us(w.time_slice_us),
                    slots: w.slots,
                    block_size: w.block_size,
                    dynamic_scheduling: w.dynamic,
                    regroup_rotations: w.regroup_rotations,
                    // Deep client windows need matching message-slot
                    // windows, as in the benchmark runner.
                    client_window: w.window,
                    ..Default::default()
                };
                cfg.lazy_connect = w.lazy_connect;
                // The response-replay cache is only needed when the
                // timeline can force retransmissions; steady-state
                // scenarios leave it off and stay bit-identical.
                cfg.elastic = has_lifecycle;
                if w.tenant_isolate {
                    cfg.tenant_of = tenants.clone();
                    cfg.tenant_isolate = true;
                }
                cfg.check()
                    .map_err(|e| err(format!("invalid scalerpc config: {e}")))?;
                // Per client: 2·slots + 1 blocks of its own and up to
                // 2·slots in the server's two pools.
                if !pool_fits(n + 1, 4 * w.slots + 1, w.block_size) {
                    return Err(err(format!(
                        "scalerpc message pools (clients x slots x block_size) \
                         exceed {MAX_POOL_BYTES} bytes"
                    )));
                }
                Some(cfg)
            } else {
                if w.tenant_isolate {
                    return Err(err(
                        "tenant_isolate requires the scalerpc transport (group scheduling)",
                    ));
                }
                None
            };

            let spec = compile_spec(sc, n);
            spec.validate(n, 1)
                .map_err(|e| err(format!("invalid scenario spec: {e}")))?;

            Ok(Compiled::Rpc(Box::new(CompiledRpc {
                cluster,
                harness,
                transport: w.transport,
                scale,
                spec,
                tenants,
                sizes,
            })))
        }
        Workload::Tx(w) => {
            if !(w.window >= 1 && 8 % w.window == 0) {
                return Err(err(format!(
                    "tx window {} must divide the transports' 8 message slots (1/2/4/8)",
                    w.window
                )));
            }
            let workload = match w.profile {
                TxProfileKind::ObjectStore => TxWorkloadCfg::ObjectStore {
                    reads: w.reads,
                    writes: w.writes,
                    keys_per_server: w.keys_per_server,
                    servers: w.servers as u64,
                },
                TxProfileKind::SmallBank => TxWorkloadCfg::SmallBank {
                    accounts_per_server: w.keys_per_server,
                    servers: w.servers as u64,
                    hot_fraction: w.hot_fraction,
                    hot_prob: w.hot_prob,
                },
            };
            Ok(Compiled::Tx(CompiledTx {
                tx: TxConfig {
                    coordinators: w.coordinators,
                    servers: w.servers,
                    client_machines: w.client_machines,
                    workload,
                    one_sided: w.one_sided,
                    value_size: w.value_size.max(8),
                    keys_per_server: w.keys_per_server,
                    initial_balance: 1_000,
                    warmup,
                    run,
                    coord_cpu_mult: 8,
                    window: w.window,
                    seed: sc.seed,
                },
                scale: tx_scale_cfg(),
            }))
        }
    }
}

/// Builds the injection spec: per-client starts (Poisson processes
/// expanded to explicit arrival times) plus the lowered chaos timeline.
fn compile_spec(sc: &Scenario, clients: usize) -> ScenarioSpec {
    let us = SimDuration::micros;
    let mut starts = Vec::with_capacity(clients);
    for (pi, p) in sc.populations.iter().enumerate() {
        match p.start {
            StartModel::Immediate => {
                starts.extend(std::iter::repeat_n(ClientStart::Immediate, p.clients));
            }
            StartModel::At { at_us } => {
                let t = SimTime::ZERO + us(at_us);
                starts.extend(std::iter::repeat_n(ClientStart::At(t), p.clients));
            }
            StartModel::Poisson {
                rate_per_ms,
                from_us,
            } => {
                // Exponential inter-arrival gaps on a per-population RNG
                // stream: mean gap = 1 ms / rate.
                let mut rng = DetRng::new(sc.seed).split(0x9015).split(pi as u64);
                let mean_ns = 1.0e6 / rate_per_ms;
                let mut t = us(from_us).as_nanos();
                for _ in 0..p.clients {
                    let u = rng.unit_f64();
                    let gap = (-(1.0 - u).ln() * mean_ns) as u64;
                    t = t.saturating_add(gap);
                    starts.push(ClientStart::At(SimTime(t)));
                }
            }
        }
    }

    // Population name → inclusive client-id range, in declaration order.
    let range_of = |name: &str| -> (usize, usize) {
        let mut base = 0;
        for p in &sc.populations {
            if p.name == name {
                return (base, base + p.clients - 1);
            }
            base += p.clients;
        }
        unreachable!("check_semantics validated every event target");
    };

    let mut timeline = Vec::with_capacity(sc.events.len());
    for e in &sc.events {
        let at = SimTime::ZERO + us(e.at_us);
        let (first, last) = e.kind.population().map_or((0, 0), range_of);
        let inj = match e.kind {
            EventKind::LinkDegrade { num, den, extra_ns } => Injection::LinkDegrade {
                num,
                den,
                extra: SimDuration::nanos(extra_ns),
            },
            EventKind::LinkRestore => Injection::LinkRestore,
            EventKind::ServerPause { dur_us } => Injection::ServerStall {
                server: 0,
                dur: us(dur_us),
            },
            EventKind::Depart { .. } => Injection::Depart { first, last },
            EventKind::Straggle { num, den, .. } => Injection::Straggle {
                first,
                last,
                num,
                den,
            },
            EventKind::ServerCrash { down_us } => Injection::ServerCrash {
                server: 0,
                down: us(down_us),
            },
            EventKind::ClientReconnect { .. } => Injection::Reconnect { first, last },
            EventKind::ConnChurn { .. } => Injection::ConnChurn { first, last },
        };
        timeline.push((at, inj));
    }
    ScenarioSpec { starts, timeline }
}

// ---- request-size generator --------------------------------------------

/// Per-client sampling plan inside [`ScenarioGen`].
enum SizePlan {
    Fixed(Bytes),
    Zipf {
        /// Cumulative zipf weights for sizes `min..=max` (shared across
        /// the population's clients).
        cum: Arc<Vec<f64>>,
        min: usize,
        rng: DetRng,
    },
}

/// Request generator driven by the scenario's per-client size models:
/// fixed sizes hand out a shared template, zipfian sizes sample a
/// per-client deterministic RNG stream against the population's
/// cumulative weight table.
pub struct ScenarioGen {
    plans: Vec<SizePlan>,
}

impl ScenarioGen {
    /// Builds the generator for per-client size models (client-id
    /// order), deriving per-client RNG streams from `seed`.
    pub fn new(sizes: &[SizeModel], seed: u64) -> ScenarioGen {
        let root = DetRng::new(seed).split(0x512e);
        let mut tables: Vec<(SizeModel, Arc<Vec<f64>>)> = Vec::new();
        let plans = sizes
            .iter()
            .enumerate()
            .map(|(c, &m)| match m {
                SizeModel::Fixed(s) => SizePlan::Fixed(Bytes::from(vec![0u8; s])),
                SizeModel::Zipf { min, max, theta } => {
                    let cum = match tables.iter().find(|(k, _)| *k == m) {
                        Some((_, t)) => t.clone(),
                        None => {
                            let mut acc = 0.0;
                            let t: Vec<f64> = (min..=max)
                                .map(|s| {
                                    acc += 1.0 / ((s - min + 1) as f64).powf(theta);
                                    acc
                                })
                                .collect();
                            let t = Arc::new(t);
                            tables.push((m, t.clone()));
                            t
                        }
                    };
                    SizePlan::Zipf {
                        cum,
                        min,
                        rng: root.split(c as u64),
                    }
                }
            })
            .collect();
        ScenarioGen { plans }
    }
}

impl RequestGen for ScenarioGen {
    fn gen(&mut self, client: usize, _seq: u64) -> Bytes {
        match &mut self.plans[client] {
            SizePlan::Fixed(b) => b.clone(),
            SizePlan::Zipf { cum, min, rng } => {
                let total = *cum.last().expect("non-empty zipf table");
                let u = rng.unit_f64() * total;
                let idx = cum.partition_point(|&c| c < u).min(cum.len() - 1);
                Bytes::from(vec![0u8; *min + idx])
            }
        }
    }
}

impl CompiledRpc {
    /// Builds the request generator for this run: the classic fixed-size
    /// stream when every client sends `harness.request_size` bytes,
    /// otherwise a [`ScenarioGen`] over the per-client models.
    pub fn make_gen(&self) -> Box<dyn RequestGen> {
        let uniform = self
            .sizes
            .iter()
            .all(|m| *m == SizeModel::Fixed(self.harness.request_size));
        if uniform {
            Box::new(rpc_core::harness::FixedSizeGen::new(
                self.harness.request_size,
            ))
        } else {
            Box::new(ScenarioGen::new(&self.sizes, self.harness.seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn base_rpc() -> String {
        "[scenario]\nname = \"t\"\nrun_us = 500\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\n\n[[population]]\nname = \"a\"\nclients = 8\n"
            .to_string()
    }

    #[test]
    fn compiles_simple_rpc_scenario() {
        let sc = Scenario::parse(&base_rpc()).unwrap();
        let Compiled::Rpc(c) = compile(&sc).unwrap() else {
            panic!("expected rpc");
        };
        assert_eq!(c.cluster.clients, 8);
        assert_eq!(c.harness.window, 1);
        assert!(c.scale.is_some());
        assert!(c.spec.is_empty());
        assert_eq!(c.tenants, vec![0; 8]);
    }

    #[test]
    fn rejects_invalid_harness_combo_via_typed_error() {
        let txt = base_rpc().replace(
            "kind = \"rpc\"\n",
            "kind = \"rpc\"\nbatch = 4\nwindow = 2\n",
        );
        let sc = Scenario::parse(&txt).unwrap();
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("supersedes"), "{e}");
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_ordered() {
        let txt = base_rpc().replace(
            "clients = 8\n",
            "clients = 8\narrival = \"poisson\"\nrate_per_ms = 100.0\n",
        );
        let sc = Scenario::parse(&txt).unwrap();
        let Compiled::Rpc(a) = compile(&sc).unwrap() else {
            panic!()
        };
        let Compiled::Rpc(b) = compile(&sc).unwrap() else {
            panic!()
        };
        assert_eq!(a.spec, b.spec);
        let ts: Vec<u64> = a
            .spec
            .starts
            .iter()
            .map(|s| match s {
                ClientStart::At(t) => t.0,
                ClientStart::Immediate => panic!("poisson must compile to At"),
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted: {ts:?}");
        assert!(ts[7] > 0);
    }

    #[test]
    fn zipf_generator_respects_bounds_and_determinism() {
        let sizes = vec![
            SizeModel::Zipf {
                min: 32,
                max: 256,
                theta: 0.99,
            };
            4
        ];
        let mut g1 = ScenarioGen::new(&sizes, 7);
        let mut g2 = ScenarioGen::new(&sizes, 7);
        for c in 0..4 {
            for seq in 0..200 {
                let a = g1.gen(c, seq);
                let b = g2.gen(c, seq);
                assert_eq!(a.len(), b.len());
                assert!((32..=256).contains(&a.len()));
            }
        }
    }

    #[test]
    fn depart_event_maps_population_to_client_range() {
        let txt = "[scenario]\nname = \"t\"\nrun_us = 500\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\n\n[[population]]\nname = \"a\"\nclients = 8\n\n[[population]]\nname = \"b\"\nclients = 4\n\n[[event]]\nat_us = 100\nkind = \"depart\"\npopulation = \"b\"\n";
        let sc = Scenario::parse(txt).unwrap();
        let Compiled::Rpc(c) = compile(&sc).unwrap() else {
            panic!()
        };
        assert_eq!(
            c.spec.timeline,
            vec![(SimTime(100_000), Injection::Depart { first: 8, last: 11 })]
        );
    }

    #[test]
    fn server_crash_arms_retry_and_elastic_mode() {
        let txt = format!(
            "{}\n[[event]]\nat_us = 300\nkind = \"server_crash\"\ndown_us = 50\n",
            base_rpc().replace("kind = \"rpc\"\n", "kind = \"rpc\"\nwindow = 4\n")
        );
        let sc = Scenario::parse(&txt).unwrap();
        let Compiled::Rpc(c) = compile(&sc).unwrap() else {
            panic!()
        };
        let retry = c.harness.retry.expect("crash arms the default policy");
        assert_eq!(retry, RetryPolicy::default());
        let scale = c.scale.expect("scalerpc config");
        assert!(scale.elastic, "lifecycle events must enable elastic mode");
        assert_eq!(
            c.spec.timeline,
            vec![(
                SimTime(300_000),
                Injection::ServerCrash {
                    server: 0,
                    down: SimDuration::micros(50)
                }
            )]
        );
    }

    #[test]
    fn retry_timeout_key_overrides_default_policy() {
        let txt = base_rpc().replace(
            "kind = \"rpc\"\n",
            "kind = \"rpc\"\nwindow = 4\nretry_timeout_us = 250\n",
        );
        let sc = Scenario::parse(&txt).unwrap();
        let Compiled::Rpc(c) = compile(&sc).unwrap() else {
            panic!()
        };
        assert_eq!(
            c.harness.retry.expect("retry armed").timeout,
            SimDuration::micros(250)
        );
        // No lifecycle events: elastic stays off, steady state unchanged.
        assert!(!c.scale.expect("scalerpc").elastic);
    }

    #[test]
    fn churn_events_map_population_to_client_range() {
        let txt = format!(
            "{}\n[[population]]\nname = \"b\"\nclients = 4\n\n[[event]]\nat_us = 200\nkind = \"conn_churn\"\npopulation = \"b\"\n\n[[event]]\nat_us = 400\nkind = \"client_reconnect\"\npopulation = \"b\"\n",
            base_rpc()
        );
        let sc = Scenario::parse(&txt).unwrap();
        let Compiled::Rpc(c) = compile(&sc).unwrap() else {
            panic!()
        };
        assert_eq!(
            c.spec.timeline,
            vec![
                (
                    SimTime(200_000),
                    Injection::ConnChurn { first: 8, last: 11 }
                ),
                (
                    SimTime(400_000),
                    Injection::Reconnect { first: 8, last: 11 }
                ),
            ]
        );
        // No crash in the timeline: nothing auto-arms retries.
        assert!(c.harness.retry.is_none());
        assert!(c.scale.expect("scalerpc").elastic);
    }

    #[test]
    fn lifecycle_events_require_scalerpc_transport() {
        let txt = format!(
            "{}\n[[event]]\nat_us = 300\nkind = \"server_crash\"\ndown_us = 50\n",
            base_rpc().replace("scalerpc", "herd")
        );
        let sc = Scenario::parse(&txt).unwrap();
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("scalerpc"), "{e}");
        let txt = base_rpc()
            .replace("scalerpc", "fasst")
            .replace("kind = \"rpc\"\n", "kind = \"rpc\"\nlazy_connect = true\n");
        let sc = Scenario::parse(&txt).unwrap();
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("lazy_connect"), "{e}");
    }

    #[test]
    fn hand_built_time_fields_are_checked_without_a_span() {
        // `run_us` whose nanosecond count wraps u64.
        let mut sc = Scenario::parse(&base_rpc()).unwrap();
        sc.run_us = u64::MAX / 1_000 + 1;
        let e = compile(&sc).unwrap_err();
        assert!(e.span.is_none() && e.msg.contains("`run_us`"), "{e}");
        // A pause whose nanosecond count fits u64 but not on top of a run.
        sc.run_us = 500;
        sc.events.push(crate::scenario::Event {
            at_us: 100,
            kind: EventKind::ServerPause {
                dur_us: u64::MAX / 1_000,
            },
        });
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("`dur_us`"), "{e}");
    }

    fn raw_scenario() -> Scenario {
        Scenario::parse("[scenario]\nname = \"t\"\nrun_us = 500\n\n[workload]\nkind = \"raw\"\nverb = \"inbound_write\"\n\n[[population]]\nname = \"a\"\nclients = 8\n").unwrap()
    }

    #[test]
    fn hand_built_raw_without_population_is_an_error() {
        let mut sc = raw_scenario();
        sc.populations.clear();
        let e = compile(&sc).unwrap_err();
        assert!(
            e.span.is_none() && e.msg.contains("exactly one [[population]]"),
            "{e}"
        );
    }

    #[test]
    fn hand_built_rpc_without_population_is_an_error() {
        let mut sc = Scenario::parse(&base_rpc()).unwrap();
        sc.populations.clear();
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("at least one [[population]]"), "{e}");
    }

    #[test]
    fn hand_built_event_naming_no_population_is_an_error() {
        let mut sc = Scenario::parse(&base_rpc()).unwrap();
        sc.events.push(crate::scenario::Event {
            at_us: 100,
            kind: EventKind::Depart {
                population: "nobody".into(),
            },
        });
        let e = compile(&sc).unwrap_err();
        assert_eq!(e.to_string(), "unknown population `nobody`");
    }

    #[test]
    fn hand_built_event_on_zero_client_population_is_an_error() {
        // `a` empty but `b` not, so the harness sees clients to serve.
        let txt = format!(
            "{}\n[[population]]\nname = \"b\"\nclients = 4\n",
            base_rpc()
        );
        let mut sc = Scenario::parse(&txt).unwrap();
        sc.populations[0].clients = 0;
        sc.events.push(crate::scenario::Event {
            at_us: 100,
            kind: EventKind::ConnChurn {
                population: "a".into(),
            },
        });
        let e = compile(&sc).unwrap_err();
        assert_eq!(e.to_string(), "population `a` has zero clients");
    }

    #[test]
    fn tx_window_must_divide_slots() {
        let txt = "[scenario]\nname = \"t\"\nrun_us = 500\n\n[workload]\nkind = \"tx\"\nprofile = \"object_store\"\nwindow = 3\n";
        let sc = Scenario::parse(txt).unwrap();
        let e = compile(&sc).unwrap_err();
        assert!(e.msg.contains("divide"), "{e}");
    }
}
