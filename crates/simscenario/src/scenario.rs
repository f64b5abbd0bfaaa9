//! The typed scenario AST: validation of the parsed TOML document into
//! strongly-typed workload, population and event descriptions, plus the
//! canonical serializer used by the round-trip property tests.

use crate::toml::{self, Doc, Entry, Span, Table, Value};
use simcore::SimDuration;
use std::fmt;

/// A scenario-level error: parse failures, unknown keys, bad field
/// types or semantically invalid combinations. Carries the offending
/// source span whenever one exists.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError {
    /// Offending source position, if attributable.
    pub span: Option<Span>,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(f, "line {}:{}: {}", s.line, s.col, self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<toml::ParseError> for ScenarioError {
    fn from(e: toml::ParseError) -> Self {
        ScenarioError {
            span: Some(e.span),
            msg: e.msg,
        }
    }
}

fn fail(span: Option<Span>, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        span,
        msg: msg.into(),
    }
}

/// Raw-verb workload kinds (the Fig. 1/3 microbenchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawVerb {
    /// Clients issue RDMA writes (NIC-cache-bound, Fig. 3(a)).
    OutboundWrite,
    /// Server-inbound writes (DDIO-bound, Fig. 3(b)).
    InboundWrite,
    /// UD sends.
    UdSend,
}

/// RPC transports the scenario runner can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcTransport {
    /// ScaleRPC (the paper's system).
    ScaleRpc,
    /// RawWrite baseline.
    RawWrite,
    /// HERD baseline.
    Herd,
    /// FaSST baseline.
    Fasst,
    /// Octopus' self-identified RPC.
    SelfRpc,
}

/// A raw-verb workload (compiled to `RawVerbConfig`).
#[derive(Clone, Debug, PartialEq)]
pub struct RawWorkload {
    /// Which verb. The message size is the population's `size`.
    pub verb: RawVerb,
    /// Message block size in the pool.
    pub block_size: usize,
    /// Blocks per client.
    pub blocks_per_client: usize,
    /// Server threads.
    pub server_threads: usize,
    /// Outstanding requests per client.
    pub window: usize,
}

/// A closed-loop RPC workload (compiled to a harness + transport run
/// with scenario injection hooks).
#[derive(Clone, Debug, PartialEq)]
pub struct RpcWorkload {
    /// Which transport serves the requests.
    pub transport: RpcTransport,
    /// Physical client machines.
    pub machines: usize,
    /// Threads per client machine.
    pub threads_per_machine: usize,
    /// Server worker threads.
    pub server_threads: usize,
    /// Requests per batch.
    pub batch: usize,
    /// Outstanding-request window per client.
    pub window: usize,
    /// ScaleRPC: connection-group size.
    pub group_size: usize,
    /// ScaleRPC: time slice in microseconds.
    pub time_slice_us: u64,
    /// ScaleRPC: message slots per zone.
    pub slots: usize,
    /// ScaleRPC: message block size.
    pub block_size: usize,
    /// ScaleRPC: dynamic priority scheduling.
    pub dynamic: bool,
    /// ScaleRPC: rotations between replans.
    pub regroup_rotations: u32,
    /// ScaleRPC: per-tenant group isolation (noisy-neighbor defense).
    pub tenant_isolate: bool,
    /// ScaleRPC: establish connections lazily on first use instead of
    /// eagerly at construction.
    pub lazy_connect: bool,
    /// Harness retry timeout in microseconds; 0 leaves retries off
    /// (the compiler arms the default policy anyway when the timeline
    /// contains `server_crash`).
    pub retry_timeout_us: u64,
}

/// Transaction profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxProfileKind {
    /// FaSST-style random-key object store.
    ObjectStore,
    /// SmallBank with a hot set (key skew).
    SmallBank,
}

/// A distributed-transaction workload (compiled to `TxConfig`).
#[derive(Clone, Debug, PartialEq)]
pub struct TxWorkload {
    /// Which profile.
    pub profile: TxProfileKind,
    /// Coordinators.
    pub coordinators: usize,
    /// Participant servers.
    pub servers: usize,
    /// Client machines shared by the coordinators.
    pub client_machines: usize,
    /// Outstanding transactions per coordinator (1/2/4/8).
    pub window: usize,
    /// One-sided verbs for validate/commit.
    pub one_sided: bool,
    /// Value slot size.
    pub value_size: usize,
    /// Keys (or accounts) per server.
    pub keys_per_server: u64,
    /// ObjectStore: reads per transaction.
    pub reads: usize,
    /// ObjectStore: writes per transaction.
    pub writes: usize,
    /// SmallBank: hot-set fraction (key skew).
    pub hot_fraction: f64,
    /// SmallBank: probability a transaction hits the hot set.
    pub hot_prob: f64,
}

/// The workload a scenario drives.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Raw verbs.
    Raw(RawWorkload),
    /// Closed-loop RPC.
    Rpc(RpcWorkload),
    /// Distributed transactions.
    Tx(TxWorkload),
}

/// How a population's clients first arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StartModel {
    /// Jittered start at t≈0 (the closed-loop default).
    Immediate,
    /// All clients start at the given time (flash-crowd surge).
    At {
        /// Start time in microseconds.
        at_us: u64,
    },
    /// Clients arrive one by one with exponential inter-arrival gaps.
    Poisson {
        /// Mean arrival rate, clients per millisecond.
        rate_per_ms: f64,
        /// First arrival offset in microseconds.
        from_us: u64,
    },
}

/// A population's think-time model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThinkModel {
    /// Re-post immediately.
    None,
    /// Fixed delay in microseconds.
    FixedUs(u64),
    /// Uniform delay in `[lo, hi]` microseconds.
    UniformUs(u64, u64),
}

/// A population's request-size model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeModel {
    /// Every request the same size.
    Fixed(usize),
    /// Zipfian sizes over `[min, max]` with exponent `theta` (size
    /// skew: small sizes dominate as `theta` grows).
    Zipf {
        /// Smallest size.
        min: usize,
        /// Largest size.
        max: usize,
        /// Skew exponent.
        theta: f64,
    },
}

/// One client population.
#[derive(Clone, Debug, PartialEq)]
pub struct Population {
    /// Display name; also the target of `depart`/`straggle` events.
    pub name: String,
    /// Clients in this population.
    pub clients: usize,
    /// Tenant tag (multi-tenant accounting and isolation).
    pub tenant: u32,
    /// Arrival process.
    pub start: StartModel,
    /// Think-time model.
    pub think: ThinkModel,
    /// Request-size model.
    pub size: SizeModel,
}

/// A phased chaos event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Wire degrades by `num/den` plus `extra_ns` per hop.
    LinkDegrade {
        /// Slowdown numerator.
        num: u32,
        /// Slowdown denominator.
        den: u32,
        /// Flat extra nanoseconds per hop.
        extra_ns: u64,
    },
    /// Wire returns to nominal.
    LinkRestore,
    /// Server NIC engines pause for the duration.
    ServerPause {
        /// Pause length in microseconds.
        dur_us: u64,
    },
    /// A population leaves the closed loop.
    Depart {
        /// Population name.
        population: String,
    },
    /// A population's client CPU slows by `num/den`.
    Straggle {
        /// Population name.
        population: String,
        /// Slowdown numerator.
        num: u32,
        /// Slowdown denominator.
        den: u32,
    },
    /// The server process crashes: its QPs are torn down and recovery
    /// begins after the downtime (the compiler arms a retry policy so
    /// the closed loop survives the crash window).
    ServerCrash {
        /// Downtime before recovery starts, microseconds.
        down_us: u64,
    },
    /// A departed population rejoins the closed loop; connections are
    /// re-established lazily or eagerly per the workload's
    /// `lazy_connect`. A no-op for clients that never departed.
    ClientReconnect {
        /// Population name.
        population: String,
    },
    /// A population's connections are torn down and immediately
    /// re-established while it keeps running: each client pays the full
    /// modelled setup cost before its next request flows.
    ConnChurn {
        /// Population name.
        population: String,
    },
}

/// One timeline entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// When the event fires, microseconds from t=0.
    pub at_us: u64,
    /// What happens.
    pub kind: EventKind,
}

/// Expected bit-exact outcome, checked after the run (the baseline
/// scenario pins the Fig. 3(b) row of `tests/determinism.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Expect {
    /// Exact simulator event count.
    pub events: Option<u64>,
    /// Exact completed-op count.
    pub ops: Option<u64>,
}

/// A full parsed scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Warmup in microseconds.
    pub warmup_us: u64,
    /// Measured run in microseconds.
    pub run_us: u64,
    /// The workload.
    pub workload: Workload,
    /// Client populations (id ranges assigned in listed order).
    pub populations: Vec<Population>,
    /// Chaos timeline, sorted by `at_us`.
    pub events: Vec<Event>,
    /// Optional pinned outcome.
    pub expect: Option<Expect>,
}

// ---- field access helpers ----------------------------------------------

fn check_keys(t: &Table, allowed: &[&str]) -> Result<(), ScenarioError> {
    for e in &t.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(fail(
                Some(e.span),
                format!("unknown key `{}` in [{}]", e.key, t.name),
            ));
        }
    }
    Ok(())
}

fn req<'a>(t: &'a Table, key: &str) -> Result<&'a Entry, ScenarioError> {
    t.get(key)
        .ok_or_else(|| fail(Some(t.span), format!("[{}] is missing key `{key}`", t.name)))
}

fn as_str(e: &Entry) -> Result<&str, ScenarioError> {
    match &e.value {
        Value::Str(s) => Ok(s),
        v => Err(fail(
            Some(e.span),
            format!("`{}` must be a string, got {}", e.key, v.type_name()),
        )),
    }
}

fn as_u64(e: &Entry) -> Result<u64, ScenarioError> {
    match e.value {
        Value::Int(i) if i >= 0 => Ok(i as u64),
        Value::Int(_) => Err(fail(
            Some(e.span),
            format!("`{}` must be non-negative", e.key),
        )),
        ref v => Err(fail(
            Some(e.span),
            format!("`{}` must be an integer, got {}", e.key, v.type_name()),
        )),
    }
}

fn as_usize(e: &Entry) -> Result<usize, ScenarioError> {
    Ok(as_u64(e)? as usize)
}

fn as_f64(e: &Entry) -> Result<f64, ScenarioError> {
    match e.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        ref v => Err(fail(
            Some(e.span),
            format!("`{}` must be a number, got {}", e.key, v.type_name()),
        )),
    }
}

fn as_bool(e: &Entry) -> Result<bool, ScenarioError> {
    match e.value {
        Value::Bool(b) => Ok(b),
        ref v => Err(fail(
            Some(e.span),
            format!("`{}` must be a boolean, got {}", e.key, v.type_name()),
        )),
    }
}

fn opt_u64(t: &Table, key: &str, default: u64) -> Result<u64, ScenarioError> {
    t.get(key).map_or(Ok(default), as_u64)
}

fn opt_usize(t: &Table, key: &str, default: usize) -> Result<usize, ScenarioError> {
    t.get(key).map_or(Ok(default), as_usize)
}

fn opt_bool(t: &Table, key: &str, default: bool) -> Result<bool, ScenarioError> {
    t.get(key).map_or(Ok(default), as_bool)
}

fn opt_f64(t: &Table, key: &str, default: f64) -> Result<f64, ScenarioError> {
    t.get(key).map_or(Ok(default), as_f64)
}

// ---- schema integers → simulated time ----------------------------------

/// Nanoseconds per schema unit, for `*_us` and `*_ns` keys.
pub(crate) const US: u64 = 1_000;
pub(crate) const NS: u64 = 1;

/// The largest time a schema field can hold: a quarter of the `u64`
/// nanosecond clock (~146 years), so warmup + run + drain plus any one
/// offset or duration still fits and no `now + d` downstream can wrap
/// (a release build would silently skew, a debug build panic).
const MAX_TIME_NS: u64 = 1 << 62;

/// The one place a schema time integer becomes simulated time. `span`
/// is the entry's when there is a document.
pub(crate) fn sim_time(
    key: &str,
    value: u64,
    unit_ns: u64,
    span: Option<Span>,
) -> Result<SimDuration, ScenarioError> {
    match value.checked_mul(unit_ns).filter(|&ns| ns <= MAX_TIME_NS) {
        Some(ns) => Ok(SimDuration::nanos(ns)),
        None => Err(fail(
            span,
            format!("`{key}` = {value} overflows the simulated clock (a time field holds at most 2^62 ns)"),
        )),
    }
}

/// Range-checks every `*_us` / `*_ns` integer of `doc`, where its span
/// is in hand. The conversions themselves — and the same check,
/// spanless, for a hand-built `Scenario` — are `compile`'s.
fn check_times(doc: &Doc) -> Result<(), ScenarioError> {
    for e in doc.tables.iter().flat_map(|t| &t.entries) {
        let unit_ns = match &e.key {
            k if k.ends_with("_us") => US,
            k if k.ends_with("_ns") => NS,
            _ => continue,
        };
        if let Value::Int(v @ 0..) = e.value {
            sim_time(&e.key, v as u64, unit_ns, Some(e.span))?;
        }
    }
    Ok(())
}

// ---- from TOML ----------------------------------------------------------

impl Scenario {
    /// Parses scenario text (TOML subset) into the typed AST.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(text)?;
        Scenario::from_doc(&doc)
    }

    /// Validates a parsed document into the typed AST.
    pub fn from_doc(doc: &Doc) -> Result<Scenario, ScenarioError> {
        for t in &doc.tables {
            match (t.name.as_str(), t.array) {
                ("scenario" | "workload" | "expect", false) => {}
                ("population" | "event", true) => {}
                ("population" | "event", false) => {
                    return Err(fail(
                        Some(t.span),
                        format!("use [[{}]] (array of tables)", t.name),
                    ))
                }
                _ => return Err(fail(Some(t.span), format!("unknown table `{}`", t.name))),
            }
        }
        let st = doc
            .table("scenario")
            .ok_or_else(|| fail(None, "missing [scenario] table"))?;
        check_keys(st, &["name", "seed", "warmup_us", "run_us"])?;
        let name = as_str(req(st, "name")?)?.to_string();
        let seed = opt_u64(st, "seed", 42)?;
        let warmup_us = opt_u64(st, "warmup_us", 1000)?;
        let run_us = req(st, "run_us").and_then(as_u64)?;
        if run_us == 0 {
            return Err(fail(Some(st.span), "run_us must be positive"));
        }

        let wt = doc
            .table("workload")
            .ok_or_else(|| fail(None, "missing [workload] table"))?;
        let workload = parse_workload(wt)?;

        let mut populations: Vec<Population> = Vec::new();
        for pt in doc.tables_named("population") {
            let p = parse_population(pt)?;
            if populations.iter().any(|q| q.name == p.name) {
                return Err(fail(
                    Some(pt.span),
                    format!("duplicate population `{}`", p.name),
                ));
            }
            populations.push(p);
        }

        let mut events = Vec::new();
        for et in doc.tables_named("event") {
            let e = parse_event(et)?;
            if let Some(prev) = events.last().map(|p: &Event| p.at_us) {
                if e.at_us < prev {
                    return Err(fail(
                        Some(et.span),
                        format!("events must be sorted by at_us ({} after {prev})", e.at_us),
                    ));
                }
            }
            events.push(e);
        }

        let expect = match doc.table("expect") {
            None => None,
            Some(t) => {
                check_keys(t, &["events", "ops"])?;
                Some(Expect {
                    events: t.get("events").map(as_u64).transpose()?,
                    ops: t.get("ops").map(as_u64).transpose()?,
                })
            }
        };

        let s = Scenario {
            name,
            seed,
            warmup_us,
            run_us,
            workload,
            populations,
            events,
            expect,
        };
        check_times(doc)?;
        s.check_semantics(Some(doc))?;
        Ok(s)
    }

    /// Cross-table validation that needs the whole scenario. The one copy
    /// of each check: `from_doc` runs it with the document, for spans;
    /// `compile` without, as a hand-built scenario never met the parser.
    pub(crate) fn check_semantics(&self, doc: Option<&Doc>) -> Result<(), ScenarioError> {
        let wspan = doc.and_then(|d| d.table("workload")).map(|t| t.span);
        // Where `key` of the `i`-th `[[table]]` sits, given a document.
        let entry_span = |table: &str, i: usize, key: &str| {
            doc.and_then(|d| d.tables_named(table).nth(i))
                .and_then(|t| t.get(key))
                .map(|e| e.span)
        };
        match self.workload {
            Workload::Tx(_) => {
                if !self.populations.is_empty() {
                    return Err(fail(
                        wspan,
                        "tx workloads take coordinators from [workload]; remove [[population]]",
                    ));
                }
                if !self.events.is_empty() {
                    return Err(fail(
                        wspan,
                        "chaos events require an rpc workload (not compiled for tx workloads yet)",
                    ));
                }
            }
            Workload::Raw(_) => {
                if self.populations.len() != 1 {
                    return Err(fail(
                        wspan,
                        "raw workloads need exactly one [[population]] (client count only)",
                    ));
                }
                let p = &self.populations[0];
                if p.start != StartModel::Immediate
                    || p.think != ThinkModel::None
                    || !matches!(p.size, SizeModel::Fixed(_))
                {
                    return Err(fail(
                        wspan,
                        "raw workloads support only immediate starts, no think time and fixed sizes",
                    ));
                }
                if !self.events.is_empty() {
                    return Err(fail(
                        wspan,
                        "chaos events require an rpc workload (raw runs have no injection hooks)",
                    ));
                }
            }
            Workload::Rpc(_) => {
                if self.populations.is_empty() {
                    return Err(fail(
                        wspan,
                        "rpc workloads need at least one [[population]]",
                    ));
                }
            }
        }
        for (i, p) in self.populations.iter().enumerate() {
            if p.clients == 0 {
                return Err(fail(
                    entry_span("population", i, "clients"),
                    format!("population `{}` has zero clients", p.name),
                ));
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            let name = match &e.kind {
                EventKind::Depart { population }
                | EventKind::Straggle { population, .. }
                | EventKind::ClientReconnect { population }
                | EventKind::ConnChurn { population } => population,
                _ => continue,
            };
            if !self.populations.iter().any(|p| &p.name == name) {
                return Err(fail(
                    entry_span("event", i, "population"),
                    format!("unknown population `{name}`"),
                ));
            }
        }
        Ok(())
    }

    /// Total clients across populations (saturating: the counts are
    /// whatever the file said).
    pub fn total_clients(&self) -> usize {
        self.populations
            .iter()
            .fold(0, |n, p| n.saturating_add(p.clients))
    }
}

fn parse_workload(t: &Table) -> Result<Workload, ScenarioError> {
    let kind = as_str(req(t, "kind")?)?;
    if let Some(e) = t.get("nthreads") {
        return Err(fail(
            Some(e.span),
            "unknown key `nthreads` in [workload] (hub workloads run on one engine thread)",
        ));
    }
    match kind {
        "raw" => {
            if let Some(e) = t.get("msg_size") {
                return Err(fail(
                    Some(e.span),
                    "unknown key `msg_size` in [workload] (a raw run's message size is `size` of its [[population]])",
                ));
            }
            check_keys(
                t,
                &[
                    "kind",
                    "verb",
                    "block_size",
                    "blocks_per_client",
                    "server_threads",
                    "window",
                ],
            )?;
            let verb_e = req(t, "verb")?;
            let verb = match as_str(verb_e)? {
                "outbound_write" => RawVerb::OutboundWrite,
                "inbound_write" => RawVerb::InboundWrite,
                "ud_send" => RawVerb::UdSend,
                other => {
                    return Err(fail(
                        Some(verb_e.span),
                        format!(
                            "unknown verb `{other}` (outbound_write | inbound_write | ud_send)"
                        ),
                    ))
                }
            };
            Ok(Workload::Raw(RawWorkload {
                verb,
                block_size: opt_usize(t, "block_size", 4096)?,
                blocks_per_client: opt_usize(t, "blocks_per_client", 20)?,
                server_threads: opt_usize(t, "server_threads", 10)?,
                window: opt_usize(t, "window", 4)?,
            }))
        }
        "rpc" => {
            check_keys(
                t,
                &[
                    "kind",
                    "transport",
                    "machines",
                    "threads_per_machine",
                    "server_threads",
                    "batch",
                    "window",
                    "group_size",
                    "time_slice_us",
                    "slots",
                    "block_size",
                    "dynamic",
                    "regroup_rotations",
                    "tenant_isolate",
                    "lazy_connect",
                    "retry_timeout_us",
                ],
            )?;
            let tr_e = req(t, "transport")?;
            let transport = match as_str(tr_e)? {
                "scalerpc" => RpcTransport::ScaleRpc,
                "rawwrite" => RpcTransport::RawWrite,
                "herd" => RpcTransport::Herd,
                "fasst" => RpcTransport::Fasst,
                "selfrpc" => RpcTransport::SelfRpc,
                other => {
                    return Err(fail(
                        Some(tr_e.span),
                        format!(
                            "unknown transport `{other}` (scalerpc | rawwrite | herd | fasst | selfrpc)"
                        ),
                    ))
                }
            };
            Ok(Workload::Rpc(RpcWorkload {
                transport,
                machines: opt_usize(t, "machines", 11)?,
                threads_per_machine: opt_usize(t, "threads_per_machine", 8)?,
                server_threads: opt_usize(t, "server_threads", 10)?,
                batch: opt_usize(t, "batch", 1)?,
                window: opt_usize(t, "window", 1)?,
                group_size: opt_usize(t, "group_size", 40)?,
                time_slice_us: opt_u64(t, "time_slice_us", 100)?,
                slots: opt_usize(t, "slots", 8)?,
                block_size: opt_usize(t, "block_size", 4096)?,
                dynamic: opt_bool(t, "dynamic", true)?,
                regroup_rotations: opt_u64(t, "regroup_rotations", 4)? as u32,
                tenant_isolate: opt_bool(t, "tenant_isolate", false)?,
                lazy_connect: opt_bool(t, "lazy_connect", false)?,
                retry_timeout_us: opt_u64(t, "retry_timeout_us", 0)?,
            }))
        }
        "tx" => {
            check_keys(
                t,
                &[
                    "kind",
                    "profile",
                    "coordinators",
                    "servers",
                    "client_machines",
                    "window",
                    "one_sided",
                    "value_size",
                    "keys_per_server",
                    "reads",
                    "writes",
                    "hot_fraction",
                    "hot_prob",
                ],
            )?;
            let pr_e = req(t, "profile")?;
            let profile = match as_str(pr_e)? {
                "object_store" => TxProfileKind::ObjectStore,
                "small_bank" => TxProfileKind::SmallBank,
                other => {
                    return Err(fail(
                        Some(pr_e.span),
                        format!("unknown profile `{other}` (object_store | small_bank)"),
                    ))
                }
            };
            Ok(Workload::Tx(TxWorkload {
                profile,
                coordinators: opt_usize(t, "coordinators", 80)?,
                servers: opt_usize(t, "servers", 3)?,
                client_machines: opt_usize(t, "client_machines", 8)?,
                window: opt_usize(t, "window", 4)?,
                one_sided: opt_bool(t, "one_sided", true)?,
                value_size: opt_usize(t, "value_size", 40)?,
                keys_per_server: opt_u64(t, "keys_per_server", 10_000)?,
                reads: opt_usize(t, "reads", 3)?,
                writes: opt_usize(t, "writes", 1)?,
                hot_fraction: opt_f64(t, "hot_fraction", 0.04)?,
                hot_prob: opt_f64(t, "hot_prob", 0.60)?,
            }))
        }
        other => Err(fail(
            Some(req(t, "kind")?.span),
            format!("unknown workload kind `{other}` (raw | rpc | tx)"),
        )),
    }
}

fn parse_population(t: &Table) -> Result<Population, ScenarioError> {
    check_keys(
        t,
        &[
            "name",
            "clients",
            "tenant",
            "start_us",
            "arrival",
            "rate_per_ms",
            "from_us",
            "think",
            "think_us",
            "think_lo_us",
            "think_hi_us",
            "size",
            "size_min",
            "size_max",
            "size_theta",
        ],
    )?;
    let name = as_str(req(t, "name")?)?.to_string();
    let clients = req(t, "clients").and_then(as_usize)?;
    let tenant = opt_u64(t, "tenant", 0)? as u32;

    let start = match t.get("arrival") {
        Some(e) => match as_str(e)? {
            "immediate" => StartModel::Immediate,
            "at" => StartModel::At {
                at_us: req(t, "start_us").and_then(as_u64)?,
            },
            "poisson" => StartModel::Poisson {
                rate_per_ms: req(t, "rate_per_ms").and_then(as_f64)?,
                from_us: opt_u64(t, "from_us", 0)?,
            },
            other => {
                return Err(fail(
                    Some(e.span),
                    format!("unknown arrival `{other}` (immediate | at | poisson)"),
                ))
            }
        },
        None => match t.get("start_us") {
            Some(e) => StartModel::At { at_us: as_u64(e)? },
            None => StartModel::Immediate,
        },
    };

    let think = match t.get("think") {
        None => ThinkModel::None,
        Some(e) => match as_str(e)? {
            "none" => ThinkModel::None,
            "fixed" => ThinkModel::FixedUs(req(t, "think_us").and_then(as_u64)?),
            "uniform" => ThinkModel::UniformUs(
                req(t, "think_lo_us").and_then(as_u64)?,
                req(t, "think_hi_us").and_then(as_u64)?,
            ),
            other => {
                return Err(fail(
                    Some(e.span),
                    format!("unknown think model `{other}` (none | fixed | uniform)"),
                ))
            }
        },
    };
    if let ThinkModel::UniformUs(lo, hi) = think {
        if hi < lo {
            return Err(fail(Some(t.span), "think_hi_us must be >= think_lo_us"));
        }
    }

    let size = match (t.get("size"), t.get("size_min")) {
        (Some(e), Some(_)) => {
            return Err(fail(
                Some(e.span),
                "give either `size` or `size_min`/`size_max`",
            ))
        }
        (Some(e), None) => SizeModel::Fixed(as_usize(e)?),
        (None, Some(_)) => {
            let min = req(t, "size_min").and_then(as_usize)?;
            let max = req(t, "size_max").and_then(as_usize)?;
            if min == 0 || max < min {
                return Err(fail(Some(t.span), "need 0 < size_min <= size_max"));
            }
            SizeModel::Zipf {
                min,
                max,
                theta: opt_f64(t, "size_theta", 0.99)?,
            }
        }
        (None, None) => SizeModel::Fixed(32),
    };

    Ok(Population {
        name,
        clients,
        tenant,
        start,
        think,
        size,
    })
}

fn parse_event(t: &Table) -> Result<Event, ScenarioError> {
    check_keys(
        t,
        &[
            "at_us",
            "kind",
            "num",
            "den",
            "extra_ns",
            "dur_us",
            "down_us",
            "population",
        ],
    )?;
    let at_us = req(t, "at_us").and_then(as_u64)?;
    let kind_e = req(t, "kind")?;
    let pop_name = |t: &Table| req(t, "population").and_then(as_str).map(str::to_string);
    let factor = |t: &Table| -> Result<(u32, u32), ScenarioError> {
        let num = req(t, "num").and_then(as_u64)? as u32;
        let den = opt_u64(t, "den", 1)? as u32;
        if den == 0 || num < den {
            return Err(fail(
                Some(t.span),
                "factor num/den must be >= 1 with nonzero den",
            ));
        }
        Ok((num, den))
    };
    let kind = match as_str(kind_e)? {
        "link_degrade" => {
            let (num, den) = factor(t)?;
            EventKind::LinkDegrade {
                num,
                den,
                extra_ns: opt_u64(t, "extra_ns", 0)?,
            }
        }
        "link_restore" => EventKind::LinkRestore,
        "server_pause" => EventKind::ServerPause {
            dur_us: req(t, "dur_us").and_then(as_u64)?,
        },
        "depart" => EventKind::Depart {
            population: pop_name(t)?,
        },
        "straggle" => {
            let (num, den) = factor(t)?;
            EventKind::Straggle {
                population: pop_name(t)?,
                num,
                den,
            }
        }
        "server_crash" => EventKind::ServerCrash {
            down_us: req(t, "down_us").and_then(as_u64)?,
        },
        "client_reconnect" => EventKind::ClientReconnect {
            population: pop_name(t)?,
        },
        "conn_churn" => EventKind::ConnChurn {
            population: pop_name(t)?,
        },
        other => {
            return Err(fail(
                Some(kind_e.span),
                format!(
                    "unknown event kind `{other}` (link_degrade | link_restore | server_pause | depart | straggle | server_crash | client_reconnect | conn_churn)"
                ),
            ))
        }
    };
    Ok(Event { at_us, kind })
}

// ---- canonical serializer ----------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Scenario {
    /// Serializes back to canonical scenario TOML. `parse(to_toml(s))`
    /// reproduces `s` exactly (the round-trip property).
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(o, "[scenario]");
        let _ = writeln!(o, "name = {}", esc(&self.name));
        let _ = writeln!(o, "seed = {}", self.seed);
        let _ = writeln!(o, "warmup_us = {}", self.warmup_us);
        let _ = writeln!(o, "run_us = {}", self.run_us);
        let _ = writeln!(o);
        let _ = writeln!(o, "[workload]");
        match &self.workload {
            Workload::Raw(w) => {
                let _ = writeln!(o, "kind = \"raw\"");
                let verb = match w.verb {
                    RawVerb::OutboundWrite => "outbound_write",
                    RawVerb::InboundWrite => "inbound_write",
                    RawVerb::UdSend => "ud_send",
                };
                let _ = writeln!(o, "verb = {}", esc(verb));
                let _ = writeln!(o, "block_size = {}", w.block_size);
                let _ = writeln!(o, "blocks_per_client = {}", w.blocks_per_client);
                let _ = writeln!(o, "server_threads = {}", w.server_threads);
                let _ = writeln!(o, "window = {}", w.window);
            }
            Workload::Rpc(w) => {
                let _ = writeln!(o, "kind = \"rpc\"");
                let tr = match w.transport {
                    RpcTransport::ScaleRpc => "scalerpc",
                    RpcTransport::RawWrite => "rawwrite",
                    RpcTransport::Herd => "herd",
                    RpcTransport::Fasst => "fasst",
                    RpcTransport::SelfRpc => "selfrpc",
                };
                let _ = writeln!(o, "transport = {}", esc(tr));
                let _ = writeln!(o, "machines = {}", w.machines);
                let _ = writeln!(o, "threads_per_machine = {}", w.threads_per_machine);
                let _ = writeln!(o, "server_threads = {}", w.server_threads);
                let _ = writeln!(o, "batch = {}", w.batch);
                let _ = writeln!(o, "window = {}", w.window);
                let _ = writeln!(o, "group_size = {}", w.group_size);
                let _ = writeln!(o, "time_slice_us = {}", w.time_slice_us);
                let _ = writeln!(o, "slots = {}", w.slots);
                let _ = writeln!(o, "block_size = {}", w.block_size);
                let _ = writeln!(o, "dynamic = {}", w.dynamic);
                let _ = writeln!(o, "regroup_rotations = {}", w.regroup_rotations);
                let _ = writeln!(o, "tenant_isolate = {}", w.tenant_isolate);
                let _ = writeln!(o, "lazy_connect = {}", w.lazy_connect);
                let _ = writeln!(o, "retry_timeout_us = {}", w.retry_timeout_us);
            }
            Workload::Tx(w) => {
                let _ = writeln!(o, "kind = \"tx\"");
                let pr = match w.profile {
                    TxProfileKind::ObjectStore => "object_store",
                    TxProfileKind::SmallBank => "small_bank",
                };
                let _ = writeln!(o, "profile = {}", esc(pr));
                let _ = writeln!(o, "coordinators = {}", w.coordinators);
                let _ = writeln!(o, "servers = {}", w.servers);
                let _ = writeln!(o, "client_machines = {}", w.client_machines);
                let _ = writeln!(o, "window = {}", w.window);
                let _ = writeln!(o, "one_sided = {}", w.one_sided);
                let _ = writeln!(o, "value_size = {}", w.value_size);
                let _ = writeln!(o, "keys_per_server = {}", w.keys_per_server);
                let _ = writeln!(o, "reads = {}", w.reads);
                let _ = writeln!(o, "writes = {}", w.writes);
                let _ = writeln!(o, "hot_fraction = {:?}", w.hot_fraction);
                let _ = writeln!(o, "hot_prob = {:?}", w.hot_prob);
            }
        }
        for p in &self.populations {
            let _ = writeln!(o);
            let _ = writeln!(o, "[[population]]");
            let _ = writeln!(o, "name = {}", esc(&p.name));
            let _ = writeln!(o, "clients = {}", p.clients);
            let _ = writeln!(o, "tenant = {}", p.tenant);
            match p.start {
                StartModel::Immediate => {
                    let _ = writeln!(o, "arrival = \"immediate\"");
                }
                StartModel::At { at_us } => {
                    let _ = writeln!(o, "arrival = \"at\"");
                    let _ = writeln!(o, "start_us = {at_us}");
                }
                StartModel::Poisson {
                    rate_per_ms,
                    from_us,
                } => {
                    let _ = writeln!(o, "arrival = \"poisson\"");
                    let _ = writeln!(o, "rate_per_ms = {rate_per_ms:?}");
                    let _ = writeln!(o, "from_us = {from_us}");
                }
            }
            match p.think {
                ThinkModel::None => {
                    let _ = writeln!(o, "think = \"none\"");
                }
                ThinkModel::FixedUs(us) => {
                    let _ = writeln!(o, "think = \"fixed\"");
                    let _ = writeln!(o, "think_us = {us}");
                }
                ThinkModel::UniformUs(lo, hi) => {
                    let _ = writeln!(o, "think = \"uniform\"");
                    let _ = writeln!(o, "think_lo_us = {lo}");
                    let _ = writeln!(o, "think_hi_us = {hi}");
                }
            }
            match p.size {
                SizeModel::Fixed(s) => {
                    let _ = writeln!(o, "size = {s}");
                }
                SizeModel::Zipf { min, max, theta } => {
                    let _ = writeln!(o, "size_min = {min}");
                    let _ = writeln!(o, "size_max = {max}");
                    let _ = writeln!(o, "size_theta = {theta:?}");
                }
            }
        }
        for e in &self.events {
            let _ = writeln!(o);
            let _ = writeln!(o, "[[event]]");
            let _ = writeln!(o, "at_us = {}", e.at_us);
            match &e.kind {
                EventKind::LinkDegrade { num, den, extra_ns } => {
                    let _ = writeln!(o, "kind = \"link_degrade\"");
                    let _ = writeln!(o, "num = {num}");
                    let _ = writeln!(o, "den = {den}");
                    let _ = writeln!(o, "extra_ns = {extra_ns}");
                }
                EventKind::LinkRestore => {
                    let _ = writeln!(o, "kind = \"link_restore\"");
                }
                EventKind::ServerPause { dur_us } => {
                    let _ = writeln!(o, "kind = \"server_pause\"");
                    let _ = writeln!(o, "dur_us = {dur_us}");
                }
                EventKind::Depart { population } => {
                    let _ = writeln!(o, "kind = \"depart\"");
                    let _ = writeln!(o, "population = {}", esc(population));
                }
                EventKind::Straggle {
                    population,
                    num,
                    den,
                } => {
                    let _ = writeln!(o, "kind = \"straggle\"");
                    let _ = writeln!(o, "population = {}", esc(population));
                    let _ = writeln!(o, "num = {num}");
                    let _ = writeln!(o, "den = {den}");
                }
                EventKind::ServerCrash { down_us } => {
                    let _ = writeln!(o, "kind = \"server_crash\"");
                    let _ = writeln!(o, "down_us = {down_us}");
                }
                EventKind::ClientReconnect { population } => {
                    let _ = writeln!(o, "kind = \"client_reconnect\"");
                    let _ = writeln!(o, "population = {}", esc(population));
                }
                EventKind::ConnChurn { population } => {
                    let _ = writeln!(o, "kind = \"conn_churn\"");
                    let _ = writeln!(o, "population = {}", esc(population));
                }
            }
        }
        if let Some(x) = self.expect {
            let _ = writeln!(o);
            let _ = writeln!(o, "[expect]");
            if let Some(ev) = x.events {
                let _ = writeln!(o, "events = {ev}");
            }
            if let Some(ops) = x.ops {
                let _ = writeln!(o, "ops = {ops}");
            }
        }
        o
    }
}
