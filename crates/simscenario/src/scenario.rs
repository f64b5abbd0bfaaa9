//! The typed scenario AST and the key tables that define the format.
//!
//! Each table of a scenario file — `[scenario]`, each `[workload]` kind,
//! `[[population]]`, each `[[event]]` kind and `[expect]` — is one list
//! of rows. A row gives a key's name, its typed slot in the AST, whether
//! it is required or its default, its time unit and its bound. Three
//! generic routines walk the same rows: [`Scenario::from_doc`] reads a
//! document (unknown, missing, mistyped and out-of-range keys, each with
//! its span), [`Scenario::to_toml`] writes the canonical text back, and
//! `check` re-tests the bounds without spans when `compile` lowers a
//! hand-built scenario. Rules that relate two keys live once, in
//! `check_semantics`.

use crate::toml::{self, Doc, Span, Table, Value};
use scalerpc_bench::rawverbs::RawVerbKind;
use std::fmt;
use std::mem::discriminant;
use Need::{Keep, Or, Req};
use Slot::{Flag, Ns, Opt, Pick, Text, Us, Usize, F64, U32, U64};
use Value::{Bool, Float, Int};

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

/// RPC transports the scenario runner can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RpcTransport {
    /// ScaleRPC (the paper's system).
    #[default]
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
    pub verb: RawVerbKind,
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
/// with scenario injection hooks). `Default` is all zeros; the format's
/// defaults are the key table's.
#[derive(Clone, Debug, PartialEq, Default)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TxProfileKind {
    /// FaSST-style random-key object store.
    #[default]
    ObjectStore,
    /// SmallBank with a hot set (key skew).
    SmallBank,
}

/// A distributed-transaction workload (compiled to `TxConfig`).
/// `Default` is all zeros; the format's defaults are the key table's.
#[derive(Clone, Debug, PartialEq, Default)]
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

impl EventKind {
    /// The population the event targets, for the kinds that name one.
    pub fn population(&self) -> Option<&str> {
        match self {
            EventKind::Depart { population }
            | EventKind::Straggle { population, .. }
            | EventKind::ClientReconnect { population }
            | EventKind::ConnChurn { population } => Some(population),
            _ => None,
        }
    }
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

impl Scenario {
    /// Parses scenario text (TOML subset) into the typed AST.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(text)?;
        Scenario::from_doc(&doc)
    }

    /// Validates a parsed document into the typed AST. Tables are read
    /// in the order scenario → workload → populations → events → expect;
    /// then every row's range is checked, then `check_semantics` runs.
    pub fn from_doc(doc: &Doc) -> Result<Scenario, ScenarioError> {
        for t in &doc.tables {
            let msg = match (t.name.as_str(), t.array) {
                ("scenario" | "workload" | "expect", false) | ("population" | "event", true) => {
                    continue
                }
                ("population" | "event", false) => format!("use [[{}]] (array of tables)", t.name),
                _ => format!("unknown table `{}`", t.name),
            };
            return Err(fail(Some(t.span), msg));
        }
        // A skeleton with one element per table; reading fills its slots.
        let population = Population {
            name: String::new(),
            clients: 0,
            tenant: 0,
            start: StartModel::Immediate,
            think: ThinkModel::None,
            size: SizeModel::Fixed(0),
        };
        let event = Event {
            at_us: 0,
            kind: EventKind::LinkRestore,
        };
        let mut s = Scenario {
            name: String::new(),
            seed: 0,
            warmup_us: 0,
            run_us: 0,
            workload: Workload::Tx(TxWorkload::default()),
            populations: vec![population; doc.tables_named("population").count()],
            events: vec![event; doc.tables_named("event").count()],
            expect: doc.table("expect").map(|_| Expect::default()),
        };
        for (name, i, mut rows) in s.tables() {
            let t = doc.tables_named(name).nth(i.unwrap_or(0));
            let t = t.ok_or_else(|| fail(None, format!("missing [{name}] table")))?;
            read(t, &mut rows)?;
        }
        s.check(Some(doc))?;
        Ok(s)
    }

    /// Every table of the scenario with its rows, in file order; the
    /// elements of `[[…]]` arrays carry their index.
    fn tables(&mut self) -> Vec<(&'static str, Option<usize>, Vec<Row<'_>>)> {
        let head = vec![
            Row("name", Text(&mut self.name), Req, ANY),
            Row("seed", U64(&mut self.seed), Or(Int(42)), ANY),
            Row("warmup_us", Us(&mut self.warmup_us), Or(Int(1000)), ANY),
            Row("run_us", Us(&mut self.run_us), Req, POSITIVE),
        ];
        let kind = vec![Row("kind", Pick(&mut self.workload), Req, ANY)];
        let mut out = vec![("scenario", None, head), ("workload", None, kind)];
        let pops = self.populations.iter_mut().enumerate();
        out.extend(pops.map(|(i, p)| ("population", Some(i), p.rows())));
        let events = self.events.iter_mut().enumerate();
        out.extend(events.map(|(i, e)| ("event", Some(i), e.rows())));
        out.extend(self.expect.iter_mut().map(|x| ("expect", None, x.rows())));
        out
    }

    /// Tests every row against its time range and its bound, then the
    /// cross-field rules. The one copy of each check: `from_doc` runs it
    /// with the document, for spans; `compile` without, as a hand-built
    /// scenario never met the parser.
    pub(crate) fn check(&self, doc: Option<&Doc>) -> Result<(), ScenarioError> {
        for (name, i, mut rows) in self.clone().tables() {
            let t = doc.and_then(|d| d.tables_named(name).nth(i.unwrap_or(0)));
            walk(&mut rows, &mut |r| match r.violation() {
                Some(msg) => Err(fail(t.and_then(|t| t.get(r.0)).map(|e| e.span), msg)),
                None => Ok(()),
            })?;
        }
        self.check_semantics(doc)
    }

    /// The rules that relate two keys, tables or table elements.
    fn check_semantics(&self, doc: Option<&Doc>) -> Result<(), ScenarioError> {
        // Where the `i`-th `[[table]]` sits, or its `key` entry.
        let span = |table: &str, i: usize, key: Option<&str>| -> Option<Span> {
            let t = doc?.tables_named(table).nth(i)?;
            key.map_or(Some(t.span), |k| t.get(k).map(|e| e.span))
        };
        for (i, p) in self.populations.iter().enumerate() {
            let msg = match (p.think, p.size) {
                (ThinkModel::UniformUs(lo, hi), _) if hi < lo => {
                    "think_hi_us must be >= think_lo_us".to_string()
                }
                (_, SizeModel::Zipf { min, max, .. }) if min == 0 || max < min => {
                    "need 0 < size_min <= size_max".to_string()
                }
                _ if self.populations[..i].iter().any(|q| q.name == p.name) => {
                    format!("duplicate population `{}`", p.name)
                }
                _ => continue,
            };
            return Err(fail(span("population", i, None), msg));
        }
        for (i, e) in self.events.iter().enumerate() {
            let prev = i.checked_sub(1).map_or(0, |j| self.events[j].at_us);
            let msg = match e.kind {
                EventKind::LinkDegrade { num, den, .. } | EventKind::Straggle { num, den, .. }
                    if den == 0 || num < den =>
                {
                    "factor num/den must be >= 1 with nonzero den".to_string()
                }
                _ if e.at_us < prev => {
                    format!("events must be sorted by at_us ({} after {prev})", e.at_us)
                }
                _ => continue,
            };
            return Err(fail(span("event", i, None), msg));
        }
        let (pops, timed) = (self.populations.len(), !self.events.is_empty());
        let shaped = |p: &Population| {
            p.start != StartModel::Immediate
                || p.think != ThinkModel::None
                || !matches!(p.size, SizeModel::Fixed(_))
        };
        let no_ops = |w: &TxWorkload| w.reads == 0 && w.writes == 0;
        let rules = match &self.workload {
            Workload::Tx(w) => vec![
                (
                    pops > 0,
                    "tx workloads take coordinators from [workload]; remove [[population]]",
                ),
                (
                    timed,
                    "chaos events require an rpc workload (not compiled for tx workloads yet)",
                ),
                (
                    w.profile == TxProfileKind::ObjectStore && no_ops(w),
                    "object_store needs reads + writes > 0",
                ),
            ],
            Workload::Raw(_) => {
                vec![
                (pops != 1, "raw workloads need exactly one [[population]] (client count only)"),
                (self.populations.iter().any(shaped),
                 "raw workloads support only immediate starts, no think time and fixed sizes"),
                (timed, "chaos events require an rpc workload (raw runs have no injection hooks)"),
            ]
            }
            Workload::Rpc(_) => vec![(pops == 0, "rpc workloads need at least one [[population]]")],
        };
        if let Some((_, msg)) = rules.into_iter().find(|&(broken, _)| broken) {
            return Err(fail(span("workload", 0, None), msg));
        }
        if let Some(i) = self.populations.iter().position(|p| p.clients == 0) {
            let msg = format!("population `{}` has zero clients", self.populations[i].name);
            return Err(fail(span("population", i, Some(CLIENTS)), msg));
        }
        for (i, e) in self.events.iter().enumerate() {
            match e.kind.population() {
                Some(name) if !self.populations.iter().any(|p| p.name == name) => {
                    let msg = format!("unknown population `{name}`");
                    return Err(fail(span("event", i, Some(POPULATION)), msg));
                }
                _ => {}
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

    /// Serializes back to canonical scenario TOML: every key of every
    /// table, defaults included, in row order. `parse(to_toml(s))`
    /// reproduces `s` exactly (the round-trip property).
    pub fn to_toml(&self) -> String {
        let mut o = String::new();
        for (name, i, mut rows) in self.clone().tables() {
            let sep = if o.is_empty() { "" } else { "\n" };
            o += &match i {
                Some(_) => format!("{sep}[[{name}]]\n"),
                None => format!("{sep}[{name}]\n"),
            };
            let _ = walk(&mut rows, &mut |r| {
                if let Some(v) = r.text() {
                    o += &format!("{} = {v}\n", r.0);
                }
                Ok(())
            });
        }
        o
    }
}

// ---- the key tables --------------------------------------------------
//
// One row per key, in emit order: name, typed slot, what the key's
// absence means (`Req`uired, `Or` a default, `Keep` the slot) and its
// bound. A `Pick` row's string names a variant, whose own rows follow.

/// Keys `check_semantics` names too, to point its diagnostics at.
const CLIENTS: &str = "clients";
const POPULATION: &str = "population";

/// Retired keys: still unknown, with a hint at what replaced them.
#[rustfmt::skip]
const RETIRED: &[(&str, &str, &str)] = &[
    ("workload", "nthreads", "hub workloads run on one engine thread"),
    ("workload", "msg_size", "a raw run's message size is `size` of its [[population]]"),
];

#[rustfmt::skip]
fn raw_rows(w: &mut RawWorkload) -> Vec<Row<'_>> {
    vec![
        Row("verb", Pick(&mut w.verb), Req, ANY),
        Row("block_size", Usize(&mut w.block_size), Or(Int(4096)), ANY),
        Row("blocks_per_client", Usize(&mut w.blocks_per_client), Or(Int(20)), POSITIVE),
        Row("server_threads", Usize(&mut w.server_threads), Or(Int(10)), POSITIVE),
        Row("window", Usize(&mut w.window), Or(Int(4)), POSITIVE),
    ]
}

#[rustfmt::skip]
fn rpc_rows(w: &mut RpcWorkload) -> Vec<Row<'_>> {
    vec![
        Row("transport", Pick(&mut w.transport), Req, ANY),
        Row("machines", Usize(&mut w.machines), Or(Int(11)), POSITIVE),
        Row("threads_per_machine", Usize(&mut w.threads_per_machine), Or(Int(8)), POSITIVE),
        Row("server_threads", Usize(&mut w.server_threads), Or(Int(10)), POSITIVE),
        Row("batch", Usize(&mut w.batch), Or(Int(1)), ANY),
        Row("window", Usize(&mut w.window), Or(Int(1)), ANY),
        Row("group_size", Usize(&mut w.group_size), Or(Int(40)), ANY),
        Row("time_slice_us", Us(&mut w.time_slice_us), Or(Int(100)), ANY),
        Row("slots", Usize(&mut w.slots), Or(Int(8)), ANY),
        Row("block_size", Usize(&mut w.block_size), Or(Int(4096)), ANY),
        Row("dynamic", Flag(&mut w.dynamic), Or(Bool(true)), ANY),
        Row("regroup_rotations", U32(&mut w.regroup_rotations), Or(Int(4)), ANY),
        Row("tenant_isolate", Flag(&mut w.tenant_isolate), Or(Bool(false)), ANY),
        Row("lazy_connect", Flag(&mut w.lazy_connect), Or(Bool(false)), ANY),
        Row("retry_timeout_us", Us(&mut w.retry_timeout_us), Or(Int(0)), ANY),
    ]
}

#[rustfmt::skip]
fn tx_rows(w: &mut TxWorkload) -> Vec<Row<'_>> {
    vec![
        Row("profile", Pick(&mut w.profile), Req, ANY),
        Row("coordinators", Usize(&mut w.coordinators), Or(Int(80)), POSITIVE),
        Row("servers", Usize(&mut w.servers), Or(Int(3)), POSITIVE),
        Row("client_machines", Usize(&mut w.client_machines), Or(Int(8)), POSITIVE),
        Row("window", Usize(&mut w.window), Or(Int(4)), ANY),
        Row("one_sided", Flag(&mut w.one_sided), Or(Bool(true)), ANY),
        Row("value_size", Usize(&mut w.value_size), Or(Int(40)), ANY),
        Row("keys_per_server", U64(&mut w.keys_per_server), Or(Int(10_000)), POSITIVE),
        Row("reads", Usize(&mut w.reads), Or(Int(3)), ANY),
        Row("writes", Usize(&mut w.writes), Or(Int(1)), ANY),
        Row("hot_fraction", F64(&mut w.hot_fraction), Or(Float(0.04)), FRACTION),
        Row("hot_prob", F64(&mut w.hot_prob), Or(Float(0.60)), PROBABILITY),
    ]
}

#[rustfmt::skip]
impl Choice for Workload {
    const WHAT: &'static str = "workload kind";
    fn variants() -> Vec<(&'static str, Self)> {
        let (verb, n) = (RawVerbKind::InboundWrite, 0);
        let (block_size, blocks_per_client, server_threads, window) = (n, n, n, n);
        let raw = RawWorkload { verb, block_size, blocks_per_client, server_threads, window };
        vec![
            ("raw", Workload::Raw(raw)),
            ("rpc", Workload::Rpc(RpcWorkload::default())),
            ("tx", Workload::Tx(TxWorkload::default())),
        ]
    }
    fn rows(&mut self) -> Vec<Row<'_>> {
        match self {
            Workload::Raw(w) => raw_rows(w),
            Workload::Rpc(w) => rpc_rows(w),
            Workload::Tx(w) => tx_rows(w),
        }
    }
}

#[rustfmt::skip]
impl Choice for RawVerbKind {
    const WHAT: &'static str = "verb";
    fn variants() -> Vec<(&'static str, Self)> {
        use RawVerbKind::*;
        vec![("outbound_write", OutboundWrite), ("inbound_write", InboundWrite),
             ("ud_send", UdSend)]
    }
}

#[rustfmt::skip]
impl Choice for RpcTransport {
    const WHAT: &'static str = "transport";
    fn variants() -> Vec<(&'static str, Self)> {
        use RpcTransport::*;
        vec![("scalerpc", ScaleRpc), ("rawwrite", RawWrite), ("herd", Herd),
             ("fasst", Fasst), ("selfrpc", SelfRpc)]
    }
}

#[rustfmt::skip]
impl Choice for TxProfileKind {
    const WHAT: &'static str = "profile";
    fn variants() -> Vec<(&'static str, Self)> {
        vec![("object_store", TxProfileKind::ObjectStore), ("small_bank", TxProfileKind::SmallBank)]
    }
}

#[rustfmt::skip]
impl Population {
    fn rows(&mut self) -> Vec<Row<'_>> {
        vec![
            Row("name", Text(&mut self.name), Req, ANY),
            Row(CLIENTS, Usize(&mut self.clients), Req, ANY),
            Row("tenant", U32(&mut self.tenant), Or(Int(0)), ANY),
            Row("arrival", Pick(&mut self.start), Keep, ANY),
            Row("think", Pick(&mut self.think), Keep, ANY),
            Row("", Pick(&mut self.size), Keep, ANY), // no tag: the keys present pick
        ]
    }
}

#[rustfmt::skip]
impl Choice for StartModel {
    const WHAT: &'static str = "arrival";
    fn variants() -> Vec<(&'static str, Self)> {
        use StartModel::*;
        let (at_us, rate_per_ms, from_us) = (0, 0.0, 0);
        vec![
            ("immediate", Immediate),
            ("at", At { at_us }),
            ("poisson", Poisson { rate_per_ms, from_us }),
        ]
    }
    fn rows(&mut self) -> Vec<Row<'_>> {
        match self {
            StartModel::Immediate => Vec::new(),
            StartModel::At { at_us } => vec![Row("start_us", Us(at_us), Req, ANY)],
            StartModel::Poisson { rate_per_ms, from_us } => vec![
                Row("rate_per_ms", F64(rate_per_ms), Req, RATE),
                Row("from_us", Us(from_us), Or(Int(0)), ANY),
            ],
        }
    }
}

#[rustfmt::skip]
impl Choice for ThinkModel {
    const WHAT: &'static str = "think model";
    fn variants() -> Vec<(&'static str, Self)> {
        use ThinkModel::*;
        vec![("none", None), ("fixed", FixedUs(0)), ("uniform", UniformUs(0, 0))]
    }
    fn rows(&mut self) -> Vec<Row<'_>> {
        match self {
            ThinkModel::None => Vec::new(),
            ThinkModel::FixedUs(us) => vec![Row("think_us", Us(us), Req, ANY)],
            ThinkModel::UniformUs(lo, hi) => vec![
                Row("think_lo_us", Us(lo), Req, ANY),
                Row("think_hi_us", Us(hi), Req, ANY),
            ],
        }
    }
}

#[rustfmt::skip]
impl Choice for SizeModel {
    const WHAT: &'static str = "size model";
    fn variants() -> Vec<(&'static str, Self)> {
        let (min, max, theta) = (0, 0, 0.0);
        vec![("fixed", SizeModel::Fixed(0)), ("zipf", SizeModel::Zipf { min, max, theta })]
    }
    fn rows(&mut self) -> Vec<Row<'_>> {
        match self {
            SizeModel::Fixed(size) => vec![Row("size", Usize(size), Or(Int(32)), ANY)],
            SizeModel::Zipf { min, max, theta } => vec![
                Row("size_min", Usize(min), Req, ANY),
                Row("size_max", Usize(max), Req, ANY),
                Row("size_theta", F64(theta), Or(Float(0.99)), ANY),
            ],
        }
    }
}

#[rustfmt::skip]
impl Event {
    fn rows(&mut self) -> Vec<Row<'_>> {
        vec![Row("at_us", Us(&mut self.at_us), Req, ANY), Row("kind", Pick(&mut self.kind), Req, ANY)]
    }
}

#[rustfmt::skip]
impl Choice for EventKind {
    const WHAT: &'static str = "event kind";
    fn variants() -> Vec<(&'static str, Self)> {
        use EventKind::*;
        let (num, den, p) = (0, 0, String::new);
        vec![
            ("link_degrade", LinkDegrade { num, den, extra_ns: 0 }),
            ("link_restore", LinkRestore),
            ("server_pause", ServerPause { dur_us: 0 }),
            ("depart", Depart { population: p() }),
            ("straggle", Straggle { population: p(), num, den }),
            ("server_crash", ServerCrash { down_us: 0 }),
            ("client_reconnect", ClientReconnect { population: p() }),
            ("conn_churn", ConnChurn { population: p() }),
        ]
    }
    fn rows(&mut self) -> Vec<Row<'_>> {
        use EventKind::*;
        // The slowdown both `link_degrade` and `straggle` take.
        let factor = |num, den| [Row("num", U32(num), Req, ANY), Row("den", U32(den), Or(Int(1)), ANY)];
        let target = |population| Row(POPULATION, Text(population), Req, ANY);
        match self {
            LinkDegrade { num, den, extra_ns } => {
                let extra = Row("extra_ns", Ns(extra_ns), Or(Int(0)), ANY);
                factor(num, den).into_iter().chain([extra]).collect()
            }
            LinkRestore => Vec::new(),
            ServerPause { dur_us } => vec![Row("dur_us", Us(dur_us), Req, ANY)],
            Straggle { population, num, den } => {
                [target(population)].into_iter().chain(factor(num, den)).collect()
            }
            ServerCrash { down_us } => vec![Row("down_us", Us(down_us), Req, ANY)],
            Depart { population } | ClientReconnect { population } | ConnChurn { population } => {
                vec![target(population)]
            }
        }
    }
}

#[rustfmt::skip]
impl Expect {
    fn rows(&mut self) -> Vec<Row<'_>> {
        vec![Row("events", Opt(&mut self.events), Keep, ANY), Row("ops", Opt(&mut self.ops), Keep, ANY)]
    }
}

// ---- rows and the routines that walk them ----------------------------

/// One key of a table: its name, its slot, what its absence means and
/// its bound.
struct Row<'a>(&'static str, Slot<'a>, Need, Bound);

/// Where a key's value lives in the AST, and so its type.
enum Slot<'a> {
    Text(&'a mut String),
    U64(&'a mut u64),
    /// Times in microseconds and nanoseconds, at most [`MAX_TIME_NS`].
    Us(&'a mut u64),
    Ns(&'a mut u64),
    /// Refused, not wrapped, past `u32::MAX`.
    U32(&'a mut u32),
    Usize(&'a mut usize),
    F64(&'a mut f64),
    Flag(&'a mut bool),
    /// Absent stays `None` and is not written back.
    Opt(&'a mut Option<u64>),
    Pick(&'a mut dyn Tag),
}

/// What a key's absence from its table means.
enum Need {
    Req,
    /// This value, read as if the file had given it.
    Or(Value),
    /// The slot as it is; a tag takes the variant whose keys are present.
    Keep,
}

/// A single-field bound: the test, and the words that finish "`key`
/// must be …".
#[derive(Clone, Copy)]
struct Bound(fn(f64) -> bool, &'static str);

const ANY: Bound = Bound(|_| true, "");
const POSITIVE: Bound = Bound(|x| x > 0.0, "positive");
const RATE: Bound = Bound(|x| x > 0.0 && x.is_finite(), "positive and finite");
const FRACTION: Bound = Bound(|x| x > 0.0 && x <= 1.0, "in (0, 1]");
const PROBABILITY: Bound = Bound(|x| (0.0..=1.0).contains(&x), "in [0, 1]");

/// The largest time a schema field can hold: a quarter of the `u64`
/// nanosecond clock (~146 years), so warmup + run + drain plus any one
/// offset or duration still fits and no `now + d` downstream can wrap
/// (a release build would silently skew, a debug build panic).
const MAX_TIME_NS: u64 = 1 << 62;

impl Row<'_> {
    /// Stores `v`, or says why it does not fit the slot's type.
    fn set(&mut self, v: &Value) -> Result<(), String> {
        let key = self.0;
        let bad = |what: &str| format!("`{key}` must be {what}, got {}", v.type_name());
        let int = || match *v {
            Int(i) => u64::try_from(i).map_err(|_| format!("`{key}` must be non-negative")),
            _ => Err(bad("an integer")),
        };
        match (&mut self.1, v) {
            (Text(s), Value::Str(x)) => **s = x.clone(),
            (Pick(t), Value::Str(x)) => t.pick(x)?,
            (Text(_) | Pick(_), _) => return Err(bad("a string")),
            (F64(x), Float(f)) => **x = *f,
            (F64(x), Int(i)) => **x = *i as f64,
            (F64(_), _) => return Err(bad("a number")),
            (Flag(b), Bool(x)) => **b = *x,
            (Flag(_), _) => return Err(bad("a boolean")),
            (U64(x) | Us(x) | Ns(x), _) => **x = int()?,
            (U32(x), _) => **x = narrow(key, int()?)?,
            (Usize(x), _) => **x = narrow(key, int()?)?,
            (Opt(x), _) => **x = Some(int()?),
        }
        Ok(())
    }

    /// The value as written back, or `None` for no line.
    fn text(&self) -> Option<String> {
        Some(match &self.1 {
            Text(s) => esc(s),
            Pick(_) if self.0.is_empty() => return None,
            Pick(t) => esc(t.name()),
            U64(x) | Us(x) | Ns(x) => x.to_string(),
            U32(x) => x.to_string(),
            Usize(x) => x.to_string(),
            F64(x) => format!("{x:?}"),
            Flag(b) => b.to_string(),
            Opt(x) => x.as_ref()?.to_string(),
        })
    }

    /// What is wrong with the value against its time range and bound.
    fn violation(&self) -> Option<String> {
        let Row(key, slot, _, Bound(admits, words)) = self;
        let unit_ns = if matches!(slot, Us(_)) { 1_000 } else { 1 };
        let x = match slot {
            Us(v) | Ns(v) if v.checked_mul(unit_ns).is_none_or(|ns| ns > MAX_TIME_NS) => {
                let most = "a time field holds at most 2^62 ns";
                return Some(format!(
                    "`{key}` = {v} overflows the simulated clock ({most})"
                ));
            }
            U64(v) | Us(v) | Ns(v) => **v as f64,
            U32(v) => f64::from(**v),
            Usize(v) => **v as f64,
            F64(v) => **v,
            _ => return None,
        };
        (!admits(x)).then(|| format!("`{key}` must be {words}"))
    }
}

fn narrow<T: TryFrom<u64>>(key: &str, i: u64) -> Result<T, String> {
    let bits = 8 * std::mem::size_of::<T>();
    T::try_from(i).map_err(|_| format!("`{key}` = {i} does not fit in {bits} bits"))
}

/// Quotes `s` with the escapes the parser reads back.
fn esc(s: &str) -> String {
    let s = s.replace('\\', "\\\\").replace('"', "\\\"");
    format!("\"{}\"", s.replace('\n', "\\n").replace('\t', "\\t"))
}

/// An enum a string key names by variant; each variant brings its own
/// rows.
trait Choice: Sized + 'static {
    /// Finishes "unknown … `x`".
    const WHAT: &'static str;
    /// Every variant by name, its fields placeholders its rows fill.
    fn variants() -> Vec<(&'static str, Self)>;
    fn rows(&mut self) -> Vec<Row<'_>> {
        Vec::new()
    }
}

/// The face of a [`Choice`] that a [`Slot::Pick`] holds.
trait Tag {
    fn name(&self) -> &'static str;
    fn pick(&mut self, name: &str) -> Result<(), String>;
    /// Without the tag: takes the variant whose keys `t` holds, if one.
    fn infer(&mut self, t: &Table) -> Result<(), ScenarioError>;
    fn rows(&mut self) -> Vec<Row<'_>>;
}

impl<T: Choice> Tag for T {
    fn name(&self) -> &'static str {
        let mut all = T::variants().into_iter();
        let same = all.find(|(_, v)| discriminant(v) == discriminant(self));
        same.map_or("", |(name, _)| name)
    }

    fn pick(&mut self, name: &str) -> Result<(), String> {
        let all = T::variants();
        let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        let unknown = || format!("unknown {} `{name}` ({})", T::WHAT, names.join(" | "));
        *self = all
            .into_iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(unknown)?
            .1;
        Ok(())
    }

    fn infer(&mut self, t: &Table) -> Result<(), ScenarioError> {
        let mut named = T::variants().into_iter().filter_map(|(_, mut v)| {
            let e = Choice::rows(&mut v).iter().find_map(|r| t.get(r.0))?;
            Some((e, v))
        });
        match (named.next(), named.next()) {
            (Some((a, _)), Some((b, _))) => {
                let msg = format!("give either `{}` or `{}`", a.key, b.key);
                Err(fail(Some(a.span), msg))
            }
            (Some((_, v)), None) => {
                *self = v;
                Ok(())
            }
            (None, _) => Ok(()),
        }
    }

    fn rows(&mut self) -> Vec<Row<'_>> {
        Choice::rows(self)
    }
}

/// Visits `rows` in order, each tag's own rows right after the tag.
fn walk(
    rows: &mut [Row<'_>],
    f: &mut dyn FnMut(&mut Row<'_>) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    for r in rows {
        f(r)?;
        if let Pick(t) = &mut r.1 {
            walk(&mut t.rows(), f)?;
        }
    }
    Ok(())
}

/// Reads table `t` into the slots of `rows`: first every tag's variant,
/// which decides the rows that follow it, then unknown keys, then each
/// other slot from its entry or its default. So within a table an
/// unknown key is reported before a missing or mistyped one.
fn read(t: &Table, rows: &mut [Row<'_>]) -> Result<(), ScenarioError> {
    let missing = |key: &str| fail(Some(t.span), format!("[{}] is missing key `{key}`", t.name));
    let mut keys = Vec::new();
    walk(rows, &mut |r| {
        keys.push(r.0);
        match (&mut r.1, t.get(r.0), &r.2) {
            (Pick(_), Some(e), _) => r.set(&e.value).map_err(|m| fail(Some(e.span), m)),
            (Pick(_), None, Req) => Err(missing(r.0)),
            (Pick(tag), None, _) => tag.infer(t),
            _ => Ok(()),
        }
    })?;
    if let Some(e) = t.entries.iter().find(|e| !keys.contains(&e.key.as_str())) {
        let retired = RETIRED
            .iter()
            .find(|&&(table, key, _)| table == t.name && key == e.key);
        let hint = retired.map_or(String::new(), |(_, _, hint)| format!(" ({hint})"));
        let msg = format!("unknown key `{}` in [{}]{hint}", e.key, t.name);
        return Err(fail(Some(e.span), msg));
    }
    walk(rows, &mut |r| {
        let (span, v) = match (&r.1, t.get(r.0), &r.2) {
            (Pick(_), ..) | (_, None, Keep) => return Ok(()),
            (_, Some(e), _) => (Some(e.span), e.value.clone()),
            (_, None, Req) => return Err(missing(r.0)),
            (_, None, Or(v)) => (None, v.clone()),
        };
        r.set(&v).map_err(|m| fail(span, m))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::toml::Entry;

    /// Valid scenarios that between them reach every variant with a
    /// bounded or timed row.
    const BASES: &[&str] = &[
        "[scenario]\nname = \"r\"\nrun_us = 500\n\n[workload]\nkind = \"raw\"\nverb = \"inbound_write\"\n\n[[population]]\nname = \"a\"\nclients = 4\n",
        "[scenario]\nname = \"p\"\nrun_us = 500\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nwindow = 4\n\n[[population]]\nname = \"a\"\nclients = 4\nstart_us = 10\nthink = \"fixed\"\nthink_us = 1\n\n[[population]]\nname = \"b\"\nclients = 4\narrival = \"poisson\"\nrate_per_ms = 5.0\nthink_lo_us = 1\nthink_hi_us = 2\n\n[[event]]\nat_us = 100\nkind = \"link_degrade\"\nnum = 2\n\n[[event]]\nat_us = 200\nkind = \"server_pause\"\ndur_us = 5\n\n[[event]]\nat_us = 300\nkind = \"server_crash\"\ndown_us = 5\n",
        "[scenario]\nname = \"t\"\nrun_us = 500\n\n[workload]\nkind = \"tx\"\nprofile = \"small_bank\"\n",
    ];

    /// Values just outside the row's time range and its bound.
    fn outside(r: &Row<'_>) -> Vec<Value> {
        let mut out = Vec::new();
        match r.1 {
            Us(_) => out.push(Int((MAX_TIME_NS / 1_000 + 1) as i64)),
            Ns(_) => out.push(Int((MAX_TIME_NS + 1) as i64)),
            _ => {}
        }
        let Bound(admits, _) = r.3;
        if let Some(x) = [0.0, 1.5, f64::INFINITY].into_iter().find(|&x| !admits(x)) {
            out.push(if matches!(r.1, F64(_)) {
                Float(x)
            } else {
                Int(x as i64)
            });
        }
        out
    }

    /// Keys with a time unit or a bound, over every variant of `T`.
    fn checked_keys<T: Choice>(out: &mut Vec<&'static str>) {
        for (_, mut v) in T::variants() {
            walk(&mut Choice::rows(&mut v), &mut |r| {
                if !outside(r).is_empty() {
                    out.push(r.0);
                }
                Ok(())
            })
            .unwrap();
        }
    }

    /// One bound, one message, both paths: a value just outside any
    /// row's range is refused from text with the key's span, and from a
    /// hand-built scenario through `compile` without one — with the
    /// same words.
    #[test]
    fn every_bound_rejects_from_text_and_from_compile_alike() {
        let mut want = Vec::new();
        checked_keys::<Workload>(&mut want);
        checked_keys::<StartModel>(&mut want);
        checked_keys::<ThinkModel>(&mut want);
        checked_keys::<SizeModel>(&mut want);
        checked_keys::<EventKind>(&mut want);
        let mut seen = Vec::new();
        for base in BASES {
            let doc = toml::parse(base).unwrap();
            let sc = Scenario::from_doc(&doc).unwrap();
            compile(&sc).expect("base compiles");
            let mut cases = Vec::new();
            for (name, i, mut rows) in sc.clone().tables() {
                walk(&mut rows, &mut |r| {
                    for v in outside(r) {
                        cases.push((name, i.unwrap_or(0), r.0, v));
                    }
                    Ok(())
                })
                .unwrap();
            }
            for (name, i, key, bad) in cases {
                let mut d = doc.clone();
                let t = d
                    .tables
                    .iter_mut()
                    .filter(|t| t.name == name)
                    .nth(i)
                    .unwrap();
                match t.entries.iter_mut().find(|e| e.key == key) {
                    Some(e) => e.value = bad.clone(),
                    None => t.entries.push(Entry {
                        key: key.to_string(),
                        value: bad.clone(),
                        span: Span { line: 99, col: 1 },
                    }),
                }
                let at = t.get(key).map(|e| e.span);
                let from_text = Scenario::from_doc(&d).unwrap_err();

                let mut hand = sc.clone();
                for (n, j, mut rows) in hand.tables() {
                    if (n, j.unwrap_or(0)) == (name, i) {
                        walk(&mut rows, &mut |r| {
                            if r.0 == key {
                                r.set(&bad).unwrap();
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                }
                let from_compile = compile(&hand).unwrap_err();
                assert_eq!(from_text.span, at, "`{key}` = {bad:?}: {from_text}");
                assert_eq!(from_compile.span, None, "`{key}` = {bad:?}");
                assert_eq!(from_text.msg, from_compile.msg, "`{key}` = {bad:?}");
                assert!(
                    from_text.msg.starts_with(&format!("`{key}`")),
                    "{from_text}"
                );
                seen.push(key);
            }
        }
        for key in want {
            assert!(seen.contains(&key), "`{key}` has a bound no base reaches");
        }
    }

    #[test]
    fn u32_keys_refuse_to_wrap() {
        let base = BASES[1];
        for (from, to) in [
            (
                "window = 4\n",
                "window = 4\nregroup_rotations = 4294967300\n",
            ),
            ("num = 2\n", "num = 2\nden = 4294967296\n"),
        ] {
            let e = Scenario::parse(&base.replace(from, to)).unwrap_err();
            assert!(e.msg.ends_with("does not fit in 32 bits"), "{e}");
        }
    }

    #[test]
    fn absent_tags_follow_the_keys_present() {
        let sc = Scenario::parse(BASES[1]).unwrap();
        // `start_us` without `arrival` means `at`; likewise `think`.
        assert_eq!(sc.populations[0].start, StartModel::At { at_us: 10 });
        assert_eq!(sc.populations[1].think, ThinkModel::UniformUs(1, 2));
        let both = BASES[1].replace("think_us = 1\n", "think_us = 1\nsize = 64\nsize_min = 32\n");
        let e = Scenario::parse(&both).unwrap_err();
        assert_eq!(e.msg, "give either `size` or `size_min`");
    }
}
