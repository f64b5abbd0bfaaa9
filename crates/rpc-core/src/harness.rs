//! Closed-loop benchmark harness.
//!
//! Plays the role of the paper's coroutine-based client loops (§3.6.1):
//! each client posts a batch of requests through the transport's
//! asynchronous interface, waits for all responses, optionally sleeps a
//! think time, and repeats. Client CPUs are modelled: all coroutines on
//! one machine thread share that thread's time, charged per post and per
//! response according to the transport's
//! [`ClientOverhead`](crate::transport::ClientOverhead) — this is
//! what lets UD transports' higher per-op client cost show up as the
//! saturation behaviour of Fig. 8's right half.

use crate::cluster::{ClientCpu, ClientId, Cluster};
use crate::driver::{Cx, Logic};
use crate::inject::{self, ClientStart, FaultEv, Injection, ScenarioError, ScenarioSpec};
use crate::metrics::{RpcMetrics, Window};
use crate::sharded::ShardedSim;
use crate::transport::{LifecycleEv, Response, RpcTransport};
use crate::window::RequestWindow;
use crate::workload::ThinkTime;
use bytes::Bytes;
use rdma_fabric::{Fabric, NodeId, Upcall};
use simcore::stats::CounterSet;
use simcore::{DetRng, SimDuration, SimTime};
use simtrace::{InstantKind, Stage, Tracer};
use std::fmt;

/// The retry timeout a scenario with lifecycle events gets when it
/// names none: well above any healthy round trip (single-digit µs), so
/// steady traffic never spuriously retransmits, and well below typical
/// chaos horizons, so crash recovery converges.
pub const DEFAULT_RETRY_TIMEOUT: SimDuration = SimDuration::micros(500);

/// Backoff factor between retransmissions: attempt `n` waits
/// `timeout * RETRY_BACKOFF^(n-1)` (exponent capped to keep the
/// arithmetic in range).
const RETRY_BACKOFF: u64 = 2;

/// Attempts before the harness gives up and leaves a request in flight
/// (a stuck client the invariant checks flag).
const RETRY_ATTEMPTS: u32 = 16;

/// Harness configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Requests per batch ("batch size" in Fig. 8/9).
    pub batch_size: usize,
    /// Request payload size in bytes (32 in the paper's microbenchmarks).
    pub request_size: usize,
    /// Warmup to exclude from measurement.
    pub warmup: SimDuration,
    /// Measured run length (after warmup).
    pub run: SimDuration,
    /// Per-client think time models; either one entry used for everyone
    /// or exactly one per client.
    pub think: Vec<ThinkTime>,
    /// RNG seed.
    pub seed: u64,
    /// Outstanding-request window per client (the asynchronous
    /// submit/poll-completion client of §3.6.1). `1` is the seed's
    /// synchronous batch loop: post `batch_size` requests, wait for the
    /// last response, repeat. `W > 1` keeps up to `W` independent
    /// requests in flight, replenishing one per completion (requires
    /// `batch_size == 1` — the window supersedes batching). Either way a
    /// client's requests in flight are one [`RequestWindow`] of
    /// `max(window, batch_size)` entries. Transports with slot-addressed
    /// client buffers (8 message slots) support windows up to 8.
    pub window: usize,
    /// Ignored: one run is one loop on one thread. The field is kept
    /// for source compatibility — `benchmark/` names it in struct
    /// literals — and goes with the next `[benchmark]` PR.
    pub nthreads: usize,
    /// Client-side failover: when a request has seen no response for
    /// this timeout, the harness presumes it lost (server crash, dropped
    /// packet, torn connection) and retransmits it with the same
    /// sequence number, backing off exponentially between attempts.
    /// Retransmissions reuse the original `(client, seq)` identity, so
    /// the guarantee is end-to-end exactly-once: the transport's
    /// server-side record of executed seqs drops duplicate executions,
    /// and the client window ignores duplicate responses. Required for
    /// scenarios with server crashes. `None` (the default) schedules no
    /// retry timers, keeping steady-state runs event-identical to the
    /// pre-failover harness.
    pub retry: Option<SimDuration>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            batch_size: 1,
            request_size: 32,
            warmup: SimDuration::millis(2),
            run: SimDuration::millis(8),
            nthreads: 1,
            think: vec![ThinkTime::None],
            seed: 42,
            window: 1,
            retry: None,
        }
    }
}

/// Why a [`HarnessConfig`] was rejected at construction. Every variant
/// used to be a mid-run assert; the typed form lets config-driven
/// frontends like `simscenario` report the problem with a source span
/// instead of crashing the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessConfigError {
    /// `batch_size == 0`.
    ZeroBatch,
    /// `window == 0`.
    ZeroWindow,
    /// `window > 1` with `batch_size > 1`.
    WindowSupersedesBatching,
    /// `think` has neither 1 nor one-per-client entries.
    ThinkLen { clients: usize, got: usize },
    /// The client population is empty.
    ZeroClients,
    /// A zero retry timeout.
    BadRetryPolicy,
}

impl fmt::Display for HarnessConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HarnessConfigError::ZeroBatch => write!(f, "batch size must be positive"),
            HarnessConfigError::ZeroWindow => write!(f, "window must be positive"),
            HarnessConfigError::WindowSupersedesBatching => {
                write!(f, "window > 1 supersedes batching; use batch_size 1")
            }
            HarnessConfigError::ThinkLen { clients, got } => {
                write!(
                    f,
                    "think-time list must have 1 or {clients} entries, got {got}"
                )
            }
            HarnessConfigError::ZeroClients => write!(f, "need at least one client"),
            HarnessConfigError::BadRetryPolicy => write!(f, "retry timeout must be positive"),
        }
    }
}

impl std::error::Error for HarnessConfigError {}

impl HarnessConfig {
    /// Checks the whole config against a client population size.
    pub fn validate(&self, clients: usize) -> Result<(), HarnessConfigError> {
        if self.batch_size == 0 {
            return Err(HarnessConfigError::ZeroBatch);
        }
        if self.window == 0 {
            return Err(HarnessConfigError::ZeroWindow);
        }
        if self.window > 1 && self.batch_size > 1 {
            return Err(HarnessConfigError::WindowSupersedesBatching);
        }
        if clients == 0 {
            return Err(HarnessConfigError::ZeroClients);
        }
        if self.think.len() != 1 && self.think.len() != clients {
            return Err(HarnessConfigError::ThinkLen {
                clients,
                got: self.think.len(),
            });
        }
        if self.retry == Some(SimDuration::ZERO) {
            return Err(HarnessConfigError::BadRetryPolicy);
        }
        Ok(())
    }
}

struct ClientState {
    next_seq: u64,
    /// When the last batch was posted: a synchronous round's latency is
    /// measured from here.
    batch_started: SimTime,
    /// The requests in flight, each tagged with its submit time so a
    /// windowed client's latency is per request, not per batch.
    window: RequestWindow<SimTime>,
    rng: DetRng,
    stopped: bool,
}

/// Harness events.
pub enum HarnessEv<TEv> {
    /// Transport-internal event, forwarded.
    Transport(TEv),
    /// A client is ready to think about its next batch.
    Wake(ClientId),
    /// A client's thread got around to actually posting the batch. The
    /// count is how many posts the thread grant paid for at schedule
    /// time; the post must not submit more than that, however much
    /// room the window has freed since (each later completion books and
    /// schedules its own post). Without the cap a backlogged thread's
    /// deferred posts would refill whole windows they never paid for,
    /// and the closed loop would run faster than the client CPU allows.
    Post(ClientId, usize),
    /// Periodic counter-sampling tick (only scheduled while tracing).
    Sample,
    /// A timer of the fault layer ([`inject::apply`]): the next entry of
    /// the installed [`ScenarioSpec`]'s timeline fires, or the crashed
    /// server's downtime ends. Only scheduled when a scenario with a
    /// non-empty timeline is installed, so scenario-free runs carry no
    /// injection cost at all.
    Fault(FaultEv),
    /// Failover retransmission timer for `(client, seq)`; the counter is
    /// the attempt number (1-based). Only scheduled when
    /// [`HarnessConfig::retry`] is set.
    Retry(ClientId, u64, u32),
}

/// Produces the request payload for `(client, seq)`. The default
/// generator emits fixed-size payloads (the paper's 32-byte
/// microbenchmark messages); application workloads (mdtest, transactions)
/// plug their own.
pub trait RequestGen {
    /// Builds one request payload: a pure function of `(client, seq)`,
    /// so a retransmission regenerates the bytes it first sent.
    fn gen(&self, client: ClientId, seq: u64) -> Bytes;
}

/// Fixed-size generator used by the raw RPC microbenchmarks.
///
/// No model cost depends on payload *contents* (only on length), so the
/// payload is built once and handed out by reference-counted clone —
/// the generator sits on the per-request hot path of every closed-loop
/// benchmark and used to allocate a fresh buffer each call.
pub struct FixedSizeGen {
    template: Bytes,
}

impl FixedSizeGen {
    /// Creates a generator emitting `size`-byte payloads.
    pub fn new(size: usize) -> Self {
        FixedSizeGen {
            template: Bytes::from(vec![0u8; size]),
        }
    }
}

impl RequestGen for FixedSizeGen {
    fn gen(&self, _client: ClientId, _seq: u64) -> Bytes {
        self.template.clone()
    }
}

/// The closed-loop harness: owns the transport, the client set and the
/// metrics, and implements [`Logic`] so it can be driven by
/// [`ShardedSim`].
pub struct Harness<T: RpcTransport> {
    /// The transport under test.
    pub transport: T,
    /// The client machines' threads (and the cluster they belong to).
    cpu: ClientCpu,
    cfg: HarnessConfig,
    clients: Vec<ClientState>,
    gen: Box<dyn RequestGen>,
    /// Collected results.
    pub metrics: RpcMetrics,
    stop_at: SimTime,
    /// What the transport delivered during the current callback; empty
    /// between callbacks, its capacity kept.
    responses: Vec<Response>,
    tracer: Tracer,
    /// `(node, counter)` pairs sampled into the trace every
    /// `sample_every` of virtual time.
    sampled: Vec<(NodeId, &'static str)>,
    sample_every: SimDuration,
    /// Installed scenario, if any (`None` must behave bit-exactly like
    /// the pre-scenario harness).
    scenario: Option<ScenarioSpec>,
    /// Requests submitted to the transport (all clients, whole run —
    /// the fuzzer's conservation invariant needs totals, not just the
    /// measurement window `metrics` covers).
    issued: u64,
    /// Responses retired (whole run).
    completed: u64,
    /// Per-client retired counts (per-tenant reporting).
    completed_by_client: Vec<u64>,
    /// Failover retransmissions posted (whole run). Separate from
    /// `issued`: a retransmission reuses its original request's identity
    /// and completion, so conservation stays `issued == completed +
    /// in_flight` however many times a request was resent.
    retries: u64,
}

impl<T: RpcTransport> Harness<T> {
    /// Builds a harness around `transport` for the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.think` is neither a single entry nor one per
    /// client, or if `batch_size` is zero.
    pub fn new(transport: T, cluster: Cluster, cfg: HarnessConfig) -> Self {
        let size = cfg.request_size;
        Self::with_generator(transport, cluster, cfg, Box::new(FixedSizeGen::new(size)))
    }

    /// Builds a harness with a custom request generator (application
    /// workloads like mdtest or the transaction drivers).
    pub fn with_generator(
        transport: T,
        cluster: Cluster,
        cfg: HarnessConfig,
        gen: Box<dyn RequestGen>,
    ) -> Self {
        match Self::try_with_generator(transport, cluster, cfg, gen) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Harness::with_generator`]: rejects invalid
    /// configs with a typed error instead of panicking.
    pub fn try_with_generator(
        transport: T,
        cluster: Cluster,
        cfg: HarnessConfig,
        gen: Box<dyn RequestGen>,
    ) -> Result<Self, HarnessConfigError> {
        let n = cluster.clients();
        cfg.validate(n)?;
        let rng = DetRng::new(cfg.seed);
        let clients = (0..n)
            .map(|c| ClientState {
                next_seq: 0,
                batch_started: SimTime::ZERO,
                window: RequestWindow::new(cfg.window.max(cfg.batch_size)),
                rng: rng.split(c as u64),
                stopped: false,
            })
            .collect();
        let measured = Window::after(cfg.warmup, cfg.run);
        Ok(Harness {
            transport,
            cpu: ClientCpu::new(cluster),
            cfg,
            clients,
            gen,
            metrics: RpcMetrics::new(measured),
            stop_at: measured.end,
            responses: Vec::new(),
            tracer: Tracer::disabled(),
            sampled: Vec::new(),
            sample_every: SimDuration::micros(50),
            scenario: None,
            issued: 0,
            completed: 0,
            completed_by_client: vec![0; n],
            retries: 0,
        })
    }

    /// Installs a scenario (client activation plan plus chaos timeline).
    /// Must be called before the sim runs `init`. The empty spec is
    /// bit-exactly equivalent to not installing one.
    pub fn set_scenario(&mut self, spec: ScenarioSpec) -> Result<(), ScenarioError> {
        spec.validate(self.clients.len(), 1)?;
        if self.cfg.retry.is_none() {
            if let Some(index) = spec
                .timeline
                .iter()
                .position(|(_, inj)| matches!(inj, Injection::ServerCrash { .. }))
            {
                return Err(ScenarioError::CrashNeedsRetry { index });
            }
        }
        self.scenario = Some(spec);
        Ok(())
    }

    /// Requests submitted to the transport over the whole run.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Responses retired over the whole run.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Responses retired per client (per-tenant accounting).
    pub fn completed_by_client(&self) -> &[u64] {
        &self.completed_by_client
    }

    /// Failover retransmissions posted over the whole run.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests currently outstanding across all clients. After a run
    /// drains to quiescence this must satisfy
    /// `issued == completed + in_flight` (conservation) and be zero
    /// unless a client's pipeline wedged.
    pub fn in_flight(&self) -> u64 {
        self.clients
            .iter()
            .map(|st| st.window.in_flight() as u64)
            .sum()
    }

    /// Clients that still hold in-flight requests (the fuzzer's
    /// no-stuck-clients invariant: empty after drain).
    pub fn stuck_clients(&self) -> Vec<ClientId> {
        (0..self.clients.len())
            .filter(|&c| !self.clients[c].window.is_empty())
            .collect()
    }

    /// Samples the named counters of `node` into the trace every `every`
    /// of virtual time (time-series for Fig. 3/10-style plots). Only
    /// takes effect when the fabric has an enabled tracer installed;
    /// sampling reads counters and never perturbs the simulation.
    pub fn sample_counters(&mut self, node: NodeId, counters: &[&'static str], every: SimDuration) {
        assert!(every.as_nanos() > 0, "sampling interval must be positive");
        self.sampled.extend(counters.iter().map(|&c| (node, c)));
        self.sample_every = every;
    }

    /// When the measurement window (and client posting) ends.
    pub fn stop_at(&self) -> SimTime {
        self.stop_at
    }

    /// The cluster this harness runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.cpu.cluster
    }

    /// Replays the closed loop on `fabric` — warm-up, measured window,
    /// drain ([`ShardedSim::replay`]) — and returns the finished engine
    /// with the server's fabric counters over the window.
    pub fn replay(self, fabric: Fabric) -> (ShardedSim<Self>, CounterSet) {
        let (measured, server) = (self.metrics.measured, self.cluster().server);
        let mut sim = ShardedSim::new_sequential(fabric, self);
        let over_window = sim.replay(measured, &[server]);
        (sim, over_window)
    }

    fn schedule_post(&mut self, client: ClientId, cx: &mut Cx<'_, HarnessEv<T::Ev>>) {
        // Claim the client thread for posting as many requests as the
        // window has room for: a whole batch for a synchronous client,
        // whose window is empty when it wakes, or the free entries of a
        // windowed one. A wake that finds the window full posts nothing
        // (a later completion will wake the client again).
        let window = &self.clients[client].window;
        let posts = window.capacity() - window.in_flight();
        if posts == 0 {
            return;
        }
        let per_post = self.transport.client_overhead().per_post;
        let grant = self.cpu.acquire(client, cx.now, per_post * posts as u64);
        cx.at(grant.begin, HarnessEv::Post(client, posts));
    }

    /// Posts the `paid` requests a thread grant covered, or as many as
    /// the window still has room for (the replenish step), each entered
    /// with its own submit time. Room freed since the grant belongs to
    /// the completions that freed it.
    fn post(&mut self, c: ClientId, paid: usize, cx: &mut Cx<'_, HarnessEv<T::Ev>>) {
        self.clients[c].batch_started = cx.now;
        let per_post = self.transport.client_overhead().per_post;
        for i in 0..paid as u64 {
            let st = &mut self.clients[c];
            let (seq, start) = (st.next_seq, cx.now + per_post * i);
            if !st.window.submit(seq, start) {
                break;
            }
            st.next_seq += 1;
            let payload = self.gen.gen(c, seq);
            // Allocate a trace id for this request's pipeline and stamp
            // it onto the fabric so the transport's posts inherit it (0
            // when tracing is off — untraced).
            let id = self.tracer.next_id();
            if id != 0 {
                self.tracer
                    .span(id, Stage::ClientPost, start, start + per_post, c as u64);
            }
            self.issued += 1;
            if let Some(timeout) = self.cfg.retry {
                cx.at(start + timeout, HarnessEv::Retry(c, seq, 1));
            }
            cx.fabric.set_trace_ctx(id);
            with_transport_cx(cx, |tcx| {
                self.transport
                    .submit(c, seq, payload, tcx, &mut self.responses)
            });
        }
        cx.fabric.set_trace_ctx(0);
        self.drain_responses(cx);
    }

    fn drain_responses(&mut self, cx: &mut Cx<'_, HarnessEv<T::Ev>>) {
        // Charge response-processing CPU and end rounds. Nothing in the
        // loop reaches the transport, so the list does not grow while it
        // is out of `self`.
        let mut responses = std::mem::take(&mut self.responses);
        for resp in responses.drain(..) {
            let c = resp.client;
            let overhead = self.transport.client_overhead();
            // One completed op: response detection plus the transport's
            // fixed dispatch work, stretched when the machine timeslices
            // more threads than cores.
            let cost = overhead.per_response + overhead.per_dispatch;
            let grant = self.cpu.acquire(c, cx.now, cost);
            let st = &mut self.clients[c];
            // Seqs the window does not hold are duplicate notifications.
            let Some(done) = st.window.complete(resp.seq) else {
                continue;
            };
            self.completed += 1;
            self.completed_by_client[c] += 1;
            // When the client has a round to record and a next post to
            // wake. A windowed client's round is each completion, and it
            // cannot *observe* one before its thread gets CPU to poll
            // it: the op retires at the grant's completion, not at NIC
            // arrival, which is what lets a high per-op client cost cap
            // windowed throughput at the machine's core budget (Fig. 8
            // right) instead of being hidden behind the window. A
            // synchronous client's round is its batch, observed at the
            // last response's arrival.
            let (at, ops, since) = if self.cfg.window > 1 {
                (grant.complete, 1, done.tag)
            } else if st.window.is_empty() {
                (cx.now, self.cfg.batch_size as u64, st.batch_started)
            } else {
                continue;
            };
            self.metrics
                .record_batch(at, ops, at.saturating_since(since));
            if cx.now < self.stop_at && !st.stopped {
                let think = self.cfg.think[c % self.cfg.think.len()].sample(&mut st.rng);
                cx.at(at + think, HarnessEv::Wake(c));
            } else {
                st.stopped = true;
            }
        }
        self.responses = responses;
    }
}

impl<T: RpcTransport> Logic for Harness<T> {
    type Ev = HarnessEv<T::Ev>;

    fn init(&mut self, cx: &mut Cx<'_, Self::Ev>) {
        self.tracer = cx.fabric.tracer().clone();
        // Adapt the Cx event type for the transport's init.
        with_transport_cx(cx, |tcx| self.transport.init(tcx));
        // Stagger client start to avoid a thundering herd at t=0.
        // Scenario `At` starts replace the jitter draw wholesale;
        // `Immediate` draws it from the same per-client stream so an
        // all-immediate scenario is bit-identical to no scenario.
        for c in 0..self.clients.len() {
            let start = match self.scenario.as_ref().map(|s| s.starts[c]) {
                None | Some(ClientStart::Immediate) => SimTime(self.clients[c].rng.below(2_000)),
                Some(ClientStart::At(t)) => t,
            };
            cx.at(start, HarnessEv::Wake(c));
        }
        if let Some(spec) = &self.scenario {
            inject::arm(&spec.timeline, cx, HarnessEv::Fault);
        }
        if self.tracer.is_enabled() && !self.sampled.is_empty() {
            cx.at(SimTime::ZERO + self.sample_every, HarnessEv::Sample);
        }
    }

    fn on_upcall(&mut self, up: Upcall, cx: &mut Cx<'_, Self::Ev>) {
        with_transport_cx(cx, |tcx| {
            self.transport.on_upcall(up, tcx, &mut self.responses)
        });
        self.drain_responses(cx);
    }

    fn on_app(&mut self, ev: Self::Ev, cx: &mut Cx<'_, Self::Ev>) {
        match ev {
            HarnessEv::Transport(tev) => {
                with_transport_cx(cx, |tcx| {
                    self.transport.on_app(tev, tcx, &mut self.responses)
                });
                self.drain_responses(cx);
            }
            HarnessEv::Wake(c) => {
                // `stopped` also covers scenario departures: a departed
                // client may still have a think-time wake queued.
                if cx.now >= self.stop_at || self.clients[c].stopped {
                    self.clients[c].stopped = true;
                    return;
                }
                self.schedule_post(c, cx);
            }
            HarnessEv::Post(c, paid) => self.post(c, paid, cx),
            HarnessEv::Fault(ev) => {
                let spec = self
                    .scenario
                    .as_ref()
                    .expect("fault timer without scenario");
                // The fault layer applies fabric-side entries itself and
                // hands back every fired entry; the client-population
                // kinds are this logic's to carry out.
                let fired = inject::apply(
                    ev,
                    &spec.timeline,
                    &[self.cpu.cluster.server],
                    std::slice::from_mut(&mut self.transport),
                    cx,
                    HarnessEv::Fault,
                    |_, tev| HarnessEv::Transport(tev),
                );
                match fired {
                    Some(Injection::Depart { first, last }) => {
                        for c in first..=last {
                            self.clients[c].stopped = true;
                        }
                    }
                    Some(Injection::Straggle {
                        first,
                        last,
                        num,
                        den,
                    }) => self.cpu.straggle(first, last, num, den),
                    Some(Injection::Reconnect { first, last }) => {
                        for c in first..=last {
                            if !self.clients[c].stopped || cx.now >= self.stop_at {
                                continue;
                            }
                            self.clients[c].stopped = false;
                            with_transport_cx(cx, |tcx| {
                                self.transport.on_lifecycle(LifecycleEv::ConnReset(c), tcx)
                            });
                            // Rejoin with per-client jitter so a range
                            // reconnect is not a thundering herd.
                            let jitter = SimDuration(self.clients[c].rng.below(2_000));
                            cx.after(jitter, HarnessEv::Wake(c));
                        }
                    }
                    Some(Injection::ConnChurn { first, last }) => {
                        // Each churned client pays the control-plane CPU
                        // (destroy + re-setup) on its own thread — the
                        // Swift cost model — before the transport's
                        // deferred reconnect adds the RTS latency.
                        let p = cx.fabric.params();
                        let setup = p.qp_destroy_cpu + p.conn_setup_cpu();
                        for c in first..=last {
                            self.cpu.acquire(c, cx.now, setup);
                            with_transport_cx(cx, |tcx| {
                                self.transport.on_lifecycle(LifecycleEv::ConnReset(c), tcx)
                            });
                        }
                    }
                    _ => {}
                }
            }
            HarnessEv::Retry(c, seq, attempt) => {
                let Some(timeout) = self.cfg.retry else {
                    return;
                };
                if !self.clients[c].window.contains(seq) {
                    return; // completed in the meantime
                }
                if attempt > RETRY_ATTEMPTS {
                    return; // give up; the client stays stuck and is flagged
                }
                let payload = self.gen.gen(c, seq);
                self.retries += 1;
                self.tracer
                    .instant(InstantKind::Failover, cx.now, c as u64, attempt as u64);
                // The retransmission costs one post of client CPU.
                let per_post = self.transport.client_overhead().per_post;
                self.cpu.acquire(c, cx.now, per_post);
                cx.fabric.set_trace_ctx(0);
                with_transport_cx(cx, |tcx| {
                    self.transport
                        .submit(c, seq, payload, tcx, &mut self.responses)
                });
                self.drain_responses(cx);
                // Attempt n+1 waits timeout * backoff^n (capped exponent
                // keeps the arithmetic in range).
                let exp = attempt.min(16);
                let delay =
                    SimDuration(timeout.0.saturating_mul(RETRY_BACKOFF.saturating_pow(exp)));
                cx.at(cx.now + delay, HarnessEv::Retry(c, seq, attempt + 1));
            }
            HarnessEv::Sample => {
                for &(node, counter) in &self.sampled {
                    if let Ok(cs) = cx.fabric.counters(node) {
                        self.tracer.sample(counter, cx.now, cs.get(counter));
                    }
                }
                if cx.now < self.stop_at {
                    cx.at(cx.now + self.sample_every, HarnessEv::Sample);
                }
            }
        }
    }
}

/// Runs `f` with a `Cx` whose app-event type is the transport's, wrapping
/// any events the transport schedules back into [`HarnessEv::Transport`].
fn with_transport_cx<TEv, R>(
    cx: &mut Cx<'_, HarnessEv<TEv>>,
    f: impl FnOnce(&mut Cx<'_, TEv>) -> R,
) -> R {
    cx.scoped(HarnessEv::Transport, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> HarnessConfig {
        HarnessConfig::default()
    }

    #[test]
    fn validate_accepts_default() {
        assert_eq!(base().validate(40), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_batch() {
        let cfg = HarnessConfig {
            batch_size: 0,
            ..base()
        };
        assert_eq!(cfg.validate(40), Err(HarnessConfigError::ZeroBatch));
    }

    #[test]
    fn validate_rejects_zero_window() {
        let cfg = HarnessConfig {
            window: 0,
            ..base()
        };
        assert_eq!(cfg.validate(40), Err(HarnessConfigError::ZeroWindow));
    }

    #[test]
    fn validate_rejects_window_with_batching() {
        let cfg = HarnessConfig {
            window: 4,
            batch_size: 8,
            ..base()
        };
        assert_eq!(
            cfg.validate(40),
            Err(HarnessConfigError::WindowSupersedesBatching)
        );
    }

    #[test]
    fn validate_accepts_retry_on_a_synchronous_batch() {
        let cfg = HarnessConfig {
            batch_size: 8,
            retry: Some(DEFAULT_RETRY_TIMEOUT),
            ..base()
        };
        assert_eq!(cfg.validate(40), Ok(()));
        let cfg = HarnessConfig {
            retry: Some(SimDuration::ZERO),
            ..cfg
        };
        assert_eq!(cfg.validate(40), Err(HarnessConfigError::BadRetryPolicy));
    }

    #[test]
    fn validate_rejects_zero_clients() {
        assert_eq!(base().validate(0), Err(HarnessConfigError::ZeroClients));
    }

    #[test]
    fn validate_rejects_bad_think_len() {
        let cfg = HarnessConfig {
            think: vec![ThinkTime::None; 3],
            ..base()
        };
        assert_eq!(
            cfg.validate(40),
            Err(HarnessConfigError::ThinkLen {
                clients: 40,
                got: 3
            })
        );
    }

    /// A transport that does nothing: `drain_responses` only asks it
    /// for its client overhead.
    struct Inert;

    impl RpcTransport for Inert {
        type Ev = ();
        fn init(&mut self, _: &mut Cx<'_, ()>) {}
        fn on_upcall(&mut self, _: Upcall, _: &mut Cx<'_, ()>, _: &mut Vec<Response>) {}
        fn on_app(&mut self, _: (), _: &mut Cx<'_, ()>, _: &mut Vec<Response>) {}
        fn submit(
            &mut self,
            _: ClientId,
            _: u64,
            _: Bytes,
            _: &mut Cx<'_, ()>,
            _: &mut Vec<Response>,
        ) {
        }
        fn client_overhead(&self) -> crate::transport::ClientOverhead {
            crate::transport::ClientOverhead {
                per_post: SimDuration::nanos(10),
                per_response: SimDuration::nanos(10),
                per_dispatch: SimDuration::ZERO,
            }
        }
        fn name(&self) -> &'static str {
            "inert"
        }
    }

    #[test]
    fn drain_responses_empties_the_list_and_keeps_its_buffer() {
        let mut fabric = Fabric::new(rdma_fabric::FabricParams::default());
        let cluster = Cluster::build(&mut fabric, Default::default());
        let cfg = HarnessConfig {
            batch_size: 2,
            ..base()
        };
        let mut h = Harness::new(Inert, cluster, cfg);
        for seq in 0..2 {
            assert!(h.clients[3].window.submit(seq, SimTime::ZERO));
        }
        h.responses.reserve_exact(32);
        let buffer = (h.responses.as_ptr(), h.responses.capacity());
        for seq in 0..3 {
            // The third is not in flight: a duplicate, ignored.
            h.responses.push(Response {
                client: 3,
                seq,
                payload: Bytes::new(),
            });
        }
        let mut staged_app = Vec::new();
        let mut cx = Cx {
            now: SimTime(100),
            fabric: &mut fabric,
            sched: &mut |_, _| {},
            staged_app: &mut staged_app,
        };
        h.drain_responses(&mut cx);
        assert!(h.responses.is_empty());
        assert_eq!((h.responses.as_ptr(), h.responses.capacity()), buffer);
        assert_eq!((h.completed(), h.in_flight()), (2, 0));
        // The finished batch woke its client.
        assert!(matches!(staged_app[..], [(_, HarnessEv::Wake(3))]));
    }

    #[test]
    fn errors_render_the_legacy_assert_messages() {
        assert_eq!(
            HarnessConfigError::ZeroBatch.to_string(),
            "batch size must be positive"
        );
        assert_eq!(
            HarnessConfigError::WindowSupersedesBatching.to_string(),
            "window > 1 supersedes batching; use batch_size 1"
        );
    }
}
