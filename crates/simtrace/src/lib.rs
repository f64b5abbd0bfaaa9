//! Deterministic tracing, spans, and time-series observability.
//!
//! The paper's diagnosis rests on *temporal* evidence — PCM counters
//! sampled over a run (Figs. 3/10), per-slice scheduler behaviour
//! (Fig. 11), and slice-bounded bimodal latency (Fig. 9) — none of which
//! end-of-run totals can show. This crate records that structure:
//!
//! - **Spans**: every RPC carries a [`TraceId`] through the seven
//!   pipeline stages ([`Stage`]) from client post to response receipt,
//!   yielding per-stage latency breakdowns.
//! - **Instant events**: typed scheduler decisions (slice boundaries,
//!   group switches, split/merge, warmup fetches, legacy demotion) and
//!   fabric events (QP-cache eviction, DDIO write-allocate miss).
//! - **Counter time-series**: any `CounterSet` counter sampled at a
//!   configurable virtual-time interval.
//! - **Exporters** ([`export`]): Chrome `trace_event` JSON (load in
//!   `chrome://tracing` / Perfetto) and compact CSV.
//! - **Query API** ([`query::TraceQuery`]): filter by stage / client /
//!   time window and aggregate stage durations, so tests can assert
//!   temporal invariants ("warmup overlapped the previous slice",
//!   "max latency is slice-bounded").
//!
//! # Zero cost when disabled
//!
//! All recording goes through a [`Tracer`] handle. With the `trace`
//! cargo feature off, `Tracer` is a zero-sized struct whose methods are
//! empty `#[inline]` bodies — instrumentation compiles out and the
//! simulator's hot paths, RNG streams, and golden determinism
//! fingerprints are untouched. With the feature on but the tracer
//! disabled at runtime, each hook is one branch on an `Option`.
//! Recording never draws from any simulation RNG and never schedules
//! events, so an *enabled* tracer does not perturb simulation results
//! either — only wall-clock time.

use simcore::{SimDuration, SimTime};

pub mod export;
pub mod query;

/// Identifier carried by one RPC through the pipeline. Allocated by the
/// tracer from a plain counter, so ids are deterministic run-to-run.
pub type TraceId = u64;

/// The seven pipeline stages of one traced RPC, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Client CPU builds and posts the request (post overhead + doorbell).
    ClientPost,
    /// Transmit-side NIC engine service (WQE fetch, QP context, DMA read).
    TxNic,
    /// Wire time: serialization plus propagation and switching.
    Link,
    /// Receive-side NIC engine service at the server.
    RxNic,
    /// DMA/LLC write of the payload into host memory (DDIO).
    Dma,
    /// Server handler execution, including slice/scheduling wait.
    Handler,
    /// Response write from server post to client receipt.
    Response,
}

impl Stage {
    /// All stages in causal order.
    pub const ALL: [Stage; 7] = [
        Stage::ClientPost,
        Stage::TxNic,
        Stage::Link,
        Stage::RxNic,
        Stage::Dma,
        Stage::Handler,
        Stage::Response,
    ];

    /// Stable display name (used by exporters and reports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientPost => "client_post",
            Stage::TxNic => "tx_nic",
            Stage::Link => "link",
            Stage::RxNic => "rx_nic",
            Stage::Dma => "dma_llc_write",
            Stage::Handler => "handler",
            Stage::Response => "response",
        }
    }
}

/// Typed point events from the scheduler and the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstantKind {
    /// A group's time slice began serving (`a` = group index, `b` = epoch).
    SliceStart,
    /// A group's time slice ended (`a` = group index, `b` = epoch).
    SliceEnd,
    /// The scheduler rotated to a new group (`a` = new group index,
    /// `b` = rotation count).
    GroupSwitch,
    /// A replan split groups (`a` = groups before, `b` = groups after).
    GroupSplit,
    /// A replan merged groups (`a` = groups before, `b` = groups after).
    GroupMerge,
    /// The dynamic scheduler re-evaluated client priorities and rebuilt
    /// its group plan — emitted for *every* replan, including ones that
    /// keep the group count unchanged (`a` = rotation count,
    /// `b` = groups after the replan).
    GroupReprioritize,
    /// A warmup RDMA read was issued (`a` = client, `b` = slice epoch).
    WarmupFetchIssue,
    /// A warmup RDMA read completed (`a` = client, `b` = slice epoch).
    WarmupFetchDone,
    /// A call type was demoted to the legacy path (`a` = call type,
    /// `b` = handler cost in ns).
    LegacyDemotion,
    /// The NIC QP-context cache evicted a connection (`a` = evicted QP,
    /// `b` = QP whose access caused it).
    QpCacheEvict,
    /// A DMA write missed the LLC and ran in Write-Allocate mode
    /// (`a` = allocated lines, `b` = destination MR).
    DdioAllocMiss,
    /// A modelled connection establishment reached RTS on both ends
    /// (`a` = initiating QP, `b` = target QP).
    ConnSetup,
    /// A connection endpoint was torn down or crashed to the error state
    /// (`a` = QP, `b` = owning node).
    ConnTeardown,
    /// A client failover retry fired for a request presumed lost
    /// (`a` = client, `b` = attempt number).
    Failover,
}

impl InstantKind {
    /// Stable display name (used by exporters and reports).
    pub fn name(self) -> &'static str {
        match self {
            InstantKind::SliceStart => "slice_start",
            InstantKind::SliceEnd => "slice_end",
            InstantKind::GroupSwitch => "group_switch",
            InstantKind::GroupSplit => "group_split",
            InstantKind::GroupMerge => "group_merge",
            InstantKind::GroupReprioritize => "group_reprioritize",
            InstantKind::WarmupFetchIssue => "warmup_fetch_issue",
            InstantKind::WarmupFetchDone => "warmup_fetch_done",
            InstantKind::LegacyDemotion => "legacy_demotion",
            InstantKind::QpCacheEvict => "qp_cache_evict",
            InstantKind::DdioAllocMiss => "ddio_alloc_miss",
            InstantKind::ConnSetup => "conn_setup",
            InstantKind::ConnTeardown => "conn_teardown",
            InstantKind::Failover => "failover",
        }
    }
}

/// One completed pipeline stage of one traced RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The RPC this stage belongs to.
    pub id: TraceId,
    /// Which pipeline stage.
    pub stage: Stage,
    /// Stage start (virtual time).
    pub start: SimTime,
    /// Stage end (virtual time), `>= start`.
    pub end: SimTime,
    /// Originating client, or `u64::MAX` when unattributed.
    pub client: u64,
}

impl Span {
    /// The stage's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// One typed point event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instant {
    /// Event type.
    pub kind: InstantKind,
    /// When it happened (virtual time).
    pub at: SimTime,
    /// First argument (meaning per [`InstantKind`]).
    pub a: u64,
    /// Second argument (meaning per [`InstantKind`]).
    pub b: u64,
}

/// One counter time-series sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Counter name (as in `CounterSet`).
    pub counter: &'static str,
    /// Sampling instant (virtual time).
    pub at: SimTime,
    /// Cumulative counter value at that instant.
    pub value: u64,
}

/// The recorded trace of one run.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Completed spans, in recording order.
    pub spans: Vec<Span>,
    /// Instant events, in recording order (nondecreasing virtual time).
    pub instants: Vec<Instant>,
    /// Counter samples, in recording order.
    pub samples: Vec<Sample>,
    /// Stages begun via [`Tracer::begin`] with no matching
    /// [`Tracer::end`] yet: `(id, stage, start, client)`.
    open: Vec<(TraceId, Stage, SimTime, u64)>,
    // Only written through `Tracer`, which is a no-op without `trace`.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    next_id: TraceId,
}

#[cfg_attr(not(feature = "trace"), allow(dead_code))]
impl TraceLog {
    fn alloc_id(&mut self) -> TraceId {
        self.next_id += 1;
        self.next_id
    }

    fn begin(&mut self, id: TraceId, stage: Stage, at: SimTime, client: u64) {
        self.open.push((id, stage, at, client));
    }

    fn end(&mut self, id: TraceId, stage: Stage, at: SimTime) {
        if let Some(i) = self
            .open
            .iter()
            .position(|&(oid, ostage, _, _)| oid == id && ostage == stage)
        {
            let (_, _, start, client) = self.open.swap_remove(i);
            self.spans.push(Span {
                id,
                stage,
                start,
                end: at,
                client,
            });
        }
    }

    /// Stages begun but never ended (an in-flight RPC at run end).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(feature = "trace")]
mod tracer_impl {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A clonable recording handle threaded through fabric, harness, and
    /// transports. Disabled by default ([`Tracer::disabled`]): every hook
    /// is then a single `Option` branch. The log lives behind
    /// `Arc<Mutex<…>>` so the handle, and the fabric holding it, stay
    /// `Send`; the mutex is never contended, because one run is one
    /// event loop on one thread and its log order is the event order.
    #[derive(Clone, Debug, Default)]
    pub struct Tracer {
        log: Option<Arc<Mutex<TraceLog>>>,
    }

    impl Tracer {
        /// A tracer that records nothing.
        pub fn disabled() -> Tracer {
            Tracer { log: None }
        }

        /// A tracer that records into a fresh log.
        pub fn enabled() -> Tracer {
            Tracer {
                log: Some(Arc::new(Mutex::new(TraceLog::default()))),
            }
        }

        /// Whether recording is active.
        #[inline]
        pub fn is_enabled(&self) -> bool {
            self.log.is_some()
        }

        /// Takes the log mutex; a poisoned lock means a sibling thread
        /// panicked mid-record, and the whole run is already lost.
        #[inline]
        fn locked_log(log: &Arc<Mutex<TraceLog>>) -> std::sync::MutexGuard<'_, TraceLog> {
            log.lock().unwrap_or_else(|p| p.into_inner())
        }

        /// Allocates the next trace id (0 when disabled — a valid,
        /// never-recorded id).
        #[inline]
        pub fn next_id(&self) -> TraceId {
            match &self.log {
                Some(log) => Self::locked_log(log).alloc_id(),
                None => 0,
            }
        }

        /// Records a completed stage span.
        #[inline]
        pub fn span(&self, id: TraceId, stage: Stage, start: SimTime, end: SimTime, client: u64) {
            if let Some(log) = &self.log {
                Self::locked_log(log).spans.push(Span {
                    id,
                    stage,
                    start,
                    end,
                    client,
                });
            }
        }

        /// Opens a stage that completes in a later callback; pair with
        /// [`end`](Self::end).
        #[inline]
        pub fn begin(&self, id: TraceId, stage: Stage, at: SimTime, client: u64) {
            if let Some(log) = &self.log {
                Self::locked_log(log).begin(id, stage, at, client);
            }
        }

        /// Closes a stage opened by [`begin`](Self::begin); unmatched
        /// ends are ignored.
        #[inline]
        pub fn end(&self, id: TraceId, stage: Stage, at: SimTime) {
            if let Some(log) = &self.log {
                Self::locked_log(log).end(id, stage, at);
            }
        }

        /// Records an instant event.
        #[inline]
        pub fn instant(&self, kind: InstantKind, at: SimTime, a: u64, b: u64) {
            if let Some(log) = &self.log {
                Self::locked_log(log)
                    .instants
                    .push(Instant { kind, at, a, b });
            }
        }

        /// Records one counter sample.
        #[inline]
        pub fn sample(&self, counter: &'static str, at: SimTime, value: u64) {
            if let Some(log) = &self.log {
                Self::locked_log(log)
                    .samples
                    .push(Sample { counter, at, value });
            }
        }

        /// A copy of the log recorded so far (`None` when disabled).
        pub fn snapshot(&self) -> Option<TraceLog> {
            self.log.as_ref().map(|log| Self::locked_log(log).clone())
        }
    }
}

#[cfg(not(feature = "trace"))]
mod tracer_impl {
    use super::*;

    /// The compiled-out tracer: a zero-sized struct whose methods are
    /// empty inline bodies, so instrumented code carries no branches, no
    /// fields of state, and no dependencies on recording internals.
    ///
    /// Deliberately `Clone` but not `Copy`: the recording tracer cannot
    /// be `Copy` (it holds an `Arc`), and keeping the two APIs identical
    /// means instrumented code compiles — and lints — the same way in
    /// both configurations.
    #[derive(Clone, Debug, Default)]
    pub struct Tracer;

    impl Tracer {
        /// A tracer that records nothing (the only kind in this build).
        #[inline(always)]
        pub fn disabled() -> Tracer {
            Tracer
        }

        /// Recording is compiled out; this is [`disabled`](Self::disabled).
        #[inline(always)]
        pub fn enabled() -> Tracer {
            Tracer
        }

        /// Always `false` in this build.
        #[inline(always)]
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// Always 0 in this build.
        #[inline(always)]
        pub fn next_id(&self) -> TraceId {
            0
        }

        /// No-op in this build.
        #[inline(always)]
        pub fn span(&self, _: TraceId, _: Stage, _: SimTime, _: SimTime, _: u64) {}

        /// No-op in this build.
        #[inline(always)]
        pub fn begin(&self, _: TraceId, _: Stage, _: SimTime, _: u64) {}

        /// No-op in this build.
        #[inline(always)]
        pub fn end(&self, _: TraceId, _: Stage, _: SimTime) {}

        /// No-op in this build.
        #[inline(always)]
        pub fn instant(&self, _: InstantKind, _: SimTime, _: u64, _: u64) {}

        /// No-op in this build.
        #[inline(always)]
        pub fn sample(&self, _: &'static str, _: SimTime, _: u64) {}

        /// Always `None` in this build.
        #[inline(always)]
        pub fn snapshot(&self) -> Option<TraceLog> {
            None
        }
    }
}

pub use tracer_impl::Tracer;

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.next_id(), 0);
        t.span(1, Stage::TxNic, SimTime(0), SimTime(10), 0);
        t.instant(InstantKind::SliceEnd, SimTime(5), 0, 0);
        t.sample("PCIeRdCur", SimTime(5), 42);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn enabled_tracer_accumulates_records() {
        let t = Tracer::enabled();
        assert!(t.is_enabled());
        let id = t.next_id();
        assert_eq!(id, 1);
        assert_eq!(t.next_id(), 2);
        t.span(id, Stage::TxNic, SimTime(10), SimTime(25), 3);
        t.instant(InstantKind::GroupSwitch, SimTime(20), 1, 4);
        t.sample("PCIeItoM", SimTime(30), 7);
        let log = t.snapshot().unwrap();
        assert_eq!(log.spans.len(), 1);
        assert_eq!(log.spans[0].duration(), SimDuration(15));
        assert_eq!(log.instants.len(), 1);
        assert_eq!(log.samples.len(), 1);
    }

    #[test]
    fn clones_share_one_log() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.span(t.next_id(), Stage::Dma, SimTime(0), SimTime(1), 0);
        assert_eq!(t.snapshot().unwrap().spans.len(), 1);
    }

    #[test]
    fn begin_end_pairs_into_span() {
        let t = Tracer::enabled();
        let id = t.next_id();
        t.begin(id, Stage::Response, SimTime(100), 9);
        assert_eq!(t.snapshot().unwrap().spans.len(), 0);
        assert_eq!(t.snapshot().unwrap().open_count(), 1);
        t.end(id, Stage::Response, SimTime(180));
        let log = t.snapshot().unwrap();
        assert_eq!(log.open_count(), 0);
        assert_eq!(
            log.spans[0],
            Span {
                id,
                stage: Stage::Response,
                start: SimTime(100),
                end: SimTime(180),
                client: 9,
            }
        );
        // Unmatched end: ignored.
        t.end(id, Stage::Response, SimTime(200));
        assert_eq!(t.snapshot().unwrap().spans.len(), 1);
    }

    #[test]
    fn ids_are_deterministic() {
        let run = || {
            let t = Tracer::enabled();
            (0..5).map(|_| t.next_id()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 2, 3, 4, 5]);
    }
}
