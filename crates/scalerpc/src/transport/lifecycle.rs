//! The elastic control plane of [`ScaleRpc`](super::ScaleRpc): each
//! client's connection and the submits buffered while it is down, the
//! server's crash flag, and the exactly-once guard and response-replay
//! cache that keep retries safe across a disturbance.

use bytes::Bytes;
use rdma_fabric::{Fabric, QpId, VerbResult};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::transport::ServerHandler;
use simcore::{DetHashMap, Fsm, SimDuration, Transitions};

use super::{ScaleEv, ScaleRpc};

/// Where a client's connection stands.
///
/// Eager (seed) deployments are `Ready` from construction and never
/// leave it on the steady-state path, so the variants are free there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// No connection; the next submit triggers establishment.
    Absent,
    /// Setup in flight; submits are buffered until `ConnEstablished`.
    Pending,
    /// Both QPs at RTS; the data path is open.
    Ready,
}

impl Transitions for ConnState {
    /// Every edge but `Absent → Ready`: the data path opens only after
    /// an establishment this transport started (the stale-`ConnRts` bug).
    fn allows(self, to: Self) -> bool {
        use ConnState::*;
        matches!(
            (self, to),
            (Absent, Pending) | (Pending, Ready | Absent) | (Ready, Pending | Absent)
        )
    }
}

/// Per-client response-replay cache depth: bounds accumulation across
/// repeated crash windows (one window holds at most `slots` entries).
const RESP_CACHE: usize = 256;

/// The executed sequences among the 1024 up to `high`, one bit each at
/// `seq % 1024`. 1024 bits (vs the seed's 128) leaves ample slack for
/// multi-outstanding clients that stride sequence numbers across window
/// slots (see `scaletx`): a slot stalled behind a slice boundary can fall
/// hundreds of seqs behind its siblings without being misclassified as a
/// duplicate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SeqWindow {
    /// Highest sequence recorded.
    high: u64,
    bits: [u64; SEQ_WINDOW_BITS as usize / 64],
}

/// Width of the duplicate-detection window in bits.
const SEQ_WINDOW_BITS: u64 = 1024;

impl SeqWindow {
    fn bit(&mut self, seq: u64) -> (&mut u64, u64) {
        let i = (seq % SEQ_WINDOW_BITS) as usize;
        (&mut self.bits[i / 64], 1 << (i % 64))
    }

    /// Records `seq`; returns `false` when it was already executed
    /// (duplicate) or lies too far below `high` to tell.
    #[inline]
    fn record(&mut self, seq: u64) -> bool {
        if seq > self.high {
            // The slots the window slides onto held seqs 1024 lower.
            for s in (self.high + 1).max(seq.saturating_sub(SEQ_WINDOW_BITS - 1))..=seq {
                let (word, mask) = self.bit(s);
                *word &= !mask;
            }
            self.high = seq;
        } else if self.high - seq >= SEQ_WINDOW_BITS {
            return false; // ancient: certainly a duplicate
        }
        let (word, mask) = self.bit(seq);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

/// One client's connection.
struct Conn {
    /// `(server end, client end)`.
    qps: (QpId, QpId),
    state: Fsm<ConnState>,
    /// Requests submitted while the connection was down or being set up,
    /// flushed in order on `ConnEstablished`.
    pending: Vec<(u64, Bytes)>,
    /// Executed sequences: a warmup re-fetch can copy a staged request
    /// whose response is still in flight, and handlers with side effects
    /// (locks, transactions) need exactly-once execution.
    executed: SeqWindow,
    /// Responses kept for replay: a retransmission whose *response* was
    /// lost (crash window, churned QP) hits the exactly-once guard and
    /// would strand its client. Filled for every response when
    /// `cfg.elastic`, and always while `down`.
    resp_cache: Vec<(u64, Bytes)>,
}

impl Conn {
    /// Puts both ends back to Reset, ready for a fresh establishment.
    fn reset_qps(&self, fabric: &mut Fabric) {
        let _ = fabric.reset_qp(self.qps.0);
        let _ = fabric.reset_qp(self.qps.1);
    }
}

/// Every client's connection lifecycle, and the server's liveness.
#[derive(Default)]
pub(super) struct Lifecycle {
    conns: Vec<Conn>,
    /// QP → owning client, routing `ConnEstablished` upcalls.
    qp_index: DetHashMap<QpId, ClientId>,
    /// `cfg.lazy_connect`: the first submit sets a connection up.
    lazy: bool,
    /// `cfg.elastic`: every response is kept for replay.
    cache_every_response: bool,
    /// The server is crashed: its QPs are errored, posts toward it drop
    /// and server-side timers/upcalls are suppressed until recovery.
    down: bool,
    /// A lifecycle event has occurred this run: gates replay, so
    /// steady-state duplicate handling stays bit-exact.
    elastic_seen: bool,
    dropped_posts: u64,
    replayed_responses: u64,
}

impl Lifecycle {
    /// One connection per `(server_qp, client_qp)`, `Ready` unless set
    /// up lazily; `lazy` and `elastic` are the config's.
    pub(super) fn new(lazy: bool, elastic: bool, qps: Vec<(QpId, QpId)>) -> Self {
        use ConnState::{Absent, Ready};
        let state = Fsm::new(if lazy { Absent } else { Ready });
        let mut qp_index = DetHashMap::default();
        let mut conns = Vec::with_capacity(qps.len());
        for (c, qps) in qps.into_iter().enumerate() {
            qp_index.insert(qps.0, c);
            qp_index.insert(qps.1, c);
            let (pending, executed, resp_cache) = Default::default();
            conns.push(Conn {
                qps,
                state,
                pending,
                executed,
                resp_cache,
            });
        }
        Lifecycle {
            conns,
            qp_index,
            lazy,
            cache_every_response: elastic,
            ..Default::default()
        }
    }

    /// The server is crashed and not yet recovered.
    #[inline]
    pub(super) fn is_down(&self) -> bool {
        self.down
    }

    /// A post's result, tolerating a torn-down or not-yet-ready QP: the
    /// drop is counted, and the harness retry layer re-drives the work.
    #[inline]
    pub(super) fn posted<T>(&mut self, result: VerbResult<T>) -> Option<T> {
        match result {
            Ok(info) => Some(info),
            Err(_) => {
                self.dropped_posts += 1;
                None
            }
        }
    }

    /// Records `seq` for `client`; `false` for a duplicate.
    #[inline]
    pub(super) fn record_seq(&mut self, client: ClientId, seq: u64) -> bool {
        self.conns[client].executed.record(seq)
    }

    /// The response to replay for a duplicate `(client, seq)`, once a
    /// lifecycle event may have lost it.
    pub(super) fn replay(&mut self, client: ClientId, seq: u64) -> Option<Bytes> {
        if !self.elastic_seen {
            return None;
        }
        let resp = self.conns[client]
            .resp_cache
            .iter()
            .find(|e| e.0 == seq)
            .map(|e| e.1.clone())?;
        self.replayed_responses += 1;
        Some(resp)
    }

    /// A response to `(client, seq)` is ready: keeps it for replay where
    /// it may be lost, and answers whether the server is up to post it
    /// (one computed while it is down is the canonical lost response).
    #[inline]
    pub(super) fn keep_response(&mut self, client: ClientId, seq: u64, payload: &Bytes) -> bool {
        if self.cache_every_response || self.down {
            let cache = &mut self.conns[client].resp_cache;
            cache.retain(|e| e.0 != seq);
            // Bounded; evicts the oldest (lowest) sequence.
            if cache.len() >= RESP_CACHE {
                if let Some(i) = (0..cache.len()).min_by_key(|&i| cache[i].0) {
                    cache.swap_remove(i);
                }
            }
            cache.push((seq, payload.clone()));
        }
        !self.down
    }

    /// The response to `(client, seq)` reached the client. It can never
    /// need replay again: the client FSM has completed this sequence, so
    /// no retransmission of it will arrive. Pruning keeps the bounded
    /// replay cache holding only *undelivered* responses — the exact
    /// failover replay set — instead of letting steady traffic evict the
    /// stuck entries (lowest-seq eviction would discard precisely the
    /// oldest, still-unacknowledged request a retry is about to ask for).
    #[inline]
    pub(super) fn delivered(&mut self, client: ClientId, seq: u64) {
        self.conns[client].resp_cache.retain(|e| e.0 != seq);
    }

    /// A submit of `(client, seq)`: returns the payload to dispatch now
    /// if the connection is up, else buffers it (dropping a retry of one
    /// already buffered) until establishment — which a lazy client's
    /// first RPC starts, paying the setup cost.
    #[inline]
    pub(super) fn admit(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, ScaleEv>,
    ) -> Option<Bytes> {
        let conn = &mut self.conns[client];
        let state = conn.state.get();
        if state == ConnState::Ready {
            return Some(payload);
        }
        // `Absent` never holds buffered requests, so the check is moot
        // there.
        if !conn.pending.iter().any(|(s, _)| *s == seq) {
            conn.pending.push((seq, payload));
        }
        if state == ConnState::Absent {
            self.begin_connect(client, cx);
        }
        None
    }

    /// Kicks off a modelled establishment. While the server is crashed it
    /// fails verb-side; the client stays `Pending` and `recover` re-drives
    /// the setup.
    fn begin_connect(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        let conn = &mut self.conns[client];
        conn.state.set(ConnState::Pending);
        // The deferred-setup path models the full control-plane cost
        // (QP create + RTS transition) before `ConnEstablished` fires.
        let _ = cx.connect_deferred(conn.qps.1, conn.qps.0);
    }

    /// Both ends of `qp`'s connection reached RTS: opens the data path
    /// and returns the client with the requests buffered during setup,
    /// in submission order, for dispatch.
    pub(super) fn established(
        &mut self,
        qp: QpId,
        cx: &mut Cx<'_, ScaleEv>,
    ) -> Option<(ClientId, Vec<(u64, Bytes)>)> {
        let &client = self.qp_index.get(&qp)?;
        let conn = &mut self.conns[client];
        if conn.state.get() != ConnState::Pending {
            // Only an establishment this transport is waiting for may
            // open the data path. A stale `ConnRts` from a setup that
            // predates a churn can land while the client is parked in
            // `Absent` (lazy mode); accepting it would open the data path
            // with none of the re-setup cost paid. The fabric did move
            // the QPs to RTS, so put them back to Reset or the next
            // `begin_connect` would fail and strand the client.
            if conn.state.get() == ConnState::Absent {
                conn.reset_qps(cx.fabric);
            }
            return None;
        }
        conn.state.set(ConnState::Ready);
        Some((client, std::mem::take(&mut conn.pending)))
    }

    pub(super) fn reconnect_due(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        if !self.down && self.conns[client].state.get() == ConnState::Pending {
            self.begin_connect(client, cx);
        }
    }

    /// Connection churn for one client: both QPs torn down (in-flight
    /// packets drop) and re-established, the full setup cost paid before
    /// the client's next request flows.
    pub(super) fn reset(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.elastic_seen = true;
        let conn = &mut self.conns[client];
        // Tear both ends down, then bring them back to Reset so a fresh
        // establishment can run (the legal Error → Reset → RTS path).
        let _ = cx.fabric.destroy_qp(conn.qps.0);
        let _ = cx.fabric.destroy_qp(conn.qps.1);
        conn.reset_qps(cx.fabric);
        if self.down {
            // Reconnection waits for server recovery.
            conn.state.set(ConnState::Pending);
        } else if self.lazy && conn.pending.is_empty() {
            // Lazy clients with nothing buffered reconnect on demand.
            conn.state.set(ConnState::Absent);
        } else {
            self.begin_connect(client, cx);
        }
    }

    /// The server crashed: submits buffer until recovery, and those
    /// buffered are cancelled. A failover retry re-sends the same
    /// sequence (the dedup window keeps that exactly-once), but an
    /// application that aborted and re-issued under a new identity
    /// (scaletx) would leak the side effects (locks) of the zombie.
    pub(super) fn crash(&mut self) {
        self.elastic_seen = true;
        self.down = true;
        for conn in &mut self.conns {
            conn.state.set(ConnState::Pending);
            conn.pending.clear();
        }
    }

    /// Warm server restart after a crash: QPs leave the error state and
    /// connections are re-established, staggered — the control plane
    /// brings them up serially.
    pub(super) fn recover(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        self.elastic_seen = true;
        self.down = false;
        let setup = cx.fabric.params().conn_setup_cpu();
        for (c, conn) in self.conns.iter_mut().enumerate() {
            conn.reset_qps(cx.fabric);
            if self.lazy && conn.pending.is_empty() {
                conn.state.set(ConnState::Absent);
            } else {
                conn.state.set(ConnState::Pending);
                // One connection per setup interval: client c re-admits
                // after c serial establishments.
                cx.after(
                    SimDuration::nanos(setup.as_nanos() * c as u64),
                    ScaleEv::Reconnect { client: c },
                );
            }
        }
    }
}

impl<H: ServerHandler> ScaleRpc<H> {
    /// Posts dropped because a QP was torn down or not yet connected
    /// (observability; always 0 on a healthy run).
    pub fn dropped_posts(&self) -> u64 {
        self.life.dropped_posts
    }

    /// Lost responses re-sent from the replay cache (observability).
    pub fn replayed_responses(&self) -> u64 {
        self.life.replayed_responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The exactly-once window against a reference model, the set of
        /// recorded seqs plus the highest: a seq is fresh iff it was never
        /// recorded and lies less than 1 024 below the highest. Forward
        /// moves shift the bitmap by exactly 64, 1 023, 1 024, more than
        /// 1 024, or a few; backward probes land near the window's edge.
        #[test]
        fn seq_window_matches_a_recorded_set(
            steps in proptest::collection::vec((0..7u8, 0..2000u64), 1..160)
        ) {
            let mut window = SeqWindow::default();
            let mut recorded = std::collections::BTreeSet::new();
            let mut high = 0u64;
            for (kind, n) in steps {
                let seq = match kind {
                    0 => high + 64,
                    1 => high + 1023,
                    2 => high + 1024,
                    3 => high + 1025 + n,
                    4 => high + 1 + n % 8,
                    5 => high.saturating_sub(1023 + n % 2),
                    _ => high.saturating_sub(n % 1100),
                };
                let fresh = !recorded.contains(&seq) && seq + 1024 > high;
                prop_assert_eq!(window.record(seq), fresh, "seq {} high {}", seq, high);
                if fresh {
                    recorded.insert(seq);
                    high = high.max(seq);
                }
            }
        }
    }

    #[test]
    fn conn_state_table_is_the_audited_edge_list() {
        use ConnState::*;
        // Verbatim from the static audit's table, `Absent->Pending->Ready,
        // Ready->Pending, Pending->Absent, Ready->Absent`.
        let table = [
            (Absent, Pending),
            (Pending, Ready),
            (Ready, Pending),
            (Pending, Absent),
            (Ready, Absent),
        ];
        let all = [Absent, Pending, Ready];
        for from in all {
            for to in all.into_iter().filter(|&to| to != from) {
                let listed = table.contains(&(from, to));
                assert_eq!(from.allows(to), listed, "{from:?} -> {to:?}");
            }
            assert!(table.iter().any(|&(f, _)| f == from), "dead end {from:?}");
        }
    }

    /// The stale-`ConnRts` shape: a client parked in `Absent` must not
    /// have its data path opened.
    #[test]
    #[should_panic(expected = "ConnState transition Absent -> Ready")]
    fn absent_to_ready_dies_on_the_transition_assert() {
        let mut conn = Fsm::new(ConnState::Absent);
        conn.set(ConnState::Pending);
        conn.set(ConnState::Pending);
        conn.set(ConnState::Absent);
        conn.set(ConnState::Ready);
    }
}
