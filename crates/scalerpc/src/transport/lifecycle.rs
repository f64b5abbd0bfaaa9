//! The elastic control plane of [`ScaleRpc`](super::ScaleRpc): each
//! client's connection and the submits buffered while it is down, the
//! server's crash flag, and the exactly-once record and response-replay
//! cache that keep retries safe across a disturbance. Both hold only seqs
//! at or above the client's ack floor, which its endpoint entry carries.

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

/// The seqs executed at or above a client's ack floor, the lowest seq it
/// still awaits (every lower one was answered, so a copy is a duplicate):
/// bit `seq % 64` of word `seq / 64 - floor / 64`, inline for a 1 024-seq
/// span (every benchmark workload's), in `wide` past that.
#[derive(Default)]
struct Executed {
    floor: u64,
    near: [u64; 16],
    wide: Vec<u64>,
}

impl Executed {
    fn words(&mut self) -> &mut [u64] {
        if self.wide.is_empty() {
            &mut self.near
        } else {
            &mut self.wide
        }
    }

    /// Records `seq`; returns `false` when it was already executed.
    #[inline]
    fn record(&mut self, seq: u64) -> bool {
        if seq < self.floor {
            return false;
        }
        let i = (seq / 64 - self.floor / 64) as usize;
        if i >= self.words().len() {
            self.wide = self.words().to_vec();
            self.wide.resize((i + 1).next_power_of_two(), 0);
        }
        let (word, mask) = (&mut self.words()[i], 1 << (seq % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Raises the floor to `floor` (never lowers it).
    fn raise(&mut self, floor: u64) {
        let gone = (floor / 64).saturating_sub(self.floor / 64) as usize;
        self.floor = self.floor.max(floor);
        let words = self.words();
        let kept = words.len().saturating_sub(gone);
        words.rotate_left(words.len() - kept);
        words[kept..].fill(0);
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
    /// A warmup re-fetch can copy a request already executed, and
    /// handlers with side effects (locks) must run once.
    executed: Executed,
    /// Responses kept for replay: a retransmission whose *response* was
    /// lost (crash window, churned QP) hits the exactly-once guard and
    /// would strand its client. Filled for every response when
    /// `cfg.elastic`, and always while `down`; emptied below the floor.
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

    /// `client`'s ack floor reached the server: no lower seq needs a
    /// record or a response again.
    pub(super) fn raise_floor(&mut self, client: ClientId, floor: u64) {
        let conn = &mut self.conns[client];
        conn.executed.raise(floor);
        conn.resp_cache.retain(|e| e.0 >= floor);
    }

    /// The response to replay for a duplicate `(client, seq)`, once a
    /// lifecycle event may have lost it.
    pub(super) fn replay(&mut self, client: ClientId, seq: u64) -> Option<Bytes> {
        let cache = &self.conns[client].resp_cache;
        let (_, resp) = cache.iter().find(|e| e.0 == seq && self.elastic_seen)?;
        self.replayed_responses += 1;
        Some(resp.clone())
    }

    /// A response to `(client, seq)` is ready: keeps it for replay where
    /// it may be lost, and answers whether the server is up to post it
    /// (one computed while it is down is the canonical lost response).
    #[inline]
    pub(super) fn keep_response(&mut self, client: ClientId, seq: u64, payload: &Bytes) -> bool {
        if self.cache_every_response || self.down {
            let cache = &mut self.conns[client].resp_cache;
            cache.retain(|e| e.0 != seq);
            cache.push((seq, payload.clone()));
        }
        !self.down
    }

    /// The response to `(client, seq)` reached the client. It can never
    /// need replay again: the client FSM has completed this sequence, so
    /// no retransmission of it will arrive. The replay cache holds only
    /// *undelivered* responses — the exact failover replay set.
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
    /// sequence (the executed record keeps that exactly-once), but an
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
    use std::collections::BTreeSet;

    proptest! {
        /// The exactly-once record and the replay cache against a
        /// reference model: the recorded seqs, the cached responses and a
        /// floor that never falls. A seq is fresh iff it lies at or above
        /// the floor and was never recorded, however far above; a cached
        /// response is replayed iff its seq is at or above the floor.
        /// Steps raise the floor (or try to lower it), probe below it,
        /// record seqs near it, at the top of the record's span, and more
        /// than 1 024 and 4 096 above it, re-record, and cache and replay
        /// responses.
        #[test]
        fn record_and_replay_cache_match_a_floor_model(
            steps in proptest::collection::vec((0..9u8, 0..20_000u64), 1..160)
        ) {
            let mut life = Lifecycle::new(false, true, vec![(QpId(0), QpId(1))]);
            life.elastic_seen = true;
            let (mut recorded, mut cached) = (BTreeSet::new(), BTreeSet::new());
            let (mut floor, mut high) = (0u64, 0u64);
            for (kind, n) in steps {
                let seq = match kind {
                    0 => {
                        let to = n % (high + 66);
                        life.raise_floor(0, to);
                        floor = floor.max(to);
                        cached.retain(|&s| s >= floor);
                        continue;
                    }
                    1 => floor.saturating_sub(1 + n % 200),
                    2 => floor + n % 130,
                    3 => {
                        // The span's top words, where a raised floor
                        // recycles the words it dropped.
                        let words = life.conns[0].executed.words().len() as u64;
                        (floor / 64 + words) * 64 - 1 - n % 256
                    }
                    4 => floor + 1025 + n % 64,
                    5 => floor + 4097 + n,
                    6 => {
                        let above: Vec<u64> = recorded.range(floor..).copied().collect();
                        above.get(n as usize % above.len().max(1)).copied().unwrap_or(floor)
                    }
                    7 => {
                        let seq = floor + n % 300;
                        let payload = Bytes::copy_from_slice(&seq.to_le_bytes());
                        prop_assert!(life.keep_response(0, seq, &payload));
                        cached.insert(seq);
                        continue;
                    }
                    _ => {
                        let seq = floor.saturating_sub(n % 8) + n % 300;
                        let replayed = life.replay(0, seq).map(|b| b.to_vec());
                        let want = cached.contains(&seq).then(|| seq.to_le_bytes().to_vec());
                        prop_assert_eq!(replayed, want, "replay {} floor {}", seq, floor);
                        continue;
                    }
                };
                let fresh = seq >= floor && !recorded.contains(&seq);
                prop_assert_eq!(life.record_seq(0, seq), fresh, "seq {} floor {}", seq, floor);
                if fresh {
                    recorded.insert(seq);
                    high = high.max(seq);
                }
            }
            let kept: BTreeSet<u64> = life.conns[0].resp_cache.iter().map(|e| e.0).collect();
            prop_assert_eq!(kept, cached);
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
