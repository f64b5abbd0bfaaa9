//! The client state machine of Fig. 7.
//!
//! ```text
//!        stage requests + write endpoint entry
//!  IDLE ──────────────────────────────────────▶ WARMUP
//!    ▲                                             │ first response
//!    │        response with context_switch_event   ▼
//!    └───────────────────────────────────────── PROCESS
//! ```
//!
//! - **IDLE**: the client is not being served. New requests are staged in
//!   local memory; the first staged batch triggers an endpoint-entry
//!   write and the move to WARMUP.
//! - **WARMUP**: the entry is published; the server will fetch the staged
//!   batch with an RDMA read when this client's group is warmed. The
//!   first response signals the group is now being served.
//! - **PROCESS**: the client writes new requests *directly* into the
//!   processing pool. A response carrying `context_switch_event` (or an
//!   explicit notification) sends it back to IDLE.
//!
//! The FSM also carries a window of in-flight slots
//! ([`rpc_core::RequestWindow`]) for the asynchronous client of §3.6.1:
//! each submitted request occupies a slot until the matching response
//! retires it. The Fig. 7 state transitions are
//! unchanged — the window only adds bookkeeping (and the
//! context-switch *re-arm*: a notification that lands while requests
//! are still in flight moves the client back to WARMUP so the staged
//! tail is re-advertised instead of stranded). Below it sits the
//! `RPCClient` end of [`ScaleRpc`] that drives it.

use bytes::Bytes;
use rdma_fabric::{Fabric, MrId, MrMut, QpId, RemoteAddr, WorkRequest};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::message::MsgBuf;
use rpc_core::pool::write_block;
use rpc_core::transport::{Response, ServerHandler};
use rpc_core::{Completed, RequestWindow};
use simcore::{Fsm, Transitions};

use super::{ScaleEv, ScaleRpc, ENTRY, NOTIFY_SEQ, UNSTAGED};

/// Client states (Fig. 7 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientState {
    /// Not currently served; requests are staged locally.
    Idle,
    /// Endpoint entry published; waiting to be warmed up and served.
    Warmup,
    /// Group is being served; requests go straight to the pool.
    Process,
}

impl Transitions for ClientState {
    /// Fig. 7's arrows plus `Warmup → Idle` (a first response that
    /// already carries the switch event). PROCESS is entered only
    /// through WARMUP and left only to IDLE.
    fn allows(self, to: Self) -> bool {
        use ClientState::*;
        matches!(
            (self, to),
            (Idle, Warmup) | (Warmup, Process | Idle) | (Process, Idle)
        )
    }
}

/// What a client should do with a new request, as decided by the FSM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitAction {
    /// Stage locally and publish the endpoint entry (IDLE → WARMUP).
    StageAndPublish,
    /// Stage locally; the entry is already published.
    StageOnly,
    /// RDMA-write directly into the processing pool.
    DirectWrite,
}

/// The per-client state machine.
#[derive(Clone, Debug)]
pub struct ClientFsm {
    state: Fsm<ClientState>,
    /// In-flight request slots.
    window: RequestWindow,
}

impl Default for ClientFsm {
    fn default() -> Self {
        Self::with_window(1)
    }
}

impl ClientFsm {
    /// Creates a client in IDLE with a single-request window (the seed's
    /// synchronous client).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a client in IDLE tracking up to `window` in-flight
    /// requests.
    pub fn with_window(window: usize) -> Self {
        ClientFsm {
            state: Fsm::new(ClientState::Idle),
            window: RequestWindow::new(window),
        }
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state.get()
    }

    /// The in-flight slot tracker.
    pub fn window(&self) -> &RequestWindow {
        &self.window
    }

    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// Tracked submit: claims a window slot for `seq` and returns the
    /// Fig. 7 action, or `None` (state untouched) when the window is full.
    pub fn submit(&mut self, seq: u64) -> Option<SubmitAction> {
        self.window.submit(seq, ())?;
        Some(self.on_submit())
    }

    /// Tracked completion: retires the slot holding `seq` and applies the
    /// Fig. 7 response transition. Returns `None` (state untouched) for
    /// an unknown or already-retired seq, so duplicates are detectable.
    pub fn complete(&mut self, seq: u64, ctx_switch: bool) -> Option<Completed<()>> {
        let done = self.window.complete(seq)?;
        self.on_response(ctx_switch);
        Some(done)
    }

    /// Context-switch re-arm: if a notification put the client in IDLE
    /// while requests are still in flight (staged but unserved), move
    /// straight back to WARMUP — the transport should (re)publish the
    /// endpoint entry so the staged tail is fetched next rotation.
    /// Returns whether re-arming applied.
    pub fn rearm(&mut self) -> bool {
        if self.state() == ClientState::Idle && !self.window.is_empty() {
            self.state.set(ClientState::Warmup);
            true
        } else {
            false
        }
    }

    /// Decides how to submit a new request, advancing IDLE → WARMUP when
    /// this is the first staged request of a cycle.
    pub fn on_submit(&mut self) -> SubmitAction {
        match self.state() {
            ClientState::Idle => {
                self.state.set(ClientState::Warmup);
                SubmitAction::StageAndPublish
            }
            ClientState::Warmup => SubmitAction::StageOnly,
            ClientState::Process => SubmitAction::DirectWrite,
        }
    }

    /// Handles a response from the server. `ctx_switch` is the
    /// piggybacked `context_switch_event` flag.
    pub fn on_response(&mut self, ctx_switch: bool) {
        if ctx_switch {
            self.state.set(ClientState::Idle);
        } else if self.state() == ClientState::Warmup {
            // First response: the group is being served now.
            self.state.set(ClientState::Process);
        }
    }

    /// Handles an explicit context-switch notification (the extra RDMA
    /// write the server issues to clients with no in-flight responses).
    pub fn on_ctx_notify(&mut self) {
        self.state.set(ClientState::Idle);
    }
}

/// One client's end of its connection.
#[derive(Debug)]
pub(super) struct ClientEnd {
    qp: QpId,
    /// Local region: `slots` staging blocks, then `slots + 1` response
    /// blocks (the last is the control block for explicit notifications).
    region: MrId,
    fsm: ClientFsm,
    /// An endpoint-entry write is on the wire (suppresses duplicates).
    publish_inflight: bool,
}

impl ClientEnd {
    /// One FSM window slot per message slot: at most `slots` requests in
    /// flight before staging blocks would collide.
    pub(super) fn new(qp: QpId, region: MrId, slots: usize) -> Self {
        ClientEnd {
            qp,
            region,
            fsm: ClientFsm::with_window(slots),
            publish_inflight: false,
        }
    }

    #[inline]
    fn region<'f>(&self, fabric: &'f mut Fabric) -> MrMut<'f> {
        fabric.mr_mut(self.region).expect("local mr")
    }
}

impl<H: ServerHandler> ScaleRpc<H> {
    pub(super) fn client_qp_of(&self, client: ClientId) -> QpId {
        self.ends[client].qp
    }

    /// No entry write of `client`'s is on the wire any more.
    pub(super) fn publish_settled(&mut self, client: ClientId) {
        self.ends[client].publish_inflight = false;
    }

    /// The client whose local region is `mr`: `new` registers them
    /// consecutively, so it is `mr − first`.
    pub(super) fn client_of_region(&self, mr: MrId) -> Option<ClientId> {
        let c = mr.index().checked_sub(self.ends.first()?.region.index())?;
        (self.ends.get(c)?.region == mr).then_some(c)
    }

    /// The staging table's row of `client` says what its staging blocks
    /// hold, and every request they hold is in flight (debug builds: the
    /// probe the table replaces).
    fn debug_check_staged(&self, client: ClientId, fabric: &Fabric) {
        if cfg!(debug_assertions) {
            let (bs, slots) = (self.cfg.block_size, self.cfg.slots);
            let region = fabric.mr(self.ends[client].region).expect("local mr");
            let window = self.ends[client].fsm.window();
            for (s, &seq) in self.staged[client * slots..][..slots].iter().enumerate() {
                let held = MsgBuf::peek_rpc(region, s * bs, bs).map_or(UNSTAGED, |(h, _)| h.seq);
                debug_assert_eq!(held, seq, "client {client} slot {s}");
                debug_assert!(seq == UNSTAGED || window.contains(seq), "answered {seq}");
            }
        }
    }

    /// Picks the staging block for `seq`. The natural slot is
    /// `seq % slots`, but a windowed client's outstanding sequences need
    /// not be consecutive: one request can stall while its window
    /// siblings complete and are replaced, until a fresh sequence maps to
    /// the stalled request's slot and would overwrite its staged bytes
    /// before any warmup fetch reads them — stranding it forever. Probe
    /// forward to the first slot not holding a *different, still
    /// in-flight* request. `window <= slots`, so a free slot always
    /// exists.
    fn staging_slot_for(&self, client: ClientId, seq: u64) -> usize {
        let (base, slots) = (self.geom.slot_of_seq(seq), self.cfg.slots);
        let window = self.ends[client].fsm.window();
        let row = &self.staged[client * slots..][..slots];
        (0..slots)
            .map(|probe| (base + probe) % slots)
            .find(|&s| row[s] == seq || !window.contains(row[s]))
            .unwrap_or(base)
    }

    /// Composes the message into a local staging block: an ordinary CPU
    /// store, no verbs.
    fn stage_request(&mut self, client: ClientId, seq: u64, payload: &[u8], fabric: &mut Fabric) {
        let bs = self.cfg.block_size;
        let slot = self.staging_slot_for(client, seq);
        let (enc_off, bytes) =
            MsgBuf::encode_rpc(client, seq, 0, payload, bs).expect("request fits block");
        self.ends[client]
            .region(fabric)
            .write(slot * bs + enc_off, &bytes)
            .expect("staging write");
        self.staged[client * self.cfg.slots + slot] = seq;
        self.debug_check_staged(client, fabric);
    }

    fn publish_entry(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.ends[client].publish_inflight = true;
        // <ack floor, batch_size> tuple, Valid last (RDMA writes land in
        // increasing address order); the floor is the lowest seq in flight.
        let window = self.ends[client].fsm.window();
        let floor = window.iter_in_flight().map(|(_, f)| f.seq).min();
        let mut entry = [0u8; 24];
        entry[0..8].copy_from_slice(&floor.unwrap_or(0).to_le_bytes());
        entry[8..12].copy_from_slice(&(self.cfg.slots as u32).to_le_bytes());
        entry[16..24].copy_from_slice(&1u64.to_le_bytes()); // valid
        let write = WorkRequest::Write {
            data: Bytes::copy_from_slice(&entry),
            remote: RemoteAddr::new(self.endpoint_mr, client * ENTRY),
            imm: None,
        };
        let posted = cx.post(self.ends[client].qp, write, false, None);
        self.life.posted(posted);
    }

    /// Drives one request through the client FSM and onto the wire (the
    /// post-connection-setup half of `submit`).
    pub(super) fn dispatch(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        // Track the request in the FSM's in-flight window: the ack floor
        // is exact only if every request in flight is in it. A
        // retransmission of a sequence the window already tracks must not
        // claim a second slot.
        let fsm = &mut self.ends[client].fsm;
        let action = if fsm.window().contains(seq) {
            fsm.on_submit()
        } else {
            fsm.submit(seq)
                .expect("more requests in flight than message slots")
        };
        match action {
            SubmitAction::DirectWrite => {
                if let Some(block) = self.direct_block(client, seq) {
                    let qp = self.ends[client].qp;
                    let posted = write_block(qp, block, None, (client, seq, 0), &payload, cx);
                    self.life.posted(posted);
                }
            }
            SubmitAction::StageAndPublish => {
                self.stage_request(client, seq, &payload, cx.fabric);
                self.publish_entry(client, cx);
            }
            SubmitAction::StageOnly => {
                self.stage_request(client, seq, &payload, cx.fabric);
                // If the entry was already consumed this cycle (and no
                // publish is on the wire), republish so the batch is not
                // stranded until the next rotation.
                if !self.entry_valid(client) && !self.ends[client].publish_inflight {
                    self.publish_entry(client, cx);
                }
            }
        }
    }

    /// A server write landed at `offset` of `client`'s region: a response
    /// (handed to `out`) or a context-switch notification.
    pub(super) fn land(
        &mut self,
        client: ClientId,
        offset: usize,
        cx: &mut Cx<'_, ScaleEv>,
        out: &mut Vec<Response>,
    ) {
        let (bs, block) = (self.cfg.block_size, offset / self.cfg.block_size);
        if block < self.cfg.slots {
            // A write into the staging area can only be the server's
            // warmup read... which never writes. Ignore defensively.
            return;
        }
        let region = self.ends[client].region(cx.fabric);
        let Some((header, payload)) = MsgBuf::take_rpc(region, block * bs, bs) else {
            return;
        };
        if header.seq == NOTIFY_SEQ {
            self.ends[client].fsm.on_ctx_notify();
            // Re-arm (asynchronous clients only, so the synchronous
            // timeline stays bit-exact): with requests still in flight —
            // staged but not yet served — jump straight back to WARMUP
            // and make sure the endpoint entry advertises the staged
            // tail instead of stranding it.
            if self.cfg.client_window > 1
                && self.ends[client].fsm.rearm()
                && !self.entry_valid(client)
                && !self.ends[client].publish_inflight
            {
                self.publish_entry(client, cx);
            }
            return;
        }
        let payload = Bytes::copy_from_slice(&payload);
        let fsm = &mut self.ends[client].fsm;
        if fsm.complete(header.seq, header.is_ctx_switch()).is_none() {
            // A seq the window no longer tracks (answered already): apply
            // the bare Fig. 7 transition.
            fsm.on_response(header.is_ctx_switch());
        }
        self.traces.close(client, header.seq, cx.now);
        // Clear the staging copy of this request so a later warmup read
        // cannot re-fetch it. The copy normally sits at `seq % slots`,
        // but collision probing (see `staging_slot_for`) may have placed
        // it in a neighbouring slot, and a retransmission may have staged
        // a second copy, so clear every block the staging table names for
        // this sequence; slots staging *other* requests are left untouched.
        for s in 0..self.cfg.slots {
            let entry = &mut self.staged[client * self.cfg.slots + s];
            if *entry == header.seq {
                *entry = UNSTAGED;
                MsgBuf::clear_valid(&mut self.ends[client].region(cx.fabric), s * bs, bs);
            }
        }
        self.debug_check_staged(client, cx.fabric);
        self.life.delivered(client, header.seq);
        out.push(Response {
            client,
            seq: header.seq,
            payload,
        });
    }

    /// Cancels every staged request (a crash: their issuers presume them
    /// dead).
    pub(super) fn cancel_staged(&mut self, fabric: &mut Fabric) {
        let bs = self.cfg.block_size;
        for end in &self.ends {
            let mut region = end.region(fabric);
            for s in 0..self.cfg.slots {
                MsgBuf::clear_valid(&mut region, s * bs, bs);
            }
        }
        self.staged.fill(UNSTAGED);
        for c in 0..self.ends.len() {
            self.debug_check_staged(c, fabric);
        }
    }

    /// The client end's half of [`ScaleRpc::client_diag`].
    pub(super) fn end_diag(&self, client: ClientId) -> String {
        let row = self.staged[client * self.cfg.slots..][..self.cfg.slots].iter();
        let staged: Vec<_> = row.enumerate().filter(|e| *e.1 != UNSTAGED).collect();
        format!("{:?} staged={staged:?}", self.ends[client])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_happy_path() {
        let mut fsm = ClientFsm::new();
        assert_eq!(fsm.state(), ClientState::Idle);
        // Step 1-2: initialize requests locally, write endpoint entry.
        assert_eq!(fsm.on_submit(), SubmitAction::StageAndPublish);
        assert_eq!(fsm.state(), ClientState::Warmup);
        // More requests before being served just stage.
        assert_eq!(fsm.on_submit(), SubmitAction::StageOnly);
        // First response moves to PROCESS.
        fsm.on_response(false);
        assert_eq!(fsm.state(), ClientState::Process);
        // Now requests go straight to the pool.
        assert_eq!(fsm.on_submit(), SubmitAction::DirectWrite);
        // Context-switch response: back to IDLE; cycle restarts.
        fsm.on_response(true);
        assert_eq!(fsm.state(), ClientState::Idle);
        assert_eq!(fsm.on_submit(), SubmitAction::StageAndPublish);
    }

    #[test]
    fn explicit_notify_from_process() {
        let mut fsm = ClientFsm::new();
        fsm.on_submit();
        fsm.on_response(false);
        assert_eq!(fsm.state(), ClientState::Process);
        fsm.on_ctx_notify();
        assert_eq!(fsm.state(), ClientState::Idle);
    }

    #[test]
    fn response_in_process_keeps_state() {
        let mut fsm = ClientFsm::new();
        fsm.on_submit();
        fsm.on_response(false);
        fsm.on_response(false);
        assert_eq!(fsm.state(), ClientState::Process);
    }

    #[test]
    fn windowed_submits_track_slots_and_trace_ids() {
        let mut fsm = ClientFsm::with_window(4);
        assert_eq!(fsm.submit(0), Some(SubmitAction::StageAndPublish));
        assert_eq!(fsm.submit(1), Some(SubmitAction::StageOnly));
        assert_eq!(fsm.in_flight(), 2);
        // First response: WARMUP → PROCESS, slot retired.
        let done = fsm.complete(0, false).unwrap();
        assert_eq!(done.seq, 0);
        assert_eq!(fsm.state(), ClientState::Process);
        // Duplicate completion is rejected and leaves the state alone.
        assert!(fsm.complete(0, true).is_none());
        assert_eq!(fsm.state(), ClientState::Process);
        assert_eq!(fsm.submit(2), Some(SubmitAction::DirectWrite));
        // Window full → submit refuses without touching the state.
        fsm.submit(3);
        fsm.submit(4);
        assert_eq!(fsm.submit(5), None);
        assert_eq!(fsm.state(), ClientState::Process);
    }

    #[test]
    fn ctx_notify_with_inflight_requests_rearms_to_warmup() {
        let mut fsm = ClientFsm::with_window(2);
        fsm.submit(0);
        fsm.complete(0, false);
        fsm.submit(1);
        assert_eq!(fsm.state(), ClientState::Process);
        fsm.on_ctx_notify();
        assert_eq!(fsm.state(), ClientState::Idle);
        // Seq 1 is still outstanding: re-arm back to WARMUP.
        assert!(fsm.rearm());
        assert_eq!(fsm.state(), ClientState::Warmup);
        // With nothing in flight, a notify leaves the client IDLE.
        fsm.complete(1, false);
        fsm.on_ctx_notify();
        assert!(!fsm.rearm());
        assert_eq!(fsm.state(), ClientState::Idle);
    }

    #[test]
    fn ctx_switch_during_warmup_returns_to_idle() {
        // A client whose batch was fetched and answered right at the end
        // of a slice can see its first response already carrying the
        // switch event; it must go IDLE, not PROCESS.
        let mut fsm = ClientFsm::new();
        fsm.on_submit();
        fsm.on_response(true);
        assert_eq!(fsm.state(), ClientState::Idle);
    }

    #[test]
    fn state_table_is_the_audited_edge_list() {
        use ClientState::*;
        // Verbatim from the static audit's table, `Idle->Warmup->Process,
        // Process->Idle, Warmup->Idle`.
        let table = [
            (Idle, Warmup),
            (Warmup, Process),
            (Process, Idle),
            (Warmup, Idle),
        ];
        let all = [Idle, Warmup, Process];
        for from in all {
            for to in all.into_iter().filter(|&to| to != from) {
                let listed = table.contains(&(from, to));
                assert_eq!(from.allows(to), listed, "{from:?} -> {to:?}");
            }
            assert!(table.iter().any(|&(f, _)| f == from), "dead end {from:?}");
        }
    }
}
