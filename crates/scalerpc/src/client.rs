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
//! each submitted request occupies a slot tagged with its TraceId until
//! the matching response retires it. The Fig. 7 state transitions are
//! unchanged — the window only adds bookkeeping (and the
//! context-switch *re-arm*: a notification that lands while requests
//! are still in flight moves the client back to WARMUP so the staged
//! tail is re-advertised instead of stranded).

use rpc_core::{Completed, RequestWindow};
use simcore::{Fsm, Transitions};

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
    /// In-flight request slots; the tag is the request's TraceId (0 when
    /// untraced).
    window: RequestWindow<u64>,
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
    pub fn window(&self) -> &RequestWindow<u64> {
        &self.window
    }

    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }

    /// Tracked submit: claims a window slot for `(seq, trace_id)` and
    /// returns the Fig. 7 action, or `None` (state untouched) when the
    /// window is full.
    pub fn submit(&mut self, seq: u64, trace_id: u64) -> Option<SubmitAction> {
        self.window.submit(seq, trace_id)?;
        Some(self.on_submit())
    }

    /// Tracked completion: retires the slot holding `seq` and applies the
    /// Fig. 7 response transition. Returns `None` (state untouched) for
    /// an unknown or already-retired seq, so duplicates are detectable.
    pub fn complete(&mut self, seq: u64, ctx_switch: bool) -> Option<Completed<u64>> {
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
        assert_eq!(fsm.submit(0, 100), Some(SubmitAction::StageAndPublish));
        assert_eq!(fsm.submit(1, 101), Some(SubmitAction::StageOnly));
        assert_eq!(fsm.in_flight(), 2);
        // First response: WARMUP → PROCESS, slot retired with its id.
        let done = fsm.complete(0, false).unwrap();
        assert_eq!((done.seq, done.tag), (0, 100));
        assert_eq!(fsm.state(), ClientState::Process);
        // Duplicate completion is rejected and leaves the state alone.
        assert!(fsm.complete(0, true).is_none());
        assert_eq!(fsm.state(), ClientState::Process);
        assert_eq!(fsm.submit(2, 102), Some(SubmitAction::DirectWrite));
        // Window full → submit refuses without touching the state.
        fsm.submit(3, 103);
        fsm.submit(4, 104);
        assert_eq!(fsm.submit(5, 105), None);
        assert_eq!(fsm.state(), ClientState::Process);
    }

    #[test]
    fn ctx_notify_with_inflight_requests_rearms_to_warmup() {
        let mut fsm = ClientFsm::with_window(2);
        fsm.submit(0, 0);
        fsm.complete(0, false);
        fsm.submit(1, 0);
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
