//! Queue pairs and transport modes.

use crate::error::{VerbError, VerbResult};
use crate::types::{CqId, NodeId, QpId, WrId};
use std::collections::VecDeque;

/// RDMA transport service types (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Reliable Connection: all verbs, 2 GB messages, acknowledged.
    Rc,
    /// Unreliable Connection: send/recv and write, 2 GB messages, no
    /// read/atomic.
    Uc,
    /// Unreliable Datagram: send/recv only, 4 KB MTU, connectionless.
    Ud,
}

impl Transport {
    /// Short uppercase name, as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Rc => "RC",
            Transport::Uc => "UC",
            Transport::Ud => "UD",
        }
    }

    /// Whether `send`/`recv` message verbs are supported (all modes).
    pub fn supports_send(self) -> bool {
        true
    }

    /// Whether one-sided `write`/`write_imm` are supported.
    pub fn supports_write(self) -> bool {
        !matches!(self, Transport::Ud)
    }

    /// Whether one-sided `read` and atomics are supported.
    pub fn supports_read_atomic(self) -> bool {
        matches!(self, Transport::Rc)
    }

    /// Whether the transport requires an established connection.
    pub fn is_connected(self) -> bool {
        !matches!(self, Transport::Ud)
    }

    /// Whether the fabric acknowledges delivery (completion means
    /// remotely placed).
    pub fn is_reliable(self) -> bool {
        matches!(self, Transport::Rc)
    }
}

/// Connection lifecycle states (a compressed version of the verbs QP
/// state machine: RESET → RTS for connected transports; UD is born RTS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpState {
    /// Created but not yet connected (RC/UC only).
    Reset,
    /// Ready to send and receive.
    ReadyToSend,
    /// Torn down; all posts fail.
    Error,
}

/// A receive work request waiting for an inbound message.
#[derive(Clone, Debug)]
pub struct RecvWqe {
    /// Id echoed in the completion.
    pub wr_id: WrId,
    /// Target region for the payload.
    pub mr: crate::types::MrId,
    /// Offset within the target region.
    pub offset: usize,
    /// Capacity of the posted buffer.
    pub len: usize,
}

/// A queue pair endpoint.
#[derive(Clone, Debug)]
pub struct QueuePair {
    id: QpId,
    node: NodeId,
    transport: Transport,
    state: QpState,
    /// The connected peer (RC/UC only).
    peer: Option<QpId>,
    /// CQ receiving send-side completions.
    send_cq: CqId,
    /// CQ receiving recv-side completions.
    recv_cq: CqId,
    /// Posted receive buffers, consumed in order.
    recv_queue: VecDeque<RecvWqe>,
}

impl QueuePair {
    /// Creates a queue pair. UD pairs are immediately ready; connected
    /// transports start in [`QpState::Reset`].
    pub fn new(id: QpId, node: NodeId, transport: Transport, send_cq: CqId, recv_cq: CqId) -> Self {
        QueuePair {
            id,
            node,
            transport,
            state: if transport.is_connected() {
                QpState::Reset
            } else {
                QpState::ReadyToSend
            },
            peer: None,
            send_cq,
            recv_cq,
            recv_queue: VecDeque::new(),
        }
    }

    /// The pair's id.
    pub fn id(&self) -> QpId {
        self.id
    }

    /// The node owning this endpoint.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The transport mode.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Current lifecycle state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// The connected peer, if any.
    pub fn peer(&self) -> Option<QpId> {
        self.peer
    }

    /// Send-side completion queue.
    pub fn send_cq(&self) -> CqId {
        self.send_cq
    }

    /// Receive-side completion queue.
    pub fn recv_cq(&self) -> CqId {
        self.recv_cq
    }

    /// Connects this endpoint to `peer` (one direction of the handshake).
    pub fn connect_to(&mut self, peer: QpId) -> VerbResult<()> {
        if !self.transport.is_connected() {
            return Err(VerbError::ConnectionMismatch(self.id, peer));
        }
        if self.state != QpState::Reset {
            return Err(VerbError::InvalidQpState {
                qp: self.id,
                state: self.state_name(),
            });
        }
        self.peer = Some(peer);
        self.state = QpState::ReadyToSend;
        Ok(())
    }

    /// Moves the pair to the error state; subsequent posts fail.
    pub fn tear_down(&mut self) {
        self.state = QpState::Error;
        self.recv_queue.clear();
    }

    /// Recovers the pair from any state back to its creation state
    /// (the verbs `ibv_modify_qp(.., IBV_QPS_RESET)` transition).
    ///
    /// Connected transports return to [`QpState::Reset`] with no peer
    /// and may be re-connected; UD pairs go straight back to RTS. Any
    /// posted receives are discarded — a reset QP starts from a clean
    /// slate.
    pub fn reset(&mut self) {
        self.peer = None;
        self.recv_queue.clear();
        self.state = if self.transport.is_connected() {
            QpState::Reset
        } else {
            QpState::ReadyToSend
        };
    }

    /// Verifies the pair can accept posts.
    pub fn ensure_ready(&self) -> VerbResult<()> {
        if self.state == QpState::ReadyToSend {
            Ok(())
        } else {
            Err(VerbError::InvalidQpState {
                qp: self.id,
                state: self.state_name(),
            })
        }
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            QpState::Reset => "RESET",
            QpState::ReadyToSend => "RTS",
            QpState::Error => "ERROR",
        }
    }

    /// Queues a receive buffer.
    pub fn post_recv(&mut self, wqe: RecvWqe) -> VerbResult<()> {
        self.ensure_ready()?;
        self.recv_queue.push_back(wqe);
        Ok(())
    }

    /// Consumes the oldest posted receive, if any.
    pub fn take_recv(&mut self) -> Option<RecvWqe> {
        self.recv_queue.pop_front()
    }

    /// Number of receives currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.recv_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MrId;

    fn qp(t: Transport) -> QueuePair {
        QueuePair::new(QpId(1), NodeId(0), t, CqId(0), CqId(1))
    }

    #[test]
    fn capability_matrix_matches_table1() {
        // send/recv: all three modes.
        assert!(Transport::Rc.supports_send());
        assert!(Transport::Uc.supports_send());
        assert!(Transport::Ud.supports_send());
        // write/imm: RC and UC only.
        assert!(Transport::Rc.supports_write());
        assert!(Transport::Uc.supports_write());
        assert!(!Transport::Ud.supports_write());
        // read/atomic: RC only.
        assert!(Transport::Rc.supports_read_atomic());
        assert!(!Transport::Uc.supports_read_atomic());
        assert!(!Transport::Ud.supports_read_atomic());
    }

    #[test]
    fn ud_is_born_ready() {
        let q = qp(Transport::Ud);
        assert_eq!(q.state(), QpState::ReadyToSend);
        assert!(q.ensure_ready().is_ok());
    }

    #[test]
    fn rc_requires_connection() {
        let mut q = qp(Transport::Rc);
        assert!(q.ensure_ready().is_err());
        q.connect_to(QpId(9)).unwrap();
        assert!(q.ensure_ready().is_ok());
        assert_eq!(q.peer(), Some(QpId(9)));
        // Double connect fails.
        assert!(q.connect_to(QpId(10)).is_err());
    }

    #[test]
    fn ud_cannot_connect() {
        let mut q = qp(Transport::Ud);
        assert!(matches!(
            q.connect_to(QpId(2)),
            Err(VerbError::ConnectionMismatch(..))
        ));
    }

    #[test]
    fn teardown_blocks_posts() {
        let mut q = qp(Transport::Rc);
        q.connect_to(QpId(2)).unwrap();
        q.tear_down();
        assert!(q.ensure_ready().is_err());
        assert!(q
            .post_recv(RecvWqe {
                wr_id: 1,
                mr: MrId(0),
                offset: 0,
                len: 64
            })
            .is_err());
    }

    #[test]
    fn reset_recovers_errored_rc_pair() {
        let mut q = qp(Transport::Rc);
        q.connect_to(QpId(2)).unwrap();
        q.tear_down();
        // Error used to be terminal: connect_to from Error fails.
        assert!(q.connect_to(QpId(3)).is_err());
        // reset() reopens the lifecycle: Error -> Reset -> RTS.
        q.reset();
        assert_eq!(q.state(), QpState::Reset);
        assert_eq!(q.peer(), None);
        q.connect_to(QpId(3)).unwrap();
        assert!(q.ensure_ready().is_ok());
        assert_eq!(q.peer(), Some(QpId(3)));
    }

    #[test]
    fn reset_clears_posted_recvs() {
        let mut q = qp(Transport::Rc);
        q.connect_to(QpId(2)).unwrap();
        q.post_recv(RecvWqe {
            wr_id: 7,
            mr: MrId(0),
            offset: 0,
            len: 64,
        })
        .unwrap();
        q.tear_down();
        q.reset();
        assert_eq!(q.posted_recvs(), 0);
    }

    #[test]
    fn reset_ud_returns_to_rts() {
        let mut q = qp(Transport::Ud);
        q.tear_down();
        assert!(q.ensure_ready().is_err());
        q.reset();
        assert_eq!(q.state(), QpState::ReadyToSend);
        assert!(q.ensure_ready().is_ok());
    }

    #[test]
    fn recv_queue_is_fifo() {
        let mut q = qp(Transport::Ud);
        for i in 0..3 {
            q.post_recv(RecvWqe {
                wr_id: i,
                mr: MrId(0),
                offset: i as usize * 64,
                len: 64,
            })
            .unwrap();
        }
        assert_eq!(q.posted_recvs(), 3);
        assert_eq!(q.take_recv().unwrap().wr_id, 0);
        assert_eq!(q.take_recv().unwrap().wr_id, 1);
        assert_eq!(q.posted_recvs(), 1);
    }
}
