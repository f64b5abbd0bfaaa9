//! Completion queues and work completions.

use crate::types::{CqId, QpId, WrId};

/// Which verb a completion refers to, mirroring `ibv_wc_opcode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcOpcode {
    /// A send completed at the sender.
    Send,
    /// An RDMA write completed at the requester.
    RdmaWrite,
    /// An RDMA read completed at the requester (data is in the local MR).
    RdmaRead,
    /// An atomic completed at the requester (old value is in the local MR).
    Atomic,
    /// An incoming send matched a posted receive.
    Recv,
    /// An incoming RDMA-write-with-immediate consumed a posted receive.
    RecvRdmaWithImm,
}

/// Completion status, mirroring `ibv_wc_status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcStatus {
    /// The operation completed successfully.
    Success,
    /// A receive was required but none was posted (RC fatal; counted and
    /// dropped on UD).
    RnrRetryExceeded,
    /// The remote access was out of bounds.
    RemoteAccessError,
}

/// A work completion entry.
#[derive(Clone, Copy, Debug)]
pub struct Wc {
    /// The id given at post time (or a receive's id for inbound
    /// completions).
    pub wr_id: WrId,
    /// Which operation completed.
    pub opcode: WcOpcode,
    /// Completion status.
    pub status: WcStatus,
    /// Bytes transferred (payload length for recv; 0 for pure sends).
    pub byte_len: usize,
    /// The local QP this completion belongs to.
    pub qp: QpId,
    /// The immediate value, for [`WcOpcode::RecvRdmaWithImm`] and
    /// immediate-carrying receives.
    pub imm: Option<u32>,
    /// The remote QP that produced an inbound completion (UD exposes the
    /// source address; handy for all transports in the simulator).
    pub src_qp: Option<QpId>,
}

/// A completion queue: an ordered list of [`Wc`] drained by polling.
#[derive(Clone, Debug)]
pub struct CompletionQueue {
    id: CqId,
    entries: std::collections::VecDeque<Wc>,
}

impl CompletionQueue {
    /// Creates an empty queue.
    pub fn new(id: CqId) -> Self {
        CompletionQueue {
            id,
            entries: Default::default(),
        }
    }

    /// The queue id.
    pub fn id(&self) -> CqId {
        self.id
    }

    /// Appends a completion (fabric-internal).
    pub fn push(&mut self, wc: Wc) {
        self.entries.push_back(wc);
    }

    /// Removes and returns up to `max` completions, oldest first.
    pub fn poll(&mut self, max: usize) -> Vec<Wc> {
        let n = max.min(self.entries.len());
        self.entries.drain(..n).collect()
    }

    /// Number of pending completions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(id: WrId) -> Wc {
        Wc {
            wr_id: id,
            opcode: WcOpcode::Send,
            status: WcStatus::Success,
            byte_len: 0,
            qp: QpId(0),
            imm: None,
            src_qp: None,
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let mut cq = CompletionQueue::new(CqId(0));
        for i in 0..5 {
            cq.push(wc(i));
        }
        let first = cq.poll(2);
        assert_eq!(first.iter().map(|w| w.wr_id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(cq.len(), 3);
        let rest = cq.poll(100);
        assert_eq!(rest.len(), 3);
        assert!(cq.is_empty());
    }

    #[test]
    fn poll_on_empty_returns_nothing() {
        let mut cq = CompletionQueue::new(CqId(1));
        assert!(cq.poll(8).is_empty());
    }
}
