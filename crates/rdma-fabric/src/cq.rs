//! Work completions.
//!
//! A completion queue is an id owned by one node, and nothing more: the
//! fabric hands each [`Wc`] to the application once, as an
//! [`Upcall::Completion`](crate::Upcall::Completion) naming its CQ, and
//! keeps no copy to be polled later.

use crate::types::{QpId, WrId};

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
