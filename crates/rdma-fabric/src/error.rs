//! Verb-layer errors.

use crate::types::{CqId, MrId, NodeId, QpId};
use core::fmt;

/// Result alias for verb operations.
pub type VerbResult<T> = Result<T, VerbError>;

/// Errors surfaced by the verbs API.
///
/// These mirror the failure classes of a real verbs library: addressing
/// mistakes, transport capability violations (Table 1 of the paper), MTU
/// violations, and posting on queue pairs in the wrong state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerbError {
    /// Referenced node does not exist.
    UnknownNode(NodeId),
    /// Referenced queue pair does not exist.
    UnknownQp(QpId),
    /// Referenced memory region does not exist.
    UnknownMr(MrId),
    /// Referenced completion queue does not exist on that node: no CQ
    /// has the id, or it was created on another node than the queue
    /// pair given it.
    UnknownCq(CqId),
    /// Access outside the bounds of a registered region.
    OutOfBounds {
        /// The region accessed.
        mr: MrId,
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Actual region size.
        size: usize,
    },
    /// The verb is not supported on this transport (e.g. RDMA read on UC,
    /// any one-sided verb on UD — see Table 1).
    UnsupportedVerb {
        /// The transport the verb was posted on.
        transport: &'static str,
        /// The verb that was rejected.
        verb: &'static str,
    },
    /// Message exceeds the transport MTU (4 KB for UD).
    MtuExceeded {
        /// Requested message length.
        len: usize,
        /// Transport MTU.
        mtu: usize,
    },
    /// The queue pair is not in a state that allows this operation.
    InvalidQpState {
        /// The queue pair.
        qp: QpId,
        /// Its current state.
        state: &'static str,
    },
    /// Connecting two queue pairs with incompatible transports, or
    /// re-connecting an already connected pair.
    ConnectionMismatch(QpId, QpId),
    /// A datagram verb was posted without destination addressing.
    MissingDestination,
    /// Atomic operations must target 8 aligned bytes.
    BadAtomicTarget,
}

impl fmt::Display for VerbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbError::UnknownNode(n) => write!(f, "unknown node {n}"),
            VerbError::UnknownQp(q) => write!(f, "unknown queue pair {q}"),
            VerbError::UnknownMr(m) => write!(f, "unknown memory region {m}"),
            VerbError::UnknownCq(c) => write!(f, "unknown completion queue {c}"),
            VerbError::OutOfBounds {
                mr,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {}) outside {mr} of size {size}",
                offset + len
            ),
            VerbError::UnsupportedVerb { transport, verb } => {
                write!(f, "{verb} is not supported on {transport}")
            }
            VerbError::MtuExceeded { len, mtu } => {
                write!(f, "message of {len} bytes exceeds MTU of {mtu}")
            }
            VerbError::InvalidQpState { qp, state } => {
                write!(f, "{qp} is in state {state}")
            }
            VerbError::ConnectionMismatch(a, b) => {
                write!(f, "cannot connect {a} and {b}")
            }
            VerbError::MissingDestination => {
                write!(f, "datagram verb posted without a destination")
            }
            VerbError::BadAtomicTarget => {
                write!(f, "atomic target must be 8 bytes, 8-byte aligned")
            }
        }
    }
}

impl std::error::Error for VerbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VerbError::OutOfBounds {
            mr: MrId(2),
            offset: 100,
            len: 50,
            size: 120,
        };
        assert_eq!(format!("{e}"), "access [100, 150) outside mr2 of size 120");
        let e = VerbError::MtuExceeded {
            len: 8192,
            mtu: 4096,
        };
        assert!(format!("{e}").contains("8192"));
        let e = VerbError::UnsupportedVerb {
            transport: "UD",
            verb: "rdma write",
        };
        assert_eq!(format!("{e}"), "rdma write is not supported on UD");
    }
}
