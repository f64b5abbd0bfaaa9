//! A discrete-event simulated RDMA fabric.
//!
//! This crate stands in for the InfiniBand hardware of the paper's testbed
//! (ConnectX-3 FDR HCAs behind a Mellanox SX-1012 switch). It implements a
//! verbs-level API — memory regions, completion queues, RC/UC/UD queue
//! pairs, `send`/`recv`, `write`, `write_imm`, `read` and atomics — over a
//! deterministic discrete-event model of the resources whose contention
//! the paper identifies as the root cause of RDMA's scalability collapse:
//!
//! - the **NIC cache** holding QP contexts and WQEs ([`niccache`]), whose
//!   thrashing penalizes *outbound* verbs once too many connections are
//!   active (Fig. 3(a) of the paper);
//! - the **CPU last-level cache with DDIO** ([`llc`]), where *inbound*
//!   DMA writes land; its limited Write-Allocate partition causes the
//!   inbound collapse once message pools outgrow it (Fig. 3(b));
//! - finite-rate **NIC processing engines** and **links** modeled as FIFO
//!   queueing resources.
//!
//! Both caches evict by one random-replacement policy, written once: a
//! dense set of resident keys, one SplitMix64 draw per eviction, and an
//! entry array the cache owns and indexes directly — by `QpId` in the
//! NIC cache, by a page pool over registered regions in the LLC.
//!
//! All data movement is real: memory regions are byte buffers, RDMA writes
//! copy bytes, and the RPC layers above poll actual `Valid` bytes. The
//! fabric also exposes the simulated equivalents of the Intel PCM PCIe
//! counters (`PCIeRdCur`, `RFO`, `ItoM`, `PCIeItoM`) used by the paper's
//! analysis figures.

mod counters;
pub mod cq;
pub mod error;
pub mod fabric;
pub mod llc;
pub mod mr;
pub mod niccache;
pub mod params;
pub mod qp;
mod replace;
pub mod types;
pub mod verbs;

pub use cq::{Wc, WcOpcode, WcStatus};
pub use error::{VerbError, VerbResult};
pub use fabric::{Fabric, FabricEvent, PostInfo, Upcall};
pub use llc::LlcModel;
pub use mr::MemoryRegion;
pub use niccache::NicCache;
pub use params::{FabricParams, LinkDegrade};
pub use qp::{QpState, QueuePair, Transport};
pub use types::{CqId, MrId, NodeId, QpId, RemoteAddr, WrId};
pub use verbs::{AtomicOp, WorkRequest};
