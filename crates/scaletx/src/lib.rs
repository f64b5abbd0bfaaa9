//! ScaleTX: distributed transactions co-using ScaleRPC and one-sided
//! verbs (§4.2 of the paper).
//!
//! Coordinators (clients) run optimistic concurrency control with
//! two-phase commit against three participant servers, each hosting one
//! shard of a MICA-style key-value store:
//!
//! 1. **Execute** — RPC reads of the read and write sets; write-set items
//!    are locked server-side; item addresses and versions come back.
//! 2. **Validate** — the coordinator re-reads each read-set version with
//!    a *one-sided RDMA read* (or an RPC, in the `ScaleTX-O` ablation);
//!    any change aborts the transaction.
//! 3. **Log** — RPC append of redo records at each participant owning
//!    write-set items.
//! 4. **Commit** — the coordinator installs each write-set item with a
//!    single *one-sided RDMA write* carrying the bumped version, the
//!    cleared lock word and the new value — no response needed, which is
//!    where write-heavy workloads (SmallBank) gain the most.
//!
//! The protocol is generic over the RPC transport, so the paper's full
//! comparison matrix (RawWrite / HERD / FaSST / ScaleTX-O / ScaleTX) runs
//! from one code path; UD transports simply cannot offer the one-sided
//! phases (Table 1), which the [`rpc_core::transport::OneSidedAccess`]
//! capability encodes.
//!
//! Because each coordinator talks to several `RPCServer`s, ScaleRPC's
//! groups must switch *in lockstep* across servers (§4.2's global
//! synchronization, Fig. 14). Every server runs on the one virtual clock,
//! so equal schedules are aligned by construction; the benchmarks include
//! a misaligned-schedule ablation (a per-server
//! [`scalerpc::ScaleRpcConfig::first_slice_offset`]) showing why it
//! matters.

pub mod participant;
pub mod proto;
pub mod sim;
pub mod workload;

pub use participant::TxParticipant;
pub use proto::{ExecItemView, TxRequestView, TxResponseView};
pub use sim::{run_scalerpc_tx, run_scalerpc_tx_with, tx_scale_cfg, TxConfig, TxMetrics, TxSim};
pub use workload::{TxKind, TxSpec, TxWorkload};
