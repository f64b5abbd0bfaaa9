//! Octopus-like distributed file system metadata service.
//!
//! §4.1 of the paper deploys ScaleRPC inside Octopus, an RDMA+NVM
//! distributed file system, by replacing its RPC subsystem, and measures
//! metadata throughput with `mdtest`. This crate provides that setting:
//!
//! - [`meta`]: the metadata server state — inode table and directory
//!   entries — with per-operation CPU cost modelling. Write-oriented
//!   operations (`Mknod`, `Rmnod`) do substantially more file-system work
//!   than read-oriented ones (`Stat`, `Readdir`), which is why the paper
//!   finds the former software-bound (RPC choice barely matters) and the
//!   latter network-bound (ScaleRPC's scalability dominates).
//! - [`proto`]: the request/response wire format. `Readdir` responses are
//!   variable-sized — the capability UD-based RPCs (4 KB MTU) lack, which
//!   is why the paper compares only against Octopus' own self-identified
//!   RPC here.
//! - [`handler`]: glue implementing [`rpc_core::ServerHandler`], so the
//!   metadata server runs unchanged over ScaleRPC, SelfRPC, RawWrite or
//!   any other transport.
//! - [`mdtest`]: an mdtest-like workload generator.

pub mod handler;
pub mod mdtest;
pub mod meta;
pub mod proto;
pub mod run;

pub use handler::MdsHandler;
pub use mdtest::MdtestGen;
pub use meta::{FsError, MetaStore};
pub use proto::{FsOp, FsRequest, FsResponse};
pub use run::{run_mdtest, MdsTransport, MdtestResult, MdtestRun};
