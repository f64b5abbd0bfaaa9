//! Umbrella crate for the ScaleRPC reproduction suite.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests can address the whole system through a single
//! dependency. See `DESIGN.md` at the repository root for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record.

pub use mica_kv;
pub use octofs;
pub use rdma_fabric;
pub use rpc_baselines;
pub use rpc_core;
pub use scalerpc;
pub use scaletx;
pub use simcore;
pub use simtrace;
