//! ScaleRPC: scalable RDMA RPC on reliable connection.
//!
//! The primary contribution of *"Scalable RDMA RPC on Reliable Connection
//! with Efficient Resource Sharing"* (EuroSys '19). ScaleRPC keeps the
//! one-sided RC write data path of FaRM-style RPC — reliability, 2 GB
//! messages, and the ability to co-use one-sided verbs — while removing
//! its scalability collapse through four cooperating mechanisms:
//!
//! 1. **Connection grouping** ([`scheduler`]): clients are partitioned
//!    into groups served round-robin in time slices, bounding the number
//!    of QPs the NIC touches per slice to roughly its cache capacity.
//! 2. **Virtualized mapping** ([`vpool`]): one *physical* message pool is
//!    re-used as the *logical* pool of whichever group is being served.
//!    The pool is stateless, so no resets are needed between groups, and
//!    its (fixed) addresses stay hot in the CPU LLC.
//! 3. **Priority-based scheduling** ([`scheduler`]): per-client priority
//!    `P_i = T_i / S_i` groups clients of similar behaviour together,
//!    gives busy groups longer slices, and lazily splits/merges groups
//!    that drift outside `[1/2, 3/2]×` the default size.
//! 4. **Request warmup** ([`transport`]): a second pool plus per-client
//!    endpoint entries let the server pre-fetch the next group's batched
//!    requests with RDMA reads, hiding context switches entirely.
//!
//! Clients follow the IDLE → WARMUP → PROCESS state machine of Fig. 7
//! ([`client`]), learning about context switches from piggybacked (or,
//! when necessary, explicit) `context_switch_event` notifications.
//!
//! [`ScaleRpc`] ([`transport`]) is three parts that read each other's
//! state only through named calls: the `RPCServer` (`transport/server.rs`:
//! warmup, zone scan, execution, context switch, responses), every
//! `RPCClient` end (beside the FSM in [`client`]: staging, endpoint entry,
//! direct writes, response landing) and the connection lifecycle
//! (`transport/lifecycle.rs`: connections, exactly-once, response replay).
//!
//! Several `RPCServer`s switch groups at the same pace, which the ScaleTX
//! transaction system requires (§4.2), because every server runs on the
//! one virtual clock: their slice schedules are aligned by construction,
//! and [`ScaleRpcConfig::first_slice_offset`] staggers them on purpose.

pub mod config;
pub mod scheduler;
pub mod transport;
pub mod vpool;

pub use config::ScaleRpcConfig;
pub use scheduler::{ClientStats, GroupPlan, Scheduler};
pub use transport::client;
pub use transport::client::{ClientFsm, ClientState};
pub use transport::{ScaleEv, ScaleRpc};
