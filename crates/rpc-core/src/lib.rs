//! Shared plumbing for every RPC implementation in the workspace.
//!
//! - [`message`]: the right-aligned `Data | MsgLen | Valid` message layout
//!   of §3.1 of the paper, plus the RPC header all transports share.
//! - [`driver`]: the application side of the engine — the [`Logic`]
//!   trait and the [`Cx`] capability handle through which logic posts
//!   verbs and sets timers.
//! - [`sharded`]: the engine — [`ShardedSim`], one sequential event
//!   loop over one queue, one fabric and one logic (DESIGN.md §10).
//! - [`transport`]: the [`RpcTransport`] trait
//!   every RPC implementation (ScaleRPC and the baselines) provides.
//! - [`cluster`]: topology builder for the paper's testbed shape (one
//!   server, N client machines with worker threads multiplexing
//!   coroutine-like clients) and [`ClientCpu`], the one model of those
//!   threads' time.
//! - [`harness`]: the closed-loop benchmark driver that plays the role of
//!   the paper's coroutine client loops and records throughput/latency.
//! - [`inject`]: scenario event injection — phased chaos events
//!   (departure, stragglers, link degradation, server pauses and
//!   crashes) and the one fault layer that applies the fabric-side ones
//!   for every client-side logic.
//! - [`workload`]: think-time distributions (uniform and the Gaussian
//!   skew of Fig. 12) and request-size generators.
//! - [`metrics`]: per-experiment result collection and the measured
//!   [`Window`].
//! - [`pool`]: [`BlockPool`], the `zones × slots × block_size` geometry
//!   of every message pool, static or virtualized, and
//!   [`write_block`](pool::write_block), the one framed block write.
//! - [`trace`]: [`TraceTable`](trace::TraceTable), the open-trace table
//!   every transport keeps from submit until the response lands.

pub mod cluster;
pub mod driver;
pub mod harness;
pub mod inject;
pub mod message;
pub mod metrics;
pub mod pool;
pub mod sharded;
pub mod trace;
pub mod transport;
pub mod window;
pub mod workers;
pub mod workload;

pub use cluster::{ClientCpu, ClientId, Cluster, ClusterSpec};
pub use driver::{Cx, Logic};
pub use harness::{Harness, HarnessConfig, HarnessConfigError};
pub use inject::{ClientStart, FaultEv, Injection, ScenarioError, ScenarioSpec};
pub use message::{MsgBuf, RpcHeader};
pub use metrics::{RpcMetrics, Window};
pub use pool::BlockPool;
pub use sharded::{ShardedSim, DRAIN};
pub use transport::{ClientOverhead, Response, RpcTransport, ServerHandler};
pub use window::{InFlight, RequestWindow};
pub use workers::WorkerPool;
pub use workload::ThinkTime;
