//! Deterministic discrete-event simulation kernel.
//!
//! `simcore` is the foundation every other crate in this workspace builds
//! on. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: virtual time in nanoseconds.
//! - [`EventQueue`]: a deterministic future-event list with FIFO
//!   tie-breaking for simultaneous events.
//! - [`DetRng`]: seeded, splittable randomness so that every experiment is
//!   exactly reproducible, and [`SplitMix64`], the mixer that seeds it and
//!   draws the cache models' eviction victims. The kernel depends on no
//!   other crate.
//! - [`DetHashMap`] / [`DetHashSet`]: fixed-hasher maps with run-to-run
//!   deterministic iteration order (the root `clippy.toml` disallows
//!   std's `RandomState` maps workspace-wide).
//! - [`Fsm`]: a state field whose every write is checked against the
//!   enum's transition table ([`Transitions::allows`]), in every build
//!   profile.
//! - [`FifoResource`]: the classic single-server queueing resource used to
//!   model NIC engines, links and CPU threads.
//! - [`SkewedClock`]: a wall clock with configurable drift, the reference
//!   model the NTP-like global synchronization protocol of ScaleRPC (§4.2
//!   of the paper) is unit-checked against.
//! - [`stats`]: counters, log-bucketed latency histograms and CDF
//!   extraction used by the benchmark harness.
//!
//! Determinism is the core requirement (identical seeds must produce
//! identical hardware-counter traces). The kernel is single-threaded:
//! one [`EventQueue`] has one total `(time, seq)` order, and the engine
//! above it runs one queue per simulation (DESIGN.md §10), so golden
//! fingerprints are bit-identical run-to-run and across feature configs.

pub mod clock;
pub mod detmap;
pub mod event;
pub mod fsm;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::SkewedClock;
pub use detmap::{
    det_map_with_capacity, det_set_with_capacity, DetHashMap, DetHashSet, FxBuildHasher,
};
pub use event::{EventId, EventQueue};
pub use fsm::{Fsm, Transitions};
pub use resource::FifoResource;
pub use rng::{DetRng, SplitMix64};
pub use time::{SimDuration, SimTime};
