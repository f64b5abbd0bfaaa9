//! The repo benchmark: five closed-loop workloads replayed on one host
//! thread, reporting what a user of the simulator pays (host seconds
//! and memory to replay a workload) and what a reader of the paper
//! looks at (simulated throughput and latency), plus a per-layer ledger
//! measured from outside the crates: wrapper types around their public
//! traits, a counting allocator, timed loops over public functions and
//! the accessors the crates already expose. See `README.md`.

pub mod alloc;
pub mod inbound;
pub mod kernels;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrap;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
