//! Declarative scenarios for the ScaleRPC simulator.
//!
//! This crate closes the loop between "a benchmark binary with
//! hard-coded knobs" and "an experiment you can check into the repo and
//! diff": a scenario is a small TOML file describing
//!
//! - the **workload** — a raw-verb microbenchmark, a closed-loop RPC
//!   run over any of the five transports, or a ScaleTX transaction
//!   deployment;
//! - the **client populations** — how many clients, which tenant they
//!   belong to, how they arrive (immediately, at a fixed time, or as a
//!   Poisson process), their think-time model and their request-size
//!   distribution (fixed or zipfian);
//! - a **chaos timeline** — phased events injected mid-run: client
//!   departures, straggler slowdowns, link degradation, server pauses,
//!   server crashes, client reconnects and connection churn (the
//!   elastic control-plane stressors);
//! - an optional **expected fingerprint** pinning the run's exact
//!   `(events, ops)` outcome, so a scenario doubles as a determinism
//!   regression test.
//!
//! The layers:
//!
//! 1. [`toml`] — a dependency-free parser for the TOML subset the
//!    format uses, with exact line:column error spans;
//! 2. [`scenario`] — the typed AST and one key table per table of the
//!    format (key, typed slot, required or default, time unit, bound),
//!    walked by the reader, the canonical serializer
//!    (`parse ∘ to_toml = id`) and the bounds check alike; cross-field
//!    rules are written once beside them;
//! 3. [`compile`](mod@compile) — lowers a scenario onto the existing config types
//!    (`RawVerbConfig`, `HarnessConfig` + `ScaleRpcConfig` +
//!    [`rpc_core::inject::ScenarioSpec`], `TxConfig`);
//! 4. [`run`] — executes a compiled scenario, reports its runner's
//!    result and checks the per-run invariants (request conservation,
//!    no stuck clients, no busy slot, all locks freed);
//! 5. [`fuzz`] — generates valid-by-construction random scenarios,
//!    adds replay determinism to those checks and greedily shrinks any
//!    failure to a minimal reproduction.
//!
//! The `scenario` binary exposes `run`, `check` and `fuzz` subcommands
//! over checked-in `scenarios/*.toml` files.

#![warn(missing_docs)]

pub mod compile;
pub mod fuzz;
pub mod run;
pub mod scenario;
pub mod toml;

pub use compile::{compile, Compiled, CompiledRpc};
pub use fuzz::{check_scenario, fuzz_one, gen_scenario, shrink_failure, shrink_with, FuzzOutcome};
pub use run::{run_scenario, Outcome, ScenarioReport};
pub use scenario::{
    Event, EventKind, Expect, Population, RawWorkload, RpcWorkload, Scenario, ScenarioError,
    SizeModel, StartModel, ThinkModel, TxProfileKind, TxWorkload, Workload,
};
