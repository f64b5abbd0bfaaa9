//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each `figN` function in [`figures`] reproduces the corresponding
//! figure's rows/series; binaries under `src/bin/` print them one at a
//! time and `all_figures` prints the whole set.
//!
//! [`rpcbench`] is the one place a transport name becomes a running
//! point (the figures, the scenario runner and the tests all go through
//! it); [`rawverbs`] runs the transport-free verb microbenchmarks and
//! [`runner`] spreads a sweep over threads.
//!
//! Simulated absolute numbers are calibrated to the paper's hardware
//! envelope; the reproduction claim is the *shape* of each figure (who
//! wins, by what factor, where cliffs and crossovers sit). See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

pub mod figures;
pub mod rawverbs;
pub mod report;
pub mod rpcbench;
pub mod runner;
