//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each `figN` function in [`figures`] reproduces the corresponding
//! figure's rows/series; binaries under `src/bin/` print them one at a
//! time and `all_figures` prints the whole set.
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
