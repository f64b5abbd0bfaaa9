//! Perf-regression harness: runs the fixed simulator workload set and
//! merges wall-time / events-per-second numbers into a JSON report.
//!
//! ```text
//! simperf [--label NAME] [--out PATH] [--quick] [--nthreads N]
//! simperf --check PATH
//! ```
//!
//! `--label before` / `--label after` populate the two slots the repo's
//! committed `BENCH_simperf.json` compares; any other label just records
//! a run. `--quick` shrinks the simulated windows for CI smoke tests.
//!
//! `--nthreads N` runs the multi-pod workload on N engine threads
//! (sharded isolated mode); the hub workloads always run sequentially.
//! Event counts are identical at every N — only wall time moves.
//!
//! `--check PATH` is the CI regression gate: it runs the full workload
//! set and exits 1, naming the workload, when any `(events, ops)`
//! differs from the newest labeled run in `PATH` that recorded it. Wall
//! time is printed beside the best ever recorded and never judged.
//! Nothing is written.

#![forbid(unsafe_code)]

use scalerpc_bench::simperf::{check_against, merge_report, run_all, run_to_json};

fn main() {
    let mut label = "run".to_string();
    let mut out = "BENCH_simperf.json".to_string();
    let mut quick = false;
    let mut nthreads = 1usize;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = args.next().expect("--out needs a value"),
            "--quick" => quick = true,
            "--nthreads" => {
                nthreads = args
                    .next()
                    .expect("--nthreads needs a value")
                    .parse()
                    .expect("--nthreads must be a positive integer");
                assert!(nthreads >= 1, "--nthreads must be >= 1");
            }
            "--check" => check = Some(args.next().expect("--check needs a baseline path")),
            "--help" | "-h" => {
                println!(
                    "usage: simperf [--label NAME] [--out PATH] [--quick] \
                     [--nthreads N] [--check BASELINE]"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    if check.is_some() && quick {
        // Quick windows replay a different trace than the full-window
        // baseline records.
        panic!("--check runs the full workload set; drop --quick");
    }

    eprintln!(
        "simperf: running fixed workload set ({}, {nthreads} engine thread{})...",
        if quick { "quick" } else { "full" },
        if nthreads == 1 { "" } else { "s" }
    );
    let results = run_all(quick, nthreads);
    for r in &results {
        eprintln!(
            "  {:<28} {:>9.1} ms  {:>10} events  {:>12.0} events/s  ops={}",
            r.name,
            r.wall_ms,
            r.events,
            r.events_per_sec(),
            r.ops
        );
    }

    if let Some(baseline) = check {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("read baseline {baseline:?}: {e}"));
        match check_against(&text, &results) {
            Ok(rep) => {
                eprintln!("{}", rep.verdict);
                std::process::exit(!rep.drifted.is_empty() as i32);
            }
            Err(e) => {
                eprintln!("simperf --check: {e}");
                std::process::exit(2);
            }
        }
    }

    let existing = std::fs::read_to_string(&out).ok();
    let doc = merge_report(existing.as_deref(), &label, run_to_json(&results));
    println!("{}", doc.pretty());
    std::fs::write(&out, doc.pretty()).expect("write report");
    eprintln!("simperf: wrote {out} (label {label:?})");
}
