//! Fixed-workload perf-regression harness for the simulator hot path.
//!
//! `simperf` runs a pinned set of fig. 1(b)/3(b)/8-shaped simulations —
//! the workloads that hammer the event queue, the NIC QP cache and the
//! LLC/DDIO model — and reports wall time and events/sec per workload.
//! The simulated traces are deterministic, so the `ops` and `events`
//! columns must be identical run-to-run and across optimization work;
//! only the wall-clock numbers may move. Reports merge into
//! `BENCH_simperf.json` under a label (`--label before|after`), and the
//! file gains a `speedup` section once both labels are present.

use crate::json::Json;
use crate::pods::{run_pods, PodsConfig};
use crate::rawverbs::{run_raw_verbs, RawVerbConfig, RawVerbKind};
use crate::rpcbench::{run_rpc, RpcRunConfig, TransportKind};
use scalerpc::ScaleRpcConfig;
use simcore::SimDuration;
use std::time::Instant;

/// One measured workload.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name (stable across runs).
    pub name: &'static str,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Operations completed in the measured window (determinism witness).
    pub ops: u64,
}

impl WorkloadResult {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1e3)
    }
}

fn timed(name: &'static str, f: impl FnOnce() -> (u64, u64)) -> WorkloadResult {
    let start = Instant::now();
    let (events, ops) = f();
    WorkloadResult {
        name,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        events,
        ops,
    }
}

/// Runs the fixed workload set. `quick` shrinks the simulated windows
/// for CI smoke runs (same code paths, ~10× less work). `nthreads`
/// feeds the sharded engine: the hub workloads (one server node) stay
/// pinned to the sequential engine — the 400 ns lookahead windows
/// cannot parallelize a single hub — while the multi-pod workload
/// spreads its independent pods over the thread pool. Event and op
/// counts are bit-identical at every `nthreads`.
pub fn run_all(quick: bool, nthreads: usize) -> Vec<WorkloadResult> {
    let ms = |full: u64, q: u64| SimDuration::millis(if quick { q } else { full });
    vec![
        // Fig. 1(b): 10 server threads RC-write to 800 clients — the QP
        // cache thrashes, so this is NicCache::access plus queue churn.
        timed("fig01b_outbound_800c", || {
            let r = run_raw_verbs(RawVerbConfig {
                kind: RawVerbKind::OutboundWrite,
                clients: 800,
                warmup: ms(1, 1),
                run: ms(4, 1),
                ..Default::default()
            });
            (r.events, r.ops)
        }),
        // Fig. 3(b): 400 clients stream into 8 KB blocks whose working
        // set overflows the LLC — dma_write/cpu_access dominate.
        timed("fig03b_inbound_8k_400c", || {
            let r = run_raw_verbs(RawVerbConfig {
                kind: RawVerbKind::InboundWrite,
                clients: 400,
                block_size: 8192,
                warmup: ms(1, 1),
                run: ms(4, 1),
                ..Default::default()
            });
            (r.events, r.ops)
        }),
        // Fig. 8 (left): the full ScaleRPC stack, 400 closed-loop
        // clients, batch 8 — end-to-end pipeline through the unified
        // event queue.
        timed("fig08_scalerpc_400c_b8", || {
            let r = run_rpc(RpcRunConfig {
                kind: TransportKind::ScaleRpc(ScaleRpcConfig::default()),
                clients: 400,
                batch: 8,
                warmup: ms(2, 1),
                run: ms(6, 1),
                ..Default::default()
            });
            (r.events, r.ops)
        }),
        // Fig. 8 baseline: RawWrite at 400 clients thrashes per-client
        // QPs and connection state, a different queue/cache mix.
        timed("fig08_rawwrite_400c_b1", || {
            let r = run_rpc(RpcRunConfig {
                kind: TransportKind::RawWrite,
                clients: 400,
                batch: 1,
                warmup: ms(2, 1),
                run: ms(6, 1),
                ..Default::default()
            });
            (r.events, r.ops)
        }),
        // Asynchronous pipeline: same ScaleRPC stack but each client
        // keeps 4 requests outstanding (batch 1), exercising the
        // windowed submit/poll path and context-switch re-arming.
        timed("fig08_scalerpc_400c_w4", || {
            let r = run_rpc(RpcRunConfig {
                kind: TransportKind::ScaleRpc(ScaleRpcConfig::default()),
                clients: 400,
                batch: 1,
                window: 4,
                warmup: ms(2, 1),
                run: ms(6, 1),
                ..Default::default()
            });
            (r.events, r.ops)
        }),
        // Eight independent server pods — the rack-shaped workload the
        // sharded engine accelerates (isolated mode, one shard per
        // pod). The only row whose wall time responds to `--nthreads`.
        timed("pods8_inbound_200c", move || {
            let r = run_pods(PodsConfig {
                warmup: if quick {
                    SimDuration::micros(200)
                } else {
                    SimDuration::millis(1)
                },
                run: if quick {
                    SimDuration::micros(400)
                } else {
                    SimDuration::millis(4)
                },
                nthreads,
                ..Default::default()
            });
            (r.events, r.ops)
        }),
    ]
}

/// Builds the JSON object for one labelled run.
pub fn run_to_json(results: &[WorkloadResult]) -> Json {
    let total_wall: f64 = results.iter().map(|r| r.wall_ms).sum();
    let total_events: u64 = results.iter().map(|r| r.events).sum();
    Json::Obj(vec![
        ("total_wall_ms".into(), Json::num(round2(total_wall))),
        ("total_events".into(), Json::num(total_events as f64)),
        (
            "events_per_sec".into(),
            Json::num((total_events as f64 / (total_wall / 1e3)).round()),
        ),
        (
            "workloads".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(r.name)),
                            ("wall_ms".into(), Json::num(round2(r.wall_ms))),
                            ("events".into(), Json::num(r.events as f64)),
                            ("ops".into(), Json::num(r.ops as f64)),
                            (
                                "events_per_sec".into(),
                                Json::num(r.events_per_sec().round()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Max tolerated wall growth over the best-ever baseline before
/// `--check` fails (10 %).
pub const CHECK_TOLERANCE: f64 = 0.10;

/// Runs of the workload set `--check` may take before it fails: the
/// baseline is a best-of-history, so a single sample is not its peer.
pub const CHECK_ATTEMPTS: usize = 3;

/// One workload of a `--check` comparison: the current wall against the
/// fastest recorded run of the same name *and* event count.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Workload name.
    pub name: &'static str,
    /// Label that holds the best-ever wall for this workload.
    pub best_label: String,
    /// That run's wall-clock milliseconds.
    pub best_wall_ms: f64,
    /// Current wall-clock milliseconds.
    pub current_wall_ms: f64,
}

/// Outcome of a `--check` comparison against the per-workload best-ever
/// walls of every labeled run.
///
/// Comparing against the *latest* label let creep compound (3918 →
/// 4226 → 4665 ms over three labels that each passed their own 10 %
/// gate); a best-ever baseline only ever moves down. The gate is on
/// the sum over workloads — the 10–35 ms rows move by more than the
/// tolerance between two runs of one binary — and the per-workload
/// rows say which layer paid.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Workloads with an event-identical recorded run, in run order.
    pub rows: Vec<CheckRow>,
    /// Workloads no label recorded with this event count (new, or the
    /// simulated trace changed): reported, not gated.
    pub unmatched: Vec<&'static str>,
    /// Sum of the rows' best-ever walls.
    pub baseline_wall_ms: f64,
    /// Sum of the rows' current walls.
    pub current_wall_ms: f64,
    /// `current / baseline` wall ratio.
    pub ratio: f64,
    /// True when the ratio exceeds `1 + tolerance`.
    pub regressed: bool,
}

impl CheckReport {
    /// Human-readable verdict: one line per workload, then the gate.
    pub fn verdict(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out += &format!(
                "simperf --check: {:<28} {:>8.1} ms vs best {:>8.1} ms ({}) {:.2}x\n",
                r.name,
                r.current_wall_ms,
                r.best_wall_ms,
                r.best_label,
                r.current_wall_ms / r.best_wall_ms,
            );
        }
        for name in &self.unmatched {
            out += &format!(
                "simperf --check: {name:<28} has no event-identical baseline — workload changed, not gated\n"
            );
        }
        out + &format!(
            "simperf --check: total {:.1} ms vs {:.1} ms (sum of best-ever walls) {:.2}x{}",
            self.current_wall_ms,
            self.baseline_wall_ms,
            self.ratio,
            if self.regressed { " REGRESSED" } else { " ok" },
        )
    }
}

/// Compares measured `results`, workload by workload, against the
/// fastest event-identical run recorded under any label of the report
/// text. Errors when the report is unparsable or no workload has an
/// event-identical baseline; the caller turns `regressed` into a
/// non-zero exit for CI.
pub fn check_against(
    existing: &str,
    results: &[WorkloadResult],
    tolerance: f64,
) -> Result<CheckReport, String> {
    let doc = Json::parse(existing).map_err(|e| format!("unparsable baseline report: {e}"))?;
    let Some(Json::Obj(runs)) = doc.get("runs") else {
        return Err("baseline report has no labeled runs to compare against".into());
    };
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for r in results {
        let recorded = runs.iter().filter_map(|(label, run)| {
            let Some(Json::Arr(workloads)) = run.get("workloads") else {
                return None;
            };
            let same = workloads.iter().find(|w| {
                w.get("name") == Some(&Json::str(r.name))
                    && w.get("events").and_then(Json::as_f64) == Some(r.events as f64)
            })?;
            let wall = same.get("wall_ms").and_then(Json::as_f64)?;
            (wall > 0.0).then_some((label, wall))
        });
        match recorded.min_by(|a, b| a.1.total_cmp(&b.1)) {
            Some((label, best_wall_ms)) => rows.push(CheckRow {
                name: r.name,
                best_label: label.clone(),
                best_wall_ms,
                current_wall_ms: r.wall_ms,
            }),
            None => unmatched.push(r.name),
        }
    }
    if rows.is_empty() {
        return Err("no labeled run recorded any of these workloads event-identically".into());
    }
    let baseline_wall_ms: f64 = rows.iter().map(|r| r.best_wall_ms).sum();
    let current_wall_ms: f64 = rows.iter().map(|r| r.current_wall_ms).sum();
    let ratio = current_wall_ms / baseline_wall_ms;
    Ok(CheckReport {
        rows,
        unmatched,
        baseline_wall_ms,
        current_wall_ms,
        ratio: round2(ratio),
        regressed: ratio > 1.0 + tolerance,
    })
}

/// Merges a labelled run into the report document (parsed from the
/// existing file when present) and recomputes the before/after speedup.
pub fn merge_report(existing: Option<&str>, label: &str, run: Json) -> Json {
    let mut doc = existing
        .and_then(|t| Json::parse(t).ok())
        .filter(|d| matches!(d, Json::Obj(_)))
        .unwrap_or_else(|| {
            Json::Obj(vec![
                ("bench".into(), Json::str("simperf")),
                (
                    "workload".into(),
                    Json::str(
                        "fixed fig01b/fig03b raw-verb + fig08 ScaleRPC/RawWrite closed-loop set",
                    ),
                ),
                ("runs".into(), Json::Obj(vec![])),
            ])
        });
    let mut runs = doc.get("runs").cloned().unwrap_or(Json::Obj(vec![]));
    runs.set(label, run);
    let speedup = {
        let wall = |l: &str| {
            runs.get(l)
                .and_then(|r| r.get("total_wall_ms"))
                .and_then(Json::as_f64)
        };
        match (wall("before"), wall("after")) {
            (Some(b), Some(a)) if a > 0.0 => Some(round2(b / a)),
            _ => None,
        }
    };
    doc.set("runs", runs);
    match speedup {
        Some(s) => doc.set("speedup_wall_clock", Json::num(s)),
        None => doc.set("speedup_wall_clock", Json::Null),
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(wall: f64) -> Json {
        run_to_json(&[WorkloadResult {
            name: "w",
            wall_ms: wall,
            events: 1000,
            ops: 10,
        }])
    }

    #[test]
    fn merge_computes_speedup_once_both_labels_exist() {
        let doc1 = merge_report(None, "before", fake(200.0));
        assert_eq!(doc1.get("speedup_wall_clock"), Some(&Json::Null));
        let text = doc1.pretty();
        let doc2 = merge_report(Some(&text), "after", fake(50.0));
        assert_eq!(
            doc2.get("speedup_wall_clock").and_then(Json::as_f64),
            Some(4.0)
        );
        // Relabelling replaces, not duplicates.
        let doc3 = merge_report(Some(&doc2.pretty()), "after", fake(100.0));
        assert_eq!(
            doc3.get("speedup_wall_clock").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    fn fake_results(wall: f64) -> Vec<WorkloadResult> {
        vec![WorkloadResult {
            name: "w",
            wall_ms: wall,
            events: 1000,
            ops: 10,
        }]
    }

    #[test]
    fn check_compares_against_best_ever_not_latest() {
        // Three labels merged in order, the fastest in the middle: the
        // check must pick it, so a slow latest label cannot raise the bar.
        let doc = merge_report(None, "before", fake(200.0));
        let doc = merge_report(Some(&doc.pretty()), "pr2-trace-off", fake(100.0));
        let doc = merge_report(Some(&doc.pretty()), "pr8-elastic", fake(119.0));
        let text = doc.pretty();

        let ok = check_against(&text, &fake_results(105.0), CHECK_TOLERANCE).unwrap();
        assert_eq!(ok.rows[0].best_label, "pr2-trace-off");
        assert_eq!(ok.baseline_wall_ms, 100.0);
        assert!(!ok.regressed, "{}", ok.verdict());

        // Within 10 % of the latest label, but not of the best: creep.
        let bad = check_against(&text, &fake_results(120.0), CHECK_TOLERANCE).unwrap();
        assert!(bad.regressed, "{}", bad.verdict());
        assert!(bad.verdict().contains("REGRESSED"));

        // Right at the threshold: 10 % over is still allowed.
        let edge = check_against(&text, &fake_results(110.0), CHECK_TOLERANCE).unwrap();
        assert!(!edge.regressed);
    }

    #[test]
    fn check_takes_each_workload_from_its_own_best_label_and_skips_event_drift() {
        let run = |a: f64, b: f64, b_events: u64| {
            run_to_json(&[
                WorkloadResult {
                    name: "a",
                    wall_ms: a,
                    events: 1000,
                    ops: 10,
                },
                WorkloadResult {
                    name: "b",
                    wall_ms: b,
                    events: b_events,
                    ops: 10,
                },
            ])
        };
        let doc = merge_report(None, "one", run(50.0, 80.0, 2000));
        let doc = merge_report(Some(&doc.pretty()), "two", run(70.0, 60.0, 2000));
        // Fastest of all, but a different simulated trace: never a baseline.
        let doc = merge_report(Some(&doc.pretty()), "three", run(90.0, 10.0, 1999));
        let mut results = fake_results(55.0);
        results[0].name = "a";
        results.push(WorkloadResult {
            name: "b",
            wall_ms: 60.0,
            events: 2000,
            ops: 10,
        });
        results.push(WorkloadResult {
            name: "c",
            wall_ms: 1e6,
            events: 5,
            ops: 1,
        });
        let rep = check_against(&doc.pretty(), &results, CHECK_TOLERANCE).unwrap();
        let best: Vec<_> = rep
            .rows
            .iter()
            .map(|r| (r.name, r.best_label.as_str(), r.best_wall_ms))
            .collect();
        assert_eq!(best, [("a", "one", 50.0), ("b", "two", 60.0)]);
        assert_eq!(rep.unmatched, ["c"]);
        assert_eq!((rep.baseline_wall_ms, rep.current_wall_ms), (110.0, 115.0));
        assert!(!rep.regressed, "an unmatched workload is not gated");
        assert!(rep.verdict().contains("no event-identical baseline"));
    }

    #[test]
    fn check_rejects_empty_broken_or_event_drifted_baselines() {
        assert!(check_against("not json", &fake_results(1.0), CHECK_TOLERANCE).is_err());
        let empty = Json::Obj(vec![("runs".into(), Json::Obj(vec![]))]);
        assert!(check_against(&empty.pretty(), &fake_results(1.0), CHECK_TOLERANCE).is_err());
        let doc = merge_report(None, "base", fake(100.0));
        let mut results = fake_results(100.0);
        results[0].events = 999; // baseline recorded 1000
        assert!(check_against(&doc.pretty(), &results, CHECK_TOLERANCE).is_err());
    }

    #[test]
    fn quick_run_is_deterministic_and_counts_events() {
        let a = run_all(true, 1);
        let b = run_all(true, 2);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.events, y.events, "{} events drifted", x.name);
            assert_eq!(x.ops, y.ops, "{} ops drifted", x.name);
            assert!(x.events > 10_000, "{} suspiciously idle", x.name);
            assert!(x.ops > 0, "{} did no work", x.name);
        }
    }
}
