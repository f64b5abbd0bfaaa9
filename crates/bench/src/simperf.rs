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
/// reaches one row: the hub workloads (one server node) have nothing
/// to run in parallel and take no such option, while the multi-pod
/// workload spreads its independent pods over the thread pool. Event
/// and op counts are bit-identical at every `nthreads`.
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
        // engine runs in parallel (isolated mode, one shard per pod).
        // The only row whose wall time responds to `--nthreads`.
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

/// Outcome of a `--check` comparison. The gate is what is deterministic,
/// the simulated trace: each workload's `(events, ops)` must equal the
/// newest label that recorded it. Wall time on this host moves by more
/// than any useful tolerance between two runs of one binary, so it is
/// printed beside the best ever recorded and never judged; wall claims
/// belong to `benchmark/run.sh`'s reference-scaled pairs.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// One line per workload, then the gate. A workload no label
    /// recorded (new) is reported, not gated.
    pub verdict: String,
    /// Workloads whose counts differ from their recorded values: the
    /// simulated behaviour changed. Empty means pass.
    pub drifted: Vec<&'static str>,
}

/// Compares measured `results` against the labeled runs of the report
/// text. Errors when the report is unparsable or records none of the
/// workloads; the caller turns a non-empty `drifted` into exit 1.
pub fn check_against(existing: &str, results: &[WorkloadResult]) -> Result<CheckReport, String> {
    let doc = Json::parse(existing).map_err(|e| format!("unparsable baseline report: {e}"))?;
    let Some(Json::Obj(runs)) = doc.get("runs") else {
        return Err("baseline report has no labeled runs to compare against".into());
    };
    let mut report = CheckReport::default();
    let mut gated = 0;
    for r in results {
        // Every label's record of this workload, oldest first (labels
        // are appended as they are recorded).
        let recorded = runs.iter().filter_map(|(label, run)| {
            let Some(Json::Arr(workloads)) = run.get("workloads") else {
                return None;
            };
            let same_name = |w: &&Json| w.get("name") == Some(&Json::str(r.name));
            Some((label, workloads.iter().find(same_name)?))
        });
        let recorded: Vec<(&String, &Json)> = recorded.collect();
        let num = |w: &Json, key| w.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        report.verdict += &format!("simperf --check: {:<28} ", r.name);
        let Some(&(label, newest)) = recorded.last() else {
            report.verdict += "is in no labeled run — not gated\n";
            continue;
        };
        gated += 1;
        let (events, ops) = (num(newest, "events"), num(newest, "ops"));
        let against = if (events, ops) == (r.events as f64, r.ops as f64) {
            format!("== {label}")
        } else {
            report.drifted.push(r.name);
            format!("!= {label} events={events} ops={ops}")
        };
        let walls = recorded.iter().map(|(_, w)| num(w, "wall_ms"));
        report.verdict += &format!(
            "events={} ops={} {against}; wall {:.1} ms, {:.2}x the best recorded\n",
            r.events,
            r.ops,
            r.wall_ms,
            r.wall_ms / walls.fold(f64::INFINITY, f64::min),
        );
    }
    if gated == 0 {
        return Err("no labeled run recorded any of these workloads".into());
    }
    report.verdict += &match report.drifted.as_slice() {
        [] => "simperf --check: every recorded (events, ops) reproduced — ok".to_string(),
        names => format!("simperf --check: DRIFTED: {}", names.join(", ")),
    };
    Ok(report)
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

    fn result(name: &'static str, wall_ms: f64, events: u64, ops: u64) -> WorkloadResult {
        WorkloadResult {
            name,
            wall_ms,
            events,
            ops,
        }
    }

    /// Three labels, oldest first: `b` changed its trace in the newest.
    fn recorded() -> String {
        let run = |a: f64, b: f64, b_events: u64| {
            run_to_json(&[result("a", a, 1000, 10), result("b", b, b_events, 20)])
        };
        let doc = merge_report(None, "one", run(50.0, 80.0, 1999));
        let doc = merge_report(Some(&doc.pretty()), "two", run(70.0, 60.0, 2000));
        merge_report(Some(&doc.pretty()), "three", run(90.0, 65.0, 2000)).pretty()
    }

    #[test]
    fn check_passes_equal_counts_at_any_wall() {
        // A hundred times slower than anything recorded: still a pass.
        let results = [result("a", 5e3, 1000, 10), result("b", 6e3, 2000, 20)];
        let rep = check_against(&recorded(), &results).unwrap();
        assert!(rep.drifted.is_empty(), "{}", rep.verdict);
        assert!(rep.verdict.ends_with("ok"), "{}", rep.verdict);
        // Each workload is held to the newest label that recorded it; the
        // wall beside it is read against the best under any label.
        for line in [
            "events=1000 ops=10 == three; wall 5000.0 ms, 100.00x",
            "events=2000 ops=20 == three; wall 6000.0 ms, 100.00x",
        ] {
            assert!(rep.verdict.contains(line), "{}", rep.verdict);
        }
    }

    #[test]
    fn check_fails_one_drifted_count_and_names_its_workload() {
        // `b` reproduces what label "one" recorded, not the newest label;
        // as fast as ever, and still a failure.
        let results = [result("a", 50.0, 1000, 10), result("b", 60.0, 1999, 20)];
        let rep = check_against(&recorded(), &results).unwrap();
        assert_eq!(rep.drifted, ["b"]);
        assert!(rep
            .verdict
            .contains("events=1999 ops=20 != three events=2000 ops=20"));
        assert!(rep.verdict.ends_with("DRIFTED: b"), "{}", rep.verdict);
        // An op count alone drifts too.
        let results = [result("a", 50.0, 1000, 11)];
        assert_eq!(check_against(&recorded(), &results).unwrap().drifted, ["a"]);
    }

    #[test]
    fn check_reports_an_unrecorded_workload_without_gating_it() {
        let results = [result("a", 50.0, 1000, 10), result("c", 1.0, 5, 1)];
        let rep = check_against(&recorded(), &results).unwrap();
        assert!(rep.drifted.is_empty(), "{}", rep.verdict);
        let c_line = rep.verdict.lines().nth(1).expect("one line per workload");
        assert!(c_line.contains(" c ") && c_line.ends_with("is in no labeled run — not gated"));
        // Nothing to hold the run to is an error, not a pass.
        assert!(check_against(&recorded(), &results[1..]).is_err());
        assert!(check_against("not json", &results).is_err());
        let empty = Json::Obj(vec![("runs".into(), Json::Obj(vec![]))]);
        assert!(check_against(&empty.pretty(), &results).is_err());
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
