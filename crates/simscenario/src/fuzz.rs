//! Seed-driven scenario fuzzing.
//!
//! [`fuzz_one`] generates a valid-by-construction random scenario from
//! a seed, pushes it through the full pipeline — serialize, re-parse
//! (exercising the TOML parser on machine-written input), compile, run
//! twice — and so checks four invariants. [`run_scenario`] enforces the
//! first three on every run, for every caller:
//!
//! 1. **request conservation** — every request issued was either
//!    completed or still in flight when the run ended;
//! 2. **no stuck clients** — after the drain no client holds an
//!    in-flight request (and for tx runs, no coordinator slot is busy);
//! 3. **all locks freed** — tx runs leave no KV item locked;
//!
//! and [`check_scenario`] adds the fourth:
//!
//! 4. **replay determinism** — replaying the identical scenario
//!    reproduces its summary (the `(events, ops)` fingerprint, the
//!    request or transaction totals, the latencies) bit-exactly.
//!
//! Scenarios are drawn small (hundreds of microseconds of simulated
//! time, tens of clients) so a multi-seed sweep stays inside a CI
//! smoke-test budget.

use crate::run::{run_scenario, ScenarioReport};
use crate::scenario::{
    Event, EventKind, Population, RpcWorkload, Scenario, ScenarioError, SizeModel, StartModel,
    ThinkModel, TxProfileKind, TxWorkload, Workload,
};
use scalerpc_bench::rpcbench::TransportKind;
use simcore::DetRng;

/// A fuzz iteration that passed every invariant.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// The generating seed.
    pub seed: u64,
    /// The generated scenario (after a serialize→parse round trip).
    pub scenario: Scenario,
    /// The (replay-verified) run report.
    pub report: ScenarioReport,
}

fn violated(seed: u64, what: impl std::fmt::Display) -> ScenarioError {
    ScenarioError {
        span: None,
        msg: format!("fuzz seed {seed}: {what}"),
    }
}

fn gen_rpc(rng: &mut DetRng) -> (Workload, Vec<Population>, Vec<Event>) {
    let transport = [
        TransportKind::ScaleRpc,
        TransportKind::ScaleRpc,
        TransportKind::ScaleRpc,
        TransportKind::RawWrite,
        TransportKind::Herd,
        TransportKind::Fasst,
        TransportKind::SelfRpc,
    ][rng.below(7) as usize];
    let window = [1, 1, 2, 4][rng.below(4) as usize];
    let batch = if window == 1 {
        [1, 1, 2, 4][rng.below(4) as usize]
    } else {
        1
    };
    let npop = 1 + rng.below(3) as usize;
    let tenant_isolate = transport == TransportKind::ScaleRpc && npop > 1 && rng.chance(0.4);
    // Lifecycle chaos needs the elastic control plane (scalerpc) and a
    // retry policy: connection teardown drops in-flight packets, so a
    // churned client can only make progress by retransmitting. The
    // harness retries synchronous batches too; drawing lifecycle events
    // only for windowed clients is a draw choice, kept so the generated
    // scenarios of every seed (and the seed windows CI runs) stay as
    // they were.
    let elastic_ok = transport == TransportKind::ScaleRpc && window > 1;
    let lazy_connect = transport == TransportKind::ScaleRpc && rng.chance(0.3);
    let retry_timeout_us = if elastic_ok && rng.chance(0.5) {
        [200, 300, 500][rng.below(3) as usize]
    } else {
        0
    };
    let mut w = RpcWorkload {
        transport,
        machines: 2 + rng.below(2) as usize,
        threads_per_machine: 4,
        server_threads: 4 + rng.below(4) as usize,
        batch,
        window,
        group_size: [8, 16][rng.below(2) as usize],
        time_slice_us: [50, 100][rng.below(2) as usize],
        slots: 8,
        block_size: 4096,
        dynamic: rng.chance(0.5),
        regroup_rotations: 4,
        tenant_isolate,
        lazy_connect,
        retry_timeout_us,
    };
    let mut pops = Vec::new();
    for i in 0..npop {
        let start = match rng.below(3) {
            0 => StartModel::Immediate,
            1 => StartModel::At {
                at_us: rng.below(400),
            },
            _ => StartModel::Poisson {
                rate_per_ms: 20.0 + rng.below(180) as f64,
                from_us: rng.below(200),
            },
        };
        let think = match rng.below(3) {
            0 => ThinkModel::None,
            1 => ThinkModel::FixedUs(1 + rng.below(5)),
            _ => {
                let lo = rng.below(3);
                ThinkModel::UniformUs(lo, lo + 1 + rng.below(4))
            }
        };
        let size = match rng.below(3) {
            0 => SizeModel::Fixed([32, 64, 128][rng.below(3) as usize]),
            _ => SizeModel::Zipf {
                min: 32,
                max: 256 + rng.below(4) as usize * 256,
                theta: 0.5 + rng.below(8) as f64 / 10.0,
            },
        };
        pops.push(Population {
            name: format!("pop{i}"),
            clients: 4 + rng.below(13) as usize,
            tenant: i as u32,
            start,
            think,
            size,
        });
    }
    let mut events = Vec::new();
    let mut at_us = 250;
    let nkinds = if elastic_ok { 8 } else { 5 };
    let mut lifecycle = false;
    for _ in 0..rng.below(4) {
        at_us += 50 + rng.below(250);
        let kind = match rng.below(nkinds) {
            0 => EventKind::LinkDegrade {
                num: 2 + rng.below(3) as u32,
                den: 1,
                extra_ns: rng.below(500),
            },
            1 => EventKind::LinkRestore,
            2 => EventKind::ServerPause {
                dur_us: 20 + rng.below(80),
            },
            3 => EventKind::Depart {
                population: pops[rng.below(pops.len() as u64) as usize].name.clone(),
            },
            4 => EventKind::Straggle {
                population: pops[rng.below(pops.len() as u64) as usize].name.clone(),
                num: 2 + rng.below(3) as u32,
                den: 1,
            },
            5 => {
                lifecycle = true;
                EventKind::ServerCrash {
                    down_us: 20 + rng.below(60),
                }
            }
            6 => {
                lifecycle = true;
                EventKind::ClientReconnect {
                    population: pops[rng.below(pops.len() as u64) as usize].name.clone(),
                }
            }
            _ => {
                lifecycle = true;
                EventKind::ConnChurn {
                    population: pops[rng.below(pops.len() as u64) as usize].name.clone(),
                }
            }
        };
        events.push(Event { at_us, kind });
    }
    if lifecycle {
        // Every lifecycle event drops in-flight packets, and compile
        // would arm its 500 µs default; the draw pins 300 µs instead, so
        // the generated scenarios of every seed stay as they were.
        w.retry_timeout_us = w.retry_timeout_us.max(300);
    }
    (Workload::Rpc(w), pops, events)
}

fn gen_tx(rng: &mut DetRng) -> Workload {
    let profile = if rng.chance(0.5) {
        TxProfileKind::ObjectStore
    } else {
        TxProfileKind::SmallBank
    };
    Workload::Tx(TxWorkload {
        profile,
        coordinators: 8 + rng.below(9) as usize,
        servers: 3,
        client_machines: 2,
        window: [1, 2, 4, 8][rng.below(4) as usize],
        one_sided: rng.chance(0.7),
        value_size: 8,
        keys_per_server: 32 + rng.below(97),
        reads: 1 + rng.below(3) as usize,
        writes: 1 + rng.below(2) as usize,
        hot_fraction: 0.1 + rng.below(5) as f64 / 10.0,
        hot_prob: 0.5,
    })
}

/// Generates the scenario for `seed` (deterministic).
pub fn gen_scenario(seed: u64) -> Scenario {
    let mut rng = DetRng::new(seed).split(0xf022);
    let (workload, populations, events) = if rng.chance(0.3) {
        (gen_tx(&mut rng), Vec::new(), Vec::new())
    } else {
        gen_rpc(&mut rng)
    };
    Scenario {
        name: format!("fuzz-{seed}"),
        seed: rng.below(1 << 32),
        warmup_us: 200,
        run_us: 600 + rng.below(700),
        workload,
        populations,
        events,
        expect: None,
    }
}

/// Runs `sc` twice ([`run_scenario`] checks the per-run invariants on
/// each) and checks that the replay reproduces the first run's summary;
/// `who` labels the provenance (a fuzz seed, a shrink candidate) in
/// error messages.
pub fn check_scenario(sc: &Scenario, who: &str) -> Result<ScenarioReport, ScenarioError> {
    let fail = |what: String| ScenarioError {
        span: None,
        msg: format!("{who}: {what}"),
    };
    let r1 = run_scenario(sc).map_err(|e| fail(e.to_string()))?;
    let r2 = run_scenario(sc).map_err(|e| fail(format!("replay: {e}")))?;
    let (s1, s2) = (r1.summary(), r2.summary());
    if s1 != s2 {
        return Err(fail(format!("replay diverged: {s1} vs {s2}")));
    }
    Ok(r1)
}

/// Generates, round-trips, runs and invariant-checks one seed.
pub fn fuzz_one(seed: u64) -> Result<FuzzOutcome, ScenarioError> {
    let generated = gen_scenario(seed);

    // Serialize → re-parse: the canonical serializer and the parser
    // must agree on every machine-generated scenario.
    let text = generated.to_toml();
    let parsed = Scenario::parse(&text)
        .map_err(|e| violated(seed, format!("round-trip parse failed: {e}\n{text}")))?;
    if parsed != generated {
        return Err(violated(
            seed,
            "serialize→parse round trip changed the scenario",
        ));
    }

    let report = check_scenario(&parsed, &format!("fuzz seed {seed}"))?;
    Ok(FuzzOutcome {
        seed,
        scenario: parsed,
        report,
    })
}

// ---- shrinking ----------------------------------------------------------

/// One pass of shrink transformations, most aggressive first. Candidates
/// may be invalid (an event can reference a dropped population); the
/// shrink loop filters them through the parser.
fn shrink_candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    let mut edit = |f: &dyn Fn(&mut Scenario)| {
        let mut c = sc.clone();
        f(&mut c);
        out.push(c);
    };
    // Drop each timeline event.
    for i in 0..sc.events.len() {
        edit(&|c| drop(c.events.remove(i)));
    }
    // Drop each population, along with the events that target it.
    for i in (0..sc.populations.len()).filter(|_| sc.populations.len() > 1) {
        edit(&|c| {
            let name = c.populations.remove(i).name;
            c.events.retain(|e| e.kind.population() != Some(&name));
        });
    }
    // Halve each population's client count.
    for (i, _) in sc
        .populations
        .iter()
        .enumerate()
        .filter(|(_, p)| p.clients > 1)
    {
        edit(&|c| c.populations[i].clients /= 2);
    }
    // Shorten the run, then the warmup.
    if sc.run_us > 200 {
        edit(&|c| c.run_us /= 2);
    }
    if sc.warmup_us > 0 {
        edit(&|c| c.warmup_us /= 2);
    }
    // Simplify each population's arrival/think/size models.
    for (i, p) in sc.populations.iter().enumerate() {
        if p.start != StartModel::Immediate {
            edit(&|c| c.populations[i].start = StartModel::Immediate);
        }
        if p.think != ThinkModel::None {
            edit(&|c| c.populations[i].think = ThinkModel::None);
        }
        if p.size != SizeModel::Fixed(32) {
            edit(&|c| c.populations[i].size = SizeModel::Fixed(32));
        }
    }
    // Tx workloads: fewer coordinators, smaller key space.
    if let Workload::Tx(w) = &sc.workload {
        let tx = |f: fn(&mut TxWorkload)| {
            move |c: &mut Scenario| {
                if let Workload::Tx(t) = &mut c.workload {
                    f(t)
                }
            }
        };
        if w.coordinators > 1 {
            edit(&tx(|t| t.coordinators /= 2));
        }
        if w.keys_per_server > 8 {
            edit(&tx(|t| t.keys_per_server /= 2));
        }
    }
    out
}

/// Greedily shrinks a failing scenario against an arbitrary predicate:
/// any candidate that still round-trips through the parser and still
/// fails replaces the current best, until no transformation keeps the
/// failure alive. Returns `None` when `sc` itself does not fail.
pub fn shrink_with(
    sc: &Scenario,
    fails: &mut dyn FnMut(&Scenario) -> Option<ScenarioError>,
) -> Option<(Scenario, ScenarioError)> {
    let mut best_err = fails(sc)?;
    let mut best = sc.clone();
    // Every accepted step strictly simplifies the scenario, so the loop
    // terminates; the cap is a backstop for pathological predicates.
    for _ in 0..256 {
        let mut progressed = false;
        for cand in shrink_candidates(&best) {
            if Scenario::parse(&cand.to_toml()).ok().as_ref() != Some(&cand) {
                continue;
            }
            if let Some(e) = fails(&cand) {
                best = cand;
                best_err = e;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    Some((best, best_err))
}

/// Shrinks an invariant-violating scenario to a minimal reproduction
/// using the real invariant checker. Candidates that no longer compile
/// are skipped (a compile error is not the bug being reproduced).
/// Returns `None` when `sc` passes all invariants.
pub fn shrink_failure(sc: &Scenario) -> Option<(Scenario, ScenarioError)> {
    shrink_with(sc, &mut |cand| {
        crate::compile::compile(cand).ok()?;
        check_scenario(cand, "shrink").err()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_scenario(11), gen_scenario(11));
        // Different seeds should not all collapse to one shape.
        let kinds: Vec<&str> = (0..16)
            .map(|s| match gen_scenario(s).workload {
                Workload::Rpc(_) => "rpc",
                Workload::Tx(_) => "tx",
                Workload::Raw(_) => "raw",
            })
            .collect();
        assert!(kinds.contains(&"rpc") && kinds.contains(&"tx"), "{kinds:?}");
    }

    #[test]
    fn generated_scenarios_round_trip() {
        for seed in 0..32 {
            let sc = gen_scenario(seed);
            let parsed = Scenario::parse(&sc.to_toml()).expect("round trip parses");
            assert_eq!(parsed, sc, "seed {seed}");
        }
    }

    #[test]
    fn fuzz_seed_zero_passes_invariants() {
        let out = fuzz_one(0).expect("seed 0 clean");
        assert!(out.report.fingerprint().0 > 0);
    }

    #[test]
    fn tx_seed_1174_drains_within_a_transaction_drain() {
        // Its last transactions finish more than 3 ms after the window:
        // the RPC runs' 3 ms drain left two slots busy and keys locked.
        let out = fuzz_one(1174).expect("seed 1174 clean");
        assert!(matches!(out.scenario.workload, Workload::Tx(_)));
    }

    #[test]
    fn generator_produces_lifecycle_events() {
        let mut kinds = (false, false, false);
        for seed in 0..256 {
            for e in &gen_scenario(seed).events {
                match e.kind {
                    EventKind::ServerCrash { .. } => kinds.0 = true,
                    EventKind::ClientReconnect { .. } => kinds.1 = true,
                    EventKind::ConnChurn { .. } => kinds.2 = true,
                    _ => {}
                }
            }
        }
        assert_eq!(kinds, (true, true, true), "crash/reconnect/churn all drawn");
    }

    #[test]
    fn ci_window_64_88_is_lifecycle_rich() {
        // ci.sh's churn gate fuzzes seeds 64..88 for the scenarios there
        // that draw crash / reconnect / churn events.
        let rich = (64..88)
            .filter(|&seed| {
                gen_scenario(seed).events.iter().any(|e| {
                    matches!(
                        e.kind,
                        EventKind::ServerCrash { .. }
                            | EventKind::ClientReconnect { .. }
                            | EventKind::ConnChurn { .. }
                    )
                })
            })
            .count();
        assert!(rich >= 5, "only {rich} lifecycle scenarios in 64..88");
    }

    #[test]
    fn shrink_finds_minimal_reproduction() {
        // A deliberately busy scenario shrunk against a synthetic
        // predicate — "fails whenever a server_crash is on the
        // timeline" — must collapse to one event, one single-client
        // population and a short run.
        let txt = "[scenario]\nname = \"busy\"\nseed = 3\nwarmup_us = 400\nrun_us = 2000\n\n[workload]\nkind = \"rpc\"\ntransport = \"scalerpc\"\nwindow = 4\n\n[[population]]\nname = \"a\"\nclients = 16\nthink = \"fixed\"\nthink_us = 2\n\n[[population]]\nname = \"b\"\nclients = 8\ntenant = 1\n\n[[event]]\nat_us = 200\nkind = \"server_pause\"\ndur_us = 40\n\n[[event]]\nat_us = 500\nkind = \"server_crash\"\ndown_us = 50\n\n[[event]]\nat_us = 900\nkind = \"conn_churn\"\npopulation = \"b\"\n";
        let sc = Scenario::parse(txt).unwrap();
        let (min, err) = shrink_with(&sc, &mut |c| {
            c.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::ServerCrash { .. }))
                .then(|| ScenarioError {
                    span: None,
                    msg: "crash present".into(),
                })
        })
        .expect("original scenario fails the predicate");
        assert_eq!(err.msg, "crash present");
        assert_eq!(min.events.len(), 1, "{}", min.to_toml());
        assert!(matches!(min.events[0].kind, EventKind::ServerCrash { .. }));
        assert_eq!(min.populations.len(), 1, "{}", min.to_toml());
        assert_eq!(min.total_clients(), 1, "{}", min.to_toml());
        assert!(min.run_us < sc.run_us);
        assert!(
            matches!(min.populations[0].think, crate::scenario::ThinkModel::None)
                || min.populations[0].name == "b"
        );
    }

    #[test]
    fn shrink_returns_none_for_passing_scenarios() {
        let raw = Scenario::parse(include_str!("../tests/fixtures/valid_raw.toml")).unwrap();
        for sc in [gen_scenario(0), raw] {
            assert!(shrink_failure(&sc).is_none(), "{}", sc.name);
        }
    }
}
