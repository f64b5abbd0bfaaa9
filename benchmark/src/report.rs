//! Command line, measurement protocol and output of the two binaries.
//!
//! Host timings on this machine drift by tens of percent between
//! contiguous sets of runs of one binary (README, "Noise"), so every
//! end-to-end host metric is a median over rounds, each round scaled by
//! the reference kernel timed around it (`reference.rs`); the rounds of
//! several workloads are interleaved (A, B, C, A, B, C, …) when more
//! than one is asked for, and one warm-up round per workload is thrown
//! away. Simulated results and all counts are deterministic and are
//! compared exactly between rounds on the same inputs.

use crate::metrics::{benchmark_json, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::reference::{Reference, NOMINAL_S};
use crate::spans::{self, Layer, LayerTotals, Off, On, Probe, RawSpan};
use crate::stats::{cdf_quantile, median, quartiles, top_quantile};
use crate::workloads::{prepare, Outcome, Sizing, Workload, DEFAULT_SEED};
use crate::{alloc, kernels};
use simcore::stats::Histogram;
use simtrace::query::TraceQuery;
use simtrace::{Stage, Tracer};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Rounds below which a median is not reported: two per sub-seed, so
/// that each input set is replayed twice and checked against itself.
const MIN_ROUNDS: usize = 10;
/// `--quick`: one round per sub-seed, so that the pooled simulated
/// results still cover every input set and do not depend on how many
/// rounds the host fitted into the budget.
const QUICK_ROUNDS: usize = SUB_SEEDS;
/// Wrapped rounds of the traced run.
const TRACED_ROUNDS: usize = 3;
/// Set-up-only repeats after each round, at most.
const EXTRA_SETUPS: usize = 16;
/// Input sets one `--seed` stands for; see [`sub_seed`].
const SUB_SEEDS: usize = 5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workloads to run, in round-robin order.
    pub workloads: Vec<Workload>,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure, per workload.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics.
    pub trace: bool,
    /// Quarter windows, one round per input set, no kernels.
    pub quick: bool,
    /// Run two sets and compare them against the bounds.
    pub repeat_check: bool,
    /// Print `BENCHMARK.json` and exit.
    pub print_contract: bool,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out: PathBuf,
}

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--repeat-check] [--print-contract] [--out DIR]";

/// Parses the arguments after the program name.
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat_check: false,
        print_contract: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = Workload::from_name(&name)
                        .ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
                    parsed.workloads = vec![w];
                }
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--quick" => parsed.quick = true,
            "--repeat-check" => parsed.repeat_check = true,
            "--print-contract" => parsed.print_contract = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

// ---- one round ----------------------------------------------------------

/// Host-side measurements of one round (set-up, replay, drop), as the
/// clock read them.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Wall seconds of the set-up.
    pub setup_s: f64,
    /// Wall seconds of warm-up, window and drain.
    pub replay_s: f64,
    /// Most heap the round held beyond what was live when it began.
    pub peak_bytes: u64,
    /// Allocations of set-up and replay.
    pub allocs: u64,
}

/// Sets the workload up, replays it and reads the results.
pub fn round<P: Probe + 'static>(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    tracer: &Tracer,
) -> (Round, Outcome) {
    let live = alloc::live_bytes();
    let allocs = alloc::allocations();
    alloc::reset_peak();
    let start = Instant::now();
    let mut replay = prepare::<P>(workload, seed, sizing, tracer);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    replay.run();
    let replay_s = start.elapsed().as_secs_f64();
    let round = Round {
        setup_s,
        replay_s,
        peak_bytes: alloc::peak_bytes() - live,
        allocs: alloc::allocations() - allocs,
    };
    (round, replay.finish())
}

/// What identifies a replay: equal inputs must reproduce it exactly.
fn fingerprint(round: &Round, outcome: &Outcome) -> (u64, u64, u64) {
    (outcome.events, outcome.ops, round.allocs)
}

// ---- end-to-end ---------------------------------------------------------

/// Times set-up alone, again and again, for about a tenth of the time
/// a replay took (at most [`EXTRA_SETUPS`] times). Set-up is
/// milliseconds where a replay is a second, so one sample per round
/// leaves its median at the mercy of a few outliers; this makes it a
/// median over a hundred samples for the price of 10 % more run time.
fn extra_setups(workload: Workload, seed: u64, sizing: Sizing, replay_s: f64) -> Vec<f64> {
    let off = Tracer::disabled();
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < EXTRA_SETUPS && spent < 0.1 * replay_s {
        let start = Instant::now();
        let replay = prepare::<Off>(workload, seed, sizing, &off);
        let s = start.elapsed().as_secs_f64();
        drop(replay);
        spent += s;
        samples.push(s);
    }
    samples
}

/// The input set round `round` replays. One `--seed` stands for
/// [`SUB_SEEDS`] input sets, replayed in turn, and the simulated
/// results are pooled over them: on `rpc_scalerpc_400c_b8` the latency
/// distribution is bimodal (served in this slice, or after a rotation)
/// and the median of a single 20 ms window moves by 10 % between seeds;
/// pooled windows move a third of that. Sub-seed 0 is the seed itself.
pub fn sub_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round % SUB_SEEDS) as u64 * 0x9E37_79B9)
}

/// All rounds of one workload.
pub struct EndToEnd {
    /// The workload.
    pub workload: Workload,
    /// The measured rounds (the warm-up round is not among them).
    pub rounds: Vec<Round>,
    /// Per round, the host's speed around it: [`NOMINAL_S`] over the
    /// reference kernel's time just before and just after the round.
    pub speed: Vec<f64>,
    /// Every set-up timed — one per round plus the set-up-only repeats
    /// — in seconds at nominal host speed.
    pub setups: Vec<f64>,
    /// Results of the first round of each sub-seed; later rounds are
    /// checked against them.
    pub outcomes: Vec<Outcome>,
    /// Output checks that failed.
    pub violations: Vec<String>,
}

impl EndToEnd {
    fn host(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// Median replay seconds as the clock read them, for the reader
    /// who wants to know what this host took today.
    pub fn raw_replay_s(&self) -> f64 {
        median(&self.host(|r| r.replay_s))
    }

    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.outcomes.iter().map(f).sum()
    }

    /// Operations started, over the sub-seeds.
    pub fn attempted(&self) -> u64 {
        self.sum(|o| o.attempted)
    }

    /// Operations that never completed, over the sub-seeds.
    pub fn failed(&self) -> u64 {
        self.sum(|o| o.failed)
    }

    /// `(name, value, note)` of every end-to-end metric, in
    /// [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, String)> {
        let host_note = |v: &[f64]| {
            let [q1, _, q3] = quartiles(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            format!("n={} min={min:.4} q1={q1:.4} q3={q3:.4}", v.len())
        };
        let setup = &self.setups;
        let replay: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.speed)
            .map(|(r, speed)| r.replay_s * speed)
            .collect();
        let peak = self.host(|r| r.peak_bytes as f64 / 1e6);
        let ops = self.sum(|o| o.ops);
        let window_s: f64 = self.outcomes.iter().map(|o| o.window.as_secs_f64()).sum();
        let mut latency = Histogram::new();
        self.outcomes.iter().for_each(|o| latency.merge(&o.latency));
        let cdf = latency.cdf();
        let sim_note = format!("n={}", latency.count());
        vec![
            ("setup_s", median(setup), host_note(setup)),
            ("replay_s", median(&replay), host_note(&replay)),
            ("peak_heap_mb", median(&peak), format!("n={}", peak.len())),
            ("sim_mops", ops as f64 / window_s / 1e6, format!("n={ops}")),
            (
                "sim_p50_us",
                cdf_quantile(&cdf, 0.5) / 1e3,
                sim_note.clone(),
            ),
            ("sim_p99_us", cdf_quantile(&cdf, 0.99) / 1e3, sim_note),
        ]
    }
}

fn check_outcome(outcome: &Outcome, workload: Workload, seed: u64, sizing: Sizing) -> Vec<String> {
    let mut violations = outcome.violations.clone();
    if outcome.ops == 0 {
        violations.push("no operation completed inside the window".into());
    }
    let samples = outcome.latency.count();
    if top_quantile(samples).is_none_or(|q| q < 0.99) {
        violations.push(format!(
            "{samples} latency samples leave fewer than ten beyond p99"
        ));
    }
    let got = (outcome.events, outcome.ops);
    if seed == DEFAULT_SEED && sizing == Sizing::Full && got != workload.pinned_fingerprint() {
        violations.push(format!(
            "(events, ops) = {got:?} at seed {DEFAULT_SEED}, pinned {:?}",
            workload.pinned_fingerprint()
        ));
    }
    violations
}

/// Measures `workloads` for `seconds` each, interleaving their rounds.
pub fn measure(workloads: &[Workload], seed: u64, seconds: f64, quick: bool) -> Vec<EndToEnd> {
    let sizing = if quick { Sizing::Quick } else { Sizing::Full };
    let min_rounds = if quick { QUICK_ROUNDS } else { MIN_ROUNDS };
    let off = Tracer::disabled();
    let reference = Reference::new();
    // Warm-up round: faults the heap in and fills the host's caches.
    let mut results: Vec<EndToEnd> = workloads
        .iter()
        .map(|&workload| {
            round::<Off>(workload, seed, sizing, &off);
            EndToEnd {
                workload,
                rounds: Vec::new(),
                speed: Vec::new(),
                setups: Vec::new(),
                outcomes: Vec::new(),
                violations: Vec::new(),
            }
        })
        .collect();
    let budget = seconds * workloads.len() as f64;
    let start = Instant::now();
    // Fingerprint of each sub-seed's first round, per workload.
    let mut first = vec![[None; SUB_SEEDS]; workloads.len()];
    let mut reference_s = reference.seconds();
    while results[0].rounds.len() < min_rounds || start.elapsed().as_secs_f64() < budget {
        for (e, first) in results.iter_mut().zip(&mut first) {
            let index = e.rounds.len();
            let seed = sub_seed(seed, index);
            let (r, outcome) = round::<Off>(e.workload, seed, sizing, &off);
            let setups = extra_setups(e.workload, seed, sizing, r.replay_s);
            // The kernel ran just before this round (after the previous
            // one) and runs again now; the round sits between the two.
            let before = std::mem::replace(&mut reference_s, reference.seconds());
            let speed = NOMINAL_S / ((before + reference_s) / 2.0);
            e.setups
                .extend(setups.iter().chain([&r.setup_s]).map(|s| s * speed));
            e.speed.push(speed);
            e.rounds.push(r);

            let print = fingerprint(&r, &outcome);
            match first[index % SUB_SEEDS] {
                None => {
                    first[index % SUB_SEEDS] = Some(print);
                    e.violations
                        .extend(check_outcome(&outcome, e.workload, seed, sizing));
                    e.outcomes.push(outcome);
                }
                Some(want) if want != print => e.violations.push(format!(
                    "round {}: (events, ops, allocations) = {print:?}, round {} had {want:?}",
                    index + 1,
                    index % SUB_SEEDS + 1
                )),
                Some(_) => {}
            }
        }
    }
    results
}

// ---- per-layer ----------------------------------------------------------

/// Per-layer metrics of one workload, as `(name, value)` over
/// [`PER_LAYER`], with the output checks that failed.
pub struct PerLayer {
    /// The workload.
    pub workload: Workload,
    /// One value per [`PER_LAYER`] entry, in that order.
    pub values: Vec<(&'static str, f64)>,
    /// Results of the bare (unwrapped, untraced) round.
    pub outcome: Outcome,
    /// Output checks that failed.
    pub violations: Vec<String>,
    /// Per-layer totals of each wrapped round.
    pub totals: Vec<[LayerTotals; 4]>,
    /// Raw spans of the first wrapped round.
    pub raw: Vec<RawSpan>,
}

fn wrapped_round(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    index: u32,
) -> (f64, [LayerTotals; 4], Vec<RawSpan>, Outcome) {
    // Set-up runs `init` through the wrappers; only the replay is kept.
    spans::reset();
    let mut replay = prepare::<On>(workload, seed, sizing, &Tracer::disabled());
    spans::reset();
    spans::set_round(index);
    let start = Instant::now();
    replay.run();
    let wall = start.elapsed().as_secs_f64();
    let (totals, raw) = spans::take();
    (wall, totals, raw, replay.finish())
}

/// Runs the traced protocol on one workload: timed kernels, one bare
/// round, [`TRACED_ROUNDS`] wrapped rounds and, in a build with the
/// `trace` feature, one round recorded by the crates' own tracer.
pub fn trace(workload: Workload, seed: u64, quick: bool) -> PerLayer {
    let sizing = if quick { Sizing::Quick } else { Sizing::Full };
    let mut values: Vec<(&'static str, f64)> = if quick {
        Vec::new()
    } else {
        kernels::run_all()
    };

    // Per-layer host timings are as the clock read them; this says how
    // fast the host was while they were taken.
    let host_speed = NOMINAL_S / Reference::new().median_seconds(5);
    values.push(("bench.host_speed", host_speed));

    let off = Tracer::disabled();
    round::<Off>(workload, seed, sizing, &off); // warm-up
    let (bare, outcome) = round::<Off>(workload, seed, sizing, &off);
    let mut violations = check_outcome(&outcome, workload, seed, sizing);
    let ops = outcome.ops.max(1) as f64;
    values.extend(outcome.counters.iter().copied());
    values.extend([
        ("simcore.events", outcome.events as f64),
        ("simcore.events_per_op", outcome.events as f64 / ops),
        (
            "simcore.host_ns_per_event",
            bare.replay_s * 1e9 / outcome.events as f64,
        ),
        ("bench.allocs_per_op", bare.allocs as f64 / ops),
        (
            "bench.fail_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        ),
    ]);

    let mut walls = Vec::new();
    let mut totals = Vec::new();
    let mut raw = Vec::new();
    for i in 0..TRACED_ROUNDS as u32 {
        let (wall, t, r, wrapped) = wrapped_round(workload, seed, sizing, i);
        if (wrapped.events, wrapped.ops) != (outcome.events, outcome.ops) {
            violations.push(format!(
                "wrapped round {i}: (events, ops) = {:?}, bare {:?}",
                (wrapped.events, wrapped.ops),
                (outcome.events, outcome.ops)
            ));
        }
        let counts = |t: &[LayerTotals; 4]| t.map(|l| (l.calls, l.self_allocs));
        if totals.first().is_some_and(|t0| counts(t0) != counts(&t)) {
            violations.push(format!("wrapped round {i}: calls or allocations differ"));
        }
        walls.push(wall);
        totals.push(t);
        if i == 0 {
            raw = r;
        }
    }
    let layer = |l: Layer| {
        let self_s: Vec<f64> = totals
            .iter()
            .map(|t| t[l as usize].self_ns as f64 / 1e9)
            .collect();
        (median(&self_s), totals[0][l as usize])
    };
    let (engine_s, engine) = layer(Layer::Engine);
    let (driver_s, driver) = layer(Layer::Driver);
    let (transport_s, transport) = layer(Layer::Transport);
    let (handler_s, _) = layer(Layer::Handler);
    values.extend([
        ("rpc-core.sharded_self_s", engine_s),
        (
            "rpc-core.sharded_allocs_per_event",
            engine.self_allocs as f64 / outcome.events as f64,
        ),
        (
            "bench.wrapper_overhead_ratio",
            median(&walls) / bare.replay_s,
        ),
        (
            "bench.self_time_coverage",
            totals[0].iter().map(|l| l.self_ns).sum::<u64>() as f64 / engine.total_ns as f64,
        ),
    ]);
    let driver_allocs = driver.self_allocs as f64 / ops;
    match workload {
        Workload::TxSmallbank => values.extend([
            ("scaletx.txsim_self_s", driver_s),
            ("scaletx.allocs_per_tx", driver_allocs),
            ("scaletx.participant_self_s", handler_s),
        ]),
        Workload::RawInbound => values.push(("bench.driver_self_s", driver_s)),
        _ => values.extend([
            ("rpc-core.harness_self_s", driver_s),
            ("rpc-core.harness_calls", driver.calls as f64),
            ("rpc-core.harness_allocs_per_op", driver_allocs),
            ("rpc-core.handler_self_s", handler_s),
        ]),
    }
    let transport_allocs = transport.self_allocs as f64 / ops;
    match workload {
        Workload::RawInbound => {}
        Workload::RpcRawwrite => values.extend([
            ("rpc-baselines.transport_self_s", transport_s),
            ("rpc-baselines.transport_calls", transport.calls as f64),
            ("rpc-baselines.allocs_per_op", transport_allocs),
        ]),
        _ => values.extend([
            ("scalerpc.transport_self_s", transport_s),
            ("scalerpc.transport_calls", transport.calls as f64),
            ("scalerpc.allocs_per_op", transport_allocs),
        ]),
    }

    let harness_driven = !matches!(workload, Workload::TxSmallbank | Workload::RawInbound);
    if harness_driven && Tracer::enabled().is_enabled() {
        stage_ledger(workload, seed, &mut values, &mut violations);
    }

    // Every contract metric is printed on every workload: what a
    // workload does not exercise (or `--quick` skips) reads 0.
    let values = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
            (name, v)
        })
        .collect();
    PerLayer {
        workload,
        values,
        outcome,
        violations,
        totals,
        raw,
    }
}

/// The simulated ledger: per-stage p50/p99 of the crates' seven
/// pipeline stages, from a round recorded by their own tracer, and what
/// that recording costs the host.
fn stage_ledger(
    workload: Workload,
    seed: u64,
    values: &mut Vec<(&'static str, f64)>,
    violations: &mut Vec<String>,
) {
    let (untraced, plain) = round::<Off>(workload, seed, Sizing::Traced, &Tracer::disabled());
    let tracer = Tracer::enabled();
    let (traced, recorded) = round::<Off>(workload, seed, Sizing::Traced, &tracer);
    if (plain.events, plain.ops) != (recorded.events, recorded.ops) {
        violations.push(format!(
            "tracer perturbed the run: (events, ops) = {:?}, untraced {:?}",
            (recorded.events, recorded.ops),
            (plain.events, plain.ops)
        ));
    }
    let log = tracer.snapshot().expect("tracer enabled");
    let q = TraceQuery::new(&log);
    // `simtrace.stage_<stage>_p<NN>_ns`, for every stage and quantile
    // the contract lists.
    for &(name, _, _) in &PER_LAYER {
        let Some((stage, percent)) = name
            .strip_prefix("simtrace.stage_")
            .and_then(|rest| rest.strip_suffix("_ns"))
            .and_then(|rest| rest.rsplit_once("_p"))
        else {
            continue;
        };
        let stage = Stage::ALL
            .into_iter()
            .find(|s| s.name() == stage)
            .expect("contract names a pipeline stage");
        let percent: f64 = percent.parse().expect("contract names a percentile");
        let mut ns: Vec<u64> = q.spans_of(stage).map(|s| s.duration().as_nanos()).collect();
        ns.sort_unstable();
        let rank = (percent / 100.0 * ns.len() as f64).ceil() as usize;
        let value = ns.get(rank.saturating_sub(1)).copied().unwrap_or(0);
        values.push((name, value as f64));
    }
    let start = Instant::now();
    let folded = simtrace::export::collapsed_stacks(&log);
    let export_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(folded.len());
    values.extend([
        ("simtrace.spans", log.spans.len() as f64),
        ("simtrace.export_ms", export_ms),
        (
            "simtrace.overhead_ratio",
            traced.replay_s / untraced.replay_s,
        ),
    ]);
}

// ---- output -------------------------------------------------------------

fn json_number(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that is one is a bug the
    // reader should see as such.
    assert!(v.is_finite(), "metric is {v}");
    format!("{v}")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("metric is in the contract")
}

/// The contract's result object.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static str, f64)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(v),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn print_violations(workload: Workload, violations: &[String]) {
    for v in violations {
        println!("{} CHECK FAILED: {v}", workload.name());
    }
}

fn print_end_to_end(e: &EndToEnd) {
    for (name, value, note) in e.metrics() {
        println!(
            "{} {name} {value:.6} {} {note}",
            e.workload.name(),
            unit_of(name)
        );
    }
    let name = e.workload.name();
    println!(
        "{name} replay_clock_s {:.6} s n={} (as the clock read it; host speed {:.3})",
        e.raw_replay_s(),
        e.rounds.len(),
        median(&e.speed)
    );
    println!(
        "{name} ops_attempted {} count n=1\n{name} ops_failed {} count n=1",
        e.attempted(),
        e.failed()
    );
    print_violations(e.workload, &e.violations);
}

fn end_to_end_json(e: &EndToEnd) -> String {
    result_json(
        e.violations.is_empty(),
        e.attempted(),
        e.failed(),
        e.metrics().into_iter().map(|(n, v, _)| (n, v)),
    )
}

fn print_per_layer(p: &PerLayer) {
    for &(name, value) in &p.values {
        println!(
            "{} {name} {value:.6} {} n=1",
            p.workload.name(),
            unit_of(name)
        );
    }
    println!(
        "{} self-time table (wrapped round 1 of {}):",
        p.workload.name(),
        p.totals.len()
    );
    let engine_total = p.totals[0][Layer::Engine as usize].total_ns as f64;
    for l in Layer::ALL {
        let t = p.totals[0][l as usize];
        println!(
            "  {:<10} self {:>9.4} s {:>5.1} %  calls {:>9}  allocs {:>9}",
            l.name(),
            t.self_ns as f64 / 1e9,
            100.0 * t.self_ns as f64 / engine_total,
            t.calls,
            t.self_allocs
        );
    }
    println!(
        "  {:<10} span {:>9.4} s",
        "run_sequential",
        engine_total / 1e9
    );
    print_violations(p.workload, &p.violations);
}

fn trace_file_json(p: &PerLayer, seed: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"events\": {}, \"ops\": {}, \"rounds\": [",
        p.workload.name(),
        p.outcome.events,
        p.outcome.ops
    );
    for (i, totals) in p.totals.iter().enumerate() {
        let layers: Vec<String> = Layer::ALL
            .iter()
            .map(|&l| {
                let t = totals[l as usize];
                format!(
                    "\"{}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"self_allocs\": {}}}",
                    l.name(),
                    t.calls,
                    t.total_ns,
                    t.self_ns,
                    t.self_allocs
                )
            })
            .collect();
        let _ = write!(
            s,
            "{}{{{}}}",
            if i > 0 { ", " } else { "" },
            layers.join(", ")
        );
    }
    s.push_str("], \"spans\": [\n");
    for (i, span) in p.raw.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}{}",
            span.layer.name(),
            span.start_ns,
            span.end_ns,
            span.round,
            if i + 1 < p.raw.len() { "," } else { "" }
        );
    }
    s.push_str("]}\n");
    s
}

// ---- repeat check -------------------------------------------------------

/// Share by which `b` is worse than `a` (negative when better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn repeat_check(args: &Args) -> bool {
    let a = measure(&args.workloads, args.seed, args.seconds, args.quick);
    let b = measure(&args.workloads, args.seed, args.seconds, args.quick);
    let mut ok = true;
    println!("workload metric set_a set_b worse_by bound verdict");
    for (ea, eb) in a.iter().zip(&b) {
        for ((name, va, _), (_, vb, _)) in ea.metrics().into_iter().zip(eb.metrics()) {
            let (_, _, better, bound) = *END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .expect("end-to-end metric");
            let exact = name.starts_with("sim_");
            let worse = worsening(better, va, vb).max(worsening(better, vb, va));
            let pass = if exact { va == vb } else { worse <= bound };
            ok &= pass;
            println!(
                "{} {name} {va:.6} {vb:.6} {:+.2}% {} {}",
                ea.workload.name(),
                100.0 * worsening(better, va, vb),
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", 100.0 * bound)
                },
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
        for e in [ea, eb] {
            print_violations(e.workload, &e.violations);
            ok &= e.violations.is_empty();
        }
    }
    ok
}

// ---- entry points -------------------------------------------------------

/// Prints the result objects — the contract's single line for one
/// workload, one object keyed by workload for several — and turns `ok`
/// into the exit code.
fn finish(started: Instant, results: &[(Workload, String)], ok: bool) -> ExitCode {
    println!("elapsed {:.1} s", started.elapsed().as_secs_f64());
    match results {
        [] => {}
        [(_, one)] => println!("{one}"),
        many => {
            let per: Vec<String> = many
                .iter()
                .map(|(w, json)| format!("\"{}\": {json}", w.name()))
                .collect();
            println!("{{{}}}", per.join(", "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_or_exit() -> Result<Args, ExitCode> {
    parse_args(std::env::args().skip(1)).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// `bench`: the end-to-end metrics, from a build without the crates'
/// `trace` feature and with the wrappers compiled to nothing.
pub fn main_end_to_end() -> ExitCode {
    let args = match parse_or_exit() {
        Ok(a) => a,
        Err(code) => return code,
    };
    if args.print_contract {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.trace {
        eprintln!("--trace 1 is served by the bench-trace binary (run.sh picks it)");
        return ExitCode::from(2);
    }
    let started = Instant::now();
    if args.repeat_check {
        return finish(started, &[], repeat_check(&args));
    }
    let results = measure(&args.workloads, args.seed, args.seconds, args.quick);
    results.iter().for_each(print_end_to_end);
    let lines: Vec<_> = results
        .iter()
        .map(|e| (e.workload, end_to_end_json(e)))
        .collect();
    let ok = results.iter().all(|e| e.violations.is_empty());
    finish(started, &lines, ok)
}

/// `bench-trace`: the per-layer metrics.
pub fn main_traced() -> ExitCode {
    let args = match parse_or_exit() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let started = Instant::now();
    let mut lines = Vec::new();
    let mut ok = true;
    for &workload in &args.workloads {
        let p = trace(workload, args.seed, args.quick);
        print_per_layer(&p);
        let path = args.out.join(format!("trace_{}.json", workload.name()));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, trace_file_json(&p, args.seed)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        ok &= p.violations.is_empty();
        lines.push((
            workload,
            result_json(
                p.violations.is_empty(),
                p.outcome.attempted,
                p.outcome.failed,
                p.values.iter().copied(),
            ),
        ));
    }
    finish(started, &lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args("--workload tx_smallbank_160c --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workloads, [Workload::TxSmallbank]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let all = args("--quick").unwrap();
        assert_eq!(all.workloads, Workload::ALL);
        assert_eq!(
            (all.seed, all.quick, all.trace),
            (DEFAULT_SEED, true, false)
        );
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds inf",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sub_seeds_start_at_the_seed_and_cycle() {
        let seeds: Vec<u64> = (0..SUB_SEEDS).map(|r| sub_seed(42, r)).collect();
        assert_eq!(seeds[0], 42);
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), SUB_SEEDS);
        assert_eq!(sub_seed(42, SUB_SEEDS + 1), seeds[1]);
        // Neighbouring seeds, as a driver would pick them, share none.
        assert!((0..SUB_SEEDS).all(|r| !seeds.contains(&sub_seed(43, r))));
        assert_eq!(MIN_ROUNDS % SUB_SEEDS, 0);
        assert_eq!(sub_seed(u64::MAX, 1), 0x9E37_79B9 - 1);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 1.0, 0.9) < 0.0);
    }
}
