//! Temporal invariants asserted on recorded traces.
//!
//! End-of-run totals cannot distinguish "warmup overlapped the previous
//! slice" from "warmup stalled the switch and throughput recovered
//! later" — only the recorded timeline can. These tests run a traced
//! 120-client ScaleRPC benchmark (three 40-client groups rotating on
//! 100 µs slices) and assert the *timing* claims of §3.3/§3.4:
//!
//! 1. warmup fetches for a slice are issued and complete inside that
//!    slice, so the next processing pool is already full at the switch;
//! 2. workers pick up scanned work immediately at a context switch (no
//!    idle gap waiting for request transfer);
//! 3. request latency is slice-bounded (Fig. 9): a request waits at
//!    most two group rotations (batch tails can sit out one extra
//!    rotation behind their siblings), never unboundedly;
//! 4. enabling the tracer changes nothing — the golden counter
//!    fingerprint of the determinism suite is bit-identical.

use rdma_fabric::{Fabric, FabricParams};
use rpc_baselines::{Fasst, Herd, RawWrite, SelfRpc};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::{EchoHandler, RpcTransport};
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::{SimDuration, SimTime};
use simtrace::query::TraceQuery;
use simtrace::{InstantKind, Stage, TraceLog, Tracer};

const SLICE: SimDuration = SimDuration::micros(100);

struct TracedRun {
    log: TraceLog,
    fingerprint: String,
    stop: SimTime,
}

/// Runs the 120-client echo benchmark with `tracer` installed and
/// returns the recorded log plus a counter fingerprint of the run.
///
/// `sample` registers the periodic counter-sampling tick. The tick is
/// inert (it only reads counters) but it does occupy harness queue
/// slots, so the bit-identity test runs without it to compare raw
/// event counts.
fn run_scalerpc_traced(clients: usize, tracer: Tracer, sample: bool) -> TracedRun {
    run_scalerpc_traced_w(clients, tracer, sample, 8, 1)
}

/// As [`run_scalerpc_traced`], but with an explicit batch size and
/// client window (`window > 1` drives the asynchronous pipeline and
/// enables context-switch re-arming in the transport).
fn run_scalerpc_traced_w(
    clients: usize,
    tracer: Tracer,
    sample: bool,
    batch: usize,
    window: usize,
) -> TracedRun {
    let warmup = SimDuration::millis(1);
    let run = SimDuration::millis(2);
    let mut fabric = Fabric::new(FabricParams::default());
    fabric.set_tracer(tracer.clone());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients,
        },
    );
    let server = cluster.server;
    let mut scfg = ScaleRpcConfig::default();
    scfg.client_window = scfg.client_window.max(window.min(scfg.slots));
    let transport = ScaleRpc::new(&mut fabric, &cluster, scfg, EchoHandler::default());
    let mut harness = Harness::new(
        transport,
        cluster,
        HarnessConfig {
            batch_size: batch,
            request_size: 32,
            warmup,
            run,
            think: vec![ThinkTime::None],
            seed: 1,
            window,
            nthreads: 1,
            retry: None,
        },
    );
    if sample {
        harness.sample_counters(server, &["PCIeRdCur", "PCIeItoM"], SimDuration::micros(20));
    }
    let stop = harness.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, harness);
    let mut events = sim.run_sequential(SimTime::ZERO + warmup);
    let snap = sim.fabric(0).counters(server).expect("server").snapshot();
    events += sim.run_sequential(stop);
    let delta = sim
        .fabric(0)
        .counters(server)
        .expect("server")
        .delta_since(&snap);
    events += sim.run_sequential(stop + SimDuration::millis(3));
    let m = &sim.logic(0).metrics;
    let fingerprint = format!(
        "ops={} events={} mops={} median_us={} pcie_rd={} pcie_itom={}",
        m.ops,
        events,
        m.mops(),
        m.median_us(),
        delta.get("PCIeRdCur"),
        delta.get("PCIeItoM"),
    );
    TracedRun {
        log: tracer.snapshot().unwrap_or_default(),
        fingerprint,
        stop,
    }
}

#[test]
fn warmup_overlaps_the_previous_slice() {
    let run = run_scalerpc_traced(120, Tracer::enabled(), true);
    let q = TraceQuery::new(&run.log);

    // Index slice boundaries by epoch.
    let start_of: std::collections::BTreeMap<u64, SimTime> = q
        .instants(InstantKind::SliceStart)
        .map(|i| (i.b, i.at))
        .collect();
    let end_of: std::collections::BTreeMap<u64, SimTime> = q
        .instants(InstantKind::SliceEnd)
        .map(|i| (i.b, i.at))
        .collect();
    assert!(end_of.len() >= 10, "run too short: {} slices", end_of.len());

    // (1) Every warmup fetch is issued inside the slice whose epoch it
    // carries: the transfer overlaps the *previous* group's processing
    // phase rather than stalling the switch (§3.3's pipelining claim).
    let mut issued = 0;
    for i in q.instants(InstantKind::WarmupFetchIssue) {
        let (Some(&s), Some(&e)) = (start_of.get(&i.b), end_of.get(&i.b)) else {
            continue; // final slice may end after the run is cut off
        };
        assert!(
            i.at >= s && i.at <= e,
            "fetch for epoch {} issued at {:?}, outside its slice [{:?}, {:?}]",
            i.b,
            i.at,
            s,
            e
        );
        issued += 1;
    }
    assert!(issued > 50, "expected steady warmup traffic, saw {issued}");

    // ...and most fetches complete before their slice ends, so the pool
    // is pre-filled when the context switch scans it.
    let done_in_slice = q
        .instants(InstantKind::WarmupFetchDone)
        .filter(|i| end_of.get(&i.b).is_some_and(|&e| i.at <= e))
        .count();
    let done_total = q.instants(InstantKind::WarmupFetchDone).count();
    assert!(
        done_in_slice * 10 >= done_total * 9,
        "only {done_in_slice}/{done_total} warmup fetches completed within their slice"
    );

    // (2) No worker idle gap at a context switch: the switch-time scan
    // finds pre-fetched requests and handler execution begins at the
    // switch instant itself (not after a fetch round trip, ~10 µs).
    let handler_starts: Vec<SimTime> = q.spans_of(Stage::Handler).map(|s| s.start).collect();
    let gap = SimDuration::micros(1);
    let mut switches = 0;
    let mut covered = 0;
    for (&epoch, &at) in &end_of {
        // Skip the cold start (first rotation) and the tail where
        // clients have stopped posting.
        if epoch < 3 || at > run.stop {
            continue;
        }
        switches += 1;
        if handler_starts.iter().any(|&h| h >= at && h <= at + gap) {
            covered += 1;
        }
    }
    assert!(switches >= 10, "too few steady-state switches: {switches}");
    assert!(
        covered * 10 >= switches * 9,
        "handler work started within {gap:?} at only {covered}/{switches} context switches"
    );
}

#[test]
fn latency_is_slice_bounded_at_120_clients() {
    let run = run_scalerpc_traced(120, Tracer::enabled(), true);
    let q = TraceQuery::new(&run.log);

    // End-to-end per-request latency from the trace: ClientPost start to
    // Response end. With three groups on 100 µs slices a request posted
    // just after its group's slice waits out the other two groups and is
    // served in its own — Fig. 9's bimodal-but-bounded distribution.
    // Because the harness posts batches of 8 into an 8-slot message
    // pool, the tail of a batch can additionally sit out one full extra
    // rotation behind its siblings. The hard ceiling is therefore two
    // rotations (request can never be deferred twice: the pool drains
    // every time its group is scheduled) plus a service-time margin.
    let bound = SLICE * 6 + SimDuration::micros(50);
    let mut checked = 0;
    let mut max_seen = SimDuration::ZERO;
    for span in q.spans_of(Stage::Response) {
        // Only complete pipelines: the post must be recorded too.
        let Some(lat) = q.rpc_latency(span.id) else {
            continue;
        };
        max_seen = max_seen.max(lat);
        checked += 1;
        assert!(
            lat <= bound,
            "request {} latency {:?} exceeds the slice bound {:?}",
            span.id,
            lat,
            bound
        );
    }
    assert!(checked > 5_000, "too few complete pipelines: {checked}");
    // The bound is meaningfully tight: the worst request really does
    // wait out at least one full rotation of the other groups.
    assert!(
        max_seen > SLICE * 2,
        "max latency {max_seen:?} suspiciously small — trace incomplete?"
    );
}

/// Runs an 80-client echo benchmark over an arbitrary transport with
/// `tracer` installed and returns the recorded log plus the run's
/// `(events, ops)` — used to pin span coverage for the baseline
/// transports, which `fig_timeline`/`TraceQuery` would otherwise
/// silently under-report, and that recording changes nothing.
fn run_baseline<T, F>(tracer: Tracer, build: F) -> (TraceLog, (u64, u64))
where
    T: RpcTransport,
    F: FnOnce(&mut Fabric, &Cluster) -> T,
{
    let mut fabric = Fabric::new(FabricParams::default());
    fabric.set_tracer(tracer.clone());
    let cluster = Cluster::build(
        &mut fabric,
        ClusterSpec {
            server_threads: 10,
            client_machines: 8,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 80,
        },
    );
    let transport = build(&mut fabric, &cluster);
    let harness = Harness::new(
        transport,
        cluster,
        HarnessConfig {
            batch_size: 4,
            request_size: 32,
            warmup: SimDuration::micros(300),
            run: SimDuration::micros(700),
            think: vec![ThinkTime::None],
            seed: 1,
            window: 1,
            nthreads: 1,
            retry: None,
        },
    );
    let stop = harness.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, harness);
    let events = sim.run_sequential(stop + SimDuration::millis(1));
    let ops = sim.logic(0).metrics.ops;
    assert!(ops > 0, "baseline run did no work");
    (tracer.snapshot().unwrap_or_default(), (events, ops))
}

fn run_baseline_traced<T, F>(build: F) -> TraceLog
where
    T: RpcTransport,
    F: FnOnce(&mut Fabric, &Cluster) -> T,
{
    run_baseline(Tracer::enabled(), build).0
}

/// Asserts the per-transport invariant of this test file on a baseline
/// log: Handler and Response spans are present and form complete
/// pipelines (post → response) for a healthy share of requests.
fn assert_baseline_spans(log: &TraceLog, name: &str) {
    let q = TraceQuery::new(log);
    let handlers = q.spans_of(Stage::Handler).count();
    let responses = q.spans_of(Stage::Response).count();
    assert!(handlers > 100, "{name}: only {handlers} Handler spans");
    assert!(responses > 100, "{name}: only {responses} Response spans");
    // Every Response span belongs to a pipeline whose ClientPost was
    // also recorded, so end-to-end rpc_latency works on baselines too.
    let mut complete = 0;
    let mut total = 0;
    for span in q.spans_of(Stage::Response) {
        total += 1;
        if q.rpc_latency(span.id).is_some() {
            complete += 1;
        }
    }
    assert!(
        complete * 10 >= total * 9,
        "{name}: only {complete}/{total} Response spans have a complete pipeline"
    );
    // Handler spans nest inside their pipeline: they must start at or
    // after the recorded post and end before the response closes.
    for span in q.spans_of(Stage::Handler).take(200) {
        let pipeline = q.rpc(span.id);
        let post = pipeline.iter().find(|s| s.stage == Stage::ClientPost);
        if let Some(post) = post {
            assert!(
                span.start >= post.start,
                "{name}: handler span {} starts before its post",
                span.id
            );
        }
    }
}

#[test]
fn rawwrite_emits_handler_and_response_spans() {
    let log = run_baseline_traced(|fabric, cluster| {
        RawWrite::new(fabric, cluster, 8, 4096, EchoHandler::default())
    });
    assert_baseline_spans(&log, "RawWrite");
}

#[test]
fn fasst_emits_handler_and_response_spans() {
    let log = run_baseline_traced(|fabric, cluster| {
        Fasst::new(fabric, cluster, 4096, EchoHandler::default())
    });
    assert_baseline_spans(&log, "FaSST");
}

#[test]
fn herd_emits_handler_and_response_spans() {
    let log = run_baseline_traced(|fabric, cluster| {
        Herd::new(fabric, cluster, 8, 4096, EchoHandler::default())
    });
    assert_baseline_spans(&log, "HERD");
}

#[test]
fn selfrpc_emits_handler_and_response_spans() {
    let log = run_baseline_traced(|fabric, cluster| {
        SelfRpc::new(fabric, cluster, 8, 4096, EchoHandler::default())
    });
    assert_baseline_spans(&log, "SelfRPC");
}

/// The same run with recording off and on must process the same number
/// of events and complete the same number of RPCs.
fn assert_tracing_is_inert<T: RpcTransport>(
    name: &str,
    build: impl Fn(&mut Fabric, &Cluster) -> T,
) {
    let (off_log, off) = run_baseline(Tracer::disabled(), &build);
    let (on_log, on) = run_baseline(Tracer::enabled(), &build);
    assert!(off_log.spans.is_empty());
    assert!(!on_log.spans.is_empty());
    assert_eq!(off, on, "{name}: enabling the tracer changed (events, ops)");
}

#[test]
fn tracing_leaves_the_baselines_bit_identical() {
    // One baseline per response path — the trace table's two stamping
    // sites — and between them both pool request modes.
    assert_tracing_is_inert("HERD", |f, c| {
        Herd::new(f, c, 8, 4096, EchoHandler::default())
    });
    assert_tracing_is_inert("SelfRPC", |f, c| {
        SelfRpc::new(f, c, 8, 4096, EchoHandler::default())
    });
}

#[test]
fn windowed_pipeline_trace_ids_are_unique_and_stage_ordered() {
    // The asynchronous client (W = 4, batch 1) tags every in-flight
    // request with its own TraceId. With four requests open per client
    // the ids must still be unique per RPC and every recorded pipeline
    // must advance through its stages in causal order — interleaving
    // the slots must never cross-wire two requests' spans.
    let run = run_scalerpc_traced_w(120, Tracer::enabled(), false, 1, 4);
    let q = TraceQuery::new(&run.log);

    // Per-RPC TraceIds are unique: one ClientPost span per id.
    let mut posts_by_id = std::collections::BTreeMap::new();
    for span in q.spans_of(Stage::ClientPost) {
        *posts_by_id.entry(span.id).or_insert(0u32) += 1;
    }
    assert!(
        posts_by_id.len() > 5_000,
        "too few posts: {}",
        posts_by_id.len()
    );
    let dup = posts_by_id.iter().find(|(_, &n)| n > 1);
    assert!(dup.is_none(), "TraceId {:?} reused across requests", dup);

    // Every complete pipeline is stage-ordered on its causal
    // milestones: the request is posted before the handler runs, and
    // the handler runs before the response closes. (A single logical
    // RPC legitimately owns several wire transfers — endpoint publish,
    // staged-batch warmup fetch — so the NIC/Link/DMA sub-spans of one
    // id may interleave; the milestones may not.)
    let mut complete = 0;
    for span in q.spans_of(Stage::Response) {
        let pipeline = q.rpc(span.id);
        let Some(post) = pipeline.iter().find(|s| s.stage == Stage::ClientPost) else {
            continue;
        };
        complete += 1;
        let handler = pipeline.iter().find(|s| s.stage == Stage::Handler);
        if let Some(h) = handler {
            assert!(
                post.start <= h.start,
                "rpc {}: handler at {:?} before post at {:?}",
                span.id,
                h.start,
                post.start
            );
            assert!(
                h.start <= span.end,
                "rpc {}: response closed at {:?} before handler at {:?}",
                span.id,
                span.end,
                h.start
            );
        }
        assert!(
            post.start <= span.start,
            "rpc {}: response at {:?} before post at {:?}",
            span.id,
            span.start,
            post.start
        );
    }
    assert!(complete > 5_000, "too few complete pipelines: {complete}");

    // The window actually pipelines: some client must have posted a new
    // request before the previous one's response closed. Group posts by
    // originating client and look for overlap between consecutive
    // pipelines of the same client.
    let mut by_client: std::collections::BTreeMap<u64, Vec<(SimTime, u64)>> =
        std::collections::BTreeMap::new();
    for span in q.spans_of(Stage::ClientPost) {
        by_client
            .entry(span.client)
            .or_default()
            .push((span.start, span.id));
    }
    let mut overlapped = false;
    'outer: for posts in by_client.values_mut() {
        posts.sort();
        for pair in posts.windows(2) {
            let (first_post, first_id) = pair[0];
            let (second_post, _) = pair[1];
            let Some(lat) = q.rpc_latency(first_id) else {
                continue;
            };
            let first_end = first_post + lat;
            if second_post < first_end {
                overlapped = true;
                break 'outer;
            }
        }
    }
    assert!(
        overlapped,
        "no client ever had two requests in flight at W=4"
    );
}

#[test]
fn scheduler_replans_are_recorded_as_reprioritize_instants() {
    // §3.2's dynamic scheduler re-evaluates groups every
    // `regroup_rotations` (default 4) complete rotations. Each replan —
    // whether or not it splits or merges — must land in the trace as a
    // GroupReprioritize instant carrying the rotation count and the
    // group count after the decision, queryable via TraceQuery.
    let run = run_scalerpc_traced(120, Tracer::enabled(), false);
    let q = TraceQuery::new(&run.log);
    let replans: Vec<_> = q.instants(InstantKind::GroupReprioritize).collect();
    assert!(
        !replans.is_empty(),
        "no GroupReprioritize instants in a {} µs run with regroup_rotations = 4",
        run.stop.as_nanos() / 1_000,
    );
    let regroup = ScaleRpcConfig::default().regroup_rotations as u64;
    for i in &replans {
        assert!(
            i.a >= regroup,
            "replan at {:?} after only {} rotations",
            i.at,
            i.a
        );
        assert!(i.b >= 1, "replan reports zero groups");
        assert!(i.at <= run.stop + SimDuration::millis(3));
    }
    // Replans happen within the run (not just at teardown) and the
    // rotation counter is non-decreasing over the recorded sequence.
    for pair in replans.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
}

#[test]
fn tracing_leaves_the_simulation_bit_identical() {
    // Same run, tracer off vs on: recording must not perturb a single
    // counter, event count, or latency quantile (tracing never draws
    // from simulation RNG and never schedules fabric events; sampling
    // ticks ride the harness queue but touch nothing).
    let disabled = run_scalerpc_traced(120, Tracer::disabled(), false);
    let enabled = run_scalerpc_traced(120, Tracer::enabled(), false);
    assert!(disabled.log.spans.is_empty());
    assert!(!enabled.log.spans.is_empty());
    assert_eq!(
        disabled.fingerprint, enabled.fingerprint,
        "enabling the tracer changed simulation results"
    );
}
