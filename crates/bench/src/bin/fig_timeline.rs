//! Timeline export: runs a traced ScaleRPC benchmark and writes a
//! Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto)
//! plus an optional CSV of the raw records and an optional collapsed
//! flamegraph (`--folded`, feed to `flamegraph.pl` or speedscope).
//!
//! ```text
//! fig_timeline [--out PATH] [--csv PATH] [--folded PATH] [--clients N]
//!              [--warmup-us N] [--run-us N] [--sample-us N]
//! ```
//!
//! The run records per-RPC pipeline spans (all seven stages, client
//! post → response receipt), scheduler instants (slice boundaries,
//! group switches, warmup fetches) and PCM-counter time-series on the
//! server node. A zero exit status says the trace holds everything the
//! figure needs; that the file loads is `ci.sh`'s check, made with an
//! independent JSON parser.

use rdma_fabric::{Fabric, FabricParams};
use rpc_core::cluster::{Cluster, ClusterSpec};
use rpc_core::harness::{Harness, HarnessConfig};
use rpc_core::sharded::ShardedSim;
use rpc_core::transport::EchoHandler;
use rpc_core::workload::ThinkTime;
use scalerpc::{ScaleRpc, ScaleRpcConfig};
use simcore::SimDuration;
use simtrace::query::TraceQuery;
use simtrace::{export, InstantKind, Stage, Tracer};

fn main() {
    let mut out = "target/fig_timeline.json".to_string();
    let mut csv: Option<String> = None;
    let mut folded: Option<String> = None;
    let mut clients = 120usize;
    let mut warmup_us = 500u64;
    let mut run_us = 1_500u64;
    let mut sample_us = 20u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            "--csv" => csv = Some(args.next().expect("--csv needs a value")),
            "--folded" => folded = Some(args.next().expect("--folded needs a value")),
            "--clients" => clients = parse(&mut args, "--clients"),
            "--warmup-us" => warmup_us = parse(&mut args, "--warmup-us"),
            "--run-us" => run_us = parse(&mut args, "--run-us"),
            "--sample-us" => sample_us = parse(&mut args, "--sample-us"),
            "--help" | "-h" => {
                println!(
                    "usage: fig_timeline [--out PATH] [--csv PATH] [--folded PATH] \
                     [--clients N] [--warmup-us N] [--run-us N] [--sample-us N]"
                );
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let tracer = Tracer::enabled();
    if !tracer.is_enabled() {
        eprintln!(
            "fig_timeline: built without the `trace` feature; \
             rebuild scalerpc-bench with default features"
        );
        std::process::exit(2);
    }

    // The paper's deployment shape: one server with 10 workers, clients
    // spread over 11 machines, closed loop of 32-byte echo batches.
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
    let transport = ScaleRpc::new(
        &mut fabric,
        &cluster,
        ScaleRpcConfig::default(),
        EchoHandler::default(),
    );
    let mut harness = Harness::new(
        transport,
        cluster,
        HarnessConfig {
            batch_size: 8,
            request_size: 32,
            warmup: SimDuration::micros(warmup_us),
            run: SimDuration::micros(run_us),
            think: vec![ThinkTime::None],
            seed: 1,
            window: 1,
            nthreads: 1,
            retry: None,
        },
    );
    harness.sample_counters(
        server,
        &["PCIeRdCur", "PCIeItoM"],
        SimDuration::micros(sample_us),
    );
    let stop = harness.stop_at();
    let mut sim = ShardedSim::new_sequential(fabric, harness);
    let events = sim.run_sequential(stop + SimDuration::millis(1));

    let log = tracer.snapshot().expect("tracer enabled");
    let q = TraceQuery::new(&log);
    eprintln!(
        "fig_timeline: {clients} clients, {} ops, {events} events, \
         {} spans / {} instants / {} samples",
        sim.logic(0).metrics.ops,
        log.spans.len(),
        log.instants.len(),
        log.samples.len()
    );

    // Sanity-check the trace covers what the figure needs.
    let present = q.stages_present();
    let mut ok = true;
    if present.len() != Stage::ALL.len() {
        let missing: Vec<&str> = Stage::ALL
            .iter()
            .filter(|s| !present.contains(s))
            .map(|s| s.name())
            .collect();
        eprintln!("fig_timeline: ERROR missing pipeline stages: {missing:?}");
        ok = false;
    }
    for kind in [
        InstantKind::SliceStart,
        InstantKind::SliceEnd,
        InstantKind::GroupSwitch,
        InstantKind::WarmupFetchIssue,
        InstantKind::WarmupFetchDone,
    ] {
        if q.instants(kind).next().is_none() {
            eprintln!("fig_timeline: ERROR no {:?} instants recorded", kind.name());
            ok = false;
        }
    }
    let counters = q.sampled_counters();
    if counters.len() < 2 {
        eprintln!("fig_timeline: ERROR expected >= 2 counter series, got {counters:?}");
        ok = false;
    }
    for (stage, total) in q.stage_durations() {
        eprintln!(
            "  stage {:<14} {:>9} spans  {:>12} ns total",
            stage.name(),
            q.spans_of(stage).count(),
            total.as_nanos()
        );
    }

    let text = export::chrome_trace_json(&log);
    std::fs::write(&out, &text).expect("write trace json");
    eprintln!("fig_timeline: wrote {out} ({} bytes)", text.len());
    if let Some(path) = csv {
        let text = export::csv(&log);
        std::fs::write(&path, &text).expect("write trace csv");
        eprintln!("fig_timeline: wrote {path} ({} bytes)", text.len());
    }
    if let Some(path) = folded {
        let text = export::collapsed_stacks(&log);
        // Every line must be `frames... <count>`; a malformed fold is a
        // bug in the exporter, not a matter of taste downstream.
        let stacks = text.lines().count();
        for l in text.lines() {
            let numeric_tail = l
                .rsplit_once(' ')
                .is_some_and(|(_, v)| v.parse::<u64>().is_ok());
            assert!(numeric_tail, "malformed folded line {l:?}");
        }
        std::fs::write(&path, &text).expect("write folded stacks");
        eprintln!("fig_timeline: wrote {path} ({stacks} stacks)");
    }
    if !ok {
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    args.next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|e| panic!("{flag}: {e:?}"))
}
