//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root is [`benchmark_json`] written to a file (a test keeps
//! the two equal), so the names the program prints and the names the
//! contract lists cannot drift apart.

/// Seconds one contract run measures.
pub const RUN_SECONDS: u64 = 12;

/// `(name, why)` of each workload, in round-robin order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "rpc_scalerpc_400c_b8",
        "ScaleRPC, 400 closed-loop clients, batch 8 (Fig. 8 headline): scalerpc, the rpc-core harness and the event queue do the work; LLC and NIC cache are quiet",
    ),
    (
        "rpc_rawwrite_400c_b1",
        "RawWrite, 400 clients, batch 1: same harness and fabric with scalerpc bypassed and the NIC QP cache thrashing (Fig. 8/10 collapse); control for any scalerpc change",
    ),
    (
        "raw_inbound_8k_400c",
        "400 clients RC-write into 8 KB blocks overflowing the LLC (Fig. 3b): rdma-fabric llc/lru span walks dominate; no harness, no transport, so queue or transport changes must not move it",
    ),
    (
        "tx_smallbank_160c",
        "ScaleTX SmallBank, 160 coordinators, 3 servers (Fig. 16): one-sided verbs beside RPCs, three transports, mica-kv handlers and the TxSim driver instead of the harness",
    ),
    (
        "scn_churn_cycles",
        "scenario file with three conn_churn/depart/server_crash/reconnect cycles: the only workload using simscenario, inject hooks, retries and the scalerpc lifecycle paths",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)` of each end-to-end metric. The bound
/// is the share of the parent's median by which the metric may worsen.
/// Host timings get wide bounds because this host's runs of one binary
/// drift by that much between contiguous sets (README, "Noise");
/// simulated results repeat exactly for one seed, and their bounds
/// cover the spread across seeds.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("replay_s", "s", Lower, 0.25),
    ("peak_heap_mb", "MB", Lower, 0.03),
    ("sim_mops", "Mops/s", Higher, 0.06),
    ("sim_p50_us", "us", Lower, 0.15),
    ("sim_p99_us", "us", Lower, 0.10),
];

/// `(name, unit, better)` of each per-layer metric; the prefix is the
/// crate the number is about. A metric that does not apply to a
/// workload (say `scaletx.*` on an RPC workload) is printed as 0 there.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    ("simcore.events", "count", Lower),
    ("simcore.events_per_op", "1/op", Lower),
    ("simcore.host_ns_per_event", "ns", Lower),
    ("simcore.queue_push_pop_ns", "ns", Lower),
    ("simcore.queue_cancel_mix_ns", "ns", Lower),
    ("simcore.histogram_record_ns", "ns", Lower),
    ("rdma-fabric.llc_dma_write_8k_ns", "ns", Lower),
    ("rdma-fabric.llc_cpu_access_8k_ns", "ns", Lower),
    ("rdma-fabric.llc_dma_write_32b_ns", "ns", Lower),
    ("rdma-fabric.niccache_thrash_ns", "ns", Lower),
    ("rdma-fabric.niccache_hot_ns", "ns", Lower),
    ("rdma-fabric.verb_roundtrip_ns", "ns", Lower),
    ("rdma-fabric.events_per_verb", "count", Lower),
    ("rdma-fabric.nic_hit_rate", "ratio", Higher),
    ("rdma-fabric.pcie_rd_per_op", "1/op", Lower),
    ("rdma-fabric.pcie_itom_per_op", "1/op", Lower),
    ("rdma-fabric.llc_miss_rate", "ratio", Lower),
    ("rdma-fabric.nic_tx_busy", "ratio", Lower),
    ("rdma-fabric.nic_rx_busy", "ratio", Lower),
    ("rpc-core.sharded_self_s", "s", Lower),
    ("rpc-core.sharded_allocs_per_event", "count", Lower),
    ("rpc-core.harness_self_s", "s", Lower),
    ("rpc-core.harness_calls", "count", Lower),
    ("rpc-core.harness_allocs_per_op", "1/op", Lower),
    ("rpc-core.handler_self_s", "s", Lower),
    ("rpc-core.issued", "count", Higher),
    ("rpc-core.completed", "count", Higher),
    ("rpc-core.retries", "count", Lower),
    ("rpc-core.in_flight_end", "count", Lower),
    ("rpc-core.stuck_clients", "count", Lower),
    ("rpc-core.msgbuf_codec_ns", "ns", Lower),
    ("scalerpc.transport_self_s", "s", Lower),
    ("scalerpc.transport_calls", "count", Lower),
    ("scalerpc.allocs_per_op", "1/op", Lower),
    ("scalerpc.rotations", "count", Higher),
    ("scalerpc.groups", "count", Lower),
    ("scalerpc.replan_400_us", "us", Lower),
    ("rpc-baselines.transport_self_s", "s", Lower),
    ("rpc-baselines.transport_calls", "count", Lower),
    ("rpc-baselines.allocs_per_op", "1/op", Lower),
    ("scaletx.txsim_self_s", "s", Lower),
    ("scaletx.participant_self_s", "s", Lower),
    ("scaletx.allocs_per_tx", "1/op", Lower),
    ("scaletx.committed", "count", Higher),
    ("scaletx.aborted", "count", Lower),
    ("scaletx.abort_rate", "ratio", Lower),
    ("scaletx.busy_slots_end", "count", Lower),
    ("mica-kv.get_hot_ns", "ns", Lower),
    ("mica-kv.insert_ns", "ns", Lower),
    ("simscenario.parse_us", "us", Lower),
    ("simscenario.compile_us", "us", Lower),
    ("simtrace.stage_client_post_p50_ns", "ns", Lower),
    ("simtrace.stage_client_post_p99_ns", "ns", Lower),
    ("simtrace.stage_tx_nic_p50_ns", "ns", Lower),
    ("simtrace.stage_tx_nic_p99_ns", "ns", Lower),
    ("simtrace.stage_link_p50_ns", "ns", Lower),
    ("simtrace.stage_link_p99_ns", "ns", Lower),
    ("simtrace.stage_rx_nic_p50_ns", "ns", Lower),
    ("simtrace.stage_rx_nic_p99_ns", "ns", Lower),
    ("simtrace.stage_dma_llc_write_p50_ns", "ns", Lower),
    ("simtrace.stage_dma_llc_write_p99_ns", "ns", Lower),
    ("simtrace.stage_handler_p50_ns", "ns", Lower),
    ("simtrace.stage_handler_p99_ns", "ns", Lower),
    ("simtrace.stage_response_p50_ns", "ns", Lower),
    ("simtrace.stage_response_p99_ns", "ns", Lower),
    ("simtrace.spans", "count", Lower),
    ("simtrace.export_ms", "ms", Lower),
    ("simtrace.overhead_ratio", "ratio", Lower),
    ("bench.driver_self_s", "s", Lower),
    ("bench.wrapper_overhead_ratio", "ratio", Lower),
    ("bench.self_time_coverage", "ratio", Higher),
    ("bench.allocs_per_op", "1/op", Lower),
    ("bench.fail_ratio", "ratio", Lower),
    ("bench.host_speed", "ratio", Higher),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(n), quote(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(n, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                quote(n),
                quote(unit),
                quote(better.name())
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(n),
                quote(unit),
                quote(better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for (n, why) in WORKLOADS {
            assert!(name_ok(n), "{n}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{n}: {}",
                why.len()
            );
            names.push(n);
        }
        for (n, unit, _, bound) in END_TO_END {
            assert!(name_ok(n) && unit_ok(unit), "{n}");
            assert!(bound > 0.0 && bound <= 0.25, "{n}");
            names.push(n);
        }
        for (n, unit, _) in PER_LAYER {
            assert!(name_ok(n) && unit_ok(unit), "{n}");
            names.push(n);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, 0.25)));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
