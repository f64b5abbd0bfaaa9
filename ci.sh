#!/usr/bin/env bash
# CI gate: build, tests, lints and the repo benchmark's smoke runs — in
# both tracing configurations.
#
# The workspace builds with the bench crate's default `trace` feature
# (recording compiled in, runtime-disabled unless a Tracer is installed);
# the perf-sensitive configuration strips it with --no-default-features
# so the zero-cost-when-off claim is actually compiled and linted.
#
# The first gate is rustfmt's check. The first step after it prints
# non-test src lines per crate and for vendor/, ungated: the numbers
# every simplicity PR quotes, produced one way.
#
# The repo benchmark (benchmark/, its own cargo package compiled against
# the crates' public API) is built, tested and smoke-run last: a crate
# change that breaks its build, its tests (the raw-inbound workload is
# pinned to run_raw_verbs' (events, ops)) or its output checks
# (round-to-round fingerprints, conservation, nothing stuck) fails here,
# not in the next perf PR. Its traced replays of all five workloads then
# gate the allocation counts of each layer against recorded ceilings, and
# its untraced ones the peak heap. The benchmark's build leaves
# benchmark/Cargo.lock as committed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (check) =="
# First, so a formatting drift fails before anything is built. The
# benchmark is its own workspace and is not covered.
cargo fmt --all -- --check

echo "== non-test src lines (lines before a file's first line-start #[cfg(test)]) =="
# The vendor row (the offline stand-ins under vendor/) is counted the same
# way but kept out of the workspace total.
find crates/*/src vendor/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test {
        split(FILENAME, p, "/")
        if (p[1] == "vendor") vendor++
        else { n[p[2]]++; total++ }
    }
    END {
        for (c in n) printf "%-14s %6d\n", c, n[c] | "sort"
        close("sort")
        printf "%-14s %6d\n", "workspace", total
        printf "%-14s %6d\n", "vendor", vendor
    }'

echo "== build (release, trace on) =="
cargo build --release --workspace

echo "== build (release, trace off) =="
cargo build --release -p scalerpc-bench --no-default-features

echo "== tests (trace on) =="
# --workspace: in a root that is both package and workspace, a bare
# `cargo test` runs the root package's binaries only, not the crates'.
cargo test -q --workspace

echo "== tests (trace off) =="
cargo test -q -p simtrace -p scalerpc-bench --no-default-features

echo "== event-queue golden + linear-time bounds (release) =="
# The pop-stream golden (captured on the parent of the change that
# retired explicit keys, never re-blessed)
# and the two wall-clock bounds — 200 000 same-instant events, one event
# every 10 ms — run optimised, the way the benchmark builds the queue: an
# accidental O(k) bucket walk fails here, not in the next benchmark.
cargo test -q --release -p simcore --test queue_stream

echo "== stranding sweep (release) =="
# ScaleTX over ScaleRPC at transaction windows 4 and 8: every seed of the
# sweep's three cells, one-sided and RPC-only (202 runs), each drained
# 300 ms with no slot left busy. The workspace tests above run two seeds
# per cell; this runs all of them, which only a release build does in
# CI time.
cargo test -q --release -p scaletx --test stranding_sweep

echo "== clippy (deny warnings, trace on) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (deny warnings, trace off) =="
cargo clippy -p simtrace -p scalerpc-bench --no-default-features --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# Intra-doc links that are broken, point at private items or are
# ambiguous fail here: the crate docs' module maps name items that move
# between files, and nothing else checks those links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== scenario check (all checked-in scenarios) =="
# Parse + compile every scenario file; rejects drift between the
# scenario format and the checked-in battery.
cargo run -q --release -p simscenario --bin scenario -- check scenarios

echo "== scenario smoke (trace off) =="
# The baseline scenario pins the Fig. 3(b) fingerprint of
# tests/determinism.rs' hub table via its [expect] table, so this run
# proves the scenario layer reproduces that workload bit-exactly. The fuzzer asserts the four liveness
# invariants (conservation, no stuck clients, all locks freed, replay
# determinism) over 8 generated scenarios.
./target/release/scenario run scenarios/baseline.toml
./target/release/scenario fuzz --seeds 8

echo "== scenario churn gate (trace off) =="
# churn.toml drives the elastic control plane end-to-end — lazy setup,
# connection churn, a mid-run server crash with failover retries and a
# late reconnect wave — and pins the recovered fingerprint via its
# [expect] table. The seed window 64..88 of the fuzzer is lifecycle-rich
# (five of the generated scenarios draw server_crash / client_reconnect
# / conn_churn events), so this batch keeps the crash-recovery paths
# under the four liveness invariants, not just the steady-state ones.
./target/release/scenario run scenarios/churn.toml
./target/release/scenario fuzz --seeds 24 --start 64

echo "== scenario smoke (trace on) =="
cargo run -q --release -p simscenario --features trace --bin scenario -- \
    run scenarios/baseline.toml
cargo run -q --release -p simscenario --features trace --bin scenario -- \
    fuzz --seeds 8

echo "== scenario churn gate (trace on) =="
cargo run -q --release -p simscenario --features trace --bin scenario -- \
    run scenarios/churn.toml
cargo run -q --release -p simscenario --features trace --bin scenario -- \
    fuzz --seeds 24 --start 64

echo "== every figure (release) =="
# No test calls a `figures` function, so this is what runs them: a
# figure that panics (a sweep whose table reads a cell its grid lacks,
# a runner that rejects its point) fails here. The run is deterministic,
# so its tables and its CSVs (under target/figures/, emptied first) are
# also diffed against the checked-in transcript: tests/figures/ holds
# the stdout and a sha256sum of every CSV. A change that moves any
# figure's number fails here; one that means to re-records both files
# and says why.
rm -rf target/figures
./target/release/all_figures | diff tests/figures/all_figures.txt -
(cd target/figures && sha256sum -- *.csv) | diff tests/figures/csv.sha256 -

echo "== trace export smoke =="
# fig_timeline validates its own trace (all seven pipeline stages,
# scheduler instants, and >=2 counter series) and exits non-zero on any
# gap; python's parser, not ours, proves the export loads.
cargo run --release -p scalerpc-bench --bin fig_timeline -- \
    --clients 80 --warmup-us 300 --run-us 500 \
    --out target/fig_timeline_ci.json
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["traceEvents"]' target/fig_timeline_ci.json

echo "== repo benchmark (tests + quick run, both of its binaries) =="
# benchmark/run.sh builds --offline without --locked, so cargo rewrites
# the tracked benchmark/Cargo.lock when it no longer matches the
# workspace; the committed copy goes back when this script exits, pass
# or fail.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
bash benchmark/run.sh --test
bash benchmark/run.sh --quick

echo "== allocation gate (traced ScaleRPC, RawWrite, raw-inbound, SmallBank and churn-scenario replays, seed 42) =="
# Allocations per operation and per event, and calls into a layer, are
# exact counts of a deterministic replay, so the gate is not flaky: each
# must be at or below the value recorded when its path last shed work
# (the message path, the transaction path and its upcall routing, the
# unread per-batch series, the fabric events' staging vector, the LLC
# model's region list and its index growth, the NIC cache's hash table,
# the unread node name, the per-region page pools, ScaleRPC's
# per-slice group copies and its client-region index, the regions'
# written-line bitmaps, the harness's map of payloads to retransmit;
# PERF_LEDGER.md and CHANGES.md have the ledgers). RawWrite is the one
# workload that runs rpc-baselines; raw inbound is the one with hundreds
# of nodes, so per-node state shows there; the churn scenario is the one
# that tears connections down, crashes a server and reconnects. A change that allocates on
# the per-message or per-transaction path fails here with the layer
# named, and one that sheds more lowers the ceilings in the same PR.
# usage: ceiling_gate TRACE WORKLOAD METRIC=CEILING...
# (TRACE 1: the traced binary, whose ledger has the allocation counts;
# TRACE 0: the untraced one, whose end-to-end lines have peak_heap_mb)
ceiling_gate() {
    local trace=$1 workload=$2
    shift 2
    bash benchmark/run.sh --workload "$workload" --seed 42 --seconds 3 --trace "$trace" | awk -v spec="$*" '
    BEGIN {
        want = split(spec, pair, " ")
        for (i = 1; i <= want; i++) { split(pair[i], kv, "="); ceiling[kv[1]] = kv[2] }
    }
    $2 in ceiling {
        seen++
        printf "%-20s %-36s %s (ceiling %s)\n", $1, $2, $3, ceiling[$2]
        if ($3 + 0 > ceiling[$2] + 0) { print "ceiling gate: " $2 " rose"; bad = 1 }
    }
    END {
        if (seen != want) { print "ceiling gate: expected " want " metrics, saw " seen; exit 1 }
        exit bad
    }'
}
ceiling_gate 1 rpc_scalerpc_400c_b8 \
    scalerpc.allocs_per_op=3.309848 \
    rpc-core.harness_allocs_per_op=0.000014 \
    rpc-core.sharded_allocs_per_event=0.000806 \
    bench.allocs_per_op=4.412567
ceiling_gate 1 rpc_rawwrite_400c_b1 \
    rpc-baselines.allocs_per_op=3.082486 \
    rpc-core.sharded_allocs_per_event=0.001136 \
    bench.allocs_per_op=4.128515
ceiling_gate 1 raw_inbound_8k_400c \
    bench.allocs_per_op=2.377833 \
    rpc-core.sharded_allocs_per_event=0.002572
ceiling_gate 1 tx_smallbank_160c \
    scaletx.allocs_per_tx=5.567352 \
    bench.allocs_per_op=21.131304 \
    scalerpc.transport_calls=602103.000000
ceiling_gate 1 scn_churn_cycles \
    scalerpc.allocs_per_op=3.182141 \
    rpc-core.harness_allocs_per_op=0.000014 \
    rpc-core.sharded_allocs_per_event=0.000247 \
    bench.allocs_per_op=4.240220

echo "== peak-heap gate (untraced replays of all five workloads, seed 42) =="
# The heap peak is a maximum over rounds whose number depends on host
# speed, so it is not exact: each ceiling is the value recorded when
# the harness came to keep every client's requests in flight in one
# window and stopped keeping payloads for retries, plus the benchmark's own 3 %
# bound on peak_heap_mb. A change that makes
# registration or a replay hold memory it does not use fails here.
ceiling_gate 0 rpc_scalerpc_400c_b8 peak_heap_mb=4.568017
ceiling_gate 0 rpc_rawwrite_400c_b1 peak_heap_mb=3.993034
ceiling_gate 0 raw_inbound_8k_400c peak_heap_mb=11.431323
ceiling_gate 0 tx_smallbank_160c peak_heap_mb=23.091778
ceiling_gate 0 scn_churn_cycles peak_heap_mb=2.017663

echo "ci.sh: all gates passed"
