#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       the BENCHMARK.json contract: one workload, one JSON result line
#   run.sh [--seed N] [--seconds S] [--quick]
#       all five workloads with their rounds interleaved, end-to-end
#       metrics, then the per-layer ledger of each
#   run.sh --repeat-check [--seconds S] [--quick]
#       two end-to-end sets of one binary, compared against the bounds
#   run.sh --print-contract
#       the text of BENCHMARK.json
#   run.sh --test
#       the package's unit tests
#
# Nothing outside this directory and the cargo target directory is
# written; nothing stays running.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
started=$SECONDS

if [[ ${1:-} == --test ]]; then
    exec cargo test --offline --release --manifest-path "$here/Cargo.toml" --features trace
fi

# Both binaries are built up front, so that the first run of a checkout
# pays for all compilation and no later run does. The traced binary
# enables the crates' `trace` feature and therefore compiles them a
# second time; end-to-end numbers never come from it.
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bin bench
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --features trace --bin bench-trace
bin=$CARGO_TARGET_DIR/release

trace=0 contract=0 only_end_to_end=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case ${args[i]} in
    --trace) trace=${args[i + 1]:-} ;;
    --workload) contract=1 ;;
    --repeat-check | --print-contract) only_end_to_end=1 ;;
    esac
done

if ((contract)); then
    if [[ $trace == 1 ]]; then
        exec "$bin/bench-trace" --out "$here/out" "$@"
    fi
    exec "$bin/bench" "$@"
fi

"$bin/bench" "$@"
if ((!only_end_to_end)); then
    "$bin/bench-trace" --out "$here/out" "$@"
    echo "total elapsed $((SECONDS - started)) s (build included)"
fi
