#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against this working tree.
#
#   pairs.sh REV "SEED ..." [WORKLOAD ...]     (default: all five workloads)
#
# Extracts REV into target/pairs/REV (`git archive`, its own benchmark
# build) and, per workload and seed, runs `benchmark/run.sh --workload W
# --seed N --seconds 12 --trace 0` in both trees, the parent first on
# even-indexed seeds, so a drift of the host's speed hits both sides.
# Prints per workload and metric the parent's median and q1–q3, the
# change's median and in how many pairs the change read lower; raw values
# go to target/pairs/REV.tsv. benchmark/Cargo.lock, which a benchmark
# build rewrites, is put back in both trees on exit.
set -euo pipefail
cd "$(dirname "$0")"
usage='usage: pairs.sh REV "SEED ..." [WORKLOAD ...]'
rev=${1:?$usage}
read -ra seeds <<<"${2:?$usage}"
shift 2
workloads=("$@")
((${#workloads[@]})) || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
unset CARGO_TARGET_DIR

parent=target/pairs/$(git rev-parse --short "$rev")
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"
    git show "$rev:benchmark/Cargo.lock" >"$parent/benchmark/Cargo.lock"' EXIT
[[ -d $parent ]] || { mkdir -p "$parent" && git archive "$rev" | tar -x -C "$parent"; }

out=$parent.tsv
: >"$out"
run() { # SIDE TREE WORKLOAD SEED
    bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" --seconds 12 --trace 0 | tail -n 1 |
        jq -r --arg s "$1" --arg w "$3" '(.metrics | to_entries[] | [.key, .value.value]),
            ["failed", .failed], ["correct", (if .correct then 1 else 0 end)] | [$w, $s] + . | @tsv' >>"$out"
}
for w in "${workloads[@]}"; do
    for i in "${!seeds[@]}"; do
        sides=(parent "$parent" change .)
        ((i % 2 == 0)) || sides=(change . parent "$parent")
        run "${sides[0]}" "${sides[1]}" "$w" "${seeds[i]}"
        run "${sides[2]}" "${sides[3]}" "$w" "${seeds[i]}"
    done
done

python3 - "$out" <<'EOF'
import statistics as st, sys
runs = {}
for line in open(sys.argv[1]):
    w, side, m, v = line.split("\t")
    runs.setdefault((w, m), {"parent": [], "change": []})[side].append(float(v))
print(f"{'workload':22} {'metric':13} {'parent':>11} {'q1':>11} {'q3':>11} {'change':>11} {'Δ':>7} lower")
for (w, m), r in runs.items():
    p, c = r["parent"], r["change"]
    q1, _, q3 = st.quantiles(p, n=4) if len(p) > 1 else p * 3
    mp, mc = st.median(p), st.median(c)
    d = f"{(mc - mp) / mp:+.1%}" if mp else "-"
    print(f"{w:22} {m:13} {mp:11.5g} {q1:11.5g} {q3:11.5g} {mc:11.5g} {d:>7} {sum(b < a for a, b in zip(p, c))}/{len(c)}")
EOF
