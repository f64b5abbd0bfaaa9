#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against this working tree.
#
#   pairs.sh REV "SEED ..." [WORKLOAD ...]     (default: all five workloads)
#   pairs.sh --summary TSV                     (summarise a kept TSV only)
#
# Extracts REV into target/pairs/REV (`git archive`, its own benchmark
# build) and, per workload and seed, runs `benchmark/run.sh --workload W
# --seed N --seconds 12 --trace 0` in both trees, the parent first on
# even-indexed seeds, so a drift of the host's speed hits both sides.
# Raw values go to target/pairs/REV.tsv (workload, side, seed, metric,
# value). benchmark/Cargo.lock, which a benchmark build rewrites, is put
# back in both trees on exit.
#
# The summary prints per workload and metric the parent's median and
# q1–q3, the change's median, the gap between the medians beside the
# width of the parent's q1–q3, and in how many same-seed pairs the change
# read better and worse in the metric's `better` direction from
# BENCHMARK.json; ties count for neither. `correct` and `failed` are not
# summarised as medians: every run that read `correct` 0, and every
# change run whose `failed` is above its same-seed parent's, is listed by
# seed and side.
set -euo pipefail
[[ ${1:-} != --summary || -z ${2:-} ]] || set -- --summary "$(realpath "$2")"
cd "$(dirname "$0")"
usage='usage: pairs.sh REV "SEED ..." [WORKLOAD ...] | pairs.sh --summary TSV'

summarise() { # TSV
    python3 - "$1" <<'EOF'
import json, statistics as st, sys
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs, flags = {}, {}
for line in open(sys.argv[1]):
    w, side, seed, m, v = line.rstrip("\n").split("\t")
    if m in ("correct", "failed"):
        flags[w, seed, side, m] = float(v)
    else:
        runs.setdefault((w, m), {}).setdefault(side, {})[seed] = float(v)
print(f"{'workload':22} {'metric':13} {'parent':>11} {'q1':>11} {'q3':>11} {'change':>11} "
      f"{'Δ':>7} {'gap':>10} {'q1–q3':>10} better worse")
for (w, m), r in runs.items():
    seeds = [s for s in r.get("parent", {}) if s in r.get("change", {})]
    if not seeds:
        continue
    p = [r["parent"][s] for s in seeds]
    c = [r["change"][s] for s in seeds]
    q1, _, q3 = st.quantiles(p, n=4) if len(p) > 1 else p * 3
    mp, mc = st.median(p), st.median(c)
    d = f"{(mc - mp) / mp:+.1%}" if mp else "-"
    sign = {"lower": -1, "higher": 1}.get(better.get(m), 0)
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    tally = f"{won:>3}/{len(c):<2} {lost:>2}/{len(c)}" if sign else "     -     -"
    print(f"{w:22} {m:13} {mp:11.5g} {q1:11.5g} {q3:11.5g} {mc:11.5g} {d:>7} "
          f"{mc - mp:10.4g} {q3 - q1:10.4g} {tally}")
faults = [f"{w} seed {seed} {side}: correct 0"
          for (w, seed, side, m), v in flags.items() if m == "correct" and v == 0]
for (w, seed, side, m), v in flags.items():
    parent = flags.get((w, seed, "parent", m), v)
    if m == "failed" and side == "change" and v > parent:
        faults.append(f"{w} seed {seed} change: failed {v:g}, parent {parent:g}")
print("\n".join(faults) or "every run correct; no change run failed more than its parent")
EOF
}
if [[ ${1:-} == --summary ]]; then
    summarise "${2:?$usage}"
    exit
fi

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
        jq -r --arg s "$1" --arg w "$3" --arg n "$4" '(.metrics | to_entries[] | [.key, .value.value]),
            ["failed", .failed], ["correct", (if .correct then 1 else 0 end)] | [$w, $s, $n] + . | @tsv' >>"$out"
}
for w in "${workloads[@]}"; do
    for i in "${!seeds[@]}"; do
        sides=(parent "$parent" change .)
        ((i % 2 == 0)) || sides=(change . parent "$parent")
        run "${sides[0]}" "${sides[1]}" "$w" "${seeds[i]}"
        run "${sides[2]}" "${sides[3]}" "$w" "${seeds[i]}"
    done
done
summarise "$out"
