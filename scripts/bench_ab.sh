#!/usr/bin/env sh
# A/B of the benchmark between a base commit and this tree.
#
#   scripts/bench_ab.sh <base-ref> [run.sh args...]
#
# Unpacks <base-ref> under target/bench_ab/base and runs each tree's own
# `benchmark/run.sh` with the given suite arguments (each tree builds its
# own crates with its own harness, so a change to either is part of what
# is compared), one `--repeat 1` suite per tree per round, so that a slow
# phase of the box lands on both sides. Odd rounds run the base first and
# even rounds the head, so whatever running second does to a suite lands
# on both sides too; each round says which went first. `--repeat N`
# (default 6) is the number of rounds,
# and at least 2: one run per side has no quartiles, and on two cores
# three rounds leave quartiles too wide to resolve a 15 % move. Each
# side's runs are merged into one results.json, and this tree's
# `benchmark/run.sh --compare base head` reads the two. After it, for each
# end-to-end (metric, workload), the script prints in how many rounds the
# head's run beat the base's run of the same round, and whether that is
# at least nine rounds in ten, the rule a claimed gain must meet. Exits with the
# compare's status: nonzero when an end-to-end metric is WORSE than its
# BENCHMARK.json bound, more sessions failed, or an exact-count row
# differs; `unresolved` (spread wider than the bound) does not fail.
# About 3 minutes per tree per round, so 35 minutes in all with the
# default on 2 vCPU; a change that claims one workload can run e.g.
# `scripts/bench_ab.sh <base> --only tcp_wave` in about a quarter of that.
set -eu

cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_ab.sh <base-ref> [run.sh args...] [--repeat N, N >= 2]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_sha=$(git rev-parse --verify "$1^{commit}")
shift

# Take `--repeat N` out of the arguments; the rest go to every run.
rounds=6
left=$#
while [ "$left" -gt 0 ]; do
    arg=$1
    shift
    left=$((left - 1))
    case $arg in
    --repeat)
        [ "$left" -gt 0 ] || usage
        rounds=$1
        shift
        left=$((left - 1))
        ;;
    --repeat=*) rounds=${arg#--repeat=} ;;
    *) set -- "$@" "$arg" ;;
    esac
done
case $rounds in
'' | *[!0-9]*) usage ;;
esac
if [ "$rounds" -lt 2 ]; then
    echo "bench_ab.sh: --repeat $rounds: a side needs two runs or more to have quartiles" >&2
    exit 2
fi

ab=target/bench_ab
rm -rf "$ab"
mkdir -p "$ab/base" "$ab/runs"
git archive "$base_sha" | tar -x -C "$ab/base"

# One side's suite for this round; the second argument says whether it
# ran first or second.
run_side() {
    side=$1 order=$2
    shift 2
    if [ "$side" = base ]; then
        echo "==> round $round/$rounds: base $base_sha, $order"
        "$ab/base/benchmark/run.sh" "$@" --repeat 1 --out "$ab/runs/base.$round"
    else
        echo "==> round $round/$rounds: head, this tree, $order"
        benchmark/run.sh "$@" --repeat 1 --out "$ab/runs/head.$round"
    fi
}

round=1
while [ "$round" -le "$rounds" ]; do
    if [ $((round % 2)) -eq 1 ]; then
        run_side base first "$@"
        run_side head second "$@"
    else
        run_side head first "$@"
        run_side base second "$@"
    fi
    round=$((round + 1))
done

# One results.json per side: the first round's, with every later round's
# runs appended to each workload's list.
for side in base head; do
    python3 - "$ab/$side.json" "$ab"/runs/"$side".*/results.json <<'EOF'
import json, sys
out, first, *rest = sys.argv[1:]
with open(first) as f:
    merged = json.load(f)
for path in rest:
    with open(path) as f:
        for workload, runs in json.load(f)["runs"].items():
            merged["runs"][workload].extend(runs)
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
EOF
done

echo "==> compare (A = base, B = head)"
status=0
benchmark/run.sh --compare "$ab/base.json" "$ab/head.json" || status=$?

# Pair by pair: a round's two runs shared the box's phase, so a head that
# wins most rounds moved the metric even where the quartiles overlap.
echo "==> rounds the head won, of $rounds (each round's head run against its base run;"
echo "    odd rounds ran the base first, even rounds the head)"
python3 - "$rounds" "$ab/runs" <<'EOF'
import json, os, sys
rounds, runs = int(sys.argv[1]), sys.argv[2]
with open("BENCHMARK.json") as f:
    spec = json.load(f)
def load(side, r):
    with open(os.path.join(runs, f"{side}.{r}", "results.json")) as f:
        return json.load(f)["runs"]
pairs = [(load("base", r), load("head", r)) for r in range(1, rounds + 1)]
claimable = []
for w in (w["name"] for w in spec["workloads"]):
    if w not in pairs[0][0] or w not in pairs[0][1]:
        continue
    print(f"== {w}")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        wins = 0
        for base, head in pairs:
            a = base[w][0]["end_to_end"]["metrics"][name]["value"]
            b = head[w][0]["end_to_end"]["metrics"][name]["value"]
            wins += (b < a) if lower else (b > a)
        print(f"  {name:<20} head won {wins}/{rounds}")
        if 10 * wins >= 9 * rounds:
            claimable.append(f"{name} on {w}")
# The claim rule: a gain is claimed only where the head won at least nine
# rounds in ten.
print("==> head won at least 9/10 of the rounds (the claim rule) on: "
      + (", ".join(claimable) if claimable else "no (metric, workload)"))
EOF
exit "$status"
