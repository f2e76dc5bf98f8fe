#!/usr/bin/env sh
# A/B of the benchmark between a base commit and this tree.
#
#   scripts/bench_ab.sh <base-ref> [run.sh args...]
#
# Unpacks <base-ref> under target/bench_ab/base and runs each tree's own
# `benchmark/run.sh` with the given suite arguments (each tree builds its
# own crates with its own harness, so a change to either is part of what
# is compared), alternating: base, head, base, head, ..., one
# `--repeat 1` suite per tree per round, so that a slow phase of the box
# lands on both sides. `--repeat N` (default 3) is the number of rounds,
# and at least 2: one run per side has no quartiles. Each side's runs are
# merged into one results.json, and this tree's
# `benchmark/run.sh --compare base head` reads the two. Exits with the
# compare's status: nonzero when an end-to-end metric is WORSE than its
# BENCHMARK.json bound, more sessions failed, or an exact-count row
# differs; `unresolved` (spread wider than the bound) does not fail.
# About 8 minutes per tree with the default; a PR that claims one
# workload can run e.g. `scripts/bench_ab.sh <base> --only tcp_wave
# --repeat 5` in a few.
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
rounds=3
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

round=1
while [ "$round" -le "$rounds" ]; do
    echo "==> round $round/$rounds: base $base_sha"
    "$ab/base/benchmark/run.sh" "$@" --repeat 1 --out "$ab/runs/base.$round"
    echo "==> round $round/$rounds: head, this tree"
    benchmark/run.sh "$@" --repeat 1 --out "$ab/runs/head.$round"
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
benchmark/run.sh --compare "$ab/base.json" "$ab/head.json"
