#!/usr/bin/env sh
# A/B of the benchmark between a base commit and this tree.
#
#   scripts/bench_ab.sh <base-ref>
#
# Unpacks <base-ref> under target/bench_ab/base, runs each tree's own
# `benchmark/run.sh --repeat 3` (each builds its own crates with its own
# harness, so a change to either is part of what is compared), then this
# tree's `benchmark/run.sh --compare base head`. Exits with the compare's
# status: nonzero when an end-to-end metric is WORSE than its
# BENCHMARK.json bound, more sessions failed, or an exact-count row
# differs; `unresolved` (spread wider than the bound) does not fail.
# About 8 minutes per tree.
set -eu

cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench_ab.sh <base-ref>" >&2
    exit 2
fi
base_sha=$(git rev-parse --verify "$1^{commit}")

ab=target/bench_ab
rm -rf "$ab"
mkdir -p "$ab/base"
git archive "$base_sha" | tar -x -C "$ab/base"

echo "==> base: $base_sha"
"$ab/base/benchmark/run.sh" --repeat 3 --out "$ab/base.out"
echo "==> head: this tree"
benchmark/run.sh --repeat 3 --out "$ab/head.out"
echo "==> compare (A = base, B = head)"
benchmark/run.sh --compare "$ab/base.out/results.json" "$ab/head.out/results.json"
