#!/usr/bin/env sh
# Rewrites every committed BENCH_*.json from this checkout, in sequence,
# so all of them carry one git_sha (scripts/check.sh fails on a mix):
#
#   BENCH_scenarios.json    the seven adversity scenarios at full
#                           population, each run twice under its seed
#   BENCH_capacity.json     server-capacity knees per protocol
#   BENCH_vm_dispatch.json  checked vs analyzed interpreter path
#
# Commit first, then regenerate and commit the three files: the stamp is
# `git rev-parse HEAD`. Rates and latencies are not in these files — those
# are benchmark/run.sh's, compared across commits by scripts/bench_ab.sh.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -p fractal-bench --bin scenarios --bin capacity --bin vm_dispatch
for bin in scenarios capacity vm_dispatch; do
    echo "==> $bin"
    "./target/release/$bin"
done
