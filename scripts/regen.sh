#!/usr/bin/env sh
# Rewrites the committed results from this checkout, in sequence:
#
#   BENCH_scenarios.json    the seven adversity scenarios at full
#                           population, each run twice under its seed
#   FIGURES.txt             the stdout of `--bin all`, every figure and
#                           table (scripts/figure_rows.sh holds it)
#   EXPERIMENTS.md          its quotes of FIGURES.txt, one block per
#                           section (scripts/experiments_figures.sh)
#
# Commit first, then regenerate and commit: the scenario rows are stamped
# with `git rev-parse HEAD`. Rates and latencies are not in these files —
# those are benchmark/run.sh's, compared across commits by
# scripts/bench_ab.sh.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -p fractal-bench --bin scenarios --bin all
echo "==> scenarios"
./target/release/scenarios
echo "==> all > FIGURES.txt"
./target/release/all > FIGURES.txt
echo "==> EXPERIMENTS.md quotes FIGURES.txt"
scripts/experiments_figures.sh --write
