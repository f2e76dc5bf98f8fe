#!/usr/bin/env sh
# The figure gate: runs `--bin all` (every figure and table of the paper,
# a function of the tree: it reads no wall clock and spawns no thread) and
# fails unless its stdout equals the committed FIGURES.txt byte for byte.
#
#   scripts/figure_rows.sh
#
# Build first (cargo build --release -p fractal-bench --bin all): cold
# compiles legitimately take minutes and are not metered; the run itself
# takes 5 to 8 s in release on a 2-vCPU box. A figure that moves on
# purpose (a cost preset, a PAD source, the workload generator) is
# regenerated with scripts/regen.sh and committed with the change that
# moved it.
set -eu

cd "$(dirname "$0")/.."
bin="$(pwd)/target/release/all"
if [ ! -x "$bin" ]; then
    echo "figure_rows.sh: $bin missing; build it first" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$work" && "$bin") > "$work/FIGURES.txt"
if ! diff -u FIGURES.txt "$work/FIGURES.txt"; then
    echo "the figures differ from the committed FIGURES.txt" >&2
    exit 1
fi
echo "figures match the committed FIGURES.txt ($(wc -l < FIGURES.txt) lines)"
