#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result as JSON
#       (this is the `command` of BENCHMARK.json)
#   benchmark/run.sh [--quick] [--seed N] [--only W] [--out DIR]
#       every workload in its own process, untraced then traced, every metric
#       printed with unit and bound, results under benchmark/out/
#   benchmark/run.sh --compare A.json B.json
#       two result sets side by side under the bounds of BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Noise control. glibc raises its mmap threshold the first time a 4 MB VM
# memory is freed; from then on the same program runs in one of several modes
# (fresh zero pages, memset of recycled heap, trim/fault storms across thread
# arenas) that differ by up to 40x on identical input. Stating glibc's own
# default threshold switches the adjustment off, so every VM memory is a fresh
# mapping in every run. See README.md, "Noise control".
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-131072}"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/fractal-benchmark"

case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
*) exec python3 "$here/suite.py" --bin "$bin" "$@" ;;
esac
