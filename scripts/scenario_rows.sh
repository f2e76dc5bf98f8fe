#!/usr/bin/env sh
# The scenario-row gate: runs the adversity scenarios at full population
# and fails unless every row of the committed BENCH_scenarios.json comes
# out unchanged, line for line, apart from the two stamps that name the
# revision and the host (`git_sha`, `host_cpus`).
#
#   scripts/scenario_rows.sh                 # all seven, one step each
#   scripts/scenario_rows.sh lossy_link ...  # the named ones only
#
# Build first (cargo build --release -p fractal-bench --bin scenarios):
# cold compiles legitimately take minutes and are not metered. Each
# scenario runs in a temporary directory holding a copy of the committed
# file (`git show HEAD:BENCH_scenarios.json`), so the working tree's copy
# is neither read nor written. Each runs twice in-process under its seed
# and asserts identical decisions, fault logs and merged telemetry;
# injected faults must end in typed errors or recovery. A 120 s timeout is
# the backstop for a failure of the stall detector itself — an unexpected
# stall inside the budget writes STALL_<scenario>.txt, which this script
# copies to the repository root, and exits nonzero on its own.
#
# A row that moves on purpose (a change to a fault plan, a PAD, the
# reactor's accounting) is regenerated with scripts/regen.sh and committed
# with the change that moved it.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)
bin="$root/target/release/scenarios"
if [ ! -x "$bin" ]; then
    echo "scenario_rows.sh: $bin missing; build it first" >&2
    exit 2
fi
if [ "$#" -eq 0 ]; then
    set -- burst_arrivals lossy_link partition_recovery handoff_renegotiation \
        cache_stampede pad_rollout_rollback live_republish
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git show HEAD:BENCH_scenarios.json > "$work/committed.json"

# The document minus its stamps: what two runs on any host must agree on.
rows() {
    grep -v -e '"git_sha":' -e '"host_cpus":' "$1"
}

for scenario in "$@"; do
    echo "==> scenario rows ($scenario)"
    cp "$work/committed.json" "$work/BENCH_scenarios.json"
    status=0
    if command -v timeout >/dev/null 2>&1; then
        (cd "$work" && timeout 120 "$bin" --scenario "$scenario") || status=$?
    else
        (cd "$work" && "$bin" --scenario "$scenario") || status=$?
    fi
    if [ "$status" -ne 0 ]; then
        if [ "$status" -eq 124 ]; then
            echo "$scenario: no completion within 120 s — the stall detector never fired" >&2
        fi
        if [ -f "$work/STALL_$scenario.txt" ]; then
            cp "$work/STALL_$scenario.txt" "$root/"
        fi
        echo "$scenario: the scenario driver failed (exit $status)" >&2
        exit "$status"
    fi
    rows "$work/committed.json" > "$work/want"
    rows "$work/BENCH_scenarios.json" > "$work/got"
    if ! diff -u "$work/want" "$work/got"; then
        echo "$scenario: row differs from the committed BENCH_scenarios.json" >&2
        exit 1
    fi
done
echo "scenario rows match the committed BENCH_scenarios.json ($# scenario(s))"
