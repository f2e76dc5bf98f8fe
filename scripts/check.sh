#!/usr/bin/env sh
# Repo-wide gate: formatting, audits, lints and tier-1, plus (without
# --quick) the release-mode re-runs, the mutation checks, the scenario
# rows and the benchmark's self-tests. Run from the repository root before
# sending a change out for review; CI runs the same steps as named jobs.
#
#   scripts/check.sh          # fmt, scripts/audits.sh (every source audit
#                             # and EXPERIMENTS.md's quotes of the committed
#                             # FIGURES.txt), clippy, rustdoc, tier-1 (cargo test -q:
#                             # the whole workspace), the instance-recycling
#                             # suite again in release, the machine's, the
#                             # receive rule's, the ready queue's and the
#                             # peer hint's mutation checks
#                             # (scripts/mutants.sh), fasmlint, the seven
#                             # scenario rows against the committed
#                             # BENCH_scenarios.json (scripts/scenario_rows.sh),
#                             # the figures against the committed FIGURES.txt
#                             # (scripts/figure_rows.sh), and the benchmark's
#                             # self-tests + quick suite
#   scripts/check.sh --quick  # fmt + audits + clippy + rustdoc + tier-1 + fasmlint
#                             # only (no release re-runs; what you want in
#                             # an edit-test loop or a time-boxed CI lane)
#
# Rates and latencies are not gated here: benchmark/run.sh measures them and
# scripts/bench_ab.sh <base-ref> compares two commits under the bounds of
# BENCHMARK.json. scripts/regen.sh rewrites the committed
# BENCH_scenarios.json, FIGURES.txt and EXPERIMENTS.md's quotes of it.
#
# On failure the script exits nonzero and names the step that failed, so a
# red CI run points at the culprit without scrolling.
set -eu

cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "check.sh: unknown flag '$arg' (supported: --quick)" >&2; exit 2 ;;
    esac
done

CURRENT_STEP="(startup)"
step() {
    CURRENT_STEP="$1"
    echo "==> $1"
}
on_exit() {
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAILED at step: $CURRENT_STEP (exit $status)" >&2
    fi
    exit "$status"
}
trap on_exit EXIT

step "cargo fmt --check"
cargo fmt --all --check

# Every source audit, written once; CI's `fmt` job runs the same script.
step "audits (scripts/audits.sh)"
scripts/audits.sh

# One build configuration (recording is always on), so one lint pass and
# one test pass cover everything the release gates below run.
step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every library crate is `#![warn(missing_docs)]`; a doc link to a private
# or renamed item is a warning rustdoc prints and nothing else would catch.
step "cargo doc --no-deps --workspace (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Tier-1, the one test gate: the root manifest's `default-members` make
# `cargo test -q` run every workspace member's suites (scripts/audits.sh
# keeps it so). DESIGN.md §5 maps each property to the test that holds it.
step "cargo test -q (tier-1: the whole workspace)"
cargo test -q

# The debug run above had the pool's whole-buffer zero scan live on every
# machine any suite dropped (a `debug_assert!`). Release is what deploys:
# there the recycled-≡-fresh suite, the allocation count and tier-1's
# isolation probe are what stand between a forgotten span update and the
# next tenant.
if [ "$QUICK" -eq 0 ]; then
    step "instance recycling in release (recycled ≡ fresh, no allocation on a pool hit, isolation)"
    cargo test -q --release -p fractal-vm-oracle --test differential
    cargo test -q --release -p fractal --test alloc --test security

    # DESIGN.md §5's mutation table, run: each mutation applied to a throwaway
    # worktree must turn the machine's suites, the core's transition matrix,
    # the reactor's order tests, the decoders' allocation test or the
    # renderer's identity tests red.
    step "machine, auditor, receive-rule, ready-queue, peer-hint and cursor mutations are killed (scripts/mutants.sh)"
    scripts/mutants.sh
fi

# The shipped PADs must come out of the lints clean: fasmlint
# (crates/vm-oracle) exits nonzero on any deny-level lint (a dead store;
# unreachable code and a function that never returns are warnings). Runs in
# quick mode too — it is the cheapest gate here and the one a hand-edited
# .fasm is most likely to trip. Annotated disassembly lands in
# target/fasmlint for inspection; each instruction line names the
# register-form slot the fast path runs from it.
step "fasmlint (shipped PAD sources)"
cargo run -q -p fractal-vm-oracle --bin fasmlint -- \
    --quiet --out target/fasmlint crates/pads/fasm/*.fasm

if [ "$QUICK" -eq 1 ]; then
    echo "All checks passed (--quick: skipped the release re-runs, mutation checks, scenario rows + benchmark)."
    trap - EXIT
    exit 0
fi

# Each adversity scenario at full population, its row compared with the
# committed BENCH_scenarios.json; the script names the scenario that broke
# and keeps the 120 s deadlock backstop.
cargo build -q --release -p fractal-bench --bin scenarios
step "scenario rows match the committed BENCH_scenarios.json (scripts/scenario_rows.sh)"
scripts/scenario_rows.sh

# Every figure and table of the paper, compared byte for byte with the
# committed FIGURES.txt.
cargo build -q --release -p fractal-bench --bin all
step "figures match the committed FIGURES.txt (scripts/figure_rows.sh)"
scripts/figure_rows.sh

step "benchmark (self-tests + quick suite against this tree's crates)"
# benchmark/ is a package of its own with path dependencies on crates/*, so
# neither the workspace build nor tier-1 compiles it: a refactor can break
# the API surface it declares (PadRuntime::new, FractalClient::deploy_pad,
# Testbed::client_with_env, ...) without turning anything above red. The
# self-tests build it against this tree and check the harness; the quick
# suite then runs all four workloads at smoke size, untraced and traced,
# and exits nonzero if any session fails its correctness check. Its
# numbers are a smoke test, not a measurement.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick

echo "All checks passed."
trap - EXIT
