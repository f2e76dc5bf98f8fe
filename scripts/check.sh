#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Run from the repository root before sending a change out for review.
#
#   scripts/check.sh          # everything, including the release-build
#                             # smoke gates and the benchmark's quick suite
#   scripts/check.sh --quick  # fmt + unsafe audit + clippy + tier-1 tests
#                             # only (skips the crate test suites and the
#                             # release throughput build; what you want
#                             # in an edit-test loop or a time-boxed CI
#                             # lane)
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

# guarded <hint> <cmd...>: run an (already built) smoke binary under a 120 s
# backstop, so a true deadlock is a fast red run with a diagnostic instead
# of a CI job hanging for hours. <hint> says what a timeout most likely
# means for this gate. Build before calling — cold compiles legitimately
# take minutes and must not be metered. `timeout` is coreutils; a host
# without it runs unguarded.
guarded() {
    hint="$1"
    shift
    if ! command -v timeout >/dev/null 2>&1; then
        "$@"
        return
    fi
    # Capture the real exit status: inside `if ! cmd`, `$?` is the status of
    # the negated condition (always 0 in the branch), not of `cmd` itself.
    status=0
    timeout 120 "$@" || status=$?
    if [ "$status" -eq 124 ]; then
        echo "$CURRENT_STEP: no completion within 120 s — $hint" >&2
    fi
    return "$status"
}

step "cargo fmt --check"
cargo fmt --all --check

# DESIGN.md §7 says every `unsafe` block, fn, impl and extern lives in the
# poll(2)/rlimit bindings; this makes that a checked claim. `deny(unsafe_code)`
# already covers fractal-core; the grep also covers the crates and shims
# that carry no such attribute.
step "unsafe confined to crates/core/src/sys.rs"
stray=$(grep -rnE 'unsafe[[:space:]]*(\{|fn|extern|impl)' --include='*.rs' crates src shims \
    | grep -v '^crates/core/src/sys\.rs:' || true)
if [ -n "$stray" ]; then
    echo "unsafe code outside crates/core/src/sys.rs:" >&2
    echo "$stray" >&2
    exit 1
fi

# One build configuration (recording is always on), so one lint pass and
# one test pass cover everything the smoke gates below run.
step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 is the root package. The full run adds the telemetry, core and
# bench crate suites in the same invocation: registry reconciliation,
# admission telemetry and the thread-count determinism suite live there.
step "cargo test -q (tier-1: root package; full run adds the telemetry/core/bench crates)"
if [ "$QUICK" -eq 1 ]; then
    cargo test -q
else
    cargo test -q -p fractal -p fractal-telemetry -p fractal-core -p fractal-bench
fi

# The shipped PADs must come out of the analyzer lint-clean: fasmlint
# exits nonzero on any deny-level lint (certain divide-by-zero, certain
# out-of-bounds, dead stores, ...). Runs in quick mode too — it is the
# cheapest gate here and the one a hand-edited .fasm is most likely to
# trip. Annotated disassembly lands in target/fasmlint for inspection.
step "fasmlint (shipped PAD sources)"
cargo run -q -p fractal-vm --bin fasmlint -- \
    --quiet --out target/fasmlint crates/pads/fasm/*.fasm

if [ "$QUICK" -eq 1 ]; then
    echo "All checks passed (--quick: skipped crate test suites + throughput/scenario/introspection smoke gates + benchmark)."
    trap - EXIT
    exit 0
fi

step "throughput smoke (concurrent engine + reactor + transport + republish gate)"
# Runs the 1- and 2-thread negotiation/session/reactor passes with the
# built-in decision-identity assertion: a lost update or decision
# divergence aborts the binary, and a reactor stall is reported as a typed
# InpError::Stalled naming the stuck sessions. The reactor pass drives
# 64 in-flight sessions over framed LoopbackTransport byte streams; the
# transport pass repeats them behind simulated LAN/WLAN/Bluetooth links
# and asserts the per-link wire times identical across thread counts.
# The run ends with the live-republish pass: a dedicated writer thread
# trickles `&self` publishes into the shared server while the reactor
# pass re-runs, and the binary aborts on any decision divergence, a
# latest_version going backwards, an unreclaimed epoch generation, or a
# p99 blow-up against the quiet pass. Like every bench smoke below, it
# then builds its BENCH_*.json document, emits it, parses it back and
# asserts equality (only the write is skipped), so a malformed document
# fails here and not in a 15-minute full sweep.
cargo build -q --release -p fractal-bench --bin throughput
guarded "suspect a reactor stall or a lock cycle in the sharded proxy" \
    ./target/release/throughput --smoke

step "c100k smoke (sharded reactors over live loopback TCP)"
# A few hundred concurrent kernel-socket sessions dealt across 2 reactor
# shards: real EAGAIN churn, short writes at the socket buffer, FIN
# ordering. The binary asserts all sessions complete with peak in-flight
# equal to the population, per-shard telemetry reconciling with the
# reactor reports, and decision identity against the serial in-memory
# oracle. A quiet shard aborts with a typed InpError::Stalled naming the
# stuck sessions; the timeout is only the backstop for a bug in that very
# stall detector.
cargo build -q --release -p fractal-bench --bin c100k
guarded "the shard stall detector itself failed to fire" \
    ./target/release/c100k --smoke

step "introspection smoke (flight recorder + live /metrics plane)"
# The same c100k smoke with the HTTP introspection sidecar attached
# (`--introspect 0` binds an ephemeral loopback port). The binary finishes
# by scraping its own /metrics and /healthz over the kernel socket and
# asserts the wire bytes equal the in-process merged snapshot exactly —
# a drift between the live plane and the registry exits nonzero here.
guarded "the introspection plane or the stall detector wedged" \
    ./target/release/c100k --smoke --introspect 0

step "benchdiff self-check (committed baselines diff clean against themselves)"
# Identity must be a fixed point: diffing each committed BENCH_*.json against
# itself has to align every series and report zero regressions. Catches
# row-identity or flattening bugs in the diff tool before CI relies on it
# to gate real regressions.
cargo build -q --release -p fractal-bench --bin benchdiff
for f in BENCH_*.json; do
    ./target/release/benchdiff "$f" "$f" >/dev/null
done

# Each adversity scenario at --smoke scale, one named step per scenario
# so a red run says WHICH one broke. Every scenario runs twice in-process
# under its seed and asserts identical decisions, fault logs, and merged
# telemetry; injected faults must end in typed errors or recovery. The
# timeout is the backstop for a failure of the stall detector itself —
# an unexpected stall inside the budget writes STALL_<scenario>.txt and
# exits nonzero on its own.
cargo build -q --release -p fractal-bench --bin scenarios
for scenario in burst_arrivals lossy_link partition_recovery \
                handoff_renegotiation cache_stampede pad_rollout_rollback \
                live_republish; do
    step "scenarios smoke ($scenario)"
    guarded "the stall detector never fired" \
        ./target/release/scenarios --smoke --scenario "$scenario"
done

step "BENCH_throughput.json carries per-link transport rows"
# The committed full-sweep results must include the transport pass: one
# row per simulated link profile with its mean negotiation time. A missing
# row means the sweep predates the transport layer (regenerate with
# `cargo run --release -p fractal-bench --bin throughput`).
for link in LAN WLAN Bluetooth; do
    if ! grep -q "\"link\": \"$link\"" BENCH_throughput.json; then
        echo "BENCH_throughput.json has no transport row for $link" >&2
        exit 1
    fi
done
grep -q '"negotiation_ms"' BENCH_throughput.json

step "BENCH_throughput.json carries the live-republish section"
# The committed sweep must include the republish pass — the rates CI's
# `benchdiff --only republish` gate diffs against. A missing section
# means the baseline predates the epoch-versioned write path
# (regenerate with the full sweep, then re-run `--bin c100k` to
# re-splice its rows).
for key in '"republish"' '"publishes_per_sec"' '"divergent_decisions": 0'; do
    if ! grep -q "$key" BENCH_throughput.json; then
        echo "BENCH_throughput.json is missing republish member $key" >&2
        exit 1
    fi
done

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

# The full workspace suite (cargo test -q --workspace) additionally runs the
# figure-regeneration tier; see CHANGES.md for the known calibration baseline
# there before treating a red run as a regression.

echo "All checks passed."
trap - EXIT
