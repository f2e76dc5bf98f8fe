#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Run from the repository root before sending a change out for review.
#
#   scripts/check.sh          # fmt, unsafe audit, one-Figure-4-walk audit,
#                             # no-stripe-by-hash, no-hand-chosen-ordering,
#                             # one-fast-path,
#                             # one-memory-type and unused-dependency
#                             # audits, one-git_sha check on the committed
#                             # BENCH_*.json, clippy, tier-1
#                             # + telemetry/vm/pads/core/bench/protocols/
#                             # crypto crate tests, the instance-recycling
#                             # suite again in release, the fast path's
#                             # mutation checks (scripts/mutants.sh),
#                             # fasmlint, the seven scenario soaks at
#                             # --smoke scale, and the benchmark's
#                             # self-tests + quick suite
#   scripts/check.sh --quick  # fmt + all seven audits + git_sha check + clippy
#                             # + tier-1 tests + fasmlint only (no release
#                             # build; what you want in an edit-test loop
#                             # or a time-boxed CI lane)
#
# Rates and latencies are not gated here: benchmark/run.sh measures them and
# scripts/bench_ab.sh <base-ref> compares two commits under the bounds of
# BENCHMARK.json. scripts/regen.sh rewrites the committed BENCH_*.json.
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
# that carry no such attribute. The one exception is a test binary: the
# counting `GlobalAlloc` of crates/vm/tests/alloc.rs, which no library links.
step "unsafe confined to crates/core/src/sys.rs (and the counting allocator of crates/vm/tests/alloc.rs)"
stray=$(grep -rnE 'unsafe[[:space:]]*(\{|fn|extern|impl)' --include='*.rs' crates src shims \
    | grep -vE '^crates/(core/src/sys|vm/tests/alloc)\.rs:' || true)
if [ -n "$stray" ]; then
    echo "unsafe code outside crates/core/src/sys.rs and crates/vm/tests/alloc.rs:" >&2
    echo "$stray" >&2
    exit 1
fi

# DESIGN.md §8: Figure 4 is walked by the sans-IO core and nothing else;
# `session::run_session`, `Reactor` and `ShardedReactor` only carry what the
# core emits. A client-side request built (or taken apart field by field)
# anywhere else in fractal-core is a second walk growing back. Allowed:
# the codec and its tests, the core and its drivers' tests, and the one
# sample frame of the framer's test module. `{ .. }` patterns are not
# constructions and pass.
step "client-side INP requests built only in inp.rs, reactor/ and framer.rs's tests"
stray=$(grep -rnE 'InpMessage::(InitReq|CliMetaRep|PadDownloadReq|AppReq)[[:space:]]*\{' \
        --include='*.rs' crates/core/src \
    | grep -vE '\{[[:space:]]*\.\.[[:space:]]*\}' \
    | grep -vE '^crates/core/src/(inp\.rs|reactor/[^:]*|transport/framer\.rs):' || true)
if [ -n "$stray" ]; then
    echo "client-side INP request constructed outside the protocol core:" >&2
    echo "$stray" >&2
    exit 1
fi

# The proxy cache, `Epoch` and the metrics registry are one lock per
# structure; the stripe-by-hash they replaced began with a fixed-key
# hasher picking a lock. Catch it growing back where it grew before.
step "no stripe-by-hash (DefaultHasher) in crates/core/src or crates/telemetry/src"
if grep -rn 'DefaultHasher' --include='*.rs' crates/core/src crates/telemetry/src; then
    echo "DefaultHasher in fractal-core / fractal-telemetry (see the step's comment)" >&2
    exit 1
fi

# No workspace code depends on a hand-chosen memory ordering: atomics are
# `Relaxed` counters, gauges and flags, and whatever needs happens-before
# takes a lock (the flight recorder's seqlock, the last exception, became
# one `Mutex` in PR 25). A new Acquire/Release/AcqRel/SeqCst or fence
# arrives with its model test (ROADMAP item 4(b)) and an `^path:`
# alternative in `ordering_allow`; the allow-list is empty today.
ordering_allow='^$'
step "no hand-chosen memory ordering (Acquire/Release/AcqRel/SeqCst, fence) in crates src shims tests"
stray=$(grep -rnE 'Ordering::(Acquire|Release|AcqRel|SeqCst)|fence\(' --include='*.rs' \
        crates src shims tests \
    | grep -vE "$ordering_allow" || true)
if [ -n "$stray" ]; then
    echo "memory ordering stronger than Relaxed outside the allow-list (see the step's comment):" >&2
    echo "$stray" >&2
    exit 1
fi

# The fast path is one table of register-form slots per function
# (crates/vm/src/analysis/reg.rs); the stack machine it replaced pushed and
# popped through `push_fast`/`pop_fast` and fused runs with `fuse_at` into
# `GetGetBin…` variants. Any of those names in the VM's sources is a second
# fast path growing back.
step "no stack-form fast path (fuse_at, push_fast, pop_fast, GetGetBin) in crates/vm/src"
if grep -rnE 'fuse_at|push_fast|pop_fast|GetGetBin' --include='*.rs' crates/vm/src; then
    echo "the stack-form fast path is named in crates/vm/src (see the step's comment)" >&2
    exit 1
fi

# A recycled sandbox is a fresh one only while every write to linear memory
# is recorded in the span the scrub zeroes; the script says what it greps.
step "instance memory allocated and written only in crates/vm/src/memory.rs"
scripts/one_memory_type.sh

step "every declared dependency is named by a source file of its crate"
scripts/unused_deps.sh

# scripts/regen.sh rewrites both BENCH_*.json from one checkout. A
# mix of stamps means one file was regenerated alone and the others
# describe some other revision of the code.
step "committed BENCH_*.json carry one git_sha"
if [ "$(grep -ho '"git_sha": "[^"]*"' BENCH_*.json | sort -u | wc -l)" -ne 1 ]; then
    echo "BENCH_*.json do not carry exactly one git_sha (rerun scripts/regen.sh):" >&2
    grep -o '"git_sha": "[^"]*"' BENCH_*.json | sort -u >&2
    exit 1
fi

# One build configuration (recording is always on), so one lint pass and
# one test pass cover everything the smoke gates below run.
step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 is the root package. The full run adds the telemetry, vm, pads,
# core, bench, protocols and crypto crate suites in the same invocation: registry
# reconciliation, admission telemetry, decision identity across threads and
# shards, the held-connection run over live TCP and the thread-count
# determinism suite live there (DESIGN.md has the property → test table),
# and so does everything that holds the interpreter's register-form fast
# path to the checked loop: the VM unit tests, its property tests and the
# three-way differential harness with its fuel sweep. The codecs' round-trip and
# decoder-robustness properties (crates/protocols/tests/prop.rs) and the
# SHA-1/HMAC vectors gate here too.
step "cargo test -q (tier-1: root package; full run adds the telemetry/vm/pads/core/bench/protocols/crypto crates)"
if [ "$QUICK" -eq 1 ]; then
    cargo test -q
else
    cargo test -q -p fractal -p fractal-telemetry -p fractal-vm -p fractal-pads \
        -p fractal-core -p fractal-bench -p fractal-protocols -p fractal-crypto
fi

# The debug run above had the pool's whole-buffer zero scan live on every
# machine any suite dropped (a `debug_assert!`). Release is what deploys:
# there the recycled-≡-fresh suite, the allocation count and tier-1's
# isolation probe are what stand between a forgotten span update and the
# next tenant.
if [ "$QUICK" -eq 0 ]; then
    step "instance recycling in release (recycled ≡ fresh, no allocation on a pool hit, isolation)"
    cargo test -q --release -p fractal-vm --test differential --test alloc
    cargo test -q --release --test security

    # DESIGN.md §4.11's "mutation-checked" list, run: each mutation applied
    # to a throwaway worktree must turn the fast path's suites red.
    step "fast-path mutations are killed (scripts/mutants.sh)"
    scripts/mutants.sh
fi

# The shipped PADs must come out of the analyzer lint-clean: fasmlint
# exits nonzero on any deny-level lint (certain divide-by-zero, certain
# out-of-bounds, dead stores, ...). Runs in quick mode too — it is the
# cheapest gate here and the one a hand-edited .fasm is most likely to
# trip. Annotated disassembly lands in target/fasmlint for inspection; each
# instruction line names the register-form slot the fast path runs from it.
step "fasmlint (shipped PAD sources)"
cargo run -q -p fractal-vm --bin fasmlint -- \
    --quiet --out target/fasmlint crates/pads/fasm/*.fasm

if [ "$QUICK" -eq 1 ]; then
    echo "All checks passed (--quick: skipped crate test suites + scenario smoke gates + benchmark)."
    trap - EXIT
    exit 0
fi

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
