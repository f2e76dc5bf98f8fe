#!/usr/bin/env sh
# Every source audit of the repository, each written once: the greps and
# scripts that keep DESIGN.md's "one copy of each mechanism" claims
# checked. scripts/check.sh (quick mode too) and CI's `fmt` job run this
# script; it takes no flags and builds nothing.
#
# Each audit prints its name before it runs; the first one that finds
# something prints what it found and the script exits nonzero.
set -eu

cd "$(dirname "$0")/.."

audit() {
    echo "  -> $1"
}

# Tier-1 (`cargo build --release && cargo test -q` at the root) is the one
# test gate, and it covers the whole workspace only while the root
# manifest's `default-members` names every member.
audit "tier-1 is the workspace (workspace_default_members = workspace_members)"
meta=$(cargo metadata --format-version 1 --no-deps --offline)
ids() {
    printf '%s' "$meta" | grep -o "\"$1\":\[[^]]*\]" | grep -o '"[^"]*#[^"]*"' | sort
}
default=$(ids workspace_default_members)
if [ -z "$default" ] || [ "$default" != "$(ids workspace_members)" ]; then
    echo "\`cargo test -q\` skips workspace members the root Cargo.toml's default-members omit:" >&2
    for id in $(ids workspace_members); do
        case "$default" in *"$id"*) ;; *) echo "  $id" >&2 ;; esac
    done
    exit 1
fi

# DESIGN.md §8 says every `unsafe` block, fn, impl and extern lives in the
# poll(2)/rlimit bindings; this makes that a checked claim. `deny(unsafe_code)`
# already covers fractal-core; the grep also covers the crates and shims
# that carry no such attribute. The one exception is a test binary: the
# counting `GlobalAlloc` of tests/alloc.rs, which no library links.
audit "unsafe confined to crates/core/src/sys.rs (and the counting allocator of tests/alloc.rs)"
stray=$(grep -rnE 'unsafe[[:space:]]*(\{|fn|extern|impl)' --include='*.rs' crates src shims tests \
    | grep -vE '^(crates/core/src/sys|tests/alloc)\.rs:' || true)
if [ -n "$stray" ]; then
    echo "unsafe code outside crates/core/src/sys.rs and tests/alloc.rs:" >&2
    echo "$stray" >&2
    exit 1
fi

# DESIGN.md §4.7: every decoder of bytes from outside the trust boundary
# reads through `fractal_crypto::wire::Cursor`, and the lints below, denied
# on the decoder itself (not its file, so encoders and tests may index),
# make an index, a slice, an unwrap, an expect or a panic there a build
# error under CI's clippy. Each line names a file and the first line of a
# decoder; the line above it must be the attribute.
audit "decoders of untrusted bytes deny indexing, slicing, unwrap, expect and panic"
deny='#[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]'
stray=$(while IFS='|' read -r file item; do
    grep -B1 -F -- "$item" "$file" | grep -qF -- "$deny" || echo "  $file: $item"
done <<'EOF'
crates/crypto/src/sign.rs|pub fn from_wire(bytes: &[u8])
crates/vm/src/module.rs|pub fn from_bytes(bytes: &[u8])
crates/vm/src/module.rs|pub fn from_wire(wire: &[u8])
crates/vm/src/bytecode.rs|pub fn decode(code: &[u8], pc: usize)
crates/vm/src/verify.rs|fn decode(module: &Module, idx: usize, func: &Function)
crates/core/src/meta.rs|pub(crate) fn decode(r: &mut Cursor) -> Result<DevMeta, WireError>
crates/core/src/meta.rs|pub(crate) fn decode(r: &mut Cursor) -> Result<NtwkMeta, WireError>
crates/core/src/meta.rs|pub(crate) fn decode(r: &mut Cursor) -> Result<PadMeta, WireError>
crates/core/src/meta.rs|pub fn from_bytes(bytes: &[u8]) -> Result<AppMeta, WireError>
crates/core/src/reactor/session.rs|pub fn decode_app_payload(
crates/core/src/inp.rs|pub fn header_info(
crates/core/src/inp.rs|pub fn from_bytes(bytes: &[u8]) -> Result<Frame, WireError>
crates/core/src/transport/framer.rs|impl Framer {
crates/core/src/introspect.rs|fn pump(&mut self, source: &IntrospectSource)
crates/protocols/src/lz77.rs|pub fn decompress(
crates/protocols/src/huffman.rs|pub fn decompress(
crates/protocols/src/recipe.rs|pub fn apply(
crates/protocols/src/recipe.rs|pub fn parse_shared(
crates/protocols/src/bitmap.rs|fn decode(&self, old: &[u8], payload: &[u8])
crates/bench/src/json.rs|pub fn parse(src: &str)
crates/bench/src/json.rs|impl<'s> Parser<'s> {
EOF
)
if [ -n "$stray" ]; then
    echo "a decoder lost its deny(clippy::indexing_slicing, …) attribute (see the audit's comment):" >&2
    echo "$stray" >&2
    exit 1
fi

# DESIGN.md §4.7 again: every encoder writes through
# `fractal_crypto::wire::Sink`, and a wire length is its encoder run into
# the counting sink (`wire::counted`), or another `wire_len` that is. A
# hand count beside an encoder is a second statement of the format that
# can drift from the bytes it prices, and a `struct Writer` is a second
# writer growing back. Each `fn wire_len(` or `fn encoded_len(` body runs
# from its line to the `}` at its indentation.
audit "every wire_len and encoded_len counts its encoding; no struct Writer beside wire::Sink"
stray=$(grep -rnE --include='*.rs' 'fn (wire_len|encoded_len)\(' crates |
    while IFS=: read -r file line _; do
        awk -v start="$line" -v where="$file:$line" '
            NR == start { match($0, /^ */); end = substr($0, 1, RLENGTH) "}" }
            NR >= start { body = body $0 "\n" }
            NR == start && /}[[:space:]]*$/ { exit }
            NR > start && $0 == end { exit }
            END { if (body !~ /counted\(|\.wire_len\(\)/) print "  " where }' "$file"
    done
    grep -rnE --include='*.rs' 'struct Writer([^[:alnum:]_]|$)' crates | sed 's/^/  /')
if [ -n "$stray" ]; then
    echo "a hand-counted wire length, or a writer beside wire::Sink (see the audit's comment):" >&2
    echo "$stray" >&2
    exit 1
fi

# DESIGN.md §8 again: the FFI those `unsafe` blocks call is poll(2) and the
# rlimit pair, and nothing else; the script says what it parses.
audit "extern \"C\" in crates/core/src/sys.rs declares only poll, getrlimit, setrlimit"
scripts/sys_ffi.sh

# DESIGN.md §4.2: Figure 4 is walked by the sans-IO core and nothing else;
# `session::run_session`, `Reactor` and `ShardedReactor` only carry what the
# core emits. A client-side request built (or taken apart field by field)
# anywhere else in fractal-core is a second walk growing back. Allowed:
# the codec and its tests, the core and its drivers' tests, and the one
# sample frame of the framer's test module. `{ .. }` patterns are not
# constructions and pass.
audit "client-side INP requests built only in inp.rs, reactor/ and framer.rs's tests"
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
audit "no stripe-by-hash (DefaultHasher) in crates/core/src or crates/telemetry/src"
if grep -rn 'DefaultHasher' --include='*.rs' crates/core/src crates/telemetry/src; then
    echo "DefaultHasher in fractal-core / fractal-telemetry (see the audit's comment)" >&2
    exit 1
fi

# No workspace code depends on a hand-chosen memory ordering: atomics are
# `Relaxed` counters, gauges and flags, and whatever needs happens-before
# takes a lock (the flight recorder's seqlock, the last exception, became
# one `Mutex`). A new Acquire/Release/AcqRel/SeqCst or fence arrives with
# its model test and an `^path:` alternative in `ordering_allow`; the
# allow-list is empty today.
ordering_allow='^$'
audit "no hand-chosen memory ordering (Acquire/Release/AcqRel/SeqCst, fence) in crates src shims tests"
stray=$(grep -rnE 'Ordering::(Acquire|Release|AcqRel|SeqCst)|fence\(' --include='*.rs' \
        crates src shims tests \
    | grep -vE "$ordering_allow" || true)
if [ -n "$stray" ]; then
    echo "memory ordering stronger than Relaxed outside the allow-list (see the audit's comment):" >&2
    echo "$stray" >&2
    exit 1
fi

# One in-memory pipe: a simulated link is an option of LoopbackTransport
# (`LoopbackTransport::over`), not a second pair type beside it. Every
# Transport in fractal-core is that pair, a socket, or the fault harness
# wrapping either; a new `impl Transport for` in crates/core/src is a copy
# of the pipe growing back.
audit "one in-memory transport (impl Transport for only LoopbackTransport, TcpTransport, FaultTransport in crates/core/src)"
stray=$(grep -rnE 'impl(<[^>]*>)?[[:space:]]+Transport[[:space:]]+for[[:space:]]' --include='*.rs' \
        crates/core/src \
    | grep -vE 'Transport[[:space:]]+for[[:space:]]+(LoopbackTransport|TcpTransport|FaultTransport)([^[:alnum:]_]|$)' \
    || true)
if [ -n "$stray" ]; then
    echo "a Transport other than LoopbackTransport, TcpTransport or FaultTransport in crates/core/src:" >&2
    echo "$stray" >&2
    exit 1
fi

# The fast path is one table of register-form slots per function
# (crates/vm/src/analysis/reg.rs); the stack machine it replaced pushed and
# popped through `push_fast`/`pop_fast` and fused runs with `fuse_at` into
# `GetGetBin…` variants. Any of those names in the VM's sources is a second
# fast path growing back.
audit "no stack-form fast path (fuse_at, push_fast, pop_fast, GetGetBin) in crates/vm/src"
if grep -rnE 'fuse_at|push_fast|pop_fast|GetGetBin' --include='*.rs' crates/vm/src; then
    echo "the stack-form fast path is named in crates/vm/src (see the audit's comment)" >&2
    exit 1
fi

# Admission computes only what it enforces. The value-range pass was
# deleted, since only the oracle's own reports read its facts, and the lints
# only report on admitted code, so they live in the dev-only
# crates/vm-oracle beside fasmlint. Any of these names in the VM's sources
# is admission growing a pass that no check consumes.
audit "no range pass or lints (flow_ranges, InsnFacts, AbsVal, enum Lint) in crates/vm/src"
if grep -rnE 'flow_ranges|InsnFacts|AbsVal|enum Lint' --include='*.rs' crates/vm/src; then
    echo "the range pass or the lints are named in crates/vm/src (see the audit's comment)" >&2
    exit 1
fi

# A recycled sandbox is a fresh one only while every write to linear memory
# is recorded in the span the scrub zeroes; the script says what it greps.
audit "instance memory allocated and written only in crates/vm/src/memory.rs"
scripts/one_memory_type.sh

audit "every declared dependency is named by a source file of its crate"
scripts/unused_deps.sh

# The reference interpreter is compared against, never deployed: only test
# targets may link it.
audit "fractal-vm-oracle is a dev-dependency only"
scripts/oracle_dev_only.sh

# Every figure is a pure function of its seeds and runs on one thread; the
# work-claiming pool that once fanned them out had no caller but its own
# serial-vs-parallel tests. A spawned thread in the harness is that second
# code path growing back. (`available_parallelism` in bench_env.rs only
# reads the host's core count for the provenance stamp.)
audit "no thread spawned in crates/bench/src (thread::scope, thread::spawn, thread::Builder)"
if grep -rnE 'thread::(scope|spawn|Builder)' --include='*.rs' crates/bench/src; then
    echo "crates/bench/src spawns a thread (see the audit's comment)" >&2
    exit 1
fi

# Every figure is a count or a simulated-time reading, so two runs of
# `--bin all` print the same bytes; rates and latencies are benchmark/'s.
# bin/calibrate.rs, which times the native codecs, is the one clock left.
audit "no wall clock in crates/bench/src outside bin/calibrate.rs (Instant, SystemTime)"
if grep -rnwE 'Instant|SystemTime' --include='*.rs' --exclude=calibrate.rs crates/bench/src; then
    echo "crates/bench/src reads a wall clock (see the audit's comment)" >&2
    exit 1
fi

# Rendering is most of what a synthetic page costs, so a figure renders its
# pages once, in `workbench::workload_pages`, and hands them to every cell
# it measures; a `PageSet` stepped anywhere else in the harness is the
# per-cell rendering (8 870 originals for one `--bin all`) growing back.
audit "the figure harness builds its pages only in workbench::workload_pages (PageSet::new, .original(, .version()"
pages_at=crates/bench/src/workbench.rs
span=$(awk '/^pub fn workload_pages\(/ { start = NR } start && NR > start && /^}/ { print start, NR; exit }' \
    "$pages_at")
if [ -z "$span" ]; then
    echo "no \`pub fn workload_pages\` in $pages_at (see the audit's comment)" >&2
    exit 1
fi
stray=$(grep -rnE 'PageSet::new|\.original\(|\.versions?\(' --include='*.rs' crates/bench/src |
    awk -F: -v at="$pages_at" -v span="$span" '
        BEGIN { split(span, s, " ") }
        !($1 == at && $2 > s[1] && $2 < s[2])')
if [ -n "$stray" ]; then
    echo "pages synthesized in crates/bench/src outside workbench::workload_pages:" >&2
    echo "$stray" >&2
    exit 1
fi

# A forced protocol's session sends the same messages for every client
# class, so the harness traces each page set once, in
# `workbench::trace_pages`, and prices the traces per class; a session run
# anywhere else in the harness is a figure measuring its own cells again
# (4 425 sessions for one `--bin all`, where 1 050 are traced).
audit "the figure harness traces its cells in one place, workbench::trace_pages (run_session(, trace()"
traces_at=crates/bench/src/workbench.rs
span=$(awk '/^pub fn trace_pages\(/ { start = NR } start && NR > start && /^}/ { print start, NR; exit }' \
    "$traces_at")
if [ -z "$span" ]; then
    echo "no \`pub fn trace_pages\` in $traces_at (see the audit's comment)" >&2
    exit 1
fi
stray=$(grep -rnE '(^|[^_[:alnum:]])(run_session|trace)\(' --include='*.rs' crates/bench/src |
    awk -F: -v at="$traces_at" -v span="$span" '
        BEGIN { split(span, s, " ") }
        !($1 == at && $2 > s[1] && $2 < s[2])')
if [ -n "$stray" ]; then
    echo "sessions run in crates/bench/src outside workbench::trace_pages:" >&2
    echo "$stray" >&2
    exit 1
fi

# DESIGN.md §5 names one holder per property; a renamed or deleted
# holder, or one tier-1 does not build, turns the row into a claim nothing
# checks, and a name or section the docs cite that the tree lacks is the
# same drift. The script says what it parses.
audit "DESIGN.md's holders, and the names and sections the docs cite, exist"
scripts/design_holders.sh

# EXPERIMENTS.md quotes the figures; it does not type them. Each section
# of FIGURES.txt (which scripts/figure_rows.sh holds to the code) sits in
# EXPERIMENTS.md between markers, and a block that differs from the
# committed file is a hand-typed number drifting from the code. The script
# says what it parses.
audit "EXPERIMENTS.md's figure blocks are FIGURES.txt's sections"
scripts/experiments_figures.sh
