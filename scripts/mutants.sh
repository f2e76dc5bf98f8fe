#!/usr/bin/env sh
# The mutation checks DESIGN.md §5 records for the machine and its
# reference, two for the INP receive rule (`inp::classify`), two for the
# reactor's ready-queue rule, one for the wire cursor's count check, one
# for the instruction encoding, one for the counting sink, one for the
# bytecode decoder's branch rule and two for session pricing, run rather
# than stated, one for the per-call sandbox lease, one for the dead-store
# lint, one for the server's shared republish, one for the checksum
# kernel and one for the page renderer's row buffer. Each mutation below is applied to a throwaway `git worktree` of
# this tree under $TMPDIR, and the INP codec's, the session driver's, the
# server's and the checksum's unit tests, the machine's unit tests (the
# pinned encoding among them),
# the suites that hold it to the reference interpreter, the lint tests, the
# core's transition matrix, the reactor's order tests, the allocation
# tests, the security suite, the render identity tests and the
# priced-trace test
#
#   cargo test -q --release -p fractal-core -p fractal-crypto --lib -- \
#       inp::tests session::tests server::tests checksum::tests
#   cargo test -q --release -p fractal-vm --lib \
#       -p fractal-vm-oracle --test differential --test audit --test lints
#   cargo test -q --release -p fractal-core --test inp_session --test reactor_order
#   cargo test -q --release -p fractal --test alloc --test security --test render_identity
#   cargo test -q --release -p fractal-bench --test priced_traces
#
# must FAIL there. The unmutated tree must pass them first, a mutation must
# still compile, and a mutation whose text is no longer in the source stops
# the script, so the list cannot rot into a list of no-ops.
#
#   scripts/mutants.sh
#
# The worktree holds HEAD plus the tracked edits of this checkout (`git stash
# create` snapshots them without touching any ref); `git add` a new file for
# it to be included. It and its build directory are removed on exit.
# 30 to 45 minutes on 2 vCPUs for the 24 mutations: one release build of
# the test targets, then one rebuild per mutation.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d "${TMPDIR:-/tmp}/fractal-mutants.XXXXXX")
tree="$tmp/tree"
cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

snapshot=$(git stash create)
git worktree add --quiet --detach "$tree" "${snapshot:-HEAD}"
export CARGO_TARGET_DIR="$tmp/target"

suite() {
    (cd "$tree" && cargo test -q --release -p fractal-core -p fractal-crypto --lib "$@" -- \
        inp::tests session::tests server::tests checksum::tests &&
        cargo test -q --release -p fractal-vm --lib \
        -p fractal-vm-oracle --test differential --test audit --test lints "$@" &&
        cargo test -q --release -p fractal-core --test inp_session --test reactor_order "$@" &&
        cargo test -q --release -p fractal --test alloc --test security --test render_identity "$@" &&
        cargo test -q --release -p fractal-bench --test priced_traces "$@")
}

echo "==> unmutated tree passes"
suite >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; echo "mutants.sh: the unmutated tree fails" >&2; exit 1; }

# name | file | text | replacement. The names are those of DESIGN.md §5.
# The text must occur once in the file, or, when the file is written
# `path#anchor`, at least once after the one occurrence of the anchor; the
# first occurrence there is replaced. `lz-rate`, `lz-overlap` and
# `sha1-rate` change bodies the reference interpreter has its own copy of: a
# reference that ran the machine's bodies would agree with any change to
# them. `audit-blind` is an auditor that reports nothing. `gen-blind` is a
# receive rule that ignores the generation (every frame counts as the
# receiver's own), `dup-acts` one that acts on a duplicate. `rr-requeue`
# re-queues a pumped session at the back of the ready queue, the earlier
# processor-sharing rule. `peer-hint` writes without arming the peer end,
# so an end that is readable only when told waits for a kernel event.
# `cursor-count` accepts every header-declared count, so a decoder reserves
# whatever its header asks for.
# `opcode-move` moves one row of the opcode table to a byte no instruction
# uses: it compiles and every op still round-trips, so only the bytes pinned
# apart from the table can kill it. `sink-count` is a counting sink that
# counts one byte short of every `put`, so an INP header declares less
# than the body behind it. `wild-jump` lands a branch on the instruction
# whose bytes its target points into, so the decoder accepts any in-range
# target, an instruction boundary or not. `price-cache` prices every path
# search as a cache hit, whatever the trace recorded; `run_session` is
# `trace` then `price`, so only the pinned reports (P13) can see it.
# `priced-as-traced` prices every class of a forced trace set in the traced
# client's environment, which agrees with `run_session` for that class alone.
# `lease-kept` has `PadRuntime` keep the machine it leased for its next call
# (in a map keyed by the runtime's address, since the runtime has no field
# for one), so each live client pins an instance and a call sees the bytes
# its client's last call left. `lint-blind` never reports a dead store, so
# a local written and never read passes `fasmlint`. `publish-copies` keeps
# a fresh buffer for every version, an unchanged republish included: every
# read still returns equal bytes, so only the buffer's address can tell.
# `lane-weight` weighs each lane of the checksum kernel one position late;
# the reference interpreter calls the same kernel, so only the kernel's own
# byte-at-a-time reference can see it. `row-reset` never clears the
# renderer's row buffer, so each row of an image adds onto the row above.
mutations='tail-refund|crates/vm/src/machine.rs|fuel += $s.tail as u64;|
starved-probe|crates/vm/src/machine.rs|if slot.tail > 0 && left >= through_main {|if false {
callee-locals|crates/vm/src/machine.rs|regs[base + callee.n_args..base + callee.first_stack].fill(0);|
starved-equal|crates/vm/src/machine.rs|left >= through_main|left == through_main
stack-temp|crates/vm/src/analysis/reg.rs|after.is_some_and(|h| r >= self.stack(h as usize))|{ let _ = after; true }
lz-rate|crates/vm/src/machine.rs#fn lz_copy|COPY_BYTES_PER_FUEL + 1|(2 * COPY_BYTES_PER_FUEL) + 1
lz-overlap|crates/vm/src/machine.rs|let mut done = n.min(dist);|let mut done = n.min(dist).min(8);
sha1-rate|crates/vm/src/machine.rs|/ SHA1_BYTES_PER_FUEL + 1|/ (2 * SHA1_BYTES_PER_FUEL) + 1
audit-blind|crates/vm-oracle/src/audit.rs|self.violations.push(violation);|let _ = violation;
gen-blind|crates/core/src/inp.rs|match gen.wrapping_sub(seen_gen) {|match gen.wrapping_sub(gen) {
dup-acts|crates/core/src/inp.rs|0 if answered & 1 << msg.msg_type() != 0 => Verdict::Drop(Dropped::Dup),|0 if answered & 1 << msg.msg_type() != 0 => Verdict::Act,
rr-requeue|crates/core/src/reactor/mod.rs|self.ready.push_front(id);|self.ready.push_back(id);
peer-hint|crates/core/src/reactor/mod.rs|legs[1 - k].end.set_ready(true, false);|
cursor-count|crates/crypto/src/wire.rs|if n <= self.rest.len().div_ceil(min_wire_len.max(1)) {|if true {
opcode-move|crates/vm/src/bytecode.rs|(0x4B, "memsize", Op::MemSize),|(0x4C, "memsize", Op::MemSize),
sink-count|crates/crypto/src/wire.rs|self.0 += bytes.len();|self.0 += bytes.len().saturating_sub(1);
wild-jump|crates/vm/src/verify.rs|insn.at.cmp(&t)|t.clamp(insn.at, insn.next - 1).cmp(&t)
price-cache|crates/core/src/session.rs|search_time(trace.pat_nodes, trace.proxy_cache_hit)|search_time(trace.pat_nodes, true)
priced-as-traced|crates/bench/src/workbench.rs|(class.link(), class.env())|(class.link(), ClientClass::DesktopLan.env())
lease-kept|crates/pads/src/runtime.rs|let mut machine = Machine::new_analyzed(Arc::clone(&self.analyzed))?;|static KEPT: std::sync::Mutex<std::collections::BTreeMap<usize, Machine>> = std::sync::Mutex::new(std::collections::BTreeMap::new()); struct Kept(usize, Option<Machine>); impl Drop for Kept { fn drop(&mut self) { if let Some(m) = self.1.take() { KEPT.lock().unwrap().insert(self.0, m); } } } let key = self as *const Self as usize; let kept = KEPT.lock().unwrap().remove(&key); let mut kept = Kept(key, Some(match kept { Some(m) => m, None => Machine::new_analyzed(Arc::clone(&self.analyzed))? })); let machine = kept.1.as_mut().unwrap();
lint-blind|crates/vm-oracle/src/lint.rs|if !read[n as usize] {|if false {
publish-copies|crates/core/src/server.rs|Some(latest) if *latest == bytes => latest.clone(),|Some(latest) if false => latest.clone(),
lane-weight|crates/crypto/src/checksum.rs|(j as u32).wrapping_mul(sum)|(j as u32 + 1).wrapping_mul(sum)
row-reset|crates/workload/src/image.rs|row.fill(0.0);|'

# A failure inside the loop ends the pipeline nonzero, and `set -e` the
# script.
echo "$mutations" | while IFS= read -r line; do
    name=${line%%|*}
    rest=${line#*|}
    target=${rest%%|*}
    file=${target%%#*}
    rest=${rest#*|}
    git -C "$tree" checkout --quiet -- "$file"
    # Split text from replacement at the last `|`: the text may hold one.
    python3 - "$tree/$target" "${rest%|*}" "${rest##*|}" <<'EOF' || exit 1
import sys
target, old, new = sys.argv[1:]
path, _, anchor = target.partition("#")
src = open(path).read()
if anchor:
    if src.count(anchor) != 1:
        sys.exit(f"mutants.sh: {anchor!r} occurs {src.count(anchor)} times in {path}, not once")
    at = src.find(old, src.index(anchor))
    if at < 0:
        sys.exit(f"mutants.sh: {old!r} does not occur after {anchor!r} in {path}")
elif src.count(old) != 1:
    sys.exit(f"mutants.sh: {old!r} occurs {src.count(old)} times in {path}, not once")
else:
    at = src.index(old)
open(path, "w").write(src[:at] + new + src[at + len(old):])
EOF
    if ! suite --no-run >"$tmp/log" 2>&1; then
        cat "$tmp/log" >&2
        echo "mutants.sh: mutation $name does not compile" >&2
        exit 1
    fi
    if suite >"$tmp/log" 2>&1; then
        echo "SURVIVED $name: $file still passes the suite" >&2
        exit 1
    fi
    killed_by=$(grep -m1 -oE '^---- [^ ]+' "$tmp/log" | cut -c6- || true)
    echo "killed   $name (first failure: ${killed_by:-the suite})"
    git -C "$tree" checkout --quiet -- "$file"
done

echo "All mutations killed."
