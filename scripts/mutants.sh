#!/usr/bin/env sh
# The mutation checks DESIGN.md §4.11 records for the fast path, run rather
# than stated. Each mutation below is applied to a throwaway `git worktree`
# of this tree under $TMPDIR, and the fast path's suites
#
#   cargo test -q --release -p fractal-vm --lib --test differential
#
# must FAIL there. The unmutated tree must pass them first, a mutation must
# still compile, and a mutation whose text is no longer in the source stops
# the script, so the list cannot rot into a list of no-ops.
#
#   scripts/mutants.sh
#
# The worktree holds HEAD plus the tracked edits of this checkout (`git stash
# create` snapshots them without touching any ref); `git add` a new file for
# it to be included. It and its build directory are removed on exit. A few
# minutes: one release build of fractal-vm's test targets, then one rebuild
# of the VM per mutation.
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
    (cd "$tree" && cargo test -q --release -p fractal-vm --lib --test differential "$@")
}

echo "==> unmutated tree passes"
suite >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; echo "mutants.sh: the unmutated tree fails" >&2; exit 1; }

# name | file | text | replacement. The names are what DESIGN.md §4.11 says.
mutations='tail-refund|crates/vm/src/machine.rs|fuel += $s.tail as u64;|
starved-probe|crates/vm/src/machine.rs|if slot.tail > 0 && left >= through_main {|if false {
callee-locals|crates/vm/src/machine.rs|regs[base + callee.n_args..base + callee.first_stack].fill(0);|
starved-equal|crates/vm/src/machine.rs|left >= through_main|left == through_main
stack-temp|crates/vm/src/analysis/reg.rs|after.is_some_and(|h| r >= self.stack(h as usize))|{ let _ = after; true }'

# A failure inside the loop ends the pipeline nonzero, and `set -e` the
# script.
echo "$mutations" | while IFS= read -r line; do
    name=${line%%|*}
    rest=${line#*|}
    file=${rest%%|*}
    rest=${rest#*|}
    git -C "$tree" checkout --quiet -- "$file"
    # Split text from replacement at the last `|`: the text may hold one.
    python3 - "$tree/$file" "${rest%|*}" "${rest##*|}" <<'EOF' || exit 1
import sys
path, old, new = sys.argv[1:]
src = open(path).read()
if src.count(old) != 1:
    sys.exit(f"mutants.sh: {old!r} occurs {src.count(old)} times in {path}, not once")
open(path, "w").write(src.replace(old, new))
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
