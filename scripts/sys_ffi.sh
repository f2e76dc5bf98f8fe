#!/usr/bin/env sh
# Fails when the `extern "C"` block of crates/core/src/sys.rs declares
# anything besides `poll`, `getrlimit` and `setrlimit`. DESIGN.md §8 says the
# crate's FFI is the poll(2) / rlimit bindings; a new syscall declared there
# (a `listen` for a raised backlog, say) is a third surface growing back.
# Run by scripts/audits.sh.
set -eu

cd "$(dirname "$0")/.."

file=crates/core/src/sys.rs
allowed="getrlimit poll setrlimit"
declared=$(
    awk '/extern[[:space:]]+"C"[[:space:]]*\{/ { inside = 1; next }
         inside && /^[[:space:]]*\}/ { inside = 0 }
         inside' "$file" \
        | sed 's://.*$::' \
        | grep -oE '(fn|static|type)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*' \
        | awk '{ print $2 }' | sort | tr '\n' ' ' | sed 's/ $//'
)
if [ "$declared" != "$allowed" ]; then
    echo "$file: extern \"C\" declares [$declared], expected exactly [$allowed]" >&2
    exit 1
fi
