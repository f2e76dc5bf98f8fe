#!/usr/bin/env sh
# Fails when a key under a crates/*/Cargo.toml [dependencies] or
# [dev-dependencies] table does not occur (hyphens as underscores) as a word
# in that crate's src, tests or benches: an edge nothing uses still costs a
# rebuild of everything downstream of it. Run by scripts/check.sh and CI.
set -eu

cd "$(dirname "$0")/.."

unused=$(for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    roots=""
    for dir in src tests benches; do
        if [ -d "$crate/$dir" ]; then roots="$roots $crate/$dir"; fi
    done
    awk '/^\[/ { table = $0; next }
         (table == "[dependencies]" || table == "[dev-dependencies]") \
             && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$manifest" |
    while read -r dep; do
        # shellcheck disable=SC2086 # $roots is a list of directories
        grep -rqw --include='*.rs' "$(echo "$dep" | tr - _)" $roots || echo "$manifest: $dep"
    done
done)
if [ -n "$unused" ]; then
    echo "declared dependencies no source file of the crate names:" >&2
    echo "$unused" >&2
    exit 1
fi
