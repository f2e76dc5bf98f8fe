#!/usr/bin/env sh
# Fails when a key under a crates/*/Cargo.toml [dependencies] or
# [dev-dependencies] table does not occur (hyphens as underscores) as a word
# in that crate's src or tests: an edge nothing uses still costs a
# rebuild of everything downstream of it. Also fails when a key of the root
# [workspace.dependencies] table is inherited (`key.workspace = true` or
# `key = { workspace = true … }`) by no manifest of the workspace: the
# orphan a deleted crate or dependency leaves behind. Run by
# scripts/audits.sh.
set -eu

cd "$(dirname "$0")/.."

# Prints the keys of the TOML tables named in $1 (a `|`-separated list of
# headers) of manifest $2.
keys() {
    awk -v tables="$1" 'BEGIN { n = split(tables, t, "|"); for (i = 1; i <= n; i++) want[t[i]] = 1 }
         /^\[/ { table = $0; next }
         (table in want) && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$2"
}

unused=$(for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    roots=""
    for dir in src tests; do
        if [ -d "$crate/$dir" ]; then roots="$roots $crate/$dir"; fi
    done
    keys '[dependencies]|[dev-dependencies]' "$manifest" |
    while read -r dep; do
        # shellcheck disable=SC2086 # $roots is a list of directories
        grep -rqw --include='*.rs' "$(echo "$dep" | tr - _)" $roots || echo "$manifest: $dep"
    done
done)
orphans=$(keys '[workspace.dependencies]' Cargo.toml | while read -r dep; do
    grep -qE "^$dep(\.workspace *= *true| *= *\{.*workspace *= *true)" \
        Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml || echo "Cargo.toml: $dep"
done)
if [ -n "$unused" ]; then
    echo "declared dependencies no source file of the crate names:" >&2
    echo "$unused" >&2
fi
if [ -n "$orphans" ]; then
    echo "workspace dependencies no manifest inherits:" >&2
    echo "$orphans" >&2
fi
if [ -n "$unused$orphans" ]; then exit 1; fi
