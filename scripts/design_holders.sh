#!/usr/bin/env sh
# Fails when the Holder column of DESIGN.md §4.17's property table
# ("| Property | Holder |") cites something that does not exist, or a Rust
# holder that tier-1 does not build: only the workspace's crates/, tests/
# and src/ count, not benchmark/. In each holder cell, every backticked
# span of one of two shapes is checked:
#
#   * a Rust path `a::b::c` (a final `{x, y}` group is expanded to one path
#     per name): its last segment must be defined as a `fn`, `mod`,
#     `struct`, `enum` or `const` in some .rs file of the workspace; a
#     first segment that is a file path
#     (`crates/core/tests/concurrency.rs::…`) must be a workspace file;
#   * a `.rs` path: it must be a workspace file; a `.sh` path: a file.
#
# Other spans (metric names, command lines, workload names) are prose.
# Run by scripts/audits.sh.
set -eu

cd "$(dirname "$0")/.."

doc=DESIGN.md
cells=$(
    awk '/^[[:space:]]*\|[[:space:]]*Property[[:space:]]*\|[[:space:]]*Holder[[:space:]]*\|/ { inside = 1; next }
         inside && !/^[[:space:]]*\|/ { exit }
         inside && !/^[[:space:]]*\|[-|[:space:]]*$/ {
             line = $0
             sub(/[[:space:]]*\|[[:space:]]*$/, "", line)
             n = split(line, cols, "|")
             print cols[n]
         }' "$doc"
)
if [ -z "$cells" ]; then
    echo "$doc: no \"| Property | Holder |\" table found" >&2
    exit 1
fi

defined() {
    grep -rqE "(^|[^[:alnum:]_])(fn|mod|struct|enum|const)[[:space:]]+$1([^[:alnum:]_]|$)" \
        --include='*.rs' crates tests src
}

workspace_file() {
    [ -f "$1" ] && case "$1" in crates/* | tests/* | src/*) true ;; *) false ;; esac
}

missing=""
spans=$(printf '%s\n' "$cells" | grep -oE '`[^`]+`' | tr -d '`' || true)
while IFS= read -r span; do
    [ -n "$span" ] || continue
    if printf '%s' "$span" \
        | grep -qE '^[[:alnum:]_./-]+(::[[:alnum:]_]+)*::([[:alnum:]_]+|\{[[:alnum:]_, ]+\})$'; then
        head=${span%%::*}
        case "$head" in
            */*) workspace_file "$head" || missing="$missing
  $span: no workspace file $head" ;;
        esac
        prefix=${span%::*}
        last=${span##*::}
        for name in $(printf '%s' "$last" | tr -d '{}' | tr ',' ' '); do
            defined "$name" || missing="$missing
  $prefix::$name: no fn/mod/struct/enum/const named $name"
        done
    elif printf '%s' "$span" | grep -qE '^[[:alnum:]_./-]+\.rs$'; then
        workspace_file "$span" || missing="$missing
  $span: no such workspace file"
    elif printf '%s' "$span" | grep -qE '^[[:alnum:]_./-]+\.sh$'; then
        [ -f "$span" ] || missing="$missing
  $span: no such file"
    fi
done <<EOF
$spans
EOF

if [ -n "$missing" ]; then
    echo "$doc §4.17 names holders that do not exist in the workspace:$missing" >&2
    exit 1
fi
