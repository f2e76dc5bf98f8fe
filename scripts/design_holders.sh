#!/usr/bin/env sh
# Fails when DESIGN.md or the verify skill's SKILL.md (the build-and-run
# notes under skills/verify/) cites something the tree lacks. Three checks,
# each naming every offender it finds:
#
# (a) Holders. In the Holder column of DESIGN.md's property table
#     ("| Property | Holder |"), every backticked span of one of two shapes
#     must exist, and a Rust holder must be one tier-1 builds: only the
#     workspace's crates/, tests/ and src/ count, not benchmark/.
#
#       * a Rust path `a::b::c` (a final `{x, y}` group is expanded to one
#         path per name): its last segment must be defined as a `fn`,
#         `mod`, `struct`, `enum` or `const` in some .rs file of the
#         workspace; a first segment that is a file path
#         (`crates/core/tests/concurrency.rs::…`) must be a workspace file;
#       * a `.rs` path: it must be a workspace file; a `.sh` path: a file.
#
# (b) Names. Every other backticked span of the two docs, outside ```
#     fences, that is shaped like a Rust name or path (`Name`, `a::b`,
#     `a::{x, y}`, `name()` or `name(args)`, `file.rs::name`) must resolve
#     in some tracked .rs file, benchmark/ included: its last segment (each
#     name of a final group) is defined there as a fn, struct, enum, trait,
#     type, const, static, mod, macro, field or variant, or is a crate's
#     name. A bare lower-case name may instead be a string the code
#     registers by (a quoted "name": a metric, a workload, a scenario, a
#     `--bin all` section). A span shaped like a repository path
#     (`crates/vm/src/memory.rs`, `scripts/mutants.sh`) must be a tracked
#     file. ALLOW lists the paper and OS terms that are none of these.
#
# (c) Sections. Every "DESIGN.md §N" or "§N.M" citation (and every § that
#     follows it in one list: "DESIGN.md §4.2 and §4.3") in the docs that
#     describe the tree, the scripts, the workflows and the Rust sources,
#     and every § in DESIGN.md itself but a "paper §N", must name a
#     "## N." or "### N.M" heading of DESIGN.md. In the same files and in
#     DESIGN.md, a citation of EXPERIMENTS.md followed by a comma and a
#     title in double quotes must name a heading of EXPERIMENTS.md, word
#     for word. CHANGES.md and ROADMAP.md
#     are records of past trees and are not read.
#
# Other spans (metric paths with dots, command lines, mutation names) are
# prose. Run by scripts/audits.sh.
set -eu

cd "$(dirname "$0")/.."

doc=DESIGN.md
skill=$(git ls-files '*skills/verify/SKILL.md')
if [ -z "$skill" ]; then
    echo "no tracked skills/verify/SKILL.md" >&2
    exit 1
fi

# (b)'s allow-list: paper, OS and std terms the docs cite that no tracked
# .rs file defines (std's atomic ordering, say). Keep it short: a name on
# it is never checked again.
ALLOW='Relaxed'

# ---------------------------------------------------------------- (a) holders

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
    echo "$doc's property table names holders that do not exist in the workspace:$missing" >&2
    exit 1
fi

# ------------------------------------------------------------------ (b) names

index=$(mktemp)
trap 'rm -f "$index"' EXIT
rust=$(git ls-files '*.rs')
{
    # shellcheck disable=SC2086
    grep -ohE '(^|[^[:alnum:]_])(const[[:space:]]+fn|fn|struct|enum|trait|type|const|static|mod|union)[[:space:]]+[[:alpha:]_][[:alnum:]_]*' $rust \
        | sed -E 's/.*[[:space:]]//'
    # shellcheck disable=SC2086
    grep -ohE 'macro_rules![[:space:]]*[[:alpha:]_][[:alnum:]_]*' $rust | sed -E 's/.*!//; s/[[:space:]]//g'
    # fields (`name: T`, `pub name: T`) and variants (`Name`, `Name(…)`, `Name {`)
    # shellcheck disable=SC2086
    grep -hE '^[[:space:]]*(pub(\([[:alpha:]]+\))?[[:space:]]+)?[[:alpha:]_][[:alnum:]_]*[[:space:]]*(:([^:]|$)|,|\(|\{|=|$)' $rust \
        | sed -E 's/^[[:space:]]*(pub(\([[:alpha:]]+\))?[[:space:]]+)?([[:alpha:]_][[:alnum:]_]*).*/\3/'
    # shellcheck disable=SC2086
    grep -ohE '"[[:alnum:]_]+"' $rust | tr -d '"' | sed 's/^/"/'
    git ls-files '*Cargo.toml' | xargs grep -h '^name[[:space:]]*=' | sed -E 's/.*"(.*)".*/\1/; y/-/_/'
    for name in $ALLOW; do echo "$name"; done
} | sort -u >"$index"

# Prints each backticked span of a markdown file outside ``` fences and
# outside the property table's Holder column (check (a)'s), one a line. A
# span may wrap, so spans are read a paragraph at a time.
spans_of() {
    awk 'function flush(   rest, i, j) {
             rest = para
             while ((i = index(rest, "`")) > 0) {
                 rest = substr(rest, i + 1)
                 j = index(rest, "`")
                 if (j == 0) break
                 print substr(rest, 1, j - 1)
                 rest = substr(rest, j + 1)
             }
             para = ""
         }
         /^[[:space:]]*```/ { flush(); fenced = !fenced; next }
         fenced { next }
         /^[[:space:]]*$/ { flush(); next }
         /^[[:space:]]*\|[[:space:]]*Property[[:space:]]*\|[[:space:]]*Holder[[:space:]]*\|/ { holders = 1 }
         holders && !/^[[:space:]]*\|/ { holders = 0 }
         holders { line = $0; sub(/\|[^|]*\|[[:space:]]*$/, "|", line); para = para " " line; next }
         { para = para " " $0 }
         END { flush() }' "$1"
}

resolves() {
    grep -qxF "$1" "$index" && return 0
    case "$1" in [[:lower:]]*) grep -qxF "\"$1" "$index" ;; *) false ;; esac
}

missing=""
for file in "$doc" "$skill"; do
    spans=$(spans_of "$file" | sed -E 's/^[[:space:]]+//; s/[[:space:]]+$//' | sort -u)
    while IFS= read -r span; do
        [ -n "$span" ] || continue
        if printf '%s' "$span" | grep -qE '^[[:alnum:]_.-]+(/[[:alnum:]_.-]+)+$' \
            && printf '%s' "$span" | grep -qE '\.(rs|sh|md|json|toml|fasm|yml)$'; then
            [ -n "$(git ls-files -- "$span")" ] || missing="$missing
  $file: \`$span\`: no tracked file"
            continue
        fi
        name=$span
        case "$name" in *\)) name=${name%%(*} ;; esac
        printf '%s' "$name" \
            | grep -qE '^([[:alnum:]_./-]+\.rs::)?[[:alpha:]_][[:alnum:]_]*(::[[:alpha:]_][[:alnum:]_]*)*(::\{[[:alnum:]_, ]+\})?$' \
            || continue
        case "$name" in
            *.rs::*)
                path=${name%%.rs::*}.rs
                [ -n "$(git ls-files -- "$path")" ] || missing="$missing
  $file: \`$span\`: no tracked file $path"
                name=${name#*.rs::}
                ;;
        esac
        last=${name##*::}
        for part in $(printf '%s' "$last" | tr -d '{}' | tr ',' ' '); do
            resolves "$part" || missing="$missing
  $file: \`$span\`: nothing in a tracked .rs file defines $part"
        done
    done <<EOF
$spans
EOF
done

if [ -n "$missing" ]; then
    echo "names the docs cite that the tree lacks:$missing" >&2
    exit 1
fi

# --------------------------------------------------------------- (c) sections

headings=$(sed -nE 's/^## ([0-9]+)\..*/\1/p; s/^### ([0-9]+\.[0-9]+)[ .].*/\1/p' "$doc")

# Joins a file's lines, comment leaders dropped, so a citation may wrap.
joined() {
    LC_ALL=C awk '{ line = $0
                    sub(/^[[:space:]]*(#+|\/\/[!\/]?|\*)?[[:space:]]*/, "", line)
                    text = text " " line }
                  END { print text }' "$1"
}

# Prints the sections one file cites: after "DESIGN.md" (or, in DESIGN.md,
# anywhere but after "paper"), a § and every § chained to it by ",", "and"
# or "or".
cited() {
    joined "$1" | LC_ALL=C awk -v self="$2" '
        { text = $0 }
        END {
            sect = "§[0-9]+(\\.[0-9]+)*"
            while (match(text, sect)) {
                before = substr(text, 1, RSTART - 1)
                ref = substr(text, RSTART + 2, RLENGTH - 2)
                if (self) {
                    take = before !~ /paper( |'\''s )$/
                    if (before ~ /(, |,? and |,? or )$/) take = chain
                } else {
                    take = before ~ /DESIGN\.md(\]\(DESIGN\.md\))?('\''s)? +$/
                    if (!take && before ~ /(, |,? and |,? or )$/) take = chain
                }
                if (take) print ref
                chain = take
                text = substr(text, RSTART + RLENGTH)
            }
        }'
}

# Prints the EXPERIMENTS.md headings one file cites by title, one a line.
titles() {
    joined "$1" | LC_ALL=C awk '{
        text = $0
        while (match(text, /EXPERIMENTS\.md, "[^"]*"/)) {
            print substr(text, RSTART + 17, RLENGTH - 18)
            text = substr(text, RSTART + RLENGTH)
        }
    }'
}

missing=""
files=$(git ls-files '*.rs' '*.sh' '*.yml' README.md EXPERIMENTS.md "$skill" benchmark/README.md)
for file in $doc $files; do
    self=0
    [ "$file" = "$doc" ] && self=1
    for ref in $(cited "$file" "$self" | sort -u); do
        printf '%s\n' "$headings" | grep -qxF "$ref" || missing="$missing
  $file: §$ref"
    done
done

if [ -n "$missing" ]; then
    echo "citations of $doc sections that have no heading there:$missing" >&2
    exit 1
fi

experiments=$(sed -nE 's/^#+[[:space:]]+//p' EXPERIMENTS.md | tr -s ' ')
missing=$(for file in $doc $files; do
    titles "$file" | tr -s ' ' | sort -u | while IFS= read -r title; do
        printf '%s\n' "$experiments" | grep -qxF -- "$title" || echo "  $file: \"$title\""
    done
done)
if [ -n "$missing" ]; then
    echo "citations of EXPERIMENTS.md headings that it does not have:" >&2
    echo "$missing" >&2
    exit 1
fi
