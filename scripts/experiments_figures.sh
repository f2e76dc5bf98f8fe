#!/usr/bin/env sh
# EXPERIMENTS.md quotes every section of FIGURES.txt and types no figure
# by hand. Each `=== <section>` of FIGURES.txt (its header line through
# its last nonblank line) appears once in EXPERIMENTS.md, inside a
# ```text fence between the lines
#
#   <!-- FIGURES.txt <section> -->
#   <!-- end FIGURES.txt <section> -->
#
#   scripts/experiments_figures.sh           # fails, naming each section
#                                            # whose block differs
#   scripts/experiments_figures.sh --write   # rewrites the blocks
#
# The check exits 1 when a block differs from the committed FIGURES.txt
# and 2 when the markers are broken: a section quoted twice or not at
# all, a marker naming no section, a block left open. It reads two text
# files and builds nothing, so scripts/audits.sh runs it;
# scripts/regen.sh runs `--write` after it rewrites FIGURES.txt.
set -eu

cd "$(dirname "$0")/.."

write=0
case "${1-}" in
    "") ;;
    --write) write=1 ;;
    *) echo "experiments_figures.sh: unknown flag '$1' (supported: --write)" >&2; exit 2 ;;
esac

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# Prints EXPERIMENTS.md with every block rewritten from FIGURES.txt, and
# names on stderr each block that was not already so.
status=0
awk -v fence='```' -v write="$write" '
    FNR == NR {
        if (/^=== [[:alnum:]_]+ /) { sec = $2; order[++n] = sec }
        if (sec == "") next
        body[sec] = body[sec] $0 "\n"
        if ($0 != "") quoted[sec] = body[sec]
        next
    }
    open != "" {
        if ($0 != "<!-- end FIGURES.txt " open " -->") { got = got $0 "\n"; next }
        want = fence "text\n" quoted[open] fence "\n"
        if (got != want && open in quoted) {
            print "  " open (write ? ": rewritten from" : ": the block differs from") " FIGURES.txt" > "/dev/stderr"
            differs = 1
        }
        printf "%s", want
        print
        open = ""
        next
    }
    /^<!-- FIGURES\.txt [^ ]+ -->$/ {
        open = $3
        got = ""
        if (!(open in quoted)) {
            print "  EXPERIMENTS.md:" FNR ": FIGURES.txt has no section " open > "/dev/stderr"
            broken = 1
        } else if (open in seen) {
            print "  EXPERIMENTS.md:" FNR ": " open " is quoted a second time" > "/dev/stderr"
            broken = 1
        }
        seen[open] = 1
        print
        next
    }
    { print }
    END {
        if (open != "") {
            print "  EXPERIMENTS.md: the " open " block has no end marker" > "/dev/stderr"
            broken = 1
        }
        for (i = 1; i <= n; i++) {
            if (!(order[i] in seen)) {
                print "  " order[i] ": EXPERIMENTS.md does not quote it" > "/dev/stderr"
                broken = 1
            }
        }
        exit broken ? 2 : differs ? 1 : 0
    }' FIGURES.txt EXPERIMENTS.md >"$out" || status=$?

if [ "$status" -ge 2 ]; then
    echo "EXPERIMENTS.md's FIGURES.txt markers are broken (see the script's header)" >&2
    exit 2
fi
if [ "$write" -eq 1 ]; then
    cmp -s "$out" EXPERIMENTS.md || cat "$out" >EXPERIMENTS.md
elif [ "$status" -ne 0 ]; then
    diff -u EXPERIMENTS.md "$out" >&2 || true
    echo "EXPERIMENTS.md quotes figures FIGURES.txt does not print (rerun scripts/regen.sh)" >&2
    exit 1
fi
