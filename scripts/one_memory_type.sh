#!/usr/bin/env sh
# Fails when crates/vm/src gives instance memory a second owner. A recycled
# sandbox is a fresh one only because every write to linear memory goes
# through crates/vm/src/memory.rs, which records the span a scrub must
# zero; the buffer is private there, so what can rot is (1) instance memory
# allocated somewhere else, as a plain Vec the span knows nothing about,
# (2) a second function handing out `&mut [u8]`, or (3) `memory[..]`
# written through an index. Run by scripts/check.sh (quick mode too) and CI.
set -eu

cd "$(dirname "$0")/.."

elsewhere() {
    grep -rnE -e "$1" --include='*.rs' crates/vm/src | grep -v '^crates/vm/src/memory\.rs:' || true
}

stray=$(
    elsewhere 'vec!\[0(u8)?;[^]]*mem'
    elsewhere '->[^{;]*&mut \[u8\]'
    elsewhere 'memory(\.bytes\(\))?\[[^]]*\]([[:space:]]*[-+|&^]?=[^=]|\.(copy_from_slice|copy_within|fill|swap|iter_mut|as_mut))'
)
if [ -n "$stray" ]; then
    echo "instance memory allocated or written outside crates/vm/src/memory.rs:" >&2
    echo "$stray" >&2
    exit 1
fi

views=$(grep -cE '&mut \[u8\]' crates/vm/src/memory.rs || true)
if [ "$views" -ne 1 ]; then
    echo "crates/vm/src/memory.rs hands out $views mutable views of the buffer;" \
        "LinearMemory::slice_mut is the one that records the dirty span" >&2
    exit 1
fi
