#!/usr/bin/env sh
# Fails when the reference interpreter can reach a production build.
# fractal-vm-oracle exists to be compared against, and only tests may link
# it: no crates/*/Cargo.toml and not the root manifest may name it under
# [dependencies], and `cargo tree -e normal` of `fractal` and `fractal-core`
# (the facade and the framework every binary links) must not list it. Run by
# scripts/audits.sh.
set -eu

cd "$(dirname "$0")/.."

named=$(for manifest in Cargo.toml crates/*/Cargo.toml; do
    awk -v manifest="$manifest" '/^\[/ { table = $0; next }
         table == "[dependencies]" && /^fractal-vm-oracle([^A-Za-z0-9_-]|$)/ { print manifest }' \
        "$manifest"
done)
if [ -n "$named" ]; then
    echo "fractal-vm-oracle is a normal dependency of:" >&2
    echo "$named" >&2
    exit 1
fi

for package in fractal fractal-core; do
    if cargo tree -q --offline -e normal -p "$package" | grep -q 'fractal-vm-oracle'; then
        echo "cargo tree -e normal -p $package lists fractal-vm-oracle" >&2
        exit 1
    fi
done
