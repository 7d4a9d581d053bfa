#!/usr/bin/env bash
# Hermetic-build gate (see DESIGN.md): the workspace must depend on no
# external crates, so that `cargo build`/`cargo test` succeed with an
# empty registry cache and CARGO_NET_OFFLINE=true. This script fails if
# a registry dependency sneaks back in, at either of two layers:
#
#   1. the resolved dependency graph (`cargo metadata`) must contain
#      only workspace packages, and
#   2. no Cargo.toml may declare a dependency that is not a path /
#      workspace dependency.
#
# It also keeps `unsafe` confined to the one module that needs it, the
# SPSC ring buffer (crates/runtime/src/spsc.rs).
#
# Run from anywhere inside the repo: scripts/check_hermetic.sh

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

fail=0

# ---- Layer 1: the resolved graph contains only workspace members ----
# Workspace packages resolve with `(path+file://...)` source annotations
# in `cargo metadata`; anything else (registry, git) is external.
metadata=$(cargo metadata --format-version 1 --offline)
external=$(printf '%s' "$metadata" \
    | tr ',' '\n' \
    | grep -o '"id":"[^"]*"' \
    | grep -v 'path+file://' || true)
if [ -n "$external" ]; then
    echo "FAIL: non-path packages in the resolved dependency graph:" >&2
    echo "$external" | sed 's/^/  /' >&2
    fail=1
fi

# ---- Layer 2: no manifest declares a registry dependency ----
# Inside any [*dependencies*] section, every entry must be either a
# `workspace = true` reference, a `path = ...` dependency, or (in the
# root manifest) the path declarations themselves.
while IFS= read -r -d '' manifest; do
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            if ($0 !~ /workspace[[:space:]]*=[[:space:]]*true/ &&
                $0 !~ /path[[:space:]]*=/) {
                print FILENAME ": " $0
            }
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "FAIL: registry-style dependency declaration:" >&2
        echo "$bad" | sed 's/^/  /' >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*' -print0)

# ---- Layer 3: the lockfile lists only workspace versions ----
if [ -f Cargo.lock ] && grep -q 'source = "registry' Cargo.lock; then
    echo "FAIL: Cargo.lock pins registry packages:" >&2
    grep -B2 'source = "registry' Cargo.lock | sed 's/^/  /' >&2
    fail=1
fi

# ---- Layer 4: `unsafe` appears only in the SPSC ring buffer ----
unsafe_hits=$(grep -rnw --include='*.rs' 'unsafe' crates \
    | grep -v '^crates/runtime/src/spsc\.rs:' || true)
if [ -n "$unsafe_hits" ]; then
    echo "FAIL: \`unsafe\` outside crates/runtime/src/spsc.rs:" >&2
    echo "$unsafe_hits" | sed 's/^/  /' >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "hermetic check FAILED — the workspace must build with zero external crates and keep unsafe in spsc.rs" >&2
    exit 1
fi
echo "hermetic check OK: dependency graph is workspace-only, unsafe only in spsc.rs"
