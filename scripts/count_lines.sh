#!/usr/bin/env bash
# Non-test lines per crate and in total: for every tracked
# crates/*/src/**/*.rs, the lines before its first `#[cfg(test)]`.
# Counts the working tree, or the files as they are at git revision REV.
# Informational only: it prints, it never fails on a count.
#
# Usage: scripts/count_lines.sh [REV]
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates)
else
    files=$(git ls-files -- crates)
fi

for f in $files; do
    case "$f" in
        crates/*/src/*.rs) ;;
        *) continue ;;
    esac
    if [ -n "$rev" ]; then
        git show "$rev:$f"
    elif [ -f "$f" ]; then
        cat "$f"
    else
        continue
    fi | awk -v crate="$(echo "$f" | cut -d/ -f2)" \
        '/^#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { print crate, n + 0 }'
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
    }'
