#!/usr/bin/env bash
# Non-test lines per crate and in total: for every tracked
# crates/*/src/**/*.rs, the lines before its first `#[cfg(test)]`.
# Counts the working tree, or the files as they are at git revision REV.
# With `--since REV` it prints, per crate, REV's count, the working
# tree's count and the difference, then the totals.
# Informational only: it prints, it never fails on a count.
#
# Usage: scripts/count_lines.sh [REV]
#        scripts/count_lines.sh --since REV
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

# `crate lines` per crate, sorted, at revision $1 (the working tree when
# it is empty).
per_crate() {
    local rev="$1" files f
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
    done | awk '{ lines[$1] += $2 } END { for (c in lines) print c, lines[c] }' | sort
}

if [ "${1:-}" = "--since" ]; then
    base="${2:?usage: scripts/count_lines.sh --since REV}"
    join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(per_crate "$base") <(per_crate "") | awk '
        BEGIN { printf "%-12s %6s %6s %6s\n", "crate", "base", "tree", "diff" }
        { printf "%-12s %6d %6d %+6d\n", $1, $2, $3, $3 - $2; b += $2; t += $3 }
        END { printf "%-12s %6d %6d %+6d\n", "total", b, t, t - b }'
else
    per_crate "${1:-}" | awk '
        { printf "%-12s %6d\n", $1, $2; total += $2 }
        END { printf "%-12s %6d\n", "total", total }'
fi
