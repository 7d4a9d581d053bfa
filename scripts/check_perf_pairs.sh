#!/usr/bin/env bash
# Perf pair gate: times the working tree against a base revision on the
# same host, in alternating pairs, so the gate measures the change and
# not the machine.
#
#   1. BASE_REV (default HEAD~1; an all-zero sha, as a new branch's push
#      event carries, also means HEAD~1) is checked out in a temporary
#      git worktree;
#   2. perfbench is built there and in the working tree;
#   3. PAIRS pairs of `perfbench --workload tc-rmat --trace 0 --seconds 2`
#      run, alternating which side goes first, so drift in the host's
#      speed lands on both sides alike;
#   4. the gate fails when the change's median `run_s` or `run_s.1w` is
#      more than BUDGET_PCT% of the base's.
#
# It fails closed, naming the side and the reason, when the base cannot
# be checked out or either side cannot be built, when perfbench exits
# non-zero or prints no final JSON line, and when either side reports
# `"correct": false` or a non-zero `"failed"` count.
#
# Run from anywhere inside the repo: scripts/check_perf_pairs.sh [BASE_REV]

set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=tc-rmat
PAIRS=6
RUN_SECONDS=2
BUDGET_PCT=125 # the change's median may be at most 125% of the base's
METRICS=(run_s run_s.1w)

export CARGO_NET_OFFLINE=true

fail() {
    echo "perf pairs FAILED: $*" >&2
    exit 1
}

base=${1:-}
if [ -z "$base" ] || [[ "$base" =~ ^0+$ ]]; then
    base=HEAD~1
fi

workdir=$(mktemp -d)
worktree="$workdir/base"
cleanup() {
    if [ -d "$worktree" ]; then
        git worktree remove --force "$worktree" >/dev/null 2>&1 || true
    fi
    git worktree prune >/dev/null 2>&1 || true
    rm -rf "$workdir"
}
trap cleanup EXIT

sha=$(git rev-parse --verify --quiet "$base^{commit}") ||
    fail "base: revision '$base' cannot be checked out"
git worktree add --quiet --detach "$worktree" "$sha" >&2 ||
    fail "base: revision '$base' cannot be checked out"

# build SIDE DIR: builds perfbench in DIR.
build() {
    cargo build --release --offline --quiet --manifest-path "$2/perfbench/Cargo.toml" >&2 ||
        fail "$1: perfbench does not build"
}
build base "$worktree"
build change "$PWD"

# measure SIDE DIR PAIR: runs perfbench once in DIR, checks its final
# JSON line and appends each metric's value to $workdir/SIDE.METRIC.
measure() {
    local side=$1 dir=$2 pair=$3 out status line m v
    out="$workdir/$side.$pair.out"
    status=0
    (cd "$dir" && perfbench/target/release/perfbench \
        --workload "$WORKLOAD" --trace 0 --seconds "$RUN_SECONDS") >"$out" || status=$?
    if [ "$status" -ne 0 ]; then
        fail "$side (pair $pair): perfbench exited with status $status"
    fi
    line=$(tail -n 1 "$out")
    case "$line" in
        '{"correct": '*) ;;
        *) fail "$side (pair $pair): perfbench printed no final JSON line" ;;
    esac
    if ! grep -q '"correct": true' <<<"$line"; then
        fail "$side (pair $pair): perfbench reports \"correct\": false"
    fi
    v=$(grep -o '"failed": [0-9]*' <<<"$line" | awk '{print $2}')
    if [ "$v" != 0 ]; then
        fail "$side (pair $pair): perfbench reports \"failed\": ${v:-missing}"
    fi
    for m in "${METRICS[@]}"; do
        v=$(grep -o "\"$m\": {\"value\": [-0-9.e]*" <<<"$line" | awk '{print $NF}')
        if [ -z "$v" ]; then
            fail "$side (pair $pair): metric $m missing from the final JSON line"
        fi
        echo "$v" >>"$workdir/$side.$m"
    done
}

for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
        measure base "$worktree" "$pair"
        measure change "$PWD" "$pair"
    else
        measure change "$PWD" "$pair"
        measure base "$worktree" "$pair"
    fi
done

median() {
    sort -g "$1" | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

verdict=0
for m in "${METRICS[@]}"; do
    b=$(median "$workdir/base.$m")
    c=$(median "$workdir/change.$m")
    ratio=$(awk -v b="$b" -v c="$c" 'BEGIN { printf "%.3f", c / b }')
    echo "perf pairs: $WORKLOAD $m median over $PAIRS pairs: base ${b}s ($base = ${sha:0:12}) change ${c}s ratio ${ratio}"
    if awk -v b="$b" -v c="$c" -v p="$BUDGET_PCT" 'BEGIN { exit !(c * 100 > b * p) }'; then
        echo "perf pairs FAILED: change's median $m is ${ratio}x the base's (budget ${BUDGET_PCT}%)" >&2
        verdict=1
    fi
done
[ "$verdict" -eq 0 ] || exit 1
echo "perf pairs OK: within budget"
