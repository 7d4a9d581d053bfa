#!/usr/bin/env bash
# Perf pair gate: times the working tree against a base revision on the
# same host, in alternating pairs, so the gate measures the change and
# not the machine.
#
#   1. BASE_REV (default HEAD~1; an all-zero sha, as a new branch's push
#      event carries, also means HEAD~1) is checked out in a temporary
#      git worktree;
#   2. perfbench is built there and in the working tree;
#   3. for each workload in WORKLOADS (`tc-rmat`, whose time goes to
#      local merge, dedup and exchange; `sssp-web`, whose many small
#      iterations stress the fixpoint loop's coordination; and
#      `apsp-rmat`, the one workload whose head rows can have two
#      destinations, from APSP's non-linear `path` with its two routes),
#      PAIRS pairs of `perfbench --workload W --trace 0 --seconds 2`
#      run, alternating which side goes first, so drift in the host's
#      speed lands on both sides alike;
#   4. the gate fails when, on any workload, the change's median `run_s`
#      or `run_s.1w` is more than 125% of the base's, or its median
#      `peak_rss_mb` more than 105% (BUDGET_PCT). Peak RSS repeats within
#      ~1.5% across pairs, so 105% still catches a regression of a few MB,
#      which timing noise would hide under 125%. Each metric is printed in
#      the unit perfbench reports for it.
#
# It fails closed, naming the side and the reason, when the base cannot
# be checked out or either side cannot be built, when perfbench exits
# non-zero or prints no final JSON line, and when either side reports
# `"correct": false` or a non-zero `"failed"` count.
#
# Run from anywhere inside the repo: scripts/check_perf_pairs.sh [BASE_REV]

set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(tc-rmat sssp-web apsp-rmat)
PAIRS=6
RUN_SECONDS=2
METRICS=(run_s run_s.1w peak_rss_mb)
# The change's median may be at most this percentage of the base's.
declare -A BUDGET_PCT=([run_s]=125 [run_s.1w]=125 [peak_rss_mb]=105)

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

# measure SIDE DIR WORKLOAD PAIR: runs perfbench once in DIR, checks
# its final JSON line, appends each metric's value to
# $workdir/WORKLOAD.SIDE.METRIC and records its unit in $workdir/METRIC.unit.
measure() {
    local side=$1 dir=$2 w=$3 pair=$4 out status line m v entry
    out="$workdir/$w.$side.$pair.out"
    status=0
    (cd "$dir" && perfbench/target/release/perfbench \
        --workload "$w" --trace 0 --seconds "$RUN_SECONDS") >"$out" || status=$?
    if [ "$status" -ne 0 ]; then
        fail "$side ($w, pair $pair): perfbench exited with status $status"
    fi
    line=$(tail -n 1 "$out")
    case "$line" in
        '{"correct": '*) ;;
        *) fail "$side ($w, pair $pair): perfbench printed no final JSON line" ;;
    esac
    if ! grep -q '"correct": true' <<<"$line"; then
        fail "$side ($w, pair $pair): perfbench reports \"correct\": false"
    fi
    v=$(grep -o '"failed": [0-9]*' <<<"$line" | awk '{print $2}')
    if [ "$v" != 0 ]; then
        fail "$side ($w, pair $pair): perfbench reports \"failed\": ${v:-missing}"
    fi
    for m in "${METRICS[@]}"; do
        entry=$(grep -o "\"$m\": {\"value\": [-0-9.e]*, \"unit\": \"[^\"]*\"" <<<"$line" || true)
        v=$(awk -F'"value": ' '{ split($2, a, ","); print a[1] }' <<<"$entry")
        if [ -z "$v" ]; then
            fail "$side ($w, pair $pair): metric $m missing from the final JSON line"
        fi
        echo "$v" >>"$workdir/$w.$side.$m"
        awk -F'"unit": "' '{ sub(/"$/, "", $2); print $2 }' <<<"$entry" >"$workdir/$m.unit"
    done
}

for w in "${WORKLOADS[@]}"; do
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            measure base "$worktree" "$w" "$pair"
            measure change "$PWD" "$w" "$pair"
        else
            measure change "$PWD" "$w" "$pair"
            measure base "$worktree" "$w" "$pair"
        fi
    done
done

median() {
    sort -g "$1" | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

verdict=0
for w in "${WORKLOADS[@]}"; do
    for m in "${METRICS[@]}"; do
        b=$(median "$workdir/$w.base.$m")
        c=$(median "$workdir/$w.change.$m")
        u=$(cat "$workdir/$m.unit")
        ratio=$(awk -v b="$b" -v c="$c" 'BEGIN { printf "%.3f", c / b }')
        echo "perf pairs: $w $m median over $PAIRS pairs: base ${b} ${u} ($base = ${sha:0:12}) change ${c} ${u} ratio ${ratio}"
        p=${BUDGET_PCT[$m]}
        if awk -v b="$b" -v c="$c" -v p="$p" 'BEGIN { exit !(c * 100 > b * p) }'; then
            echo "perf pairs FAILED: $w: change's median $m is ${ratio}x the base's (budget ${p}%)" >&2
            verdict=1
        fi
    done
done
[ "$verdict" -eq 0 ] || exit 1
echo "perf pairs OK: within budget"
