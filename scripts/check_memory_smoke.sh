#!/usr/bin/env bash
# Memory smoke check (see DESIGN.md §7): EDB residency must be flat in the
# worker count.
#
# The shared-catalog data plane builds every replicated base relation
# exactly once and hands each worker an Arc to the same sealed copy, so
# the report's run-level `edb_replicated_bytes` at 4 workers must be
# within 1.1x of the 1-worker run. SG exercises this path (its `arc` is
# probed on both columns, so the planner replicates it); TC partitions
# its EDB and must report zero replicated bytes, and the sum of its
# per-worker partitioned slices (`edb_resident_bytes`) at 4 workers must
# also stay within 1.1x of the 1-worker sum.
#
# A second leg pins the stored-once invariant that result collection
# relies on: Distribute stores each row of a single-route relation on one
# worker only, its owner, so Engine::collect can take every row from its
# owner without reconciling copies. For TC and SG (set relations, one
# route each) at 4 workers, and for TC under every strategy, the sum over
# workers of `local_new` (rows newly stored on that worker) must equal
# the row count the CLI prints. A row stored on two workers counts twice
# and fails the leg. (At 1 worker every row merges locally, so the sum
# equals the row count by construction; those runs are left out.)
#
# Run from anywhere inside the repo: scripts/check_memory_smoke.sh
# Pass a prebuilt binary path as $1 to skip the cargo build.

set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-}"
if [ -z "$BIN" ]; then
    export CARGO_NET_OFFLINE=true
    cargo build --release -p dcd-cli >&2
    BIN=target/release/dcdatalog
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# A two-level tree plus cross edges: SG derives real same-generation
# pairs and every strategy exchanges tuples at 4 workers.
awk 'BEGIN {
    for (i = 1; i <= 30; i++) print int((i - 1) / 3), i;
}' > "$workdir/tree.csv"
awk 'BEGIN { for (i = 0; i < 120; i++) print i % 40, (i * 7 + 1) % 40 }' \
    > "$workdir/edges.csv"

field() { # field <name> <file>: first integer value of a top-level field
    grep -o "\"$1\": [0-9]*" "$2" | head -1 | awk '{print $2}'
}

sum_field() { # sum_field <name> <file>: sum over per-worker entries
    grep -o "\"$1\":[0-9]*" "$2" | awk -F: '{s += $2} END {print s + 0}'
}

fail=0
for q in sg tc; do
    case "$q" in
        sg) edb="arc=$workdir/tree.csv" ;;
        tc) edb="arc=$workdir/edges.csv" ;;
    esac
    for w in 1 4; do
        "$BIN" run "programs/$q.dl" --edb "$edb" \
            --workers "$w" --limit 1 \
            --stats-json "$workdir/$q$w.json" > /dev/null
    done
    rep1=$(field edb_replicated_bytes "$workdir/${q}1.json")
    rep4=$(field edb_replicated_bytes "$workdir/${q}4.json")
    res1=$(sum_field edb_resident_bytes "$workdir/${q}1.json")
    res4=$(sum_field edb_resident_bytes "$workdir/${q}4.json")
    echo "$q: replicated ${rep1}B@1w ${rep4}B@4w, partitioned-total ${res1}B@1w ${res4}B@4w"
    case "$q" in
        sg)
            if [ "$rep1" -eq 0 ] || [ "$rep4" -eq 0 ]; then
                echo "FAIL(sg): expected a replicated EDB, got ${rep1}/${rep4} bytes" >&2
                fail=1
            fi
            # Within 1.1x of the 1-worker run (integer math: 10*rep4 <= 11*rep1).
            if [ $((10 * rep4)) -gt $((11 * rep1)) ]; then
                echo "FAIL(sg): replicated residency scaled with workers: ${rep1}B -> ${rep4}B" >&2
                fail=1
            fi
            ;;
        tc)
            if [ "$rep4" -ne 0 ]; then
                echo "FAIL(tc): partitioned EDB reported $rep4 replicated bytes" >&2
                fail=1
            fi
            if [ "$res4" -eq 0 ]; then
                echo "FAIL(tc): no partitioned EDB residency reported" >&2
                fail=1
            fi
            if [ $((10 * res4)) -gt $((11 * res1)) ]; then
                echo "FAIL(tc): partitioned residency grew with workers: ${res1}B -> ${res4}B" >&2
                fail=1
            fi
            tc_res1=$res1
            ;;
    esac
done

base_rows=$(wc -l < "$workdir/edges.csv")
echo "tc: ${tc_res1}B resident for ${base_rows} base rows at 1w, $((tc_res1 / base_rows))B a row"
if [ "$tc_res1" -ge $((40 * base_rows)) ]; then
    echo "FAIL(tc): sealed rows take $((tc_res1 / base_rows))B each, not under 40B" >&2
    fail=1
fi

for run in "tc 4 dws" "sg 4 dws" "tc 4 global" "tc 4 ssp:2"; do
    read -r q w strategy <<< "$run"
    case "$q" in
        sg) edb="arc=$workdir/tree.csv" ;;
        tc) edb="arc=$workdir/edges.csv" ;;
    esac
    out="$workdir/once.json"
    rows=$("$BIN" run "programs/$q.dl" --edb "$edb" \
        --workers "$w" --strategy "$strategy" --limit 1 \
        --stats-json "$out" | sed -n "s/^$q (\([0-9]*\) rows):\$/\1/p")
    stored=$(sum_field local_new "$out")
    echo "$q@${w}w $strategy: stored ${stored} rows, result ${rows:-?} rows"
    if [ -z "$rows" ] || [ "$stored" -ne "$rows" ]; then
        echo "FAIL($q@${w}w $strategy): rows stored ${stored} times for ${rows:-?} result rows" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "memory smoke FAILED" >&2
    exit 1
fi
echo "memory smoke OK: EDB residency is flat in the worker count and under 40B a base row, each derived row is stored once"
