#!/usr/bin/env bash
# Trace smoke check (see DESIGN.md §9): runs TC on 4 workers under DWS
# with `--trace-json` + `--stats-json`, plus the deterministic simulator
# with `--trace-json`, then validates both Chrome/Perfetto exports with
# no JSON tooling beyond grep/awk:
#
#   1. schema stamp, otherData (strategy/clock/workers/dropped_events)
#      and the traceEvents array are present,
#   2. one thread_name metadata track per worker plus the dws-controller
#      track,
#   3. phase spans (ph:"X") and instant marks (ph:"i") both occur and
#      carry the required name/ph/pid/tid/ts fields,
#   4. braces/brackets balance (cheap well-formedness; full parsing is
#      covered by the dcd-common JSON parser in the trace_e2e tests),
#   5. the engine export uses the ns clock, the simulator the tick
#      clock — same schema, comparable side by side,
#   6. the stats JSON of the traced run carries a non-empty
#      iteration_series table,
#   6b. every dws-decision of the engine's DWS run carries the model the
#      controller saw (rho, lambda, mu, lq) and the gate that held omega
#      at 0: "rho>=1", "min_samples" or "none",
#   7. Iterate flushes set rows to Distribute in the middle of an
#      iteration: 1-worker TC on a three-layer complete DAG, whose first
#      iteration derives n^3 rows, must close more Distribute spans than
#      one per iteration plus the init one, its stats JSON must count the
#      trace's iterations, and it must still derive the closed form's 3n^2
#      rows.
#   7b. the init phase flushes too: 1-worker SG on two parents sharing 150
#      children, whose init rule derives 44 700 rows (22 350 distinct),
#      must close more Distribute spans than one per iteration plus the
#      init one, and derive the 22 350 ordered pairs of distinct children.
#
# Run from anywhere inside the repo: scripts/check_trace_smoke.sh
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

awk 'BEGIN { for (i = 0; i < 120; i++) print i % 40, (i * 7 + 1) % 40 }' \
    > "$workdir/edges.csv"

"$BIN" run programs/tc.dl \
    --edb arc="$workdir/edges.csv" \
    --workers 4 --strategy dws --limit 1 \
    --stats-json "$workdir/stats.json" \
    --trace-json "$workdir/trace.json" > /dev/null

"$BIN" simulate --strategy dws --trace-json "$workdir/sim.json" > /dev/null

fail=0
check_trace() {
    local out="$1" clock="$2" label="$3"
    for field in '"schema": 1' '"displayTimeUnit"' '"otherData"' \
                 '"strategy"' '"workers"' '"dropped_events"' \
                 '"traceEvents"' '"ph":"X"' '"ph":"i"' \
                 '"name"' '"pid"' '"tid"' '"ts"' '"dur"'; do
        if ! grep -q "$field" "$out"; then
            echo "FAIL($label): $field missing from $out" >&2
            fail=1
        fi
    done
    if ! grep -q "\"clock\": \"$clock\"" "$out"; then
        echo "FAIL($label): clock is not \"$clock\"" >&2
        fail=1
    fi
    local nworkers w
    nworkers=$(grep -o '"workers": [0-9]*' "$out" | awk '{print $2}')
    if [ -z "$nworkers" ] || [ "$nworkers" -lt 1 ]; then
        echo "FAIL($label): otherData.workers missing" >&2
        fail=1
        nworkers=0
    fi
    w=0
    while [ "$w" -lt "$nworkers" ]; do
        if ! grep -q "\"name\":\"worker $w\"" "$out"; then
            echo "FAIL($label): missing worker $w track" >&2
            fail=1
        fi
        w=$((w + 1))
    done
    if ! grep -q '"name":"dws-controller"' "$out"; then
        echo "FAIL($label): missing dws-controller track" >&2
        fail=1
    fi
    local opens closes
    opens=$(grep -o '{' "$out" | wc -l)
    closes=$(grep -o '}' "$out" | wc -l)
    if [ "$opens" -ne "$closes" ]; then
        echo "FAIL($label): unbalanced braces ($opens vs $closes)" >&2
        fail=1
    fi
    opens=$(grep -o '\[' "$out" | wc -l)
    closes=$(grep -o '\]' "$out" | wc -l)
    if [ "$opens" -ne "$closes" ]; then
        echo "FAIL($label): unbalanced brackets ($opens vs $closes)" >&2
        fail=1
    fi
    echo "ok($label): $(grep -c '"ph":"X"' "$out") spans," \
         "$(grep -c '"ph":"i"' "$out") instants, clock=$clock"
}

check_trace "$workdir/trace.json" ns engine
check_trace "$workdir/sim.json" ticks simulator

# -- The traced run's stats JSON carries the iteration table -------------
if ! grep -q '"iteration_series": \[$' "$workdir/stats.json"; then
    echo 'FAIL(stats): traced run has an empty/missing iteration_series' >&2
    fail=1
fi
for col in rows_in rows_out queue_depth omega tau; do
    if ! grep -q "\"$col\"" "$workdir/stats.json"; then
        echo "FAIL(stats): iteration_series column \"$col\" missing" >&2
        fail=1
    fi
done

# -- DWS decisions carry the controller's model --------------------------
decisions=$(grep -c '"name":"dws-decision"' "$workdir/trace.json" || true)
modelled=$(grep -c '"name":"dws-decision".*"rho":[^,]*,"lambda":[^,]*,"mu":[^,]*,"lq":[^,]*,"gate":"\(rho>=1\|min_samples\|none\)"' \
    "$workdir/trace.json" || true)
if [ "$decisions" -eq 0 ] || [ "$modelled" -ne "$decisions" ]; then
    echo "FAIL(dws): $modelled of $decisions dws-decision events carry rho/lambda/mu/lq/gate" >&2
    fail=1
fi
echo "ok(dws): $decisions decisions, gates:" \
     "$(grep -o '"gate":"[^"]*"' "$workdir/trace.json" | sort | uniq -c | tr -s ' \n' ' ')"

# -- Iterate flushes mid-iteration ---------------------------------------
# Layers of n = 40 nodes: one iteration derives n^3 = 64 000 tc rows, well
# over twice the engine's 2^14-row flush budget.
n=40
awk -v n="$n" 'BEGIN {
    for (a = 0; a < n; a++) for (b = n; b < 2 * n; b++) print a, b
    for (b = n; b < 2 * n; b++) for (c = 2 * n; c < 3 * n; c++) print b, c
}' > "$workdir/dag.csv"
"$BIN" run programs/tc.dl \
    --edb arc="$workdir/dag.csv" \
    --workers 1 --strategy global --limit 1 \
    --stats-json "$workdir/dag_stats.json" \
    --trace-json "$workdir/dag_trace.json" > "$workdir/dag_out.txt"
distributes=$(grep -c '"name":"Distribute".*"tid":0,' "$workdir/dag_trace.json" || true)
iterations=$(grep -c '"name":"iteration".*"tid":0,' "$workdir/dag_trace.json" || true)
if [ "$distributes" -le $((iterations + 1)) ]; then
    echo "FAIL(flush): worker 0 closed $distributes Distribute spans for" \
         "$iterations iterations; no mid-iteration flush" >&2
    fail=1
fi
rows=$(grep -o '^tc ([0-9]* rows' "$workdir/dag_out.txt" | grep -o '[0-9][0-9]*' || true)
if [ "$rows" != $((3 * n * n)) ]; then
    echo "FAIL(flush): tc has ${rows:-no} rows, closed form $((3 * n * n))" >&2
    fail=1
fi
stats_iterations=$(grep -o '"iterations":[0-9]*' "$workdir/dag_stats.json" | head -1 | grep -o '[0-9][0-9]*' || true)
if [ "$stats_iterations" != "$iterations" ]; then
    echo "FAIL(flush): stats JSON counts ${stats_iterations:-no} iterations," \
         "the trace $iterations" >&2
    fail=1
fi
echo "ok(flush): $distributes Distribute spans, $iterations iterations, $rows rows"

# -- The init phase flushes mid-rule -------------------------------------
# Parents 0 and 1 share children 2..151: SG's init rule derives every
# ordered pair of distinct children once per parent, 44 700 rows, and the
# recursive rule nothing more.
awk 'BEGIN { for (p = 0; p < 2; p++) for (c = 2; c < 152; c++) print p, c }' \
    > "$workdir/parents.csv"
"$BIN" run programs/sg.dl \
    --edb arc="$workdir/parents.csv" \
    --workers 1 --strategy global --limit 1 \
    --trace-json "$workdir/sg_trace.json" > "$workdir/sg_out.txt"
distributes=$(grep -c '"name":"Distribute".*"tid":0,' "$workdir/sg_trace.json" || true)
iterations=$(grep -c '"name":"iteration".*"tid":0,' "$workdir/sg_trace.json" || true)
if [ "$distributes" -le $((iterations + 1)) ]; then
    echo "FAIL(init flush): worker 0 closed $distributes Distribute spans for" \
         "$iterations iterations; no flush during the init phase" >&2
    fail=1
fi
rows=$(grep -o '^sg ([0-9]* rows' "$workdir/sg_out.txt" | grep -o '[0-9][0-9]*' || true)
if [ "$rows" != 22350 ]; then
    echo "FAIL(init flush): sg has ${rows:-no} rows, closed form 22350" >&2
    fail=1
fi
echo "ok(init flush): $distributes Distribute spans, $iterations iterations, $rows rows"

if [ "$fail" -ne 0 ]; then
    echo "trace smoke FAILED" >&2
    exit 1
fi
echo "trace smoke OK: engine and simulator exports share the schema"
