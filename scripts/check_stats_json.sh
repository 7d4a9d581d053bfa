#!/usr/bin/env bash
# Metrics smoke check (see DESIGN.md §6): runs TC on 4 workers under all
# three coordination strategies with `--stats-json` (the DWS run also with
# `--trace-json`), then validates the emitted EvalReport without any JSON
# tooling beyond grep/awk:
#
#   1. schema version and every per-worker counter field are present,
#   2. the report carries exactly --workers per_worker entries,
#   3. produced == consumed (the fixpoint/reconciliation invariant),
#   4. the traced DWS run carries a non-empty iteration_series, whose
#      omega/tau columns are the controller's trajectory,
#   5. the sent-filter engages: Σ cache_hits over per_worker is > 0,
#   6. each head row meets exactly one existence check: TC's one set
#      relation routes by one column, so Σ stored_checks (rows this worker
#      owns, checked against its store at the kernel's sink) plus
#      Σ (cache_hits + cache_misses) (rows for a peer, checked by
#      Distribute's sent-filter) equals Σ head_rows,
#   7. the run-level clocks: seal_ns > 0 (the EDB is not empty),
#      collect_ns is present, and seal_ns + elapsed_ns + collect_ns is at
#      most the CLI call's wall time (timed with `date +%s%N`). The three
#      clocks are disjoint parts of `Engine::run`, so a larger sum means a
#      phase is counted twice, whatever the schedule.
#
# A final 1-worker TC run must report cache_hits == cache_misses == 0 on
# every worker: the only existence cache is the sent-filter on the
# exchange, and one worker routes nothing.
#
# An SSSP leg runs programs/sssp.dl from vertex 0 over a generated
# weighted graph (1 500 vertices: a ring plus four pseudo-random out-edges
# each) under global, ssp:2 and dws at 1 and 4 workers. All six must
# print the same relations, each must reconcile (produced == consumed),
# and the 1-worker runs must stay under a kernel_rows bound: evaluating
# the `min` delta best-first takes 1 816 kernel rows there, semi-naive
# rounds took 2 638, and the bound is the former plus 10%.
#
# Run from anywhere inside the repo: scripts/check_stats_json.sh
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

# A small dense-ish graph: 120 edges over 40 vertices, cycles included,
# so every strategy does several iterations and real exchange.
awk 'BEGIN { for (i = 0; i < 120; i++) print i % 40, (i * 7 + 1) % 40 }' \
    > "$workdir/edges.csv"

fail=0

# sum_field FIELD STATS_FILE: FIELD summed over the per_worker entries.
sum_field() {
    grep -o "\"$1\":[0-9]*" "$2" | awk -F: '{s += $2} END {print s + 0}'
}

# check_clocks LABEL STATS_FILE WALL_NS: item 7 above.
check_clocks() {
    local label=$1 out=$2 wall=$3 seal elapsed collect
    seal=$(grep -o '"seal_ns": [0-9]*' "$out" | awk '{print $2}')
    elapsed=$(grep -o '"elapsed_ns": [0-9]*' "$out" | awk '{print $2}')
    collect=$(grep -o '"collect_ns": [0-9]*' "$out" | awk '{print $2}')
    if [ -z "$seal" ] || [ -z "$elapsed" ] || [ -z "$collect" ]; then
        echo "FAIL($label): seal_ns, elapsed_ns or collect_ns missing" >&2
        fail=1
        return
    fi
    if [ "$seal" -eq 0 ]; then
        echo "FAIL($label): seal_ns is 0 on a non-empty EDB" >&2
        fail=1
    fi
    if [ $((seal + elapsed + collect)) -gt "$wall" ]; then
        echo "FAIL($label): seal_ns + elapsed_ns + collect_ns = $((seal + elapsed + collect)) > wall $wall ns" >&2
        fail=1
    fi
}

for strategy in global ssp:2 dws; do
    out="$workdir/stats_${strategy%%:*}.json"
    trace=()
    if [ "$strategy" = dws ]; then
        trace=(--trace-json "$workdir/trace_dws.json")
    fi
    t0=$(date +%s%N)
    "$BIN" run programs/tc.dl \
        --edb arc="$workdir/edges.csv" \
        --workers 4 --strategy "$strategy" \
        --limit 1 --stats-json "$out" "${trace[@]}" > /dev/null
    wall=$(($(date +%s%N) - t0))

    # -- Field presence --------------------------------------------------
    for field in schema strategy workers seal_ns elapsed_ns collect_ns \
                 produced consumed \
                 exchanged_bytes edb_replicated_bytes \
                 per_worker worker iterations tuples_processed tuples_sent \
                 batches_out batches_in tuples_in bytes_sent bytes_in \
                 edb_resident_bytes local_new \
                 backpressure_retries idle_ns omega_wait_ns gather_ns \
                 iterate_ns distribute_ns cache_hits cache_misses \
                 probe_hits probe_reuse kernel_batches kernel_rows \
                 head_rows stored_checks rows_per_batch dropped_events iteration_series; do
        if ! grep -q "\"$field\"" "$out"; then
            echo "FAIL($strategy): field \"$field\" missing from $out" >&2
            fail=1
        fi
    done

    # -- Schema version (7 = per-worker head_rows and stored_checks) -----
    if ! grep -q '"schema": 7' "$out"; then
        echo "FAIL($strategy): report schema is not 7 in $out" >&2
        fail=1
    fi
    check_clocks "$strategy" "$out" "$wall"
    for gone in dws_samples samples_dropped; do
        if grep -q "\"$gone\"" "$out"; then
            echo "FAIL($strategy): schema-4 field \"$gone\" still emitted" >&2
            fail=1
        fi
    done

    # -- Per-worker cardinality (iteration_series rows also carry a
    #    "worker" key, so match the per_worker shape) --------------------
    nworkers=$(grep -c '"worker":[0-9]*,"iterations"' "$out")
    if [ "$nworkers" -ne 4 ]; then
        echo "FAIL($strategy): expected 4 per_worker entries, got $nworkers" >&2
        fail=1
    fi

    # -- Reconciliation: produced == consumed ----------------------------
    produced=$(grep -o '"produced": [0-9]*' "$out" | awk '{print $2}')
    consumed=$(grep -o '"consumed": [0-9]*' "$out" | awk '{print $2}')
    if [ -z "$produced" ] || [ "$produced" != "$consumed" ]; then
        echo "FAIL($strategy): produced ($produced) != consumed ($consumed)" >&2
        fail=1
    fi

    # -- Byte accounting: producer and consumer totals agree -------------
    exchanged=$(grep -o '"exchanged_bytes": [0-9]*' "$out" | awk '{print $2}')
    bytes_in_total=$(grep -o '"bytes_in":[0-9]*' "$out" | awk -F: '{s += $2} END {print s + 0}')
    if [ -z "$exchanged" ] || [ "$exchanged" != "$bytes_in_total" ]; then
        echo "FAIL($strategy): exchanged_bytes ($exchanged) != sum bytes_in ($bytes_in_total)" >&2
        fail=1
    fi

    # -- The traced DWS run carries its ω/τ trajectory -------------------
    if [ "$strategy" = dws ]; then
        if ! grep -q '"iteration_series": \[$' "$out"; then
            echo "FAIL(dws): traced run has an empty/missing iteration_series" >&2
            fail=1
        fi
        if ! grep -q '"omega":[0-9]*,"tau":[0-9]*' "$out"; then
            echo "FAIL(dws): iteration_series lacks omega/tau columns" >&2
            fail=1
        fi
    fi

    # -- The sent-filter engages at 4 workers ----------------------------
    hits=$(grep -o '"cache_hits":[0-9]*' "$out" | awk -F: '{s += $2} END {print s + 0}')
    if [ "$hits" -eq 0 ]; then
        echo "FAIL($strategy): sum of per_worker cache_hits is 0 (sent-filter never hit)" >&2
        fail=1
    fi

    # -- One existence check per head row --------------------------------
    head_rows=$(sum_field head_rows "$out")
    checks=$(sum_field stored_checks "$out")
    filtered=$(($(sum_field cache_hits "$out") + $(sum_field cache_misses "$out")))
    if [ "$head_rows" -eq 0 ] || [ $((checks + filtered)) -ne "$head_rows" ]; then
        echo "FAIL($strategy): stored_checks ($checks) + filter lookups ($filtered) != head_rows ($head_rows)" >&2
        fail=1
    fi

    echo "ok($strategy): produced=$produced consumed=$consumed workers=$nworkers cache_hits=$hits head_rows=$head_rows stored_checks=$checks"
done

# -- One worker: no cache is consulted -----------------------------------
out="$workdir/stats_1w.json"
"$BIN" run programs/tc.dl --edb arc="$workdir/edges.csv" \
    --workers 1 --limit 1 --stats-json "$out" > /dev/null
nonzero=$(grep -o '"cache_\(hits\|misses\)":[0-9]*' "$out" | grep -vc ':0$' || true)
counted=$(grep -c '"cache_hits":[0-9]*,"cache_misses":[0-9]*' "$out" || true)
if [ "$counted" -ne 1 ] || [ "$nonzero" -ne 0 ]; then
    echo "FAIL(1 worker): expected one per_worker entry with cache_hits == cache_misses == 0" >&2
    fail=1
else
    echo "ok(1 worker): cache_hits == cache_misses == 0"
fi

# -- SSSP: every strategy and worker count agrees; best-first stays lean --
# A 16-bit LCG (exact in awk's doubles) picks the chords and weights.
awk 'BEGIN {
    n = 1500; x = 1
    for (i = 0; i < n; i++) {
        print i, (i + 1) % n, 50
        for (j = 1; j < 5; j++) {
            x = (x * 75 + 74) % 65537; y = (x * 75 + 74) % 65537; x = y
            print i, x % n, y % 100 + 1
        }
    }
}' > "$workdir/warc.csv"
kernel_bound=1998
for strategy in global ssp:2 dws; do
    for workers in 1 4; do
        label="sssp $strategy x$workers"
        out="$workdir/sssp_${strategy%%:*}_$workers"
        t0=$(date +%s%N)
        "$BIN" run programs/sssp.dl --edb warc="$workdir/warc.csv" \
            --param start=0 --workers "$workers" --strategy "$strategy" \
            --limit 0 --stats-json "$out.json" \
            | grep -v '^done in\|^wrote stats' > "$out.txt"
        check_clocks "$label" "$out.json" $(($(date +%s%N) - t0))
        if ! cmp -s "$out.txt" "$workdir/sssp_global_1.txt"; then
            echo "FAIL($label): results differ from global x1" >&2
            fail=1
        fi
        produced=$(grep -o '"produced": [0-9]*' "$out.json" | awk '{print $2}')
        consumed=$(grep -o '"consumed": [0-9]*' "$out.json" | awk '{print $2}')
        if [ -z "$produced" ] || [ "$produced" != "$consumed" ]; then
            echo "FAIL($label): produced ($produced) != consumed ($consumed)" >&2
            fail=1
        fi
        kernel_rows=$(grep -o '"kernel_rows":[0-9]*' "$out.json" | awk -F: '{s += $2} END {print s + 0}')
        if [ "$workers" -eq 1 ] && [ "$kernel_rows" -gt "$kernel_bound" ]; then
            echo "FAIL($label): $kernel_rows kernel rows, bound $kernel_bound" >&2
            fail=1
        fi
        echo "ok($label): produced=$produced consumed=$consumed kernel_rows=$kernel_rows"
    done
done
if ! grep -q '^results (1500 rows):$' "$workdir/sssp_global_1.txt"; then
    echo "FAIL(sssp): expected 1500 results rows" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "stats-json check FAILED" >&2
    exit 1
fi
echo "stats-json check OK: schema valid, counters reconcile"
