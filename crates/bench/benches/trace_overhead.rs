//! Microbenchmark: tracer overhead on the TC anchor workload.
//!
//! Runs the same rmat-256 transitive-closure evaluation with event
//! tracing disabled and enabled. Two measurements are taken:
//!
//! 1. The harness's usual median-of-N timing for each case (recorded in
//!    the JSON output so baselines can diff absolute numbers).
//! 2. A *paired* interleaved off/on sample series, which is what the
//!    overhead guard asserts on: back-to-back groups drift by 10–20% on
//!    a containerized CI machine (thermal/scheduler state), swamping
//!    the effect; alternating runs cancel the drift because both sides
//!    see the same machine state.
//!
//! Tracing adds one bounds-checked push into a preallocated `Vec` per
//! phase and mark (the phase counters are fed either way), so the budget
//! is ~5% on this anchor; the
//! assert adds a noise margin for what the paired estimator still
//! cannot cancel.
//!
//! Run with `cargo bench -p dcd-bench --bench trace_overhead`; pass
//! `--json PATH` for machine-readable results.

use dcd_bench::datasets::SEED;
use dcd_bench::microbench::Harness;
use dcdatalog::{queries, Engine, EngineConfig, Tuple};
use std::time::Instant;

const WORKERS: usize = 2;

/// Paired off/on rounds the overhead guard averages over.
const PAIRS: usize = 8;

/// Documented overhead budget on the TC anchor.
const BUDGET_PCT: f64 = 5.0;
/// Extra allowance for scheduler noise the paired estimator can't cancel.
const NOISE_PCT: f64 = 7.0;

fn tc_engine(traced: bool) -> Engine {
    let tc = queries::tc().expect("tc program");
    let rows: Vec<Tuple> = dcd_datagen::rmat(256, SEED)
        .iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect();
    let cfg = EngineConfig::with_workers(WORKERS).tracing(traced);
    let mut e = Engine::new(tc, cfg).expect("plans");
    e.load_edb("arc", rows).expect("loads");
    e
}

fn main() {
    let mut h = Harness::from_args();

    let off = tc_engine(false);
    let on = tc_engine(true);
    // Warm once each and sanity-check the traced run actually records.
    let warm_off = off.run().expect("tc runs untraced");
    let warm_on = on.run().expect("tc runs traced");
    assert_eq!(
        warm_off.relation("tc").len(),
        warm_on.relation("tc").len(),
        "tracing must not change the fixpoint"
    );
    let events: usize = warm_on
        .stats
        .report
        .traces
        .iter()
        .map(|t| t.events.len())
        .sum();
    assert!(events > 0, "traced run recorded no events");

    // The guard: paired interleaved samples, median of per-pair ratios.
    if h.is_selected("trace_overhead", "paired_guard") {
        let mut ratios: Vec<f64> = (0..PAIRS)
            .map(|_| {
                let t = Instant::now();
                off.run().unwrap();
                let t_off = t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                on.run().unwrap();
                let t_on = t.elapsed().as_nanos() as f64;
                t_on / t_off
            })
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = (ratios[PAIRS / 2] - 1.0) * 100.0;
        println!(
            "tracer overhead on TC anchor (paired median of {PAIRS}): {pct:+.2}% \
             (budget {BUDGET_PCT}%, noise margin {NOISE_PCT}%)"
        );
        assert!(
            pct <= BUDGET_PCT + NOISE_PCT,
            "enabled tracing costs {pct:.2}% on the TC anchor, over the \
             {BUDGET_PCT}% budget (+{NOISE_PCT}% noise margin)"
        );
    }

    // Absolute medians for the JSON record (not asserted against each
    // other: sequential groups drift more than the tracer costs).
    h.bench("trace_overhead", "tc_rmat256_off", || {
        off.run().unwrap();
    });
    h.bench("trace_overhead", "tc_rmat256_on", || {
        on.run().unwrap();
    });
    h.annotate_last(format!(r#"{{"trace_events":{events}}}"#));

    h.finish();
}
