//! Metric derivations on hand-built traces and reports.

use dcd_runtime::trace::{EventKind, Mark, Phase, TraceEvent, WorkerTrace};
use dcdatalog::{EvalReport, MetricsSnapshot};
use perfbench::ledger::{counter_metrics, span_metrics, SpanTotals};
use perfbench::stats::{failed_frac, median};

fn span(phase: Phase, ts: u64, dur: u64, b: u64) -> TraceEvent {
    TraceEvent {
        kind: EventKind::Span(phase),
        ts,
        dur,
        iteration: 0,
        a: 0,
        b,
        c: 0,
    }
}

fn mark(mark: Mark, ts: u64, a: u64) -> TraceEvent {
    TraceEvent {
        kind: EventKind::Instant(mark),
        ts,
        dur: 0,
        iteration: 0,
        a,
        b: 0,
        c: 0,
    }
}

/// Worker 0's track, in recording order (by span end, children first):
/// Gather[0,100] ⊃ Merge[10,40]; Distribute[100,200] ⊃ Backpressure[120,170]
/// ⊃ Merge[130,150]; Idle[200,250]; OmegaWait[250,300] ⊃ Merge[260,280].
fn worker0() -> WorkerTrace {
    WorkerTrace {
        worker: 0,
        events: vec![
            span(Phase::Merge, 10, 30, 3),
            span(Phase::Gather, 0, 100, 0),
            span(Phase::Merge, 130, 20, 2),
            span(Phase::Backpressure, 120, 50, 0),
            span(Phase::Distribute, 100, 100, 0),
            mark(Mark::TerminationRound, 250, 1),
            span(Phase::Idle, 200, 50, 0),
            span(Phase::Merge, 260, 20, 1),
            span(Phase::OmegaWait, 250, 50, 0),
            mark(Mark::DwsDecision, 300, 8),
            mark(Mark::DwsDecision, 300, 0),
        ],
        dropped: 0,
    }
}

fn worker1() -> WorkerTrace {
    WorkerTrace {
        worker: 1,
        events: vec![
            span(Phase::EvalDelta, 0, 150, 0),
            span(Phase::Idle, 150, 50, 0),
            mark(Mark::DwsDecision, 200, 0),
        ],
        dropped: 2,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let s = SpanTotals::of(&[worker0()]);
    assert_eq!(s.self_ns[Phase::Gather as usize], 70);
    assert_eq!(s.self_ns[Phase::Merge as usize], 30 + 20 + 20);
    assert_eq!(
        s.self_ns[Phase::Distribute as usize],
        50,
        "minus Backpressure"
    );
    assert_eq!(
        s.self_ns[Phase::Backpressure as usize],
        30,
        "minus its Merge"
    );
    assert_eq!(s.self_ns[Phase::Idle as usize], 50);
    assert_eq!(s.self_ns[Phase::OmegaWait as usize], 30);
    assert_eq!(s.top_level_ns, 300);
    assert_eq!(s.merge_new, 6);
    assert_eq!(s.termination_rounds, 1);
    assert_eq!((s.dws_decisions, s.dws_omega_nonzero), (2, 1));
    let total_self: u64 = s.self_ns.iter().sum();
    assert_eq!(total_self, s.top_level_ns, "self times partition the track");
}

#[test]
fn coverage_is_top_level_time_over_workers_times_wall() {
    let s = SpanTotals::of(&[worker0(), worker1()]);
    // Worker 0 covers 300 ns, worker 1 200 ns, of 2 × 400 ns.
    assert!((s.coverage(2, 400) - 500.0 / 800.0).abs() < 1e-12);
    assert_eq!(s.dropped, 2);
    assert_eq!(s.coverage(2, 0), 0.0);
}

fn report() -> EvalReport {
    let a = MetricsSnapshot {
        iterations: 3,
        tuples_sent: 40,
        batches_out: 4,
        bytes_sent: 640,
        tuples_in: 12,
        local_new: 30,
        cache_hits: 3,
        cache_misses: 1,
        probe_hits: 1,
        probe_reuse: 9,
        kernel_rows: 100,
        kernel_batches: 3,
        iterate_ns: 300,
        ..MetricsSnapshot::default()
    };
    let b = MetricsSnapshot {
        iterations: 1,
        tuples_in: 8,
        local_new: 10,
        kernel_rows: 50,
        kernel_batches: 1,
        iterate_ns: 100,
        idle_ns: 400,
        ..MetricsSnapshot::default()
    };
    EvalReport {
        strategy: "DWS".into(),
        workers: 2,
        elapsed_ns: 400,
        per_worker: vec![a, b],
        traces: vec![worker0(), worker1()],
        ..EvalReport::default()
    }
}

fn get(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn counter_metrics_sum_workers_and_divide_by_their_base() {
    let m = counter_metrics(&report(), 20);
    assert_eq!(get(&m, "merge.local_new"), 40.0);
    assert_eq!(get(&m, "merge.stored_per_result_row"), 2.0);
    assert_eq!(get(&m, "merge.cache_hit_rate"), 0.75);
    assert_eq!(get(&m, "eval.kernel_rows"), 150.0);
    assert_eq!(get(&m, "eval.probe_reuse_ratio"), 0.9);
    assert_eq!(get(&m, "exchange.tuples_per_batch"), 10.0);
    assert_eq!(get(&m, "exchange.sent_per_result_row"), 2.0);
    assert_eq!(get(&m, "coord.iterations"), 4.0);
    assert!((get(&m, "coord.imbalance") - 1.5).abs() < 1e-12);
    // Nothing sent, nothing cached: ratios are 0, not NaN.
    let empty = counter_metrics(&EvalReport::default(), 0);
    assert!(empty.iter().all(|(_, v)| v.is_finite()));
}

#[test]
fn span_metrics_read_self_times_and_span_arguments() {
    let m = span_metrics(&report());
    assert!((get(&m, "merge.inbound_ms") - 70e-6).abs() < 1e-15);
    // Σ Merge `new` = 6 of 20 tuples received.
    assert!((get(&m, "merge.inbound_new_ratio") - 0.3).abs() < 1e-12);
    assert!((get(&m, "eval.busy_ms") - 150e-6).abs() < 1e-15);
    assert!(
        (get(&m, "eval.ns_per_row") - 1.0).abs() < 1e-12,
        "150 ns over 150 rows"
    );
    assert!((get(&m, "exchange.distribute_ms") - 50e-6).abs() < 1e-15);
    assert_eq!(get(&m, "dws.decisions"), 3.0);
    assert!((get(&m, "dws.omega_nonzero_frac") - 1.0 / 3.0).abs() < 1e-12);
    assert!((get(&m, "trace.coverage") - 0.625).abs() < 1e-12);
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn failed_frac_counts_against_attempts() {
    assert_eq!(failed_frac(0, 0), 0.0);
    assert_eq!(failed_frac(0, 12), 0.0);
    assert_eq!(failed_frac(3, 12), 0.25);
}
