//! Per-layer numbers derived from a run's `EvalReport`: span self times
//! and marks from the traces, counters from the per-worker snapshots.

use dcd_runtime::trace::{EventKind, Mark, Phase, WorkerTrace};
use dcdatalog::EvalReport;
use std::cmp::Reverse;

/// Span and mark totals over all workers of one traced run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Self time per phase in ns (a span minus its nested children),
    /// indexed by `Phase as usize`.
    pub self_ns: [u64; 7],
    /// Time covered by top-level spans (those nested in no other span).
    pub top_level_ns: u64,
    /// Σ of the `new` argument of Merge spans.
    pub merge_new: u64,
    /// Termination-detection rounds.
    pub termination_rounds: u64,
    /// DWS controller decisions.
    pub dws_decisions: u64,
    /// Decisions that chose a non-zero ω.
    pub dws_omega_nonzero: u64,
    /// Events lost to full trace rings.
    pub dropped: u64,
}

impl SpanTotals {
    /// Folds every worker's trace. Spans on one track are disjoint or
    /// properly nested, so each span's parent is the innermost open span
    /// that contains it once spans are ordered by (start, longest first).
    pub fn of(traces: &[WorkerTrace]) -> SpanTotals {
        let mut out = SpanTotals::default();
        for tr in traces {
            out.dropped += tr.dropped;
            let mut spans: Vec<(u64, u64, Phase)> = Vec::new();
            for ev in &tr.events {
                match ev.kind {
                    EventKind::Span(p) => {
                        spans.push((ev.ts, ev.end(), p));
                        if p == Phase::Merge {
                            out.merge_new += ev.b;
                        }
                    }
                    EventKind::Instant(Mark::TerminationRound) => out.termination_rounds += 1,
                    EventKind::Instant(Mark::DwsDecision) => {
                        out.dws_decisions += 1;
                        out.dws_omega_nonzero += u64::from(ev.a > 0);
                    }
                    EventKind::Instant(Mark::Iteration) => {}
                }
            }
            spans.sort_by_key(|&(ts, end, _)| (ts, Reverse(end)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, &(ts, end, _)) in spans.iter().enumerate() {
                while let Some(&top) = open.last() {
                    if spans[top].1 >= end {
                        break;
                    }
                    open.pop();
                }
                match open.last() {
                    Some(&parent) => child_ns[parent] += end - ts,
                    None => out.top_level_ns += end - ts,
                }
                open.push(i);
            }
            for (&(ts, end, p), child) in spans.iter().zip(child_ns) {
                out.self_ns[p as usize] += (end - ts).saturating_sub(child);
            }
        }
        out
    }

    /// Self time of `phase` in milliseconds.
    pub fn self_ms(&self, phase: Phase) -> f64 {
        self.self_ns[phase as usize] as f64 / 1e6
    }

    /// Σ top-level span time over `workers × fixpoint wall`.
    pub fn coverage(&self, workers: usize, fixpoint_ns: u64) -> f64 {
        ratio(
            self.top_level_ns as f64,
            (workers as u64 * fixpoint_ns) as f64,
        )
    }
}

/// `num / den`, or 0.0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter-derived layer metrics of one untraced run.
/// `result_rows` is the size of the answer relation.
pub fn counter_metrics(rep: &EvalReport, result_rows: usize) -> Vec<(&'static str, f64)> {
    let t = |f: fn(&dcdatalog::MetricsSnapshot) -> u64| rep.total(f) as f64;
    let rows = result_rows as f64;
    let local_new = t(|w| w.local_new);
    let (hits, misses) = (t(|w| w.cache_hits), t(|w| w.cache_misses));
    let (probe_hits, probe_reuse) = (t(|w| w.probe_hits), t(|w| w.probe_reuse));
    let sent = t(|w| w.tuples_sent);
    let batches_out = t(|w| w.batches_out);
    vec![
        ("merge.local_new", local_new),
        ("merge.stored_per_result_row", ratio(local_new, rows)),
        ("merge.cache_hit_rate", ratio(hits, hits + misses)),
        ("eval.kernel_rows", t(|w| w.kernel_rows)),
        ("eval.kernel_batches", t(|w| w.kernel_batches)),
        (
            "eval.probe_reuse_ratio",
            ratio(probe_reuse, probe_reuse + probe_hits),
        ),
        (
            "exchange.backpressure_retries",
            t(|w| w.backpressure_retries),
        ),
        ("exchange.tuples_sent", sent),
        ("exchange.bytes_sent", t(|w| w.bytes_sent)),
        ("exchange.batches_out", batches_out),
        ("exchange.tuples_per_batch", ratio(sent, batches_out)),
        ("exchange.sent_per_result_row", ratio(sent, rows)),
        ("coord.iterations", t(|w| w.iterations)),
        ("coord.imbalance", rep.imbalance()),
        ("coord.idle_fraction", rep.idle_fraction()),
    ]
}

/// Span-derived layer metrics of one traced run at `rep.workers` workers.
pub fn span_metrics(rep: &EvalReport) -> Vec<(&'static str, f64)> {
    let s = SpanTotals::of(&rep.traces);
    let kernel_rows = rep.total(|w| w.kernel_rows) as f64;
    vec![
        ("merge.inbound_ms", s.self_ms(Phase::Merge)),
        (
            "merge.inbound_new_ratio",
            ratio(s.merge_new as f64, rep.total(|w| w.tuples_in) as f64),
        ),
        ("eval.busy_ms", s.self_ms(Phase::EvalDelta)),
        (
            "eval.ns_per_row",
            ratio(s.self_ns[Phase::EvalDelta as usize] as f64, kernel_rows),
        ),
        ("exchange.distribute_ms", s.self_ms(Phase::Distribute)),
        ("exchange.backpressure_ms", s.self_ms(Phase::Backpressure)),
        ("coord.gather_ms", s.self_ms(Phase::Gather)),
        ("coord.idle_ms", s.self_ms(Phase::Idle)),
        ("coord.omega_wait_ms", s.self_ms(Phase::OmegaWait)),
        ("coord.termination_rounds", s.termination_rounds as f64),
        ("dws.decisions", s.dws_decisions as f64),
        (
            "dws.omega_nonzero_frac",
            ratio(s.dws_omega_nonzero as f64, s.dws_decisions as f64),
        ),
        ("trace.coverage", s.coverage(rep.workers, rep.elapsed_ns)),
    ]
}
