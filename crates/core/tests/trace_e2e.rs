//! End-to-end well-formedness of the per-worker event traces: TC and SG
//! under every strategy × {1, 4} workers, checking that spans on one
//! track nest properly, recorded timestamps are monotone, iteration
//! instants and phase spans agree with the counters, and the Perfetto
//! export is valid JSON with one track per worker plus the controller
//! track.

use dcd_common::Json;
use dcd_runtime::trace::{EventKind, Mark, Phase};
use dcd_runtime::{MetricsSnapshot, TraceEvent, WorkerTrace};
use dcdatalog::{queries, Engine, EngineConfig, Program, Strategy};

fn traced_configs() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for w in [1usize, 4] {
        for s in [Strategy::Global, Strategy::Ssp { s: 2 }, Strategy::Dws] {
            out.push(EngineConfig::with_workers(w).strategy(s).tracing(true));
        }
    }
    out
}

/// The worker's top-level spans (every phase but the nested Merge and
/// Backpressure) abut: each opens exactly where the previous one closed,
/// so from the first to the last no instant of the timeline lies outside
/// one of them.
fn assert_top_level_spans_abut(t: &WorkerTrace, name: &str) {
    let mut spans: Vec<(u64, u64)> = t
        .events
        .iter()
        .filter(|e| match e.kind {
            EventKind::Span(p) => !matches!(p, Phase::Merge | Phase::Backpressure),
            EventKind::Instant(_) => false,
        })
        .map(|e| (e.ts, e.end()))
        .collect();
    spans.sort_unstable();
    assert!(!spans.is_empty(), "{name} w{}: no span", t.worker);
    for pair in spans.windows(2) {
        assert_eq!(
            pair[1].0, pair[0].1,
            "{name} w{}: a gap or an overlap between top-level spans",
            t.worker
        );
    }
}

/// Every send and every merge is attributed to one span: a worker's
/// Distribute spans carry its merges here (`a`) and its sends (`b`), and
/// its nested Merge spans the rows its drains merged (`b`). Exact whatever
/// the schedule, on a trace that dropped nothing.
fn assert_sends_and_merges_are_spanned(w: &MetricsSnapshot, t: &WorkerTrace, name: &str) {
    let sum = |p: Phase, f: fn(&TraceEvent) -> u64| -> u64 {
        let spans = t.events.iter().filter(|e| e.kind == EventKind::Span(p));
        spans.map(f).sum()
    };
    let i = t.worker;
    assert_eq!(t.dropped, 0, "{name} w{i}: a truncated trace cannot add up");
    assert_eq!(
        sum(Phase::Distribute, |e| e.b),
        w.tuples_sent,
        "{name} w{i} sent"
    );
    assert_eq!(
        sum(Phase::Distribute, |e| e.a) + sum(Phase::Merge, |e| e.b),
        w.local_new,
        "{name} w{i} merged"
    );
}

fn run_traced(prog: Program, cfg: EngineConfig) -> dcdatalog::EvalResult {
    let edges: Vec<(i64, i64)> = (0..240).map(|i| (i % 40, (i * 7 + 1) % 40)).collect();
    let mut e = Engine::new(prog, cfg).unwrap();
    e.load_edges("arc", &edges).unwrap();
    e.run().unwrap()
}

/// Spans on one worker track must be disjoint or properly nested —
/// a partial overlap means two phases claim the same wall time.
fn assert_spans_nest(tr: &WorkerTrace, name: &str) {
    let spans: Vec<(u64, u64)> = tr
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span(_)))
        .map(|e| (e.ts, e.end()))
        .collect();
    for (i, &(s1, e1)) in spans.iter().enumerate() {
        for &(s2, e2) in &spans[i + 1..] {
            let disjoint = e1 <= s2 || e2 <= s1;
            let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
            assert!(
                disjoint || nested,
                "{name} w{}: spans [{s1},{e1}] and [{s2},{e2}] partially overlap",
                tr.worker
            );
        }
    }
}

#[test]
fn traces_are_wellformed_across_queries_and_strategies() {
    for (qname, prog) in [("tc", queries::tc()), ("sg", queries::sg())] {
        for cfg in traced_configs() {
            let name = format!("{qname} {} x{}", cfg.strategy.name(), cfg.workers);
            let workers = cfg.workers;
            let r = run_traced(prog.clone().unwrap(), cfg);
            let rep = &r.stats.report;
            assert_eq!(rep.traces.len(), workers, "{name}");
            for (i, tr) in rep.traces.iter().enumerate() {
                assert_eq!(tr.worker, i, "{name}");
                assert_eq!(tr.dropped, 0, "{name}: default ring must not drop");
                assert!(!tr.events.is_empty(), "{name} w{i}: empty trace");
                // Recording order is span-completion order: the recorded
                // end timestamps are monotone.
                for pair in tr.events.windows(2) {
                    assert!(
                        pair[0].end() <= pair[1].end(),
                        "{name} w{i}: end timestamps not monotone"
                    );
                }
                assert_spans_nest(tr, &name);
                assert_top_level_spans_abut(tr, &name);
                assert_sends_and_merges_are_spanned(&rep.per_worker[i], tr, &name);
                // One Iteration instant per local iteration the metrics
                // counted.
                let iters = tr
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Instant(Mark::Iteration)))
                    .count() as u64;
                assert_eq!(iters, rep.per_worker[i].iterations, "{name} w{i}");
            }
            // The Perfetto export parses and carries every track.
            let doc = Json::parse(&rep.trace_json())
                .unwrap_or_else(|e| panic!("{name}: trace JSON does not parse: {e}"));
            assert_eq!(doc.get("schema").unwrap().as_u64(), Some(1), "{name}");
            let events = doc.get("traceEvents").unwrap().items().unwrap();
            let names: Vec<&str> = events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
                .filter_map(|e| e.get("args")?.get("name")?.as_str())
                .collect();
            for w in 0..workers {
                assert!(
                    names.contains(&format!("worker {w}").as_str()),
                    "{name}: missing worker {w} track"
                );
            }
            assert!(names.contains(&"dws-controller"), "{name}");
            for ev in events {
                for field in ["name", "ph", "pid", "tid", "ts"] {
                    assert!(
                        ev.get(field).is_some() || ev.get("ph").and_then(Json::as_str) == Some("M"),
                        "{name}: event missing '{field}'"
                    );
                }
            }
        }
    }
}

#[test]
fn phase_counters_equal_their_span_sums() {
    // A phase is timed once: the same duration feeds its counter and its
    // span, so each counter is exactly the sum of that phase's spans —
    // barrier waits included.
    for (qname, prog) in [("tc", queries::tc()), ("sg", queries::sg())] {
        for cfg in traced_configs() {
            let name = format!("{qname} {} x{}", cfg.strategy.name(), cfg.workers);
            let r = run_traced(prog.clone().unwrap(), cfg);
            let rep = &r.stats.report;
            for (w, tr) in rep.per_worker.iter().zip(&rep.traces) {
                assert_eq!(tr.dropped, 0, "{name}: a truncated trace cannot add up");
                let spans = |p: Phase| -> u64 {
                    tr.events
                        .iter()
                        .filter(|e| e.kind == EventKind::Span(p))
                        .map(|e| e.dur)
                        .sum()
                };
                let i = tr.worker;
                assert_eq!(w.gather_ns, spans(Phase::Gather), "{name} w{i} gather");
                assert_eq!(w.iterate_ns, spans(Phase::EvalDelta), "{name} w{i} iterate");
                assert_eq!(
                    w.distribute_ns,
                    spans(Phase::Distribute),
                    "{name} w{i} distribute"
                );
                assert_eq!(w.idle_ns, spans(Phase::Idle), "{name} w{i} idle");
                assert_eq!(
                    w.omega_wait_ns,
                    spans(Phase::OmegaWait),
                    "{name} w{i} omega-wait"
                );
            }
        }
    }
}

#[test]
fn dws_spans_cover_worker_wall_time() {
    // The acceptance bar for the schedule view: the phase spans account for
    // all of a worker's recorded timeline. Each top-level span opens where
    // the previous one closed, so a pause between two phases (the
    // iteration's end bookkeeping, a DWS decision, a preemption) lands in
    // the next span instead of opening a hole. That holds whatever the
    // thread schedule, so the check is exact, at any worker count.
    let cfg = EngineConfig::with_workers(1)
        .strategy(Strategy::Dws)
        .tracing(true);
    let r = run_traced(queries::tc().unwrap(), cfg);
    assert_top_level_spans_abut(&r.stats.report.traces[0], "dws x1");

    // At 4 workers, also structure: every worker evaluates, distributes
    // and idles, and its spans (EvalDelta split around Iterate's flushes
    // included) nest or are disjoint.
    let cfg = EngineConfig::with_workers(4)
        .strategy(Strategy::Dws)
        .tracing(true);
    let r = run_traced(queries::tc().unwrap(), cfg);
    let rep = &r.stats.report;
    for tr in &rep.traces {
        for phase in [Phase::EvalDelta, Phase::Distribute, Phase::Idle] {
            assert!(
                tr.events.iter().any(|e| e.kind == EventKind::Span(phase)),
                "worker {}: no {phase:?} span",
                tr.worker
            );
        }
        assert_spans_nest(tr, "dws x4");
        assert_top_level_spans_abut(tr, "dws x4");
        assert_sends_and_merges_are_spanned(&rep.per_worker[tr.worker], tr, "dws x4");
    }
    // DWS controller decisions are present and land on the controller
    // track in the export.
    let decisions = rep
        .traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::Instant(Mark::DwsDecision)))
        .count();
    assert!(decisions > 0, "DWS run recorded no controller decisions");
    let doc = Json::parse(&rep.trace_json()).unwrap();
    let controller_tid = rep.workers as f64;
    assert!(
        doc.get("traceEvents")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .any(
                |e| e.get("name").and_then(Json::as_str) == Some("dws-decision")
                    && e.get("tid").and_then(Json::as_f64) == Some(controller_tid)
            ),
        "no dws-decision instant on the controller track"
    );
}

#[test]
fn disabled_tracing_leaves_report_empty_but_shaped() {
    let cfg = EngineConfig::with_workers(2).strategy(Strategy::Dws);
    let r = run_traced(queries::tc().unwrap(), cfg);
    let rep = &r.stats.report;
    assert_eq!(rep.traces.len(), 2, "traces exist even when disabled");
    assert!(rep.traces.iter().all(|t| t.events.is_empty()));
    assert!(rep.iteration_series().is_empty());
    let json = rep.to_json();
    assert!(json.contains("\"iteration_series\": []"));
    assert!(json.contains("\"dropped_events\":0"));
}

#[test]
fn tiny_ring_truncates_and_reports_drops() {
    // Satellite: overflowing a deliberately tiny ring must be detectable
    // through the report, not silent.
    let mut cfg = EngineConfig::with_workers(2)
        .strategy(Strategy::Dws)
        .tracing(true);
    cfg.trace_capacity = 8;
    let r = run_traced(queries::tc().unwrap(), cfg);
    let rep = &r.stats.report;
    let total_dropped: u64 = (0..rep.workers).map(|i| rep.dropped_events(i)).sum();
    assert!(
        total_dropped > 0,
        "an 8-slot ring must overflow on this run"
    );
    for tr in &rep.traces {
        assert!(tr.events.len() <= 8);
    }
    let json = rep.to_json();
    assert!(!json.contains("\"dropped_events\":0") || total_dropped > 0);
}
