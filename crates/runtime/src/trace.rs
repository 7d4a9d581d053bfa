//! Per-worker event tracing: the temporal companion to [`crate::metrics`].
//!
//! The aggregate counters of the observability layer (DESIGN.md §6) say
//! *how much* time each worker spent in each phase; they cannot say
//! *when*. Diagnosing a slow run — which worker stalled, in which phase,
//! at which iteration, how the DWS controller's ω-wait decisions actually
//! interleaved — needs a timeline: exactly the schedule structure the
//! paper's Figure 3 reasons about. This module records one, cheaply:
//!
//! * [`crate::Recorder`] records the events: the same call that adds a
//!   phase's time to its counter pushes the span into a preallocated
//!   per-worker `Vec` (allocation-free on the hot path, no lock — the
//!   worker owns it). When the buffer is full, further events bump a
//!   drop counter instead of growing — a truncated trace is *detectable*
//!   (the count is surfaced per worker in the `EvalReport`) rather than
//!   silently misleading.
//! * [`TraceEvent`] — a fixed-size record: phase spans (Gather,
//!   EvalDelta, Distribute, Merge, ω-wait, backpressure, idle) and
//!   instant marks (iteration boundaries, DWS controller decisions,
//!   termination-detection rounds), stamped with a run-relative
//!   monotonic clock and the worker's local iteration counter.
//! * [`chrome_trace_json`] — serializes traces in the Chrome
//!   trace-event format, which Perfetto (`ui.perfetto.dev`) loads
//!   directly: one track per worker plus one for the DWS controller,
//!   whose decisions carry the queueing model behind them (ρ, λ, μ, L_q
//!   and the gate that held ω at 0, if any) when the run recorded it.
//!   The deterministic simulator emits the *same* schema in abstract
//!   time units, so a real DWS run and its simulated schedule open
//!   side-by-side in the same viewer.
//! * [`iteration_series`] — folds a trace into a per-iteration
//!   time-series table (delta rows in/out, queue depth, ω/τ estimates)
//!   for convergence-curve analysis; embedded in the stats JSON.
//!
//! Clock domain: all workers of one evaluation share a single epoch
//! (`Instant` taken when the coordination state is built), so their
//! tracks align. Spans are recorded at *completion* (one event per
//! phase, not begin/end pairs), which means buffer order is sorted by
//! span **end** time; a nested span (e.g. a Merge inside an ω-wait)
//! precedes its parent in the buffer. Spans on one track are always
//! either disjoint or properly nested — never partially overlapping.

use crate::dws::DwsModel;

/// Version stamp of the trace schema (the JSON export carries it).
pub const TRACE_SCHEMA: u32 = 1;

/// Default per-worker event capacity (events are 64 bytes, so this is
/// 4 MiB per worker — roomy for hundreds of thousands of iterations).
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Worker-loop phases that appear as spans on a worker's track.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Draining inbound queues at the top of the loop.
    Gather,
    /// Evaluating rules: a stratum's init rules once, then its delta
    /// rules (the Iterate operator), routing and checking their head rows.
    EvalDelta,
    /// Merging the routed rows here and sending peers theirs.
    Distribute,
    /// Merging a burst of inbound batches into the local stores
    /// (nested inside Gather, ω-wait or Backpressure).
    Merge,
    /// The DWS ω-wait window (Algorithm 2, lines 5–8).
    OmegaWait,
    /// A full-queue retry while flushing an outgoing batch (nested
    /// inside Distribute).
    Backpressure,
    /// Parked: stratum-entry barrier, the Global round barrier, or the
    /// idle/termination protocol.
    Idle,
}

impl Phase {
    /// Track-label for the exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Gather => "Gather",
            Phase::EvalDelta => "EvalDelta",
            Phase::Distribute => "Distribute",
            Phase::Merge => "Merge",
            Phase::OmegaWait => "OmegaWait",
            Phase::Backpressure => "Backpressure",
            Phase::Idle => "Idle",
        }
    }
}

/// Instant (zero-duration) marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Mark {
    /// One local iteration completed. `a` = delta rows in, `b` = rows
    /// produced (local merges + remote sends), `c` = inbound queue depth
    /// (batches) at the boundary.
    Iteration,
    /// The DWS controller updated its parameters. `a` = ω, `b` = τ in
    /// clock units, `c` = pending delta size at the decision.
    DwsDecision,
    /// A termination-detection round resolved. `a` = 1 when the worker
    /// continues, 0 when the protocol declared global fixpoint.
    TerminationRound,
}

impl Mark {
    /// Event-name label for the exporter.
    pub fn name(self) -> &'static str {
        match self {
            Mark::Iteration => "iteration",
            Mark::DwsDecision => "dws-decision",
            Mark::TerminationRound => "termination-round",
        }
    }
}

/// Span or instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase with a duration.
    Span(Phase),
    /// A zero-duration mark.
    Instant(Mark),
}

/// One fixed-size trace record. Clock units are nanoseconds for the real
/// engine and abstract ticks for the simulator; both are run-relative.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Start time, relative to the run epoch.
    pub ts: u64,
    /// Duration (0 for instants).
    pub dur: u64,
    /// The worker's local iteration counter when the event was recorded.
    pub iteration: u64,
    /// Kind-specific argument (see [`Mark`]).
    pub a: u64,
    /// Kind-specific argument.
    pub b: u64,
    /// Kind-specific argument.
    pub c: u64,
}

impl TraceEvent {
    /// End time (`ts + dur`).
    #[inline]
    pub fn end(&self) -> u64 {
        self.ts + self.dur
    }
}

/// One worker's collected trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Worker id (track id in the export).
    pub worker: usize,
    /// Events in recording order (sorted by span **end** time).
    pub events: Vec<TraceEvent>,
    /// Events discarded because the buffer was full — a non-zero value
    /// means the timeline is truncated and downstream analysis must not
    /// treat it as complete.
    pub dropped: u64,
}

/// Run-level context for the JSON export.
#[derive(Clone, Debug)]
pub struct TraceMeta {
    /// Strategy name (`"Global"`, `"SSP"`, `"DWS"`).
    pub strategy: String,
    /// Number of worker tracks.
    pub workers: usize,
    /// Clock domain: `"ns"` (real engine) or `"ticks"` (simulator).
    pub clock: &'static str,
}

/// One row of the per-iteration time-series table: the convergence curve
/// of a run, one point per (worker, local iteration).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterationPoint {
    /// Worker id.
    pub worker: usize,
    /// Local iteration index.
    pub iteration: u64,
    /// Completion time of the iteration (clock units from the epoch).
    pub ts: u64,
    /// Delta rows the iteration consumed.
    pub rows_in: u64,
    /// Rows it produced (local merges + remote sends).
    pub rows_out: u64,
    /// Inbound queue depth (batches) at the boundary.
    pub queue_depth: u64,
    /// The controller's ω estimate in force (0 outside DWS).
    pub omega: u64,
    /// The controller's τ estimate in force, clock units (0 outside DWS).
    pub tau: u64,
}

/// Folds traces into the per-iteration time-series: each
/// [`Mark::Iteration`] instant becomes a row, annotated with the most
/// recent [`Mark::DwsDecision`] of the same worker. Rows are ordered by
/// `(ts, worker)` so the table reads as one global timeline.
pub fn iteration_series(traces: &[WorkerTrace]) -> Vec<IterationPoint> {
    let mut out = Vec::new();
    for tr in traces {
        let (mut omega, mut tau) = (0u64, 0u64);
        for ev in &tr.events {
            match ev.kind {
                EventKind::Instant(Mark::DwsDecision) => {
                    omega = ev.a;
                    tau = ev.b;
                }
                EventKind::Instant(Mark::Iteration) => out.push(IterationPoint {
                    worker: tr.worker,
                    iteration: ev.iteration,
                    ts: ev.ts,
                    rows_in: ev.a,
                    rows_out: ev.b,
                    queue_depth: ev.c,
                    omega,
                    tau,
                }),
                _ => {}
            }
        }
    }
    out.sort_by_key(|p| (p.ts, p.worker));
    out
}

/// Serializes traces as a Chrome trace-event JSON document that Perfetto
/// loads directly: one `tid` per worker plus `tid = workers` for the DWS
/// controller track (every [`Mark::DwsDecision`] lands there, annotated
/// with the deciding worker). `models[i]`, when present, holds the model
/// behind each decision of `traces[i]` in order, and each decision then
/// also carries `rho`, `lambda`, `mu`, `lq` and `gate`. Timestamps are
/// exported in microseconds (the format's unit) from the clock in `meta`;
/// one simulator tick maps to one microsecond so abstract schedules render
/// at a readable scale.
pub fn chrome_trace_json(
    traces: &[WorkerTrace],
    models: &[Vec<DwsModel>],
    meta: &TraceMeta,
) -> String {
    let pid = 1;
    let controller_tid = meta.workers;
    // ns → µs with fractional part; ticks map 1:1 to µs.
    let scale = |v: u64| -> String {
        if meta.clock == "ns" {
            format!("{:.3}", v as f64 / 1000.0)
        } else {
            format!("{v}")
        }
    };
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"dcdatalog {} ({} clock)"}}}}"#,
        meta.strategy, meta.clock
    ));
    for w in 0..meta.workers {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{w},"args":{{"name":"worker {w}"}}}}"#
        ));
    }
    events.push(format!(
        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{controller_tid},"args":{{"name":"dws-controller"}}}}"#
    ));
    // Rates in 1/s span many magnitudes; a non-finite one is not JSON.
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:e}")
        } else {
            "null".into()
        }
    };
    let mut total_dropped = 0u64;
    for (i, tr) in traces.iter().enumerate() {
        total_dropped += tr.dropped;
        let tid = tr.worker;
        let mut decision_models = models.get(i).into_iter().flatten();
        for ev in &tr.events {
            match ev.kind {
                EventKind::Span(phase) => events.push(format!(
                    r#"{{"name":"{}","cat":"phase","ph":"X","pid":{pid},"tid":{tid},"ts":{},"dur":{},"args":{{"iteration":{},"a":{},"b":{},"c":{}}}}}"#,
                    phase.name(),
                    scale(ev.ts),
                    scale(ev.dur),
                    ev.iteration,
                    ev.a,
                    ev.b,
                    ev.c
                )),
                EventKind::Instant(Mark::DwsDecision) => {
                    let model = decision_models.next().map_or(String::new(), |m| {
                        format!(
                            r#","rho":{},"lambda":{},"mu":{},"lq":{},"gate":"{}""#,
                            num(m.rho),
                            num(m.lambda),
                            num(m.mu),
                            num(m.lq),
                            m.gate.name()
                        )
                    });
                    events.push(format!(
                        r#"{{"name":"dws-decision","cat":"controller","ph":"i","s":"t","pid":{pid},"tid":{controller_tid},"ts":{},"dur":0,"args":{{"worker":{tid},"iteration":{},"omega":{},"tau":{},"delta_len":{}{model}}}}}"#,
                        scale(ev.ts),
                        ev.iteration,
                        ev.a,
                        ev.b,
                        ev.c
                    ))
                }
                EventKind::Instant(mark) => events.push(format!(
                    r#"{{"name":"{}","cat":"mark","ph":"i","s":"t","pid":{pid},"tid":{tid},"ts":{},"dur":0,"args":{{"iteration":{},"a":{},"b":{},"c":{}}}}}"#,
                    mark.name(),
                    scale(ev.ts),
                    ev.iteration,
                    ev.a,
                    ev.b,
                    ev.c
                )),
            }
        }
    }
    format!(
        "{{\n\"schema\": {},\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{\"strategy\": \"{}\", \"clock\": \"{}\", \"workers\": {}, \"dropped_events\": {}}},\n\"traceEvents\": [\n{}\n]\n}}\n",
        TRACE_SCHEMA,
        meta.strategy,
        meta.clock,
        meta.workers,
        total_dropped,
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ev(phase: Phase, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span(phase),
            ts,
            dur,
            iteration: 0,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn iteration_series_joins_decisions_to_iterations() {
        let mk = |mark: Mark, ts: u64, it: u64, a: u64, b: u64, c: u64| TraceEvent {
            kind: EventKind::Instant(mark),
            ts,
            dur: 0,
            iteration: it,
            a,
            b,
            c,
        };
        let traces = vec![
            WorkerTrace {
                worker: 0,
                events: vec![
                    mk(Mark::Iteration, 5, 1, 10, 3, 0),
                    mk(Mark::DwsDecision, 6, 1, 8, 1000, 4),
                    mk(Mark::Iteration, 9, 2, 4, 0, 2),
                ],
                dropped: 0,
            },
            WorkerTrace {
                worker: 1,
                events: vec![mk(Mark::Iteration, 7, 1, 2, 2, 1)],
                dropped: 0,
            },
        ];
        let series = iteration_series(&traces);
        assert_eq!(series.len(), 3);
        // Ordered by ts: w0/it1, w1/it1, w0/it2.
        assert_eq!((series[0].worker, series[0].iteration), (0, 1));
        assert_eq!((series[0].omega, series[0].tau), (0, 0), "no decision yet");
        assert_eq!((series[1].worker, series[1].rows_in), (1, 2));
        assert_eq!((series[2].omega, series[2].tau), (8, 1000));
        assert_eq!(series[2].queue_depth, 2);
    }

    #[test]
    fn chrome_export_has_worker_and_controller_tracks() {
        let mark = |mark: Mark, a: u64, b: u64, c: u64| TraceEvent {
            kind: EventKind::Instant(mark),
            ts: 20,
            dur: 0,
            iteration: 1,
            a,
            b,
            c,
        };
        let traces = vec![WorkerTrace {
            worker: 0,
            events: vec![
                span_ev(Phase::Gather, 0, 10),
                mark(Mark::DwsDecision, 8, 500, 3),
                mark(Mark::Iteration, 10, 2, 0),
            ],
            dropped: 0,
        }];
        let meta = TraceMeta {
            strategy: "DWS".into(),
            workers: 2,
            clock: "ns",
        };
        let json = chrome_trace_json(&traces, &[], &meta);
        assert!(json.contains("\"schema\": 1"), "{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains(r#""name":"worker 0""#));
        assert!(json.contains(r#""name":"worker 1""#));
        assert!(json.contains(r#""name":"dws-controller""#));
        // The decision lands on the controller track (tid == workers).
        assert!(json.contains(
            r#""name":"dws-decision","cat":"controller","ph":"i","s":"t","pid":1,"tid":2"#
        ));
        assert!(json.contains(r#""name":"Gather","cat":"phase","ph":"X""#));
        assert!(json.contains(r#""dropped_events": 0"#));
        assert!(!json.contains("\"gate\""), "no model recorded");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let model = DwsModel {
            rho: 0.5,
            lambda: 2000.0,
            mu: 4000.0,
            lq: 0.25,
            gate: crate::dws::OmegaGate::None,
        };
        let json = chrome_trace_json(&traces, &[vec![model]], &meta);
        assert!(
            json.contains(
                r#""delta_len":3,"rho":5e-1,"lambda":2e3,"mu":4e3,"lq":2.5e-1,"gate":"none"}"#
            ),
            "{json}"
        );
    }

    #[test]
    fn tick_clock_exports_integral_timestamps() {
        let traces = vec![WorkerTrace {
            worker: 0,
            events: vec![span_ev(Phase::EvalDelta, 7, 3)],
            dropped: 0,
        }];
        let meta = TraceMeta {
            strategy: "Global".into(),
            workers: 1,
            clock: "ticks",
        };
        let json = chrome_trace_json(&traces, &[], &meta);
        assert!(json.contains(r#""ts":7,"dur":3"#), "{json}");
        assert!(json.contains(r#""clock": "ticks""#));
    }
}
