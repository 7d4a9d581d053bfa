//! Run-level observability: the [`EvalReport`] merges every worker's
//! [`MetricsSnapshot`] with the termination-protocol totals into one
//! machine-readable document.
//!
//! The report answers the questions the paper's evaluation section asks of
//! a run — how balanced was the load (per-worker iterate/idle split), how
//! chatty was the exchange (batches and tuples per worker), and, from a
//! traced run's `DwsDecision` instants, what ω/τ trajectory the DWS
//! controller followed — without attaching a profiler. `to_json` emits the document behind the CLI's `--stats-json`
//! flag; the schema is versioned so downstream tooling can detect drift.
//!
//! Invariant worth stating: after a completed evaluation the termination
//! counters satisfy `produced == consumed` (that *is* the fixpoint test),
//! and both equal the tuples that crossed worker boundaries, so
//! `sum(tuples_sent) == produced` and `sum(tuples_in) == consumed` across
//! the per-worker recorders. [`EvalReport::reconciles`] checks all four.

use dcd_runtime::trace::{iteration_series, IterationPoint};
use dcd_runtime::{chrome_trace_json, DwsModel, MetricsSnapshot, TraceMeta, WorkerTrace};

/// Current `schema` field value of the JSON document.
///
/// Schema 4 added the tracing fields: per-worker `dropped_events` (trace
/// overflow accounting) and the top-level `iteration_series` table (empty
/// arrays when tracing was disabled). Schema 5 drops the per-worker
/// `dws_samples` and `samples_dropped`: the ω/τ trajectory is the
/// `omega`/`tau` columns of `iteration_series`. Schema 6 adds `seal_ns`
/// and `collect_ns`, which with `elapsed_ns` account for `Engine::run`.
/// Schema 7 adds the per-worker `head_rows` and `stored_checks`, the
/// emission funnel's first two stages.
pub const REPORT_SCHEMA: u32 = 7;

/// A full per-run observability report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvalReport {
    /// Strategy name: `"Global"`, `"SSP"`, or `"DWS"`.
    pub strategy: String,
    /// Number of workers.
    pub workers: usize,
    /// Wall time of the EDB seal, before any worker starts, in ns.
    pub seal_ns: u64,
    /// Wall-clock fixpoint time (workers' start to last finish) in ns.
    pub elapsed_ns: u64,
    /// Wall time from the workers' last finish to the result, in ns.
    pub collect_ns: u64,
    /// Total tuples announced to the termination protocol as produced.
    pub produced: u64,
    /// Total tuples announced as consumed.
    pub consumed: u64,
    /// Resident bytes of replicated EDB relations, counted **once** for
    /// the whole run (they are Arc-shared, so per-worker attribution would
    /// be fiction; partitioned slices appear in each worker's
    /// `edb_resident_bytes` instead).
    pub edb_replicated_bytes: u64,
    /// One snapshot per worker, indexed by worker id.
    pub per_worker: Vec<MetricsSnapshot>,
    /// One event trace per worker (empty event lists when tracing was
    /// disabled, so overflow accounting and the JSON shape stay uniform).
    pub traces: Vec<WorkerTrace>,
    /// Per worker, the DWS controller's model behind each `DwsDecision`
    /// instant of its trace, in order (empty unless a traced DWS run).
    pub dws_models: Vec<Vec<DwsModel>>,
}

impl EvalReport {
    /// Sums `f` over the per-worker snapshots.
    pub fn total(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        self.per_worker.iter().map(f).sum()
    }

    /// Whether the recorder counters reconcile with the termination
    /// protocol: `produced == consumed`, every produced tuple was recorded
    /// as sent, and every consumed tuple was recorded as received.
    pub fn reconciles(&self) -> bool {
        self.produced == self.consumed
            && self.total(|w| w.tuples_sent) == self.produced
            && self.total(|w| w.tuples_in) == self.consumed
    }

    /// Load-imbalance factor: max over workers of iterate-time divided by
    /// the mean (1.0 = perfectly balanced; meaningless with 0 workers).
    pub fn imbalance(&self) -> f64 {
        if self.per_worker.is_empty() {
            return 1.0;
        }
        let times: Vec<u64> = self.per_worker.iter().map(|w| w.iterate_ns).collect();
        let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        *times.iter().max().expect("non-empty") as f64 / mean
    }

    /// Total payload bytes that crossed the exchange (producer side).
    pub fn exchanged_bytes(&self) -> u64 {
        self.total(|w| w.bytes_sent)
    }

    /// Fraction of total worker-time spent idle (parked or ω-waiting).
    pub fn idle_fraction(&self) -> f64 {
        let busy = self.total(|w| w.gather_ns + w.iterate_ns + w.distribute_ns);
        let idle = self.total(|w| w.idle_ns + w.omega_wait_ns);
        if busy + idle == 0 {
            0.0
        } else {
            idle as f64 / (busy + idle) as f64
        }
    }

    /// Events dropped by worker `i`'s trace buffer (0 when tracing was off
    /// or the worker index is out of range).
    pub fn dropped_events(&self, i: usize) -> u64 {
        self.traces.get(i).map_or(0, |t| t.dropped)
    }

    /// The per-iteration time-series table derived from the traces
    /// (empty when tracing was disabled).
    pub fn iteration_series(&self) -> Vec<IterationPoint> {
        iteration_series(&self.traces)
    }

    /// Serializes the traces as Chrome/Perfetto trace JSON (`"ns"` clock)
    /// — the document behind the CLI's `--trace-json`.
    pub fn trace_json(&self) -> String {
        chrome_trace_json(
            &self.traces,
            &self.dws_models,
            &TraceMeta {
                strategy: self.strategy.clone(),
                workers: self.workers,
                clock: "ns",
            },
        )
    }

    /// Serializes the report as a stable, diffable JSON document.
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .per_worker
            .iter()
            .enumerate()
            .map(|(i, w)| format!("    {}", worker_json(i, w, self.dropped_events(i))))
            .collect();
        let series: Vec<String> = self
            .iteration_series()
            .iter()
            .map(|p| {
                format!(
                    "    {{\"worker\":{},\"iteration\":{},\"ts\":{},\"rows_in\":{},\
                     \"rows_out\":{},\"queue_depth\":{},\"omega\":{},\"tau\":{}}}",
                    p.worker,
                    p.iteration,
                    p.ts,
                    p.rows_in,
                    p.rows_out,
                    p.queue_depth,
                    p.omega,
                    p.tau
                )
            })
            .collect();
        let series_json = if series.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", series.join(",\n"))
        };
        format!(
            "{{\n  \"schema\": {},\n  \"strategy\": {},\n  \"workers\": {},\n  \
             \"seal_ns\": {},\n  \"elapsed_ns\": {},\n  \"collect_ns\": {},\n  \
             \"produced\": {},\n  \"consumed\": {},\n  \
             \"exchanged_bytes\": {},\n  \"edb_replicated_bytes\": {},\n  \
             \"per_worker\": [\n{}\n  ],\n  \"iteration_series\": {}\n}}\n",
            REPORT_SCHEMA,
            json_string(&self.strategy),
            self.workers,
            self.seal_ns,
            self.elapsed_ns,
            self.collect_ns,
            self.produced,
            self.consumed,
            self.exchanged_bytes(),
            self.edb_replicated_bytes,
            workers.join(",\n"),
            series_json
        )
    }
}

fn worker_json(i: usize, w: &MetricsSnapshot, dropped_events: u64) -> String {
    format!(
        r#"{{"worker":{},"iterations":{},"tuples_processed":{},"tuples_sent":{},"batches_out":{},"batches_in":{},"tuples_in":{},"bytes_sent":{},"bytes_in":{},"edb_resident_bytes":{},"local_new":{},"backpressure_retries":{},"idle_ns":{},"omega_wait_ns":{},"gather_ns":{},"iterate_ns":{},"distribute_ns":{},"cache_hits":{},"cache_misses":{},"probe_hits":{},"probe_reuse":{},"kernel_batches":{},"kernel_rows":{},"head_rows":{},"stored_checks":{},"rows_per_batch":{:.3},"dropped_events":{}}}"#,
        i,
        w.iterations,
        w.tuples_processed,
        w.tuples_sent,
        w.batches_out,
        w.batches_in,
        w.tuples_in,
        w.bytes_sent,
        w.bytes_in,
        w.edb_resident_bytes,
        w.local_new,
        w.backpressure_retries,
        w.idle_ns,
        w.omega_wait_ns,
        w.gather_ns,
        w.iterate_ns,
        w.distribute_ns,
        w.cache_hits,
        w.cache_misses,
        w.probe_hits,
        w.probe_reuse,
        w.kernel_batches,
        w.kernel_rows,
        w.head_rows,
        w.stored_checks,
        w.rows_per_batch(),
        dropped_events,
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> EvalReport {
        let a = MetricsSnapshot {
            iterations: 3,
            tuples_processed: 11,
            tuples_sent: 10,
            batches_out: 2,
            batches_in: 1,
            tuples_in: 4,
            bytes_sent: 160,
            bytes_in: 64,
            edb_resident_bytes: 2048,
            local_new: 6,
            backpressure_retries: 1,
            iterate_ns: 300,
            idle_ns: 100,
            gather_ns: 50,
            distribute_ns: 50,
            cache_hits: 3,
            cache_misses: 8,
            probe_hits: 5,
            probe_reuse: 15,
            kernel_batches: 2,
            kernel_rows: 9,
            head_rows: 12,
            stored_checks: 7,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            iterations: 1,
            tuples_sent: 4,
            tuples_in: 10,
            bytes_sent: 64,
            bytes_in: 160,
            iterate_ns: 100,
            omega_wait_ns: 200,
            ..MetricsSnapshot::default()
        };
        use dcd_runtime::trace::{EventKind, Mark, Phase, TraceEvent};
        let ev = |kind, ts, dur, iteration, aa, bb, cc| TraceEvent {
            kind,
            ts,
            dur,
            iteration,
            a: aa,
            b: bb,
            c: cc,
        };
        let t0 = WorkerTrace {
            worker: 0,
            events: vec![
                ev(EventKind::Span(Phase::EvalDelta), 0, 300, 0, 5, 0, 0),
                ev(EventKind::Instant(Mark::DwsDecision), 300, 0, 0, 8, 1000, 5),
                ev(EventKind::Instant(Mark::Iteration), 320, 0, 0, 5, 10, 1),
            ],
            dropped: 2,
        };
        let t1 = WorkerTrace {
            worker: 1,
            events: vec![ev(EventKind::Instant(Mark::Iteration), 150, 0, 0, 4, 4, 0)],
            dropped: 0,
        };
        EvalReport {
            strategy: "DWS".into(),
            workers: 2,
            seal_ns: 300,
            elapsed_ns: 1_000,
            collect_ns: 200,
            produced: 14,
            consumed: 14,
            edb_replicated_bytes: 4096,
            per_worker: vec![a, b],
            traces: vec![t0, t1],
            dws_models: vec![vec![DwsModel::default()], vec![]],
        }
    }

    #[test]
    fn reconciliation_checks_all_four_identities() {
        let mut r = sample_report();
        assert!(r.reconciles());
        r.produced += 1;
        assert!(!r.reconciles(), "produced != consumed");
        r.produced -= 1;
        r.per_worker[0].tuples_sent += 1;
        assert!(!r.reconciles(), "sent total drifted");
    }

    #[test]
    fn imbalance_and_idle_fraction() {
        let r = sample_report();
        // iterate times 300 and 100 → mean 200, max 300 → 1.5.
        assert!((r.imbalance() - 1.5).abs() < 1e-12);
        // busy = 300+50+50+100 = 500, idle = 100+200 = 300.
        assert!((r.idle_fraction() - 300.0 / 800.0).abs() < 1e-12);
        assert_eq!(EvalReport::default().imbalance(), 1.0);
        assert_eq!(EvalReport::default().idle_fraction(), 0.0);
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": 7"));
        assert!(json.contains("\"seal_ns\": 300,\n  \"elapsed_ns\": 1000,\n  \"collect_ns\": 200,"));
        assert!(json.contains("\"strategy\": \"DWS\""));
        assert!(json.contains("\"exchanged_bytes\": 224"));
        assert!(json.contains("\"edb_replicated_bytes\": 4096"));
        assert!(json.contains("\"worker\":0"));
        assert!(json.contains("\"worker\":1"));
        assert!(json.contains("\"bytes_sent\":160"));
        assert!(json.contains("\"edb_resident_bytes\":2048"));
        assert!(json.contains("\"probe_hits\":5"));
        assert!(json.contains("\"probe_reuse\":15"));
        assert!(json.contains("\"kernel_batches\":2"));
        assert!(json.contains("\"head_rows\":12,\"stored_checks\":7,"));
        assert!(json.contains("\"rows_per_batch\":4.500"));
        assert_eq!(r.exchanged_bytes(), 224);
        assert!(!json.contains("dws_samples") && !json.contains("samples_dropped"));
        assert!(json.contains("\"dropped_events\":2"));
        assert!(json.contains("\"dropped_events\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_round_trips_every_worker_counter() {
        let r = sample_report();
        let doc = dcd_common::Json::parse(&r.to_json()).expect("valid JSON");
        let workers = doc.get("per_worker").and_then(|w| w.items()).unwrap();
        assert_eq!(workers.len(), r.per_worker.len());
        for (i, (json, want)) in workers.iter().zip(&r.per_worker).enumerate() {
            let f = |key: &str| {
                let v = json.get(key).and_then(|v| v.as_u64());
                v.unwrap_or_else(|| panic!("worker {i}: no counter \"{key}\""))
            };
            assert_eq!(f("worker"), i as u64);
            // No `..` rest: a counter added to `MetricsSnapshot` fails to
            // compile here until this test, and so the JSON, names it.
            let got = MetricsSnapshot {
                iterations: f("iterations"),
                tuples_processed: f("tuples_processed"),
                tuples_sent: f("tuples_sent"),
                batches_out: f("batches_out"),
                batches_in: f("batches_in"),
                tuples_in: f("tuples_in"),
                bytes_sent: f("bytes_sent"),
                bytes_in: f("bytes_in"),
                edb_resident_bytes: f("edb_resident_bytes"),
                local_new: f("local_new"),
                backpressure_retries: f("backpressure_retries"),
                idle_ns: f("idle_ns"),
                omega_wait_ns: f("omega_wait_ns"),
                gather_ns: f("gather_ns"),
                iterate_ns: f("iterate_ns"),
                distribute_ns: f("distribute_ns"),
                cache_hits: f("cache_hits"),
                cache_misses: f("cache_misses"),
                probe_hits: f("probe_hits"),
                probe_reuse: f("probe_reuse"),
                kernel_batches: f("kernel_batches"),
                kernel_rows: f("kernel_rows"),
                head_rows: f("head_rows"),
                stored_checks: f("stored_checks"),
            };
            assert_eq!(&got, want, "worker {i}");
            let rows_per_batch = json.get("rows_per_batch").and_then(|v| v.as_f64());
            assert_eq!(rows_per_batch, Some(want.rows_per_batch()), "worker {i}");
            assert_eq!(f("dropped_events"), r.dropped_events(i), "worker {i}");
        }
    }

    #[test]
    fn iteration_series_joins_controller_decisions() {
        let r = sample_report();
        let series = r.iteration_series();
        assert_eq!(series.len(), 2);
        // Ordered by completion time: worker 1's point (ts 150) first.
        assert_eq!(series[0].worker, 1);
        assert_eq!(series[0].omega, 0, "no controller decision on worker 1");
        assert_eq!(series[1].worker, 0);
        assert_eq!(series[1].rows_in, 5);
        assert_eq!(series[1].rows_out, 10);
        assert_eq!(series[1].queue_depth, 1);
        assert_eq!((series[1].omega, series[1].tau), (8, 1000));
        let json = r.to_json();
        assert!(json.contains("\"iteration_series\": [\n"));
        assert!(json.contains("\"queue_depth\":1"));
        // Empty-trace reports keep the field with an empty array.
        assert!(EvalReport::default()
            .to_json()
            .contains("\"iteration_series\": []"));
    }

    #[test]
    fn trace_json_exports_worker_and_controller_tracks() {
        let r = sample_report();
        let json = r.trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.contains("\"name\":\"dws-controller\""));
        assert!(json.contains("\"name\":\"EvalDelta\""));
        // The decision instant lands on the controller tid (= workers).
        assert!(json.contains("\"name\":\"dws-decision\",\"cat\":\"controller\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":2"));
        assert!(
            json.contains("\"gate\":\"none\""),
            "the decision carries its model"
        );
        assert_eq!(r.dropped_events(0), 2);
        assert_eq!(r.dropped_events(1), 0);
        assert_eq!(r.dropped_events(9), 0, "out of range is 0");
    }

    #[test]
    fn json_escapes_strategy_name() {
        let r = EvalReport {
            strategy: "we\"ird".into(),
            ..EvalReport::default()
        };
        assert!(r.to_json().contains(r#""strategy": "we\"ird""#));
    }
}
