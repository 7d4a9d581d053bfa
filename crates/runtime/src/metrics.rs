//! Per-worker observability: one [`Recorder`] per worker, owned by the
//! worker thread, that times every phase of the Gather/Iterate/Distribute
//! loop exactly once.
//!
//! The DWS controller (§4.2) is a feedback loop driven by per-worker
//! arrival/service statistics; diagnosing it — and parallel imbalance in
//! general — needs the per-worker load/idle breakdown to be visible. A
//! phase ends with one [`Recorder::close`] call: it reads the clock once,
//! adds that duration to the phase's `*_ns` counter and, when tracing is
//! on, records a span built from the same two timestamps. Counters and
//! spans therefore cannot disagree. There is one writer and the engine
//! reads the recorder only after the worker has returned it, so the
//! counters are plain `u64` fields and the trace is a plain `Vec`: no
//! atomics and no locks.

use crate::dws::DwsModel;
use crate::trace::{EventKind, Mark, Phase, TraceEvent, WorkerTrace};
use std::time::Instant;

/// One worker's counters. [`Recorder`] writes them during the run; the
/// engine's `EvalReport` carries one per worker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Local semi-naive iterations executed.
    pub iterations: u64,
    /// Delta tuples fed into the Iterate operator.
    pub tuples_processed: u64,
    /// Tuples sent to other workers (each counted once per destination).
    pub tuples_sent: u64,
    /// Outgoing batches flushed into SPSC queues.
    pub batches_out: u64,
    /// Incoming batches drained.
    pub batches_in: u64,
    /// Tuples received in those batches.
    pub tuples_in: u64,
    /// Payload bytes in outgoing batches (frame values crossing the
    /// exchange, producer side).
    pub bytes_sent: u64,
    /// Payload bytes in drained inbound batches (consumer side).
    pub bytes_in: u64,
    /// Resident bytes of the EDB slices unique to this worker
    /// (partitioned relations only — replicated relations are shared
    /// and accounted once at the run level).
    pub edb_resident_bytes: u64,
    /// Local merges that produced a new/improved logical row.
    pub local_new: u64,
    /// Full-queue retry loops taken while flushing outgoing batches.
    pub backpressure_retries: u64,
    /// Nanoseconds parked: the sync and Global round barriers, SSP's
    /// staleness bound and the idle/termination protocol.
    pub idle_ns: u64,
    /// Nanoseconds spent inside the DWS ω-wait window (Alg. 2 l. 5–8).
    pub omega_wait_ns: u64,
    /// Nanoseconds draining inbound queues (Gather).
    pub gather_ns: u64,
    /// Nanoseconds evaluating delta rules (Iterate).
    pub iterate_ns: u64,
    /// Nanoseconds routing/merging derived tuples (Distribute).
    pub distribute_ns: u64,
    /// Distribute sent-filter hits (rows dropped as already routed).
    pub cache_hits: u64,
    /// Distribute sent-filter misses (rows routed).
    pub cache_misses: u64,
    /// Index descents performed by the batched kernel's first probes.
    pub probe_hits: u64,
    /// Batched first probes that reused the previous row's bucket instead
    /// of descending the index again.
    pub probe_reuse: u64,
    /// `(rel, route, rule)` batches the kernel executed.
    pub kernel_batches: u64,
    /// Delta rows fed through those batches.
    pub kernel_rows: u64,
    /// Head rows handed to the kernel's sink, from init and delta rules
    /// (and a stratum's inline facts): the emission funnel's first stage.
    pub head_rows: u64,
    /// Stored-row lookups the sink made for them: one per set row whose
    /// destinations include this worker.
    pub stored_checks: u64,
}

impl MetricsSnapshot {
    /// Mean delta rows per kernel batch (0 when the kernel never ran).
    pub fn rows_per_batch(&self) -> f64 {
        if self.kernel_batches == 0 {
            0.0
        } else {
            self.kernel_rows as f64 / self.kernel_batches as f64
        }
    }
}

/// A worker's counters plus, when tracing, its bounded event trace.
///
/// Every event is stamped with `counters.iterations`, the index of the
/// local iteration in progress (or about to start): [`Recorder::end_iteration`]
/// advances it after the iteration's Distribute.
pub struct Recorder {
    /// The worker's counters. The `*_ns` phase times are written only by
    /// [`Recorder::close`].
    pub counters: MetricsSnapshot,
    /// Shared run epoch: every worker's timestamps are relative to it, so
    /// the exported tracks align.
    epoch: Instant,
    /// Whether events are recorded.
    tracing: bool,
    /// Recorded events, preallocated to `cap`; the record path never
    /// allocates.
    events: Vec<TraceEvent>,
    cap: usize,
    /// Events discarded on a full buffer.
    dropped: u64,
    /// The controller's model at each recorded [`Mark::DwsDecision`], in
    /// order (a side list, because an event has only three arguments).
    dws_models: Vec<DwsModel>,
}

impl Recorder {
    /// A recorder on the run clock `epoch`. `trace_cap` of `Some(cap)`
    /// turns tracing on with room for `cap` events; `None` records
    /// counters only.
    pub fn new(epoch: Instant, trace_cap: Option<usize>) -> Self {
        let cap = trace_cap.map_or(0, |c| c.max(1));
        Recorder {
            counters: MetricsSnapshot::default(),
            epoch,
            tracing: trace_cap.is_some(),
            events: Vec::with_capacity(cap),
            cap,
            dropped: 0,
            dws_models: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.tracing
    }

    /// Ends a phase that began at `started`: reads the clock once, adds
    /// the elapsed time to the phase's counter (Merge and Backpressure nest
    /// inside other phases and have none) and, when tracing, records the
    /// span with arguments `a`, `b`, `c`.
    #[inline]
    pub fn close(&mut self, phase: Phase, started: Instant, a: u64, b: u64, c: u64) {
        let dur = started.elapsed().as_nanos() as u64;
        let m = &mut self.counters;
        match phase {
            Phase::Gather => m.gather_ns += dur,
            Phase::EvalDelta => m.iterate_ns += dur,
            Phase::Distribute => m.distribute_ns += dur,
            Phase::Idle => m.idle_ns += dur,
            Phase::OmegaWait => m.omega_wait_ns += dur,
            Phase::Merge | Phase::Backpressure => {}
        }
        if self.tracing {
            let ts = started.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.push(EventKind::Span(phase), ts, dur, a, b, c);
        }
    }

    /// Records an instant mark stamped now (a no-op when not tracing).
    #[inline]
    pub fn mark(&mut self, mark: Mark, a: u64, b: u64, c: u64) {
        if self.tracing {
            let ts = self.epoch.elapsed().as_nanos() as u64;
            self.push(EventKind::Instant(mark), ts, 0, a, b, c);
        }
    }

    /// Records a [`Mark::DwsDecision`] (`ω`, `τ` in clock units, pending
    /// delta size) and, when the event is kept, the `model` behind it.
    pub fn dws_decision(&mut self, omega: u64, tau: u64, delta_len: u64, model: DwsModel) {
        if self.tracing && self.events.len() < self.cap {
            self.dws_models.push(model);
        }
        self.mark(Mark::DwsDecision, omega, tau, delta_len);
    }

    /// Closes one local iteration: records its [`Mark::Iteration`]
    /// (`rows_in`, `rows_out`, inbound `queue_depth`) and advances the
    /// iteration counter.
    #[inline]
    pub fn end_iteration(&mut self, rows_in: u64, rows_out: u64, queue_depth: u64) {
        self.mark(Mark::Iteration, rows_in, rows_out, queue_depth);
        self.counters.iterations += 1;
    }

    fn push(&mut self, kind: EventKind, ts: u64, dur: u64, a: u64, b: u64, c: u64) {
        if self.events.len() < self.cap {
            self.events.push(TraceEvent {
                kind,
                ts,
                dur,
                iteration: self.counters.iterations,
                a,
                b,
                c,
            });
        } else {
            // Keep the oldest events: a trace truncated at the tail is a
            // coherent prefix of the schedule; the drop count says how
            // much is missing.
            self.dropped += 1;
        }
    }

    /// Consumes the recorder into worker `worker`'s counters, trace, and
    /// the models behind the trace's DWS decisions.
    pub fn finish(self, worker: usize) -> (MetricsSnapshot, WorkerTrace, Vec<DwsModel>) {
        let trace = WorkerTrace {
            worker,
            events: self.events,
            dropped: self.dropped,
        };
        (self.counters, trace, self.dws_models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn phase_ns(s: &MetricsSnapshot) -> [u64; 5] {
        [
            s.gather_ns,
            s.iterate_ns,
            s.distribute_ns,
            s.idle_ns,
            s.omega_wait_ns,
        ]
    }

    #[test]
    fn close_feeds_counter_and_span_the_same_duration() {
        let mut r = Recorder::new(Instant::now(), Some(64));
        assert!(r.is_tracing());
        let phases = [
            Phase::Gather,
            Phase::EvalDelta,
            Phase::Distribute,
            Phase::Idle,
            Phase::OmegaWait,
        ];
        for (i, &p) in phases.iter().enumerate() {
            let started = Instant::now();
            std::thread::sleep(Duration::from_micros(50 * (i as u64 + 1)));
            r.close(p, started, i as u64, 0, 0);
        }
        let (s, tr, _) = r.finish(3);
        assert_eq!(tr.worker, 3);
        assert_eq!(tr.events.len(), 5);
        let durs: Vec<u64> = tr.events.iter().map(|e| e.dur).collect();
        assert_eq!(phase_ns(&s).to_vec(), durs, "one duration feeds both");
        assert!(s.idle_ns >= 200_000, "a 200µs sleep, got {}ns", s.idle_ns);
        assert_eq!(tr.events[1].kind, EventKind::Span(Phase::EvalDelta));
        assert_eq!(tr.events[1].a, 1);
    }

    #[test]
    fn nested_phases_have_no_counter() {
        let mut r = Recorder::new(Instant::now(), Some(8));
        r.close(Phase::Merge, Instant::now(), 2, 1, 0);
        r.close(Phase::Backpressure, Instant::now(), 0, 0, 0);
        let (s, tr, _) = r.finish(0);
        assert_eq!(s, MetricsSnapshot::default());
        assert_eq!(tr.events.len(), 2);
    }

    #[test]
    fn events_carry_the_iteration_in_progress() {
        let mut r = Recorder::new(Instant::now(), Some(16));
        r.close(Phase::EvalDelta, Instant::now(), 0, 0, 0);
        r.end_iteration(10, 4, 1);
        r.close(Phase::Idle, Instant::now(), 0, 0, 0);
        r.mark(Mark::TerminationRound, 1, 0, 0);
        let (s, tr, _) = r.finish(0);
        assert_eq!(s.iterations, 1);
        let stamps: Vec<u64> = tr.events.iter().map(|e| e.iteration).collect();
        assert_eq!(stamps, vec![0, 0, 1, 1]);
        let it = &tr.events[1];
        assert_eq!(it.kind, EventKind::Instant(Mark::Iteration));
        assert_eq!((it.a, it.b, it.c, it.dur), (10, 4, 1, 0));
        assert!(it.ts >= tr.events[0].end(), "mark stamped after the span");
    }

    #[test]
    fn dws_models_follow_the_decisions_the_trace_keeps() {
        use crate::dws::OmegaGate;
        let model = |rho| DwsModel {
            rho,
            gate: OmegaGate::Saturated,
            ..DwsModel::default()
        };
        let mut r = Recorder::new(Instant::now(), Some(2));
        for i in 0..3 {
            r.dws_decision(0, 0, i, model(1.0 + i as f64));
        }
        let (_, tr, models) = r.finish(0);
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.dropped, 1);
        assert_eq!(models, [model(1.0), model(2.0)]);
        let mut off = Recorder::new(Instant::now(), None);
        off.dws_decision(0, 0, 0, model(1.0));
        assert!(off.finish(0).2.is_empty());
    }

    #[test]
    fn overflow_keeps_prefix_and_counts_drops() {
        let mut r = Recorder::new(Instant::now(), Some(4));
        for _ in 0..10 {
            r.end_iteration(0, 0, 0);
        }
        let (s, tr, _) = r.finish(7);
        assert_eq!(s.iterations, 10, "counters keep counting past a full trace");
        assert_eq!(tr.dropped, 6);
        let iters: Vec<u64> = tr.events.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![0, 1, 2, 3], "coherent prefix, not a ring tail");
    }

    #[test]
    fn untraced_recorder_counts_but_records_nothing() {
        let mut r = Recorder::new(Instant::now(), None);
        assert!(!r.is_tracing());
        let started = Instant::now();
        std::thread::sleep(Duration::from_micros(100));
        r.close(Phase::Gather, started, 0, 0, 0);
        r.mark(Mark::DwsDecision, 8, 1000, 3);
        r.end_iteration(5, 5, 0);
        let (s, tr, _) = r.finish(0);
        assert!(s.gather_ns >= 100_000);
        assert_eq!(s.iterations, 1);
        assert!(tr.events.is_empty());
        assert_eq!(tr.dropped, 0);
    }

    #[test]
    fn rates_of_an_empty_snapshot_are_zero() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.rows_per_batch(), 0.0);
        let s = MetricsSnapshot {
            kernel_batches: 2,
            kernel_rows: 12,
            ..MetricsSnapshot::default()
        };
        assert!((s.rows_per_batch() - 6.0).abs() < 1e-12);
    }
}
