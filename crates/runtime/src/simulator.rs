//! Deterministic coordination-schedule simulator (Figure 3).
//!
//! The paper's Figure 3 compares the Global, SSP and DWS schedules of the
//! Connected-Components program on a small, deliberately unbalanced graph,
//! measuring abstract "time units". This module replays min-label
//! propagation under each strategy in a discrete-event simulation with an
//! explicit cost model, so the schedule comparison is exact and
//! reproducible (no wall-clock noise).
//!
//! Cost model (one abstract tick each):
//! * scanning one adjacency entry during a local iteration,
//! * a fixed per-iteration overhead,
//! * per-source coordination cost when draining remote batches.
//!
//! Every simulated run also records a [`WorkerTrace`] per worker in the
//! *same* event schema as the real engine's tracer ([`crate::trace`]),
//! with abstract ticks in place of nanoseconds — so a simulated schedule
//! and a real `--trace-json` run open side-by-side in Perfetto
//! ([`SimReport::trace_json`]).

use crate::trace::{chrome_trace_json, EventKind, Mark, Phase, TraceEvent, TraceMeta, WorkerTrace};
use dcd_common::hash::FastMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A span event on the simulator's tick clock.
fn span_ev(phase: Phase, ts: u64, dur: u64, iteration: u64) -> TraceEvent {
    TraceEvent {
        kind: EventKind::Span(phase),
        ts,
        dur,
        iteration,
        a: 0,
        b: 0,
        c: 0,
    }
}

/// An instant mark on the simulator's tick clock.
fn mark_ev(mark: Mark, ts: u64, iteration: u64, a: u64, b: u64, c: u64) -> TraceEvent {
    TraceEvent {
        kind: EventKind::Instant(mark),
        ts,
        dur: 0,
        iteration,
        a,
        b,
        c,
    }
}

/// Strategy variants understood by the simulator. DWS uses static
/// `(omega, tau)` so runs stay deterministic.
#[derive(Clone, Copy, Debug)]
pub enum SimStrategy {
    /// Barrier after every global iteration.
    Global,
    /// Bounded staleness `s`.
    Ssp(u64),
    /// Wait up to `tau` ticks while the drained delta is smaller than
    /// `omega`.
    Dws {
        /// Minimum delta size to proceed without waiting.
        omega: usize,
        /// Maximum ticks to wait for more tuples.
        tau: u64,
    },
    /// DWS with self-calibrating parameters: `ω` tracks half the previous
    /// iteration's delta size and `τ` half its duration — the simulator's
    /// deterministic stand-in for the engine's Kingman estimation (§4.2).
    DwsAuto,
}

impl SimStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SimStrategy::Global => "Global",
            SimStrategy::Ssp(_) => "SSP",
            SimStrategy::Dws { .. } | SimStrategy::DwsAuto => "DWS",
        }
    }
}

/// Cost-model knobs.
///
/// The decisive difference between the strategies (§6.1) is *merge
/// concurrency*: merging exchanged tuples into the recursive tables under
/// Global/SSP happens inside a coarse-locked coordination phase — workers
/// serialize on the shared-memory critical section — while DWS merges
/// arrive through per-pair SPSC buffers and are applied concurrently with
/// plain atomic operations. Both pay the same `merge_cost` per tuple; the
/// locked strategies additionally contend for one global lock timeline.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Ticks per adjacency entry scanned during a local iteration.
    pub scan_cost: u64,
    /// Fixed ticks per local iteration.
    pub iter_overhead: u64,
    /// Ticks per exchanged tuple merged into the recursive table.
    pub merge_cost: u64,
    /// Fixed ticks per locked coordination round (barrier entry, system
    /// calls).
    pub barrier_cost: u64,
    /// Fraction (numerator/denominator) of locked merge work that
    /// serializes on the global lock; the rest proceeds concurrently.
    pub lock_serial_num: u64,
    /// See [`SimConfig::lock_serial_num`].
    pub lock_serial_den: u64,
    /// Straggler probability in percent per (worker, iteration):
    /// real machines jitter (cache misses, NUMA, OS preemption), and the
    /// barrier amplifies every straggler into whole-fleet idle time.
    /// 0 = the clean deterministic model (Figure 3's textbook setting).
    pub straggler_pct: u64,
    /// Multiplier applied to a straggling iteration's compute cost.
    pub straggler_factor: u64,
    /// Seed for the deterministic straggler draw.
    pub jitter_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scan_cost: 1,
            iter_overhead: 1,
            merge_cost: 1,
            barrier_cost: 1,
            lock_serial_num: 1,
            lock_serial_den: 1,
            straggler_pct: 0,
            straggler_factor: 1,
            jitter_seed: 0x51de,
        }
    }
}

impl SimConfig {
    /// The realistic multicore model used for Figures 8/9(a): partial lock
    /// serialization (25 %) and occasional 20× straggler iterations.
    pub fn realistic() -> Self {
        SimConfig {
            lock_serial_num: 1,
            lock_serial_den: 4,
            straggler_pct: 5,
            straggler_factor: 20,
            ..SimConfig::default()
        }
    }

    fn straggle(&self, worker: usize, iteration: u64, cost: u64) -> u64 {
        if self.straggler_pct == 0 || self.straggler_factor <= 1 {
            return cost;
        }
        let h = dcd_common::hash::combine(
            dcd_common::hash::mix64(worker as u64 ^ self.jitter_seed),
            iteration,
        );
        if h % 100 < self.straggler_pct {
            cost * self.straggler_factor
        } else {
            cost
        }
    }

    fn split_locked_merge(&self, merge_ticks: u64) -> (u64, u64) {
        let serial = merge_ticks * self.lock_serial_num / self.lock_serial_den.max(1);
        (serial, merge_ticks - serial)
    }
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total schedule length in ticks (the numbers of Figure 3(b)).
    pub makespan: u64,
    /// Local iterations executed per worker.
    pub iterations: Vec<u64>,
    /// Total cross-worker messages (tuples) sent.
    pub messages: u64,
    /// Final vertex → component-label assignment.
    pub labels: FastMap<u64, u64>,
    /// Strategy display name (for the trace export).
    pub strategy: &'static str,
    /// Per-worker schedule traces on the abstract tick clock — same
    /// event schema as the engine's tracer.
    pub traces: Vec<WorkerTrace>,
}

impl SimReport {
    /// Serializes the simulated schedule as Chrome/Perfetto trace JSON —
    /// identical in shape to [`crate::trace::chrome_trace_json`] output
    /// for a real run, with `"clock": "ticks"` (one tick renders as one
    /// microsecond).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(
            &self.traces,
            &[],
            &TraceMeta {
                strategy: self.strategy.to_string(),
                workers: self.iterations.len(),
                clock: "ticks",
            },
        )
    }
}

/// The simulated workload: weighted label-propagation edges plus an
/// explicit vertex → worker assignment (Figure 3 partitions by hand;
/// [`SimWorkload::cc_partitioned`] hashes like the engine).
///
/// The propagation generalizes both benchmark recursions the paper
/// ablates on: **CC** is min-label propagation (all weights 0, every
/// vertex seeded with its own id) and **SSSP** is min-distance relaxation
/// (weighted edges, only the source seeded with 0).
pub struct SimWorkload {
    /// Directed weighted edges `(src, dst, w)`; labels propagate src → dst
    /// as `label(src) + w`.
    pub edges: Vec<(u64, u64, u64)>,
    /// Vertex → owning worker.
    pub owner: FastMap<u64, usize>,
    /// Number of workers.
    pub workers: usize,
    /// Seed labels `(vertex, label)`.
    pub seeds: Vec<(u64, u64)>,
}

impl SimWorkload {
    /// CC workload: symmetrizes the edges (weight 0) and seeds every
    /// vertex with its own id.
    pub fn undirected(edges: &[(u64, u64)], owner: FastMap<u64, usize>, workers: usize) -> Self {
        let mut all = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            all.push((a, b, 0));
            all.push((b, a, 0));
        }
        let seeds = owner.keys().map(|&v| (v, v)).collect();
        SimWorkload {
            edges: all,
            owner,
            workers,
            seeds,
        }
    }

    /// CC workload with hash partitioning over `workers` workers (the
    /// engine's `H`).
    pub fn cc_partitioned(edges: &[(u64, u64)], workers: usize) -> Self {
        let owner = hash_owner(edges.iter().flat_map(|&(a, b)| [a, b]), workers);
        Self::undirected(edges, owner, workers)
    }

    /// SSSP workload with hash partitioning: weighted edges, single seed
    /// at `source` with distance 0.
    pub fn sssp_partitioned(edges: &[(u64, u64, u64)], source: u64, workers: usize) -> Self {
        let owner = hash_owner(edges.iter().flat_map(|&(a, b, _)| [a, b]), workers);
        SimWorkload {
            edges: edges.to_vec(),
            owner,
            workers,
            seeds: vec![(source, 0)],
        }
    }
}

fn hash_owner(vertices: impl Iterator<Item = u64>, workers: usize) -> FastMap<u64, usize> {
    let part = dcd_common::Partitioner::new(workers);
    let mut owner = FastMap::default();
    for v in vertices {
        owner.entry(v).or_insert_with(|| part.of_key(v));
    }
    owner
}

/// A pending remote batch: (arrival tick, source worker, messages).
type SimBatch = (u64, usize, Vec<(u64, u64)>);

struct WorkerSim {
    /// Vertices owned, with weighted adjacency (out-edges of owned
    /// vertices).
    adj: FastMap<u64, Vec<(u64, u64)>>,
    labels: FastMap<u64, u64>,
    delta: FastMap<u64, u64>,
    /// Pending remote batches.
    inbox: Vec<SimBatch>,
    iterations: u64,
    /// Time at which this worker becomes free.
    free_at: u64,
    /// DWS: deadline after which we stop waiting for more tuples.
    wait_deadline: Option<u64>,
    /// DWS: tick at which the current ω-wait window opened (for the
    /// OmegaWait span once the worker proceeds).
    wait_started: Option<u64>,
    /// Previous iteration's delta size (DwsAuto ω calibration).
    prev_processed: usize,
    /// Previous iteration's duration in ticks (DwsAuto τ calibration).
    prev_cost: u64,
    /// Schedule trace on the tick clock (same schema as the engine's).
    events: Vec<TraceEvent>,
}

impl WorkerSim {
    /// Merges `(vertex, label)` candidates; returns improved count.
    fn merge(&mut self, msgs: &[(u64, u64)]) -> usize {
        let mut improved = 0;
        for &(v, lbl) in msgs {
            let cur = self.labels.entry(v).or_insert(u64::MAX);
            if lbl < *cur {
                *cur = lbl;
                self.delta.insert(v, lbl);
                improved += 1;
            }
        }
        improved
    }

    /// Drains inbox entries arrived by `now`; returns (sources, tuples).
    fn drain(&mut self, now: u64) -> (usize, usize) {
        let mut sources = std::collections::BTreeSet::new();
        let mut tuples = 0;
        let mut rest = Vec::new();
        for (at, from, msgs) in std::mem::take(&mut self.inbox) {
            if at <= now {
                sources.insert(from);
                tuples += msgs.len();
                self.merge(&msgs);
            } else {
                rest.push((at, from, msgs));
            }
        }
        self.inbox = rest;
        (sources.len(), tuples)
    }

    fn next_arrival(&self) -> Option<u64> {
        self.inbox.iter().map(|(at, _, _)| *at).min()
    }
}

fn build_workers(w: &SimWorkload) -> Vec<WorkerSim> {
    let mut workers: Vec<WorkerSim> = (0..w.workers)
        .map(|_| WorkerSim {
            adj: FastMap::default(),
            labels: FastMap::default(),
            delta: FastMap::default(),
            inbox: Vec::new(),
            iterations: 0,
            free_at: 0,
            wait_deadline: None,
            wait_started: None,
            prev_processed: 0,
            prev_cost: 0,
            events: Vec::new(),
        })
        .collect();
    // Base rule: seed labels (every vertex for CC, the source for SSSP).
    for &(v, lbl) in &w.seeds {
        let o = w.owner[&v];
        workers[o].labels.insert(v, lbl);
        workers[o].delta.insert(v, lbl);
    }
    for &(a, b, wt) in &w.edges {
        let o = w.owner[&a];
        workers[o].adj.entry(a).or_default().push((b, wt));
    }
    for wk in &mut workers {
        for lst in wk.adj.values_mut() {
            lst.sort_unstable();
        }
    }
    workers
}

/// One local iteration: scan the delta's adjacency, emit candidates
/// grouped by owner. Returns (cost, per-owner messages).
fn run_iteration(
    wk: &mut WorkerSim,
    owner: &FastMap<u64, usize>,
    cfg: &SimConfig,
    nworkers: usize,
) -> (u64, Vec<Vec<(u64, u64)>>) {
    let mut out: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nworkers];
    let mut scanned = 0u64;
    let delta = std::mem::take(&mut wk.delta);
    let mut items: Vec<(u64, u64)> = delta.into_iter().collect();
    items.sort_unstable();
    for (v, lbl) in items {
        if let Some(neigh) = wk.adj.get(&v) {
            for &(u, wt) in neigh {
                scanned += 1;
                out[owner[&u]].push((u, lbl + wt));
            }
        }
    }
    wk.iterations += 1;
    let base = cfg.iter_overhead + cfg.scan_cost * scanned;
    (base, out)
}

/// Simulates the Global strategy (synchronized rounds).
fn simulate_global(w: &SimWorkload, cfg: &SimConfig) -> SimReport {
    let mut workers = build_workers(w);
    let mut t = 0u64;
    let mut messages = 0u64;
    loop {
        // Run one global iteration: every active worker does one local
        // iteration; the round lasts as long as the slowest.
        let round_start = t;
        let mut round_max = 0u64;
        let mut outputs: Vec<Vec<Vec<(u64, u64)>>> = Vec::with_capacity(workers.len());
        let mut costs: Vec<u64> = Vec::with_capacity(workers.len());
        let mut any_active = false;
        for (i, wk) in workers.iter_mut().enumerate() {
            if wk.delta.is_empty() {
                outputs.push(vec![Vec::new(); w.workers]);
                costs.push(0);
                continue;
            }
            any_active = true;
            let iter_no = wk.iterations;
            let processed = wk.delta.len() as u64;
            let (cost, out) = run_iteration(wk, &w.owner, cfg, w.workers);
            let cost = cfg.straggle(i, iter_no, cost);
            round_max = round_max.max(cost);
            let sent: u64 = out
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != i)
                .map(|(_, m)| m.len() as u64)
                .sum();
            wk.events
                .push(span_ev(Phase::EvalDelta, round_start, cost, iter_no));
            wk.events.push(mark_ev(
                Mark::Iteration,
                round_start + cost,
                iter_no,
                processed,
                sent,
                0,
            ));
            outputs.push(out);
            costs.push(cost);
        }
        if !any_active {
            break;
        }
        t += round_max;
        // The barrier amplifies every straggler: everyone who finished
        // early idles until the slowest worker's iteration ends.
        for (i, wk) in workers.iter_mut().enumerate() {
            if costs[i] < round_max {
                wk.events.push(span_ev(
                    Phase::Idle,
                    round_start + costs[i],
                    round_max - costs[i],
                    wk.iterations,
                ));
            }
        }
        // Coordination: everyone exchanges with everyone under the global
        // lock — a share of the per-tuple merge work serializes across
        // workers (§6.1), the rest overlaps.
        let coord_start = t;
        let mut serialized = 0u64;
        let mut concurrent_max = 0u64;
        for (dst, wk) in workers.iter_mut().enumerate() {
            let mut mine = 0u64;
            for (src, out) in outputs.iter().enumerate() {
                let msgs = &out[dst];
                if msgs.is_empty() {
                    continue;
                }
                if src != dst {
                    messages += msgs.len() as u64;
                    mine += cfg.merge_cost * msgs.len() as u64;
                }
                wk.merge(msgs);
            }
            if mine > 0 {
                wk.events
                    .push(span_ev(Phase::Merge, coord_start, mine, wk.iterations));
            }
            let (serial, conc) = cfg.split_locked_merge(mine);
            serialized += serial;
            concurrent_max = concurrent_max.max(conc);
        }
        t += cfg.barrier_cost + serialized + concurrent_max;
        for wk in workers.iter_mut() {
            wk.events
                .push(mark_ev(Mark::TerminationRound, t, wk.iterations, 1, 0, 0));
        }
    }
    // The all-zero round: every worker observes global fixpoint.
    for wk in workers.iter_mut() {
        wk.events
            .push(mark_ev(Mark::TerminationRound, t, wk.iterations, 0, 0, 0));
    }
    SimReport {
        makespan: t,
        iterations: workers.iter().map(|w| w.iterations).collect(),
        messages,
        labels: collect_labels(&workers),
        strategy: "Global",
        traces: collect_traces(&mut workers),
    }
}

/// Event-driven simulation for SSP and DWS.
fn simulate_async(w: &SimWorkload, cfg: &SimConfig, strat: SimStrategy) -> SimReport {
    // SSP keeps the locked coordination of Algorithm 1 (merges serialize
    // on a global lock timeline); DWS merges concurrently through the
    // lock-free SPSC buffers (§6.1).
    let locked = !matches!(strat, SimStrategy::Dws { .. } | SimStrategy::DwsAuto);
    let mut lock_free_at = 0u64;
    let mut workers = build_workers(w);
    let n = w.workers;
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut messages = 0u64;
    let mut makespan = 0u64;
    for i in 0..n {
        heap.push(Reverse((0, seq, i)));
        seq += 1;
    }
    // Guard against pathological schedules in tests.
    let mut budget = 10_000_000u64;
    while let Some(Reverse((now, _, me))) = heap.pop() {
        budget = budget.checked_sub(1).expect("simulation did not terminate");
        makespan = makespan.max(now);
        // Drain what has arrived; merge cost is concurrent for DWS, but
        // serializes on the global lock for SSP.
        let (_sources, tuples) = workers[me].drain(now);
        let merge_ticks = cfg.merge_cost * tuples as u64;
        let merge_start = now;
        let mut now = if locked && merge_ticks > 0 {
            let (serial, conc) = cfg.split_locked_merge(merge_ticks);
            let start = now.max(lock_free_at);
            lock_free_at = start + serial;
            lock_free_at + conc
        } else {
            now + merge_ticks
        };
        if tuples > 0 && now > merge_start {
            let it = workers[me].iterations;
            workers[me]
                .events
                .push(span_ev(Phase::Merge, merge_start, now - merge_start, it));
        }

        if workers[me].delta.is_empty() {
            if let Some(at) = workers[me].next_arrival() {
                heap.push(Reverse((at.max(now), seq, me)));
                seq += 1;
            }
            // Otherwise: idle; reactivated when a batch is delivered.
            makespan = makespan.max(now);
            continue;
        }
        // Batching wait: wait up to τ while the delta is smaller than ω,
        // collecting more tuples. Static (ω, τ) for the textbook DWS,
        // self-calibrating halves of the previous iteration otherwise —
        // SSP exchanges at local-iteration granularity so it batches the
        // same way; its staleness bound is enforced afterwards.
        {
            let (omega, tau) = match strat {
                SimStrategy::Dws { omega, tau } => (omega, tau),
                _ => (
                    workers[me].prev_processed / 2,
                    (workers[me].prev_cost / 2).max(1),
                ),
            };
            let len = workers[me].delta.len();
            if len < omega {
                match workers[me].wait_deadline {
                    None => {
                        workers[me].wait_deadline = Some(now + tau);
                        workers[me].wait_started = Some(now);
                        let wake = workers[me]
                            .next_arrival()
                            .map_or(now + tau, |a| a.min(now + tau));
                        heap.push(Reverse((wake.max(now), seq, me)));
                        seq += 1;
                        continue;
                    }
                    Some(d) if now < d => {
                        let wake = workers[me].next_arrival().map_or(d, |a| a.min(d));
                        heap.push(Reverse((wake.max(now + 1), seq, me)));
                        seq += 1;
                        continue;
                    }
                    Some(_) => {
                        // Timeout: proceed (Alg. 2 line 7-8).
                        workers[me].wait_deadline = None;
                    }
                }
            } else {
                workers[me].wait_deadline = None;
            }
        }
        // The ω-wait window closes the moment we proceed (either the delta
        // grew past ω or τ expired) — record it as a span.
        if let Some(ws) = workers[me].wait_started.take() {
            if now > ws {
                let it = workers[me].iterations;
                workers[me]
                    .events
                    .push(span_ev(Phase::OmegaWait, ws, now - ws, it));
            }
        }
        // SSP staleness bound: may not run more than `s` iterations ahead
        // of the slowest worker that still has (or will get) work.
        if let SimStrategy::Ssp(s) = strat {
            let frontier = workers
                .iter()
                .enumerate()
                .filter(|(i, wk)| *i != me && (!wk.delta.is_empty() || !wk.inbox.is_empty()))
                .map(|(_, wk)| wk.iterations)
                .min();
            if let Some(f) = frontier {
                if workers[me].iterations > f + s {
                    // Blocked: re-check one tick later.
                    heap.push(Reverse((now + 1, seq, me)));
                    seq += 1;
                    continue;
                }
            }
        }
        // Run one local iteration.
        let processed = workers[me].delta.len();
        let iter_no = workers[me].iterations;
        let iter_start = now;
        let (base_cost, out) = run_iteration(&mut workers[me], &w.owner, cfg, n);
        let cost = cfg.straggle(me, iter_no, base_cost);
        workers[me].prev_processed = processed;
        // Calibrate ω/τ on the *typical* iteration cost: the Kingman
        // estimator tracks mean service rates, which straggler spikes do
        // not shift much.
        workers[me].prev_cost = base_cost;
        now += cost;
        workers[me].free_at = now;
        makespan = makespan.max(now);
        let sent: u64 = out
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != me)
            .map(|(_, m)| m.len() as u64)
            .sum();
        // Deliver: local merges immediately, remote at completion time.
        for (dst, msgs) in out.into_iter().enumerate() {
            if msgs.is_empty() {
                continue;
            }
            if dst == me {
                workers[me].merge(&msgs);
            } else {
                messages += msgs.len() as u64;
                let idle = workers[dst].delta.is_empty() && workers[dst].inbox.is_empty();
                workers[dst].inbox.push((now, me, msgs));
                if idle {
                    heap.push(Reverse((now, seq, dst)));
                    seq += 1;
                }
            }
        }
        workers[me]
            .events
            .push(span_ev(Phase::EvalDelta, iter_start, cost, iter_no));
        let depth = workers[me].inbox.len() as u64;
        workers[me].events.push(mark_ev(
            Mark::Iteration,
            now,
            iter_no,
            processed as u64,
            sent,
            depth,
        ));
        if matches!(strat, SimStrategy::Dws { .. } | SimStrategy::DwsAuto) {
            // The controller re-estimates (ω, τ) after each iteration; the
            // simulator's stand-in is the static pair or the half-previous
            // calibration.
            let (omega_next, tau_next) = match strat {
                SimStrategy::Dws { omega, tau } => (omega as u64, tau),
                _ => ((processed / 2) as u64, (base_cost / 2).max(1)),
            };
            let pending = workers[me].delta.len() as u64;
            workers[me].events.push(mark_ev(
                Mark::DwsDecision,
                now,
                iter_no,
                omega_next,
                tau_next,
                pending,
            ));
        }
        // Schedule own next step.
        heap.push(Reverse((now, seq, me)));
        seq += 1;
    }
    // Quiescence: every worker observes the empty-system fixpoint.
    for wk in workers.iter_mut() {
        wk.events.push(mark_ev(
            Mark::TerminationRound,
            makespan,
            wk.iterations,
            0,
            0,
            0,
        ));
    }
    SimReport {
        makespan,
        iterations: workers.iter().map(|w| w.iterations).collect(),
        messages,
        labels: collect_labels(&workers),
        strategy: strat.name(),
        traces: collect_traces(&mut workers),
    }
}

/// Moves each worker's event log into a [`WorkerTrace`], sorted by start
/// tick (the simulator never drops events: `dropped == 0`).
fn collect_traces(workers: &mut [WorkerSim]) -> Vec<WorkerTrace> {
    workers
        .iter_mut()
        .enumerate()
        .map(|(i, wk)| {
            let mut events = std::mem::take(&mut wk.events);
            events.sort_by_key(|e| (e.ts, e.end()));
            WorkerTrace {
                worker: i,
                events,
                dropped: 0,
            }
        })
        .collect()
}

fn collect_labels(workers: &[WorkerSim]) -> FastMap<u64, u64> {
    let mut out = FastMap::default();
    for wk in workers {
        for (&v, &l) in &wk.labels {
            out.insert(v, l);
        }
    }
    out
}

/// Runs the CC workload under `strat` and returns the schedule report.
pub fn simulate(w: &SimWorkload, cfg: &SimConfig, strat: SimStrategy) -> SimReport {
    match strat {
        SimStrategy::Global => simulate_global(w, cfg),
        _ => simulate_async(w, cfg, strat),
    }
}

/// The Figure-3-style workload: three workers, worker 0 lightly loaded,
/// workers 1 and 2 heavy (many edges per vertex) and long-diameter, with
/// the globally smallest label living on worker 0.
///
/// Under Global, worker 0's cheap iterations are paced by the heavy
/// workers' rounds, so the label-1 wave crosses its chain at slow-round
/// speed. SSP lets worker 0 run only `s` iterations ahead while workers
/// 1-2 are still actively converging internally. DWS never blocks worker
/// 0, so the wave reaches the heavy workers while they are still busy and
/// merges into their remaining iterations — the schedule the paper draws
/// in Figure 3(b)(3).
pub fn figure3_workload() -> SimWorkload {
    let mut owner = FastMap::default();
    let mut edges = Vec::new();
    // W0: cheap chain 1-2-...-8.
    for v in 1..=8u64 {
        owner.insert(v, 0);
    }
    for v in 1..8u64 {
        edges.push((v, v + 1));
    }
    // Heavy chain builder: spine of `len` vertices starting at `base`,
    // each spine vertex carrying `leaves` pendant leaves (same owner), so
    // every spine iteration scans many adjacency entries.
    let mut heavy =
        |base: u64, len: u64, leaves: u64, worker: usize, edges: &mut Vec<(u64, u64)>| {
            for i in 0..len {
                let v = base + i;
                owner.insert(v, worker);
                if i + 1 < len {
                    edges.push((v, v + 1));
                }
                for l in 0..leaves {
                    let leaf = base + 1000 + i * leaves + l;
                    owner.insert(leaf, worker);
                    edges.push((v, leaf));
                }
            }
        };
    heavy(100, 8, 6, 1, &mut edges);
    heavy(10_000, 8, 6, 2, &mut edges);
    // The label-1 wave: W0's tail feeds W1's spine head, whose tail feeds
    // W2's spine head.
    edges.push((8, 100));
    edges.push((107, 10_000));
    SimWorkload::undirected(&edges, owner, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn final_labels_correct(r: &SimReport, w: &SimWorkload) {
        // Single connected component in the figure-3 workload: everything
        // must converge to the smallest vertex id.
        let min = w.owner.keys().min().copied().unwrap();
        for (&v, &l) in &r.labels {
            assert_eq!(l, min, "vertex {v} has label {l}");
        }
    }

    #[test]
    fn all_strategies_compute_the_same_components() {
        let w = figure3_workload();
        let cfg = SimConfig::default();
        for strat in [
            SimStrategy::Global,
            SimStrategy::Ssp(1),
            SimStrategy::Dws { omega: 4, tau: 3 },
        ] {
            let r = simulate(&w, &cfg, strat);
            final_labels_correct(&r, &w);
        }
    }

    #[test]
    fn figure3_ordering_dws_beats_ssp_beats_global() {
        let w = figure3_workload();
        let cfg = SimConfig::default();
        let g = simulate(&w, &cfg, SimStrategy::Global).makespan;
        let s = simulate(&w, &cfg, SimStrategy::Ssp(1)).makespan;
        let d = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 }).makespan;
        assert!(s < g, "SSP ({s}) should beat Global ({g})");
        assert!(d < s, "DWS ({d}) should beat SSP ({s})");
        // Figure 3 reports 128 / 88 / 67 units: DWS roughly halves Global.
        assert!(
            (d as f64) < 0.7 * g as f64,
            "DWS ({d}) should be well under Global ({g})"
        );
    }

    #[test]
    fn deterministic_replay() {
        let w = figure3_workload();
        let cfg = SimConfig::default();
        let a = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 });
        let b = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 });
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn two_components_stay_separate() {
        let mut owner = FastMap::default();
        for v in 1..=4 {
            owner.insert(v, (v % 2) as usize);
        }
        let w = SimWorkload::undirected(&[(1, 2), (3, 4)], owner, 2);
        let r = simulate(&w, &SimConfig::default(), SimStrategy::Global);
        assert_eq!(r.labels[&1], 1);
        assert_eq!(r.labels[&2], 1);
        assert_eq!(r.labels[&3], 3);
        assert_eq!(r.labels[&4], 3);
    }

    #[test]
    fn sssp_propagates_weighted_distances() {
        let edges = [(1u64, 2, 10), (1, 3, 2), (3, 2, 3), (2, 4, 1)];
        for workers in [1, 2, 4] {
            let w = SimWorkload::sssp_partitioned(&edges, 1, workers);
            let r = simulate(
                &w,
                &SimConfig::default(),
                SimStrategy::Dws { omega: 2, tau: 2 },
            );
            assert_eq!(r.labels[&1], 0);
            assert_eq!(r.labels[&2], 5, "via 3");
            assert_eq!(r.labels[&3], 2);
            assert_eq!(r.labels[&4], 6);
        }
    }

    #[test]
    fn more_workers_shrink_the_simulated_makespan() {
        // A bulky random-ish workload: parallel schedules must be shorter.
        let edges: Vec<(u64, u64)> = (0..400u64)
            .flat_map(|i| {
                let a = (i * 7) % 100;
                let b = (i * 13 + 1) % 100;
                (a != b).then_some((a, b))
            })
            .collect();
        let cfg = SimConfig::default();
        let t1 = simulate(
            &SimWorkload::cc_partitioned(&edges, 1),
            &cfg,
            SimStrategy::Dws { omega: 0, tau: 0 },
        )
        .makespan;
        let t4 = simulate(
            &SimWorkload::cc_partitioned(&edges, 4),
            &cfg,
            SimStrategy::Dws { omega: 0, tau: 0 },
        )
        .makespan;
        assert!(
            (t4 as f64) < 0.6 * t1 as f64,
            "4 workers should beat 1: {t4} vs {t1}"
        );
    }

    #[test]
    fn cc_and_sssp_agree_across_strategies_on_partitioned_workloads() {
        let edges: Vec<(u64, u64)> = (0..50u64).map(|i| (i, (i + 1) % 50)).collect();
        let weighted: Vec<(u64, u64, u64)> =
            edges.iter().map(|&(a, b)| (a, b, 1 + a % 5)).collect();
        let cfg = SimConfig::default();
        let mut expected: Option<Vec<(u64, u64)>> = None;
        for strat in [
            SimStrategy::Global,
            SimStrategy::Ssp(2),
            SimStrategy::Dws { omega: 3, tau: 2 },
        ] {
            let w = SimWorkload::sssp_partitioned(&weighted, 0, 3);
            let r = simulate(&w, &cfg, strat);
            let mut labels: Vec<(u64, u64)> = r.labels.into_iter().collect();
            labels.sort_unstable();
            match &expected {
                None => expected = Some(labels),
                Some(e) => assert_eq!(e, &labels, "{}", strat.name()),
            }
        }
    }

    #[test]
    fn simulated_traces_carry_the_engine_schema() {
        let w = figure3_workload();
        let cfg = SimConfig::default();
        for strat in [
            SimStrategy::Global,
            SimStrategy::Ssp(1),
            SimStrategy::Dws { omega: 4, tau: 3 },
        ] {
            let r = simulate(&w, &cfg, strat);
            assert_eq!(r.traces.len(), w.workers, "{}", strat.name());
            for tr in &r.traces {
                assert_eq!(tr.dropped, 0);
                for pair in tr.events.windows(2) {
                    assert!(pair[0].ts <= pair[1].ts, "start ticks must be monotone");
                }
                for ev in &tr.events {
                    assert!(ev.end() <= r.makespan, "event past the makespan");
                }
                // One Iteration instant per local iteration, numbered 0..n.
                let iters: Vec<u64> = tr
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Instant(Mark::Iteration)))
                    .map(|e| e.iteration)
                    .collect();
                assert_eq!(iters.len() as u64, r.iterations[tr.worker]);
                assert_eq!(iters, (0..iters.len() as u64).collect::<Vec<_>>());
            }
            if matches!(strat, SimStrategy::Dws { .. }) {
                let decisions = r
                    .traces
                    .iter()
                    .flat_map(|t| &t.events)
                    .filter(|e| matches!(e.kind, EventKind::Instant(Mark::DwsDecision)))
                    .count();
                assert!(decisions > 0, "DWS runs must log controller decisions");
            }
            let json = r.trace_json();
            assert!(json.contains("\"traceEvents\""));
            assert!(json.contains("\"clock\": \"ticks\""));
            assert!(json.contains(strat.name()));
        }
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let mut owner = FastMap::default();
        for v in 1..=5 {
            owner.insert(v, 0);
        }
        let edges: Vec<(u64, u64)> = (1..5).map(|v| (v, v + 1)).collect();
        let w = SimWorkload::undirected(&edges, owner, 1);
        for strat in [
            SimStrategy::Global,
            SimStrategy::Ssp(3),
            SimStrategy::Dws { omega: 2, tau: 2 },
        ] {
            let r = simulate(&w, &SimConfig::default(), strat);
            assert!(r.labels.values().all(|&l| l == 1));
            assert_eq!(r.messages, 0);
        }
    }
}
