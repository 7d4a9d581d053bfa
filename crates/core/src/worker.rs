//! The per-worker evaluation loop: Algorithm 1 (Global), its SSP
//! relaxation, and Algorithm 2 (DWS).
//!
//! Every worker runs the strata in order, synchronizing at stratum entry.
//! Within a recursive stratum it repeatedly: drains its message buffers
//! (Gather), merges the arrivals into its local stores (emitting delta
//! rows), decides per its strategy whether to wait or proceed, evaluates
//! one local semi-naive iteration, and distributes the derived tuples
//! (Distribute). Termination is per-strategy: the round barrier's all-zero
//! round for Global, the produced/consumed counter protocol for SSP/DWS.
//!
//! A delta row is the id of a row in this worker's store, not a copy of
//! it. An aggregate group keeps one id while its value improves in place,
//! so Gather's rule that a group updated several times keeps only its
//! newest row (§5.2.2) is a sort and dedup of the pending ids: the one id
//! left reads the newest value.
//!
//! Routing note: a derived tuple is *sent* once per distinct destination
//! worker, and every receiver re-derives locally which of the relation's
//! routes (§4.3) apply to it — this keeps multi-route relations (APSP)
//! correct even when two routes hash to the same worker.

use crate::config::EngineConfig;
use crate::eval::{DeltaRow, EvalScratch, Evaluator};
use crate::store::{Merged, WorkerStore};
use dcd_common::hash::FastMap;
use dcd_common::{DcdError, Frame, Partitioner, Result, Tuple, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, RelId};
use dcd_runtime::trace::{Mark, Phase};
use dcd_runtime::{
    Batch, BufferMatrix, DwsController, IdleOutcome, Recorder, RoundBarrier, SspClock, Strategy,
    Termination, WorkerEndpoints,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-stratum coordination objects (shared by all workers).
pub struct StratumCoord {
    /// Entry synchronization (also separates init sends from round 1).
    pub entry: RoundBarrier,
    /// Post-init synchronization.
    pub post_init: RoundBarrier,
    /// Counter-based fixpoint detection (SSP/DWS).
    pub termination: Termination,
    /// Per-global-iteration barrier (Global).
    pub round: RoundBarrier,
    /// Bounded-staleness clock (SSP).
    pub ssp: SspClock,
}

/// All shared coordination state for one evaluation.
pub struct Coordination {
    /// The message-buffer matrix.
    pub buffers: BufferMatrix,
    /// The discriminating function `H`.
    pub part: Partitioner,
    /// Per-stratum coordination.
    pub strata: Vec<StratumCoord>,
    /// The run clock's zero: every worker's [`Recorder`] stamps its
    /// events relative to it, so the exported tracks align.
    pub epoch: Instant,
    /// Error/timeout flag.
    pub abort: AtomicBool,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Coordination {
    /// Builds coordination state for `plan` under `cfg`.
    pub fn new(plan: &PhysicalPlan, cfg: &EngineConfig) -> Self {
        let n = cfg.workers;
        let ssp_s = match cfg.strategy {
            Strategy::Ssp { s } => s,
            _ => 0,
        };
        let strata = plan
            .strata
            .iter()
            .map(|_| StratumCoord {
                entry: RoundBarrier::new(n),
                post_init: RoundBarrier::new(n),
                termination: Termination::new(n, cfg.idle_poll),
                round: RoundBarrier::new(n),
                ssp: SspClock::new(n, ssp_s),
            })
            .collect();
        Coordination {
            buffers: BufferMatrix::new(n, cfg.queue_capacity),
            part: Partitioner::new(n),
            strata,
            epoch: Instant::now(),
            abort: AtomicBool::new(false),
            deadline: cfg.timeout.map(|t| Instant::now() + t),
        }
    }

    /// Sum of `(produced, consumed)` termination counters over all strata.
    /// After a completed evaluation the two totals are equal (that is the
    /// fixpoint condition); the observability layer reconciles the
    /// per-worker counters against them.
    pub fn termination_totals(&self) -> (u64, u64) {
        self.strata
            .iter()
            .map(|s| s.termination.counters())
            .fold((0, 0), |(p, c), (sp, sc)| (p + sp, c + sc))
    }

    /// Flags an abort and releases everything blocked.
    pub fn cancel(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for s in &self.strata {
            s.entry.cancel();
            s.post_init.cancel();
            s.termination.cancel();
            s.round.cancel();
        }
    }

    fn check_deadline(&self) -> Result<()> {
        if self.abort.load(Ordering::SeqCst) {
            return Err(DcdError::Execution("evaluation aborted".into()));
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                self.cancel();
                return Err(DcdError::Timeout);
            }
        }
        Ok(())
    }
}

/// Set rows evaluated but not yet distributed: once an evaluation slice
/// leaves this many buffered, Iterate hands them to Distribute before the
/// next slice, so the buffer between the kernel and Distribute stays
/// bounded however large one iteration's output is. The flush tests in
/// `tests/engine_e2e.rs` and `scripts/check_trace_smoke.sh` size their
/// inputs to more than twice this.
const FLUSH_ROWS: usize = 1 << 14;

/// Delta rows per evaluation slice: how often Iterate checks the buffer
/// against [`FLUSH_ROWS`].
const SLICE_ROWS: usize = 256;

/// Head rows between the kernel and Distribute, with the pre-Distribute
/// partial aggregation of §5.2.3. Aggregate rows collapse per key for the
/// whole local iteration — min/max keep the best row per group, sum/count
/// keep the latest row per (group, contributor) — and reach Distribute
/// only when the iteration ends. Set rows skip the map: their only
/// collapse is exact-duplicate elimination, which Distribute's
/// sent-filter and the idempotent merge already perform, so they queue
/// in `rows`, which Iterate flushes every [`FLUSH_ROWS`].
#[derive(Default)]
struct PartialAgg {
    best: FastMap<(RelId, Tuple), Tuple>,
    rows: Vec<(RelId, Tuple)>,
}

impl PartialAgg {
    fn push(&mut self, plan: &PhysicalPlan, rel: RelId, row: Tuple) {
        use dcd_frontend::ast::AggFunc;
        use dcd_frontend::physical::StorageKind;
        let decl = plan.idb[rel].as_ref().expect("IDB head");
        match &decl.kind {
            StorageKind::Set => {
                self.rows.push((rel, row));
            }
            StorageKind::Agg {
                func, group_cols, ..
            } => {
                let (key_cols, keep_better): (usize, Option<AggFunc>) = match func {
                    AggFunc::Min | AggFunc::Max => (*group_cols, Some(*func)),
                    // Contributor is part of the key; later rows replace.
                    AggFunc::Sum | AggFunc::Count => (*group_cols + 1, None),
                };
                let key = row.prefix(key_cols);
                match self.best.entry((rel, key)) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(row);
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => match keep_better {
                        Some(AggFunc::Min) => {
                            if row.values()[key_cols] < o.get().values()[key_cols] {
                                o.insert(row);
                            }
                        }
                        Some(AggFunc::Max) => {
                            if row.values()[key_cols] > o.get().values()[key_cols] {
                                o.insert(row);
                            }
                        }
                        _ => {
                            o.insert(row); // sum: latest contribution wins
                        }
                    },
                }
            }
        }
    }

    /// Consumes the accumulator, yielding `(head relation, row)` pairs
    /// for Distribute: the set rows still buffered, then every aggregate
    /// row.
    fn drain(self) -> impl Iterator<Item = (RelId, Tuple)> {
        self.rows
            .into_iter()
            .chain(self.best.into_iter().map(|((rel, _), row)| (rel, row)))
    }
}

/// The worker context bundling everything one thread needs.
pub struct Worker<'a> {
    plan: &'a PhysicalPlan,
    cfg: &'a EngineConfig,
    coord: &'a Coordination,
    endpoints: WorkerEndpoints<'a>,
    me: WorkerId,
    evaluator: Evaluator<'a>,
    /// Persistent register file + probe counters for the batched kernel.
    scratch: EvalScratch,
    /// This worker's counters and trace; returned by [`Worker::run`].
    rec: Recorder,
}

impl<'a> Worker<'a> {
    /// Claims worker `me`'s endpoints and builds its context.
    pub fn new(
        plan: &'a PhysicalPlan,
        cfg: &'a EngineConfig,
        coord: &'a Coordination,
        me: WorkerId,
    ) -> Self {
        Worker {
            plan,
            cfg,
            coord,
            endpoints: coord.buffers.claim(me),
            me,
            evaluator: Evaluator {
                plan,
                me,
                workers: cfg.workers,
            },
            scratch: EvalScratch::new(),
            rec: Recorder::new(coord.epoch, cfg.trace.then_some(cfg.trace_capacity)),
        }
    }

    /// Runs the full evaluation for this worker; returns the final local
    /// store and the worker's recorder.
    pub fn run(mut self, mut store: WorkerStore) -> Result<(WorkerStore, Recorder)> {
        for si in 0..self.plan.strata.len() {
            self.run_stratum(si, &mut store)?;
        }
        // Fold the sent-filter counters and the kernel's probe counters
        // into the recorder so the report carries them.
        let m = &mut self.rec.counters;
        (m.cache_hits, m.cache_misses) = store.cache_totals();
        m.probe_hits += self.scratch.probe_hits;
        m.probe_reuse += self.scratch.probe_reuse;
        Ok((store, self.rec))
    }

    fn run_stratum(&mut self, si: usize, store: &mut WorkerStore) -> Result<()> {
        let sc = &self.coord.strata[si];
        let te = Instant::now();
        sc.entry.wait();
        self.rec.close(Phase::Idle, te, 0, 0, 0);
        self.coord.check_deadline()?;

        // ---- Init phase: base rules + inline facts ----
        let ti = Instant::now();
        let stratum = &self.plan.strata[si];
        let mut acc = PartialAgg::default();
        {
            let mut rows = Vec::new();
            for rule in &stratum.init_rules {
                rows.clear();
                self.evaluator.eval_init(rule, store, &mut rows);
                for t in rows.drain(..) {
                    acc.push(self.plan, rule.head_rel, t);
                }
            }
        }
        if self.me == 0 {
            for (rel, t) in &self.plan.facts {
                if stratum.rels.contains(rel) {
                    acc.push(self.plan, *rel, t.clone());
                }
            }
        }
        self.rec.close(Phase::EvalDelta, ti, 0, 0, 0);
        let mut delta = Vec::new();
        self.distribute(si, store, acc.drain(), &mut delta, &mut None)?;
        let tp = Instant::now();
        sc.post_init.wait();
        self.rec.close(Phase::Idle, tp, 0, 0, 0);

        // ---- Fixpoint phase ----
        match &self.cfg.strategy {
            Strategy::Global => self.global_loop(si, store, delta),
            Strategy::Ssp { .. } => self.async_loop(si, store, delta, None),
            Strategy::Dws | Strategy::DwsWith(_) => {
                let dws_cfg = self.cfg.strategy.dws_config().expect("dws strategy");
                let controller = DwsController::new(self.cfg.workers, dws_cfg);
                self.async_loop(si, store, delta, Some(controller))
            }
        }
    }

    /// Algorithm 1: a global barrier after every iteration.
    fn global_loop(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        mut delta: Vec<DeltaRow>,
    ) -> Result<()> {
        // Initial new-tuple count: what init distributed locally + remotely
        // is already in `delta`/queues; the first round drains and counts.
        loop {
            self.coord.check_deadline()?;
            let tg = Instant::now();
            self.drain_into(si, store, &mut delta, &mut None);
            self.rec.close(Phase::Gather, tg, 0, 0, 0);
            let processed = delta.len() as u64;
            let (local_new, remote_sent) = self.iterate(si, store, &mut delta, &mut None)?;
            let produced = remote_sent + local_new;
            let queue_depth = self.coord.buffers.inbound_len(self.me) as u64;
            self.rec.end_iteration(processed, produced, queue_depth);
            let tb = Instant::now();
            let cont = self.coord.strata[si].round.arrive(produced);
            self.rec.close(Phase::Idle, tb, 0, 0, 0);
            self.rec.mark(Mark::TerminationRound, cont as u64, 0, 0);
            if !cont {
                if self.coord.abort.load(Ordering::SeqCst) {
                    return Err(DcdError::Execution("evaluation aborted".into()));
                }
                return Ok(());
            }
        }
    }

    /// Algorithm 2 (DWS) and the SSP relaxation: no global barrier.
    fn async_loop(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        mut delta: Vec<DeltaRow>,
        mut dws: Option<DwsController>,
    ) -> Result<()> {
        let sc = &self.coord.strata[si];
        let is_ssp = matches!(self.cfg.strategy, Strategy::Ssp { .. });
        loop {
            self.coord.check_deadline()?;
            let tg = Instant::now();
            self.drain_into(si, store, &mut delta, &mut dws.as_mut());
            self.rec.close(Phase::Gather, tg, 0, 0, 0);

            if delta.is_empty() {
                // Local fixpoint: park until new work or global fixpoint.
                if is_ssp {
                    sc.ssp.finish(self.me);
                }
                let ti = Instant::now();
                let outcome = sc.termination.idle_wait(|| self.endpoints.has_inbound());
                self.rec.close(Phase::Idle, ti, 0, 0, 0);
                let work = outcome == IdleOutcome::Work;
                self.rec.mark(Mark::TerminationRound, work as u64, 0, 0);
                match outcome {
                    IdleOutcome::Done => {
                        if self.coord.abort.load(Ordering::SeqCst) {
                            return Err(DcdError::Execution("evaluation aborted".into()));
                        }
                        return Ok(());
                    }
                    IdleOutcome::Work => {
                        if is_ssp {
                            sc.ssp.rejoin(self.me);
                        }
                        continue;
                    }
                }
            }

            // DWS: wait up to τ while the delta is smaller than ω
            // (Algorithm 2 lines 5–8), collecting more tuples meanwhile.
            if let Some(ctrl) = dws.as_mut() {
                let omega = ctrl.omega();
                if delta.len() < omega {
                    let tw = Instant::now();
                    let deadline = tw + ctrl.tau();
                    while delta.len() < omega
                        && Instant::now() < deadline
                        && !sc.termination.is_done()
                    {
                        if self.endpoints.has_inbound() {
                            // The controller must see these batches too:
                            // dropping them here systematically
                            // underestimated λ (arrival-stat loss).
                            let mut ctrl_opt = Some(&mut *ctrl);
                            self.drain_into(si, store, &mut delta, &mut ctrl_opt);
                        } else {
                            std::thread::sleep(Duration::from_micros(5));
                        }
                    }
                    self.rec.close(Phase::OmegaWait, tw, 0, 0, 0);
                }
                ctrl.update_params();
                self.rec.mark(
                    Mark::DwsDecision,
                    ctrl.omega() as u64,
                    ctrl.tau().as_nanos() as u64,
                    delta.len() as u64,
                );
            }

            // SSP: stay within `s` iterations of the frontier.
            if is_ssp {
                let abort = || self.coord.abort.load(Ordering::SeqCst) || sc.termination.is_done();
                sc.ssp.wait_if_ahead(self.me, abort);
            }

            let t0 = Instant::now();
            let processed = delta.len();
            let (local_new, remote_sent) =
                self.iterate(si, store, &mut delta, &mut dws.as_mut())?;
            if let Some(ctrl) = dws.as_mut() {
                ctrl.on_iteration(processed, t0.elapsed());
            }
            let queue_depth = self.coord.buffers.inbound_len(self.me) as u64;
            self.rec
                .end_iteration(processed as u64, local_new + remote_sent, queue_depth);
            if is_ssp {
                sc.ssp.advance(self.me);
            }
        }
    }

    /// One local semi-naive iteration and its Distribute: runs every
    /// matching delta variant over the pending delta rows, which become
    /// empty and collect the next delta. Head rows pass through the partial
    /// aggregation of §5.2.3 ("the Distribute operators also perform some
    /// partial aggregation"). Each kernel call's second pass runs in slices
    /// of [`SLICE_ROWS`]; whenever [`FLUSH_ROWS`] set rows are buffered
    /// after a slice, they go to Distribute before the next slice, so later
    /// slices probe stores those rows may have grown (monotone rules only
    /// derive more from them). Aggregate rows are distributed once, at the
    /// end. Returns `(new local merges, tuples sent to peers)`.
    fn iterate(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64)> {
        let mut t0 = Instant::now();
        let plan = self.plan;
        let stratum = &plan.strata[si];
        // Gather (§5.2.2): an aggregate group updated several times since
        // the last iteration has one id, which reads its newest value, so
        // dropping repeated ids keeps only the newest row. Without this,
        // `sum` relations fragment convergence into O(total-change/ε)
        // micro-deltas. The sort also clusters the delta by (rel, route):
        // each cluster runs as one batch per matching rule, a set
        // relation's rows in merge (= id) order.
        let mut rows = std::mem::take(delta);
        rows.sort_unstable();
        rows.dedup();
        let nrows = rows.len() as u64;
        self.rec.counters.tuples_processed += nrows;
        let mut acc = PartialAgg::default();
        let (mut local_new, mut remote_sent) = (0, 0);
        for group in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (rel, route) = (group[0].0, group[0].1);
            for rule in &stratum.delta_rules {
                let spec = rule.delta.as_ref().expect("delta rule");
                if spec.rel != rel || spec.route != route as usize {
                    continue;
                }
                let head = rule.head_rel;
                let n = self
                    .evaluator
                    .sort_batch(rule, store, group, &mut self.scratch);
                for lo in (0..n).step_by(SLICE_ROWS) {
                    let slice = lo..n.min(lo + SLICE_ROWS);
                    self.evaluator.eval_sorted(
                        rule,
                        store,
                        group,
                        slice,
                        &mut self.scratch,
                        &mut |t| acc.push(plan, head, t),
                    );
                    if acc.rows.len() >= FLUSH_ROWS {
                        self.rec.close(Phase::EvalDelta, t0, 0, 0, 0);
                        let (l, r) = self.distribute(si, store, acc.rows.drain(..), delta, dws)?;
                        local_new += l;
                        remote_sent += r;
                        t0 = Instant::now();
                    }
                }
                let m = &mut self.rec.counters;
                m.kernel_batches += 1;
                m.kernel_rows += group.len() as u64;
            }
        }
        self.rec.close(Phase::EvalDelta, t0, nrows, 0, 0);
        let (l, r) = self.distribute(si, store, acc.drain(), delta, dws)?;
        Ok((local_new + l, remote_sent + r))
    }

    /// Routes `(head relation, row)` pairs (Distribute): local merges feed
    /// the next delta immediately, remote rows are batched into the SPSC
    /// buffers.
    /// Returns `(new local merges, tuples sent to peers)`. The DWS
    /// controller (when present) must observe any batches consumed during
    /// backpressure retries, or λ is underestimated.
    fn distribute(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        outs: impl Iterator<Item = (RelId, Tuple)>,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64)> {
        let t0 = Instant::now();
        let n = self.cfg.workers;
        let termination = &self.coord.strata[si].termination;
        let mut local_new = 0u64;
        let mut remote_sent = 0u64;
        // Staging area: (dest, rel) → a flat frame builder. Head rows flow
        // from Iterate's buffer straight into the frames, with no per-row
        // Tuple clone on the remote path.
        let mut staged: FastMap<(WorkerId, RelId), Frame> = FastMap::default();
        let mut dests: Vec<WorkerId> = Vec::with_capacity(2);
        for (rel, row) in outs {
            // The sent-filter: a row this worker already routed went to
            // the same (deterministic) destinations then; re-merging it
            // anywhere is a no-op, so the whole row can be dropped before
            // it is serialized. On one worker every row merges locally,
            // where the dedup table is the check, so no filter is used.
            if n > 1 && store.rec_mut(rel).already_sent(&row) {
                continue;
            }
            let decl = self.plan.idb[rel].as_ref().expect("IDB head");
            dests.clear();
            if decl.broadcast {
                dests.extend(0..n);
            } else {
                for &c in &decl.partition_cols {
                    let d = self.coord.part.of_key(row.key(c));
                    if !dests.contains(&d) {
                        dests.push(d);
                    }
                }
            }
            for &d in &dests {
                if d == self.me {
                    local_new += self.merge_local(store, rel, &row, delta);
                } else {
                    staged
                        .entry((d, rel))
                        .or_insert_with(Frame::for_rel)
                        .push_row(row.values());
                }
            }
        }
        // Flush batches. When a queue is full we drain our own inbox while
        // retrying, which breaks producer/consumer cycles (two workers
        // flooding each other would otherwise deadlock).
        for ((dest, rel), frame) in staged {
            for piece in frame.into_batches(self.cfg.batch_size) {
                let k = piece.len() as u64;
                termination.note_produced(k);
                remote_sent += k;
                let m = &mut self.rec.counters;
                m.batches_out += 1;
                m.tuples_sent += k;
                m.bytes_sent += piece.payload_bytes();
                let mut batch = Batch {
                    rel: rel as u32,
                    frame: piece,
                    sent_at: Instant::now(),
                    from: self.me,
                };
                let mut tbp: Option<Instant> = None;
                loop {
                    match self.endpoints.send(dest, batch) {
                        Ok(()) => break,
                        Err(back) => {
                            batch = back;
                            if self.coord.abort.load(Ordering::SeqCst) {
                                return Err(DcdError::Execution("evaluation aborted".into()));
                            }
                            if self.rec.is_tracing() && tbp.is_none() {
                                tbp = Some(Instant::now());
                            }
                            self.rec.counters.backpressure_retries += 1;
                            self.drain_into(si, store, delta, dws);
                            std::thread::yield_now();
                        }
                    }
                }
                if let Some(t) = tbp {
                    // One span per batch that hit a full queue, covering
                    // the whole retry window (nests inside Distribute).
                    self.rec.close(Phase::Backpressure, t, 0, 0, 0);
                }
            }
        }
        self.rec.counters.local_new += local_new;
        self.rec
            .close(Phase::Distribute, t0, local_new, remote_sent, 0);
        Ok((local_new, remote_sent))
    }

    /// Merges one merge-layout row into the local store; on success, adds
    /// the stored row's id to the delta once for every route of the
    /// relation that maps here.
    fn merge_local(
        &self,
        store: &mut WorkerStore,
        rel: RelId,
        row: &Tuple,
        delta: &mut Vec<DeltaRow>,
    ) -> u64 {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        let Merged::New(id) = store.rec_mut(rel).merge(row) else {
            return 0;
        };
        if decl.broadcast {
            // Broadcast relations run every variant everywhere.
            for r in 0..decl.partition_cols.len().max(1) {
                delta.push((rel, r as u8, id));
            }
        } else {
            // Route columns are group columns, so the incoming row routes
            // exactly as the stored one.
            for (ri, &c) in decl.partition_cols.iter().enumerate() {
                if self.coord.part.of_key(row.key(c)) == self.me {
                    delta.push((rel, ri as u8, id));
                }
            }
        }
        1
    }

    /// Drains every inbound queue into the store/delta (Gather, and the
    /// ω-wait and backpressure loops).
    fn drain_into(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) {
        let termination = &self.coord.strata[si].termination;
        let tm = self.rec.is_tracing().then(Instant::now);
        let mut batches = 0u64;
        let mut new = 0u64;
        for j in 0..self.cfg.workers {
            while let Some(batch) = self.endpoints.recv(j) {
                let k = batch.len() as u64;
                let m = &mut self.rec.counters;
                m.batches_in += 1;
                m.tuples_in += k;
                m.bytes_in += batch.payload_bytes();
                if let Some(ctrl) = dws.as_deref_mut() {
                    ctrl.on_batch(batch.from, batch.len(), batch.sent_at);
                }
                batches += 1;
                let rel = batch.rel as usize;
                for i in 0..batch.frame.len() {
                    new += self.merge_local(store, rel, &batch.frame.tuple(i), delta);
                }
                termination.note_consumed(k);
            }
        }
        self.rec.counters.local_new += new;
        if let Some(tm) = tm.filter(|_| batches > 0) {
            // Nested inside whichever phase drained: Gather, ω-wait or a
            // backpressure retry.
            self.rec.close(Phase::Merge, tm, batches, new, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn cc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program(
                "cc2(Y, min<Y>) <- arc(Y, _).
                 cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).",
            )
            .unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn tc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).").unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    #[test]
    fn partial_agg_collapses_min_groups() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut acc = PartialAgg::default();
        acc.push(&p, cc2, Tuple::from_ints(&[1, 9]));
        acc.push(&p, cc2, Tuple::from_ints(&[1, 3]));
        acc.push(&p, cc2, Tuple::from_ints(&[1, 7]));
        acc.push(&p, cc2, Tuple::from_ints(&[2, 5]));
        let mut rows: Vec<(RelId, Tuple)> = acc.drain().collect();
        rows.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            rows.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>(),
            vec![Tuple::from_ints(&[1, 3]), Tuple::from_ints(&[2, 5])]
        );
    }

    #[test]
    fn partial_agg_passes_set_rows_through() {
        // Set rows are NOT collapsed here: exact-duplicate elimination is
        // Distribute's job (sent-filter + idempotent merge), so the
        // accumulator must forward every row without hashing it.
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut acc = PartialAgg::default();
        for _ in 0..5 {
            acc.push(&p, tc, Tuple::from_ints(&[1, 2]));
        }
        acc.push(&p, tc, Tuple::from_ints(&[1, 3]));
        assert_eq!(acc.drain().count(), 6);
    }

    #[test]
    fn coordination_cancel_is_idempotent_and_reports_deadline() {
        let p = tc_plan();
        let mut cfg = crate::config::EngineConfig::with_workers(2);
        cfg.timeout = Some(std::time::Duration::from_secs(0));
        let coord = Coordination::new(&p, &cfg);
        // Deadline in the past must trip the check.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(coord.check_deadline().is_err());
        coord.cancel();
        coord.cancel();
        assert!(coord.check_deadline().is_err());
    }
}
