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
//! A `min`/`max` relation whose every consuming delta rule is linear (its
//! join steps probe only base relations) is evaluated *best-first*: its
//! pending ids wait in a worker-local order by stored value (ascending for
//! `min`, descending for `max`), and Iterate takes the best 256
//! (`SLICE_ROWS`) at a time. After each slice it merges the slice's local
//! head rows and sends the remote ones; every id a merge improves goes
//! back into the order instead of the next iteration's delta, and under
//! SSP and DWS inbound batches are drained into it between slices. One
//! Iterate thus runs until the worker's order is empty: label-correcting
//! shortest paths turned toward label-setting, as in Δ-stepping, so a row
//! is rarely evaluated at a value it is about to improve on. A relation
//! consumed by a non-linear rule (APSP's `path`) keeps semi-naive rounds:
//! there a row's derivations depend on the other rows of the store, and
//! ordering it sent ~8× more tuples.
//!
//! Routing note: a derived tuple is *sent* once per distinct destination
//! worker, and every receiver re-derives locally which of the relation's
//! routes (§4.3) apply to it — this keeps multi-route relations (APSP)
//! correct even when two routes hash to the same worker.

use crate::config::EngineConfig;
use crate::eval::{DeltaRow, EvalScratch, Evaluator};
use crate::store::{Merged, WorkerStore};
use dcd_common::{AggFunc, DcdError, Frame, Partitioner, Result, Row, Value, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind};
use dcd_runtime::trace::{Mark, Phase};
use dcd_runtime::{
    Batch, BufferMatrix, DwsConfig, DwsController, IdleOutcome, Recorder, RoundBarrier, SspClock,
    Strategy, Termination, WorkerEndpoints,
};
use dcd_storage::DerivedRelation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
                termination: Termination::new(n),
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

/// Set and `sum`/`count` rows evaluated but not yet distributed: once an
/// evaluation slice leaves this many buffered, Iterate hands them to
/// Distribute before the next slice, so the buffer between the kernel and
/// Distribute stays bounded however large one iteration's output is. The
/// flush tests in `tests/engine_e2e.rs` (set and `sum` rows) and
/// `scripts/check_trace_smoke.sh` size their inputs to more than twice
/// this.
const FLUSH_ROWS: usize = 1 << 14;

/// Delta rows per evaluation slice: how often Iterate checks the buffer
/// against [`FLUSH_ROWS`], and how many of the best pending rows a
/// best-first group evaluates before its head rows are merged.
const SLICE_ROWS: usize = 256;

/// Head rows between the kernel and Distribute, with the pre-Distribute
/// partial aggregation of §5.2.3. A `min`/`max` head relation's rows
/// collapse in a storage aggregate relation, created at the relation's
/// first row, so "same group" and "better" mean exactly what they mean at
/// the merge; its best row per group reaches Distribute when the
/// iteration ends, or, while a best-first group is evaluated, after each
/// slice ([`PartialAgg::clear`] keeps the tables, so no slice zeroes a
/// fresh one). Every other row is copied, as lanes, into its head
/// relation's queue frame, which Iterate flushes every [`FLUSH_ROWS`]
/// queued rows: a set row's only collapse is exact-duplicate elimination,
/// which the stored-row check before the queue, Distribute's sent-filter
/// and the idempotent merge already perform. A `sum`/`count` merge
/// replaces the contributor's previous value, so a group ends with the
/// total it would have had from the latest contribution alone: an exact
/// duplicate merges as `Merged::Old`, and a superseded contribution
/// delivered first still moves the total (and can queue the group for the
/// next iteration) until its successor, queued after it in the same
/// frame, overwrites it, which costs work but not correctness.
#[derive(Default)]
struct PartialAgg {
    best: Vec<(RelId, DerivedRelation)>,
    queued: Vec<(RelId, Frame)>,
    /// Rows in `queued`.
    queued_rows: usize,
}

impl PartialAgg {
    fn push(&mut self, plan: &PhysicalPlan, rel: RelId, row: Row<'_>) {
        let decl = plan.idb[rel].as_ref().expect("IDB head");
        let StorageKind::Agg {
            func: func @ (AggFunc::Min | AggFunc::Max),
            group_cols,
            ..
        } = decl.kind
        else {
            let at = self.queued.iter().position(|(r, _)| *r == rel);
            let at = at.unwrap_or_else(|| {
                self.queued.push((rel, Frame::default()));
                self.queued.len() - 1
            });
            self.queued[at].1.push(row);
            self.queued_rows += 1;
            return;
        };
        let at = self.best.iter().position(|(r, _)| *r == rel);
        let at = at.unwrap_or_else(|| {
            let acc = DerivedRelation::aggregate(func, group_cols, 0.0, &[]);
            self.best.push((rel, acc));
            self.best.len() - 1
        });
        self.best[at].1.merge(row);
    }

    /// Consumes the accumulator, returning `(head relation, rows)` for
    /// Distribute: the rows still queued, then each `min`/`max`
    /// relation's best rows. Each table is freed before its rows merge.
    fn drain(self) -> Vec<(RelId, Frame)> {
        let best = self
            .best
            .into_iter()
            .map(|(rel, acc)| (rel, acc.into_rows()));
        self.queued.into_iter().chain(best).collect()
    }

    /// Every buffered row, as [`PartialAgg::drain`] orders it, without
    /// consuming the accumulator.
    fn frames(&self) -> impl Iterator<Item = (RelId, &Frame)> {
        let best = self.best.iter().map(|(rel, acc)| (*rel, acc.rows()));
        self.queued.iter().map(|(rel, f)| (*rel, f)).chain(best)
    }

    /// Empties the queues, keeping their buffers.
    fn clear_queued(&mut self) {
        for (_, f) in &mut self.queued {
            f.clear();
        }
        self.queued_rows = 0;
    }

    /// Empties the accumulator in place and keeps its tables for the next
    /// best-first slice.
    fn clear(&mut self) {
        self.clear_queued();
        for (_, acc) in &mut self.best {
            acc.clear();
        }
    }
}

/// The pending ids of one best-first relation, in a worker-local order
/// by stored value.
struct BestFirst {
    /// The aggregate column.
    col: usize,
    /// Larger values are better (a `max` relation).
    max: bool,
    /// One heap per route of `(priority, id)` entries, where `priority`
    /// is [`BestFirst::priority`] of the value the id was queued at; the
    /// greatest entry is taken first, so the lowest id breaks ties.
    routes: Vec<BinaryHeap<(u64, Reverse<u32>)>>,
}

impl BestFirst {
    /// The order for `plan`'s relation `rel` when its pending rows are
    /// evaluated best-first, that is, it is a `min`/`max` relation and
    /// every delta rule consuming it is linear; `None` otherwise.
    fn of(plan: &PhysicalPlan, rel: RelId) -> Option<BestFirst> {
        let decl = plan.idb[rel].as_ref()?;
        let StorageKind::Agg {
            func: func @ (AggFunc::Min | AggFunc::Max),
            group_cols,
            ..
        } = decl.kind
        else {
            return None;
        };
        let mut consumers = plan.strata.iter().flat_map(|s| &s.delta_rules);
        consumers
            .all(|r| !matches!(&r.delta, Some(d) if d.rel == rel) || r.is_linear())
            .then(|| BestFirst {
                col: group_cols,
                max: func == AggFunc::Max,
                routes: (0..decl.partition_cols.len().max(1))
                    .map(|_| BinaryHeap::new())
                    .collect(),
            })
    }

    /// `v`'s place in the order, best greatest: the total order of `v`
    /// as an `f64`, flipped for `min`. It is exact, and one-to-one on
    /// distinct values, for integers of magnitude up to 2^53; above that
    /// neighbouring integers may tie, which can only make the order
    /// coarser or evaluate a row again, never change a result.
    fn priority(&self, v: Value) -> u64 {
        let bits = v.as_f64().to_bits();
        let rank = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        if self.max {
            rank
        } else {
            !rank
        }
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
    /// `best_first[rel]`: relation `rel`'s order when it is evaluated
    /// best-first.
    best_first: Vec<Option<BestFirst>>,
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
            best_first: (0..plan.idb.len())
                .map(|rel| BestFirst::of(plan, rel))
                .collect(),
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
        let plan = self.plan;
        let mut acc = PartialAgg::default();
        for rule in &stratum.init_rules {
            let head = rule.head_rel;
            let mut sink = |row: Row<'_>| acc.push(plan, head, row);
            self.evaluator.eval_init(rule, store, &mut sink);
        }
        if self.me == 0 {
            for (rel, t) in &plan.facts {
                if stratum.rels.contains(rel) {
                    t.with_row(|row| acc.push(plan, *rel, row));
                }
            }
        }
        self.rec.close(Phase::EvalDelta, ti, 0, 0, 0);
        let mut delta = Vec::new();
        let out = acc.drain();
        let out = out.iter().map(|(rel, rows)| (*rel, rows));
        self.distribute(si, store, out, &mut delta, &mut None)?;
        let tp = Instant::now();
        sc.post_init.wait();
        self.rec.close(Phase::Idle, tp, 0, 0, 0);

        // ---- Fixpoint phase ----
        match &self.cfg.strategy {
            Strategy::Global => self.global_loop(si, store, delta),
            Strategy::Ssp { .. } => self.async_loop(si, store, delta, None),
            Strategy::Dws => {
                let controller = DwsController::new(self.cfg.workers, DwsConfig::default());
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
            let (processed, local_new, remote_sent) =
                self.iterate(si, store, &mut delta, &mut None)?;
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
                self.rec.dws_decision(
                    ctrl.omega() as u64,
                    ctrl.tau().as_nanos() as u64,
                    delta.len() as u64,
                    ctrl.model(),
                );
            }

            // SSP: stay within `s` iterations of the frontier.
            if is_ssp {
                let abort = || self.coord.abort.load(Ordering::SeqCst) || sc.termination.is_done();
                sc.ssp.wait_if_ahead(self.me, abort);
            }

            let t0 = Instant::now();
            let (processed, local_new, remote_sent) =
                self.iterate(si, store, &mut delta, &mut dws.as_mut())?;
            if let Some(ctrl) = dws.as_mut() {
                ctrl.on_iteration(processed as usize, t0.elapsed());
            }
            let queue_depth = self.coord.buffers.inbound_len(self.me) as u64;
            self.rec
                .end_iteration(processed, local_new + remote_sent, queue_depth);
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
    /// of [`SLICE_ROWS`]; whenever [`FLUSH_ROWS`] queued rows are buffered
    /// after a slice, they go to Distribute before the next slice, so later
    /// slices probe stores those rows may have grown (monotone rules only
    /// derive more from them). Their `min`/`max` rows are distributed
    /// once, at the end.
    ///
    /// Best-first groups (see the module docs) instead join the worker's
    /// order, and after every other group Iterate evaluates that order one
    /// slice of the best [`SLICE_ROWS`] pending ids at a time until it is
    /// empty. Each slice checks the deadline, is distributed whole, and
    /// requeues the ids its local merges improve; under SSP and DWS
    /// Iterate drains inbound batches between slices (Global's rounds
    /// still end at the barrier, so it leaves them to the next Gather).
    /// Returns `(delta rows evaluated, new local merges, tuples sent to
    /// peers)`; the first counts rows requeued and evaluated again.
    fn iterate(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64, u64)> {
        let mut t0 = Instant::now();
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
        let mut acc = PartialAgg::default();
        let (mut evaluated, mut local_new, mut remote_sent) = (0, 0, 0);
        for group in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if self.best_first[group[0].0].is_some() {
                for &row in group {
                    self.enqueue(store, row);
                }
                continue;
            }
            evaluated += group.len() as u64;
            let (l, r) = self.eval_group(si, store, group, &mut acc, delta, dws, &mut t0)?;
            local_new += l;
            remote_sent += r;
        }
        let rels = &self.plan.strata[si].rels;
        if rels.iter().any(|&rel| self.best_first[rel].is_some()) {
            let (e, l, r) = self.eval_best_first(si, store, &mut acc, delta, dws, &mut t0)?;
            evaluated += e;
            local_new += l;
            remote_sent += r;
        }
        self.rec.counters.tuples_processed += evaluated;
        self.rec.close(Phase::EvalDelta, t0, evaluated, 0, 0);
        let out = acc.drain();
        let out = out.iter().map(|(rel, rows)| (*rel, rows));
        let (l, r) = self.distribute(si, store, out, delta, dws)?;
        Ok((evaluated, local_new + l, remote_sent + r))
    }

    /// Iterate's best-first part: moves the best-first rows that `delta`
    /// gained so far into their orders, then evaluates the orders one
    /// slice at a time until they are empty, distributing each slice and
    /// requeueing what it improves. Returns `(delta rows evaluated, new
    /// local merges, tuples sent to peers)`.
    fn eval_best_first(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        acc: &mut PartialAgg,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
        t0: &mut Instant,
    ) -> Result<(u64, u64, u64)> {
        let global = matches!(self.cfg.strategy, Strategy::Global);
        let mut slice = Vec::with_capacity(SLICE_ROWS);
        let (mut evaluated, mut local_new, mut remote_sent) = (0, 0, 0);
        let mut requeued = 0;
        loop {
            self.requeue(store, delta, requeued);
            requeued = delta.len();
            if !self.next_slice(store, &mut slice) {
                break;
            }
            self.coord.check_deadline()?;
            evaluated += slice.len() as u64;
            let (l, r) = self.eval_group(si, store, &slice, acc, delta, dws, t0)?;
            self.rec.close(Phase::EvalDelta, *t0, 0, 0, 0);
            let (l2, r2) = self.distribute(si, store, acc.frames(), delta, dws)?;
            acc.clear();
            local_new += l + l2;
            remote_sent += r + r2;
            if !global && self.endpoints.has_inbound() {
                let tg = Instant::now();
                self.drain_into(si, store, delta, dws);
                self.rec.close(Phase::Gather, tg, 0, 0, 0);
            }
            *t0 = Instant::now();
        }
        // Every order is empty now; free its heaps. Kept until the next
        // Iterate, they raised `sssp-web`'s peak RSS by 1.5–3 MB.
        for order in self.best_first.iter_mut().flatten() {
            order.routes.fill_with(BinaryHeap::new);
        }
        Ok((evaluated, local_new, remote_sent))
    }

    /// Runs every delta rule of stratum `si` that consumes `group`'s
    /// `(rel, route)` over it, feeding head rows to `acc` unless this
    /// worker already stores them (`RecStore::already_stored`: such a row
    /// was routed to every destination when it was first stored, so it
    /// would merge as `Old` everywhere); buffered rows go to Distribute
    /// whenever a slice leaves [`FLUSH_ROWS`] of them, which splits the
    /// `EvalDelta` span that began at `t0`. Returns what those flushes
    /// merged and sent.
    #[allow(clippy::too_many_arguments)]
    fn eval_group(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        group: &[DeltaRow],
        acc: &mut PartialAgg,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
        t0: &mut Instant,
    ) -> Result<(u64, u64)> {
        let plan = self.plan;
        let (rel, route) = (group[0].0, group[0].1);
        let (mut local_new, mut remote_sent) = (0, 0);
        for rule in &plan.strata[si].delta_rules {
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
                let shared: &WorkerStore = store;
                let stored = shared.rec(head);
                self.evaluator.eval_sorted(
                    rule,
                    shared,
                    group,
                    slice,
                    &mut self.scratch,
                    &mut |row| {
                        if !stored.already_stored(row) {
                            acc.push(plan, head, row)
                        }
                    },
                );
                if acc.queued_rows >= FLUSH_ROWS {
                    self.rec.close(Phase::EvalDelta, *t0, 0, 0, 0);
                    let queued = acc.queued.iter().map(|(rel, rows)| (*rel, rows));
                    let (l, r) = self.distribute(si, store, queued, delta, dws)?;
                    acc.clear_queued();
                    local_new += l;
                    remote_sent += r;
                    *t0 = Instant::now();
                }
            }
            let m = &mut self.rec.counters;
            m.kernel_batches += 1;
            m.kernel_rows += group.len() as u64;
        }
        Ok((local_new, remote_sent))
    }

    /// Queues best-first delta row `row` at its stored value; `false`
    /// (and nothing queued) for a row of any other relation.
    fn enqueue(&mut self, store: &WorkerStore, (rel, route, id): DeltaRow) -> bool {
        let Some(order) = &mut self.best_first[rel] else {
            return false;
        };
        let priority = order.priority(store.rec(rel).rows().row(id as usize).get(order.col));
        order.routes[route as usize].push((priority, Reverse(id)));
        true
    }

    /// Moves the best-first rows of `delta[from..]` into their orders, and
    /// keeps the others in `delta` for the next iteration.
    fn requeue(&mut self, store: &WorkerStore, delta: &mut Vec<DeltaRow>, from: usize) {
        let mut keep = from;
        for i in from..delta.len() {
            if !self.enqueue(store, delta[i]) {
                delta[keep] = delta[i];
                keep += 1;
            }
        }
        delta.truncate(keep);
    }

    /// Fills `slice` with the best [`SLICE_ROWS`] pending ids of the first
    /// `(rel, route)` with any, skipping stale entries; `false` once every
    /// order is empty. A `min` value only falls and a `max` value only
    /// rises, so an entry queued at another value than its row's stored
    /// one was queued again at the better value, and is stale. An id
    /// queued twice at one value (merged from a slice and from an inbound
    /// batch before it was requeued) has equal entries, which pop
    /// together and are taken once.
    fn next_slice(&mut self, store: &WorkerStore, slice: &mut Vec<DeltaRow>) -> bool {
        slice.clear();
        for (rel, order) in self.best_first.iter_mut().enumerate() {
            let Some(order) = order else {
                continue;
            };
            let rows = store.rec(rel).rows();
            for route in 0..order.routes.len() {
                while slice.len() < SLICE_ROWS {
                    let heap = &mut order.routes[route];
                    let Some(entry @ (priority, Reverse(id))) = heap.pop() else {
                        break;
                    };
                    while heap.peek() == Some(&entry) {
                        heap.pop();
                    }
                    if order.priority(rows.row(id as usize).get(order.col)) == priority {
                        slice.push((rel, route as u8, id));
                    }
                }
                if !slice.is_empty() {
                    return true;
                }
            }
        }
        false
    }

    /// Routes `(head relation, rows)` frames (Distribute): local merges
    /// feed the next delta immediately, remote rows are copied, as lanes,
    /// into one frame per destination and sent in batches through the
    /// SPSC buffers once the relation's rows are routed.
    /// Returns `(new local merges, tuples sent to peers)`. The DWS
    /// controller (when present) must observe any batches consumed during
    /// backpressure retries, or λ is underestimated.
    fn distribute<'r>(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        outs: impl IntoIterator<Item = (RelId, &'r Frame)>,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64)> {
        let t0 = Instant::now();
        let n = self.cfg.workers;
        let mut local_new = 0u64;
        let mut remote_sent = 0u64;
        let mut staged: Vec<Frame> = (0..n).map(|_| Frame::default()).collect();
        let mut dests: Vec<WorkerId> = Vec::with_capacity(2);
        for (rel, rows) in outs {
            let decl = self.plan.idb[rel].as_ref().expect("IDB head");
            for row in rows.iter() {
                // The sent-filter: a row this worker already routed went to
                // the same (deterministic) destinations then; re-merging it
                // anywhere is a no-op, so the whole row can be dropped
                // before it is serialized. On one worker every row merges
                // locally, where the dedup table is the check, so no filter
                // is used.
                if n > 1 && store.rec_mut(rel).already_sent(row) {
                    continue;
                }
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
                        local_new += self.merge_local(store, rel, row, delta);
                    } else {
                        staged[d].push(row);
                    }
                }
            }
            for (dest, rows) in staged.iter_mut().enumerate() {
                if !rows.is_empty() {
                    let rows = std::mem::take(rows);
                    remote_sent += self.send(si, store, dest, rel, rows, delta, dws)?;
                }
            }
        }
        self.rec.counters.local_new += local_new;
        self.rec
            .close(Phase::Distribute, t0, local_new, remote_sent, 0);
        Ok((local_new, remote_sent))
    }

    /// Sends `frame`'s rows of `rel` to worker `dest` in batches; returns
    /// the rows sent. A full queue drains this worker's own inbox while it
    /// retries, so two workers flooding each other cannot deadlock.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        dest: WorkerId,
        rel: RelId,
        frame: Frame,
        delta: &mut Vec<DeltaRow>,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<u64> {
        let termination = &self.coord.strata[si].termination;
        let mut sent = 0;
        for piece in frame.into_batches(self.cfg.batch_size) {
            let k = piece.len() as u64;
            termination.note_produced(k);
            sent += k;
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
                // One span per batch that hit a full queue, covering the
                // whole retry window (nests inside Distribute).
                self.rec.close(Phase::Backpressure, t, 0, 0, 0);
            }
        }
        Ok(sent)
    }

    /// Merges one merge-layout row into the local store; on success, adds
    /// the stored row's id to the delta once for every route of the
    /// relation that maps here.
    fn merge_local(
        &self,
        store: &mut WorkerStore,
        rel: RelId,
        row: Row<'_>,
        delta: &mut Vec<DeltaRow>,
    ) -> u64 {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        let Merged::New(id) = store.rec_mut(rel).merge_row(row) else {
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
                for row in batch.frame.iter() {
                    new += self.merge_local(store, rel, row, delta);
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
    use dcd_common::{Tuple, Value};
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn plan_of(src: &str) -> PhysicalPlan {
        let a = analyze(parse_program(src).unwrap()).unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn tc_plan() -> PhysicalPlan {
        plan_of("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).")
    }

    fn rows(v: &[[i64; 2]]) -> Vec<Tuple> {
        v.iter().map(|r| Tuple::from_ints(r)).collect()
    }

    fn push(acc: &mut PartialAgg, p: &PhysicalPlan, rel: RelId, row: &Tuple) {
        row.with_row(|r| acc.push(p, rel, r));
    }

    /// `(relation, row)` for every row of `frames`, decoded.
    fn decode<'f>(frames: impl Iterator<Item = (RelId, &'f Frame)>) -> Vec<(RelId, Tuple)> {
        frames
            .flat_map(|(rel, f)| f.iter().map(move |r| (rel, r.to_tuple())))
            .collect()
    }

    #[test]
    fn partial_agg_collapses_min_groups() {
        let cases = [
            (
                "cc2(Y, min<Y>) <- arc(Y, _). cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).",
                "cc2",
                [[1, 3], [2, 5]],
            ),
            (
                "d(P, max<D>) <- basic(P, D). d(P, max<D>) <- assbl(P, S), d(S, D).",
                "d",
                [[1, 9], [2, 5]],
            ),
        ];
        for (src, name, want) in cases {
            let p = plan_of(src);
            let rel = p.rel_by_name(name).unwrap();
            let mut acc = PartialAgg::default();
            for row in rows(&[[1, 9], [1, 3], [1, 7], [2, 5]]) {
                push(&mut acc, &p, rel, &row);
            }
            let mut got: Vec<Tuple> = decode(acc.frames())
                .into_iter()
                .map(|(r, t)| {
                    assert_eq!(r, rel);
                    t
                })
                .collect();
            acc.clear();
            got.sort();
            assert_eq!(got, rows(&want), "{name}");
            // A flushed accumulator starts over: a row worse than the
            // flushed best is new again.
            for row in rows(&[[1, 20], [3, 4]]) {
                push(&mut acc, &p, rel, &row);
            }
            let out = acc.drain();
            let mut got: Vec<Tuple> = decode(out.iter().map(|(r, f)| (*r, f)))
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            got.sort();
            assert_eq!(got, rows(&[[1, 20], [3, 4]]), "{name}");
        }
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
            push(&mut acc, &p, tc, &Tuple::from_ints(&[1, 2]));
        }
        push(&mut acc, &p, tc, &Tuple::from_ints(&[1, 3]));
        assert_eq!(acc.queued_rows, 6);
        assert_eq!(acc.drain().iter().map(|(_, f)| f.len()).sum::<usize>(), 6);
    }

    #[test]
    fn partial_agg_passes_sum_and_count_rows_through() {
        // The merge replaces a contributor's previous value, so sum/count
        // rows queue with set rows: every one comes out, in push order
        // within its relation, duplicates and superseded contributions
        // included.
        let p = plan_of(
            "rank(X, sum<(X, K)>) <- seed(X, K).
             rank(X, sum<(Y, K)>) <- rank(Y, C), arc(Y, X), K = C / 2.
             cnt(Y, count<X>) <- arc(X, Y).",
        );
        let (rank, cnt) = (
            p.rel_by_name("rank").unwrap(),
            p.rel_by_name("cnt").unwrap(),
        );
        let float = |g, c, v| Tuple::new(&[Value::Int(g), Value::Int(c), Value::Float(v)]);
        let pushed = vec![
            (rank, float(1, 1, 0.5)),
            (cnt, Tuple::from_ints(&[4, 7])),
            (rank, float(1, 1, 0.5)),
            (rank, float(1, 2, 0.25)),
            (cnt, Tuple::from_ints(&[4, 7])),
            (rank, float(1, 2, 0.75)),
            (cnt, Tuple::from_ints(&[4, 8])),
        ];
        let mut acc = PartialAgg::default();
        for (rel, row) in &pushed {
            push(&mut acc, &p, *rel, row);
        }
        assert_eq!(acc.queued_rows, pushed.len(), "queued for the flush");
        let out = acc.drain();
        let got = decode(out.iter().map(|(r, f)| (*r, f)));
        for rel in [rank, cnt] {
            let of = |rows: &[(RelId, Tuple)]| -> Vec<Tuple> {
                rows.iter()
                    .filter(|(r, _)| *r == rel)
                    .map(|(_, t)| t.clone())
                    .collect()
            };
            assert_eq!(of(&got), of(&pushed));
        }
        assert_eq!(got.len(), pushed.len());
    }

    /// A 1-worker store for `p` with base relation `edb` holding `rows`.
    fn one_worker_store(p: &PhysicalPlan, edb: &str, rows: Vec<Tuple>) -> WorkerStore {
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[p.rel_by_name(edb).unwrap()] = Some(rows);
        let catalog = crate::catalog::EdbCatalog::build(p, &data, &Partitioner::new(1));
        WorkerStore::build(p, &catalog, 0, true, 64)
    }

    #[test]
    fn only_linear_min_max_relations_are_best_first() {
        let cfg = EngineConfig::with_workers(1);
        for (src, name, best_first) in [
            (
                "sp(To, min<C>) <- src(To), C = 0.
                 sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
                "sp",
                true,
            ),
            (crate::queries::CC, "cc2", true),
            (crate::queries::DELIVERY, "delivery", true),
            (crate::queries::APSP, "path", false),
            (crate::queries::TC, "tc", false),
            (
                "rank(X, sum<(X, K)>) <- seed(X, K).
                 rank(X, sum<(Y, K)>) <- rank(Y, C), arc(Y, X), K = C / 2.",
                "rank",
                false,
            ),
        ] {
            let p = plan_of(src);
            let coord = Coordination::new(&p, &cfg);
            let w = Worker::new(&p, &cfg, &coord, 0);
            let rel = p.rel_by_name(name).unwrap();
            assert_eq!(w.best_first[rel].is_some(), best_first, "{name}");
        }
    }

    #[test]
    fn stale_entry_is_skipped_and_the_row_evaluated_once_at_its_best() {
        let p = plan_of(
            "sp(To, min<C>) <- src(To, C).
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
        );
        let cfg = EngineConfig::with_workers(1);
        let coord = Coordination::new(&p, &cfg);
        let mut store = one_worker_store(&p, "warc", vec![Tuple::from_ints(&[1, 2, 10])]);
        let mut w = Worker::new(&p, &cfg, &coord, 0);
        let sp = p.rel_by_name("sp").unwrap();
        let mut delta = Vec::new();
        for (value, merged) in [(9, Merged::New(0)), (4, Merged::New(0))] {
            let row = Tuple::from_ints(&[1, value]);
            assert_eq!(store.rec_mut(sp).merge(&row), merged);
            delta.push((sp, 0, 0));
            w.requeue(&store, &mut delta, 0);
            assert!(delta.is_empty(), "queued in the order, not the delta");
        }
        // Merged locally and from a peer before one requeue: twice at 4.
        delta.push((sp, 0, 0));
        w.requeue(&store, &mut delta, 0);
        assert_eq!(w.best_first[sp].as_ref().unwrap().routes[0].len(), 3);
        let (evaluated, ..) = w.iterate(0, &mut store, &mut delta, &mut None).unwrap();
        // Row 1 once, at 4 (its stale entry at 9 is skipped and its second
        // entry at 4 taken with the first), then the row it derived, (2, 14).
        assert_eq!(evaluated, 2);
        assert_eq!(w.rec.counters.kernel_rows, 2);
        let mut got: Vec<Tuple> = store.rec(sp).rows().iter().map(|r| r.to_tuple()).collect();
        got.sort();
        assert_eq!(got, rows(&[[1, 4], [2, 14]]));
        assert!(delta.is_empty());
    }

    #[test]
    fn max_groups_are_taken_in_descending_order_one_slice_at_a_time() {
        let p = plan_of(crate::queries::DELIVERY);
        let cfg = EngineConfig::with_workers(1);
        let coord = Coordination::new(&p, &cfg);
        let mut store = one_worker_store(&p, "basic", vec![]);
        let mut w = Worker::new(&p, &cfg, &coord, 0);
        let d = p.rel_by_name("delivery").unwrap();
        // Group g holds value (g * 7) % 300: a permutation of 0..300.
        let mut delta = Vec::new();
        for g in 0..300 {
            let Merged::New(id) = store.rec_mut(d).merge(&Tuple::from_ints(&[g, g * 7 % 300]))
            else {
                panic!("new group");
            };
            delta.push((d, 0, id));
        }
        w.requeue(&store, &mut delta, 0);
        let value = |store: &WorkerStore, &(_, _, id): &DeltaRow| {
            store.rec(d).rows().row(id as usize).get(1).expect_int()
        };
        let mut slice = Vec::new();
        let mut taken = Vec::new();
        while w.next_slice(&store, &mut slice) {
            taken.push(
                slice
                    .iter()
                    .map(|row| value(&store, row))
                    .collect::<Vec<_>>(),
            );
        }
        let want: Vec<i64> = (0..300).rev().collect();
        assert_eq!(
            taken,
            [want[..SLICE_ROWS].to_vec(), want[SLICE_ROWS..].to_vec()]
        );
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
