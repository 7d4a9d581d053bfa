//! The per-worker evaluation loop: Algorithm 1 (Global), its SSP
//! relaxation, and Algorithm 2 (DWS).
//!
//! A [`Worker`] owns its state: its store, its pending delta, the index of
//! the stratum it evaluates and, under DWS, that stratum's controller. It
//! runs the strata in order, meeting the other workers at the run-wide
//! sync barrier before and after each stratum's init phase. All three
//! strategies then run one fixpoint loop: drain the message buffers into
//! the local stores, emitting delta rows (Gather); evaluate one local
//! semi-naive iteration (Iterate); route the derived rows (Distribute).
//! They differ only in where a worker waits: Global at the round barrier
//! after every iteration, whose all-zero round is its fixpoint; SSP at its
//! staleness bound and DWS for up to τ while fewer than ω rows are pending,
//! both parking at a local fixpoint until work arrives or the
//! produced/consumed counters show the global one.
//!
//! Every other wait is one loop, `Worker::wait_until`, which drains the
//! inbox and checks the deadline. SSP and DWS merge what a drain pops;
//! Global, as Algorithm 1, merges only in Gather and only batches of
//! earlier rounds, so its runs repeat (DESIGN.md §4, "One fixpoint loop").
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
//! back into the order instead of the next iteration's delta, and inbound
//! batches are drained between slices. One
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
    Batch, BufferMatrix, DwsController, IdleOutcome, Recorder, RoundBarrier, SspClock, Strategy,
    Termination, WorkerEndpoints,
};
use dcd_storage::DerivedRelation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A [`Worker::wait_until`] turn's sleep when it found the inbox empty.
const WAIT_SLICE: Duration = Duration::from_micros(5);

/// Per-stratum coordination objects (shared by all workers).
pub struct StratumCoord {
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
    /// Every worker waits here before and after each stratum's init
    /// phase: no worker sends a stratum's rows while another still drains
    /// the previous stratum, and none enters the fixpoint before every
    /// init row was sent.
    pub sync: RoundBarrier,
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
                termination: Termination::new(n),
                round: RoundBarrier::new(n),
                ssp: SspClock::new(n, ssp_s),
            })
            .collect();
        Coordination {
            buffers: BufferMatrix::new(n, cfg.queue_capacity),
            part: Partitioner::new(n),
            strata,
            sync: RoundBarrier::new(n),
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

    /// Flags an abort, which every `Worker::wait_until` sees on its next
    /// turn, and wakes the workers parked in `Termination::idle_wait`.
    pub fn cancel(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for s in &self.strata {
            s.termination.cancel();
        }
    }

    /// `Err` once the evaluation was aborted (a worker failed) or the
    /// deadline passed, which aborts it.
    fn check_deadline(&self) -> Result<()> {
        if self.abort.load(Ordering::SeqCst) {
            return Err(DcdError::Execution("evaluation aborted".into()));
        }
        if self.deadline.is_some_and(|d| Instant::now() > d) {
            self.cancel();
            return Err(DcdError::Timeout);
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
/// relation's queue frame, which [`Worker::flush`] hands on every
/// [`FLUSH_ROWS`] queued rows: a set row's only collapse is exact-duplicate
/// elimination, which the stored-row check before the queue, Distribute's
/// sent-filter and the idempotent merge already perform. A `sum`/`count` merge
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

    /// The queued rows and, with `best`, each `min`/`max` relation's best
    /// rows, as [`PartialAgg::drain`] orders them, without consuming the
    /// accumulator.
    fn frames(&self, best: bool) -> impl Iterator<Item = (RelId, &Frame)> {
        let best = if best { &self.best[..] } else { &[] };
        let best = best.iter().map(|(rel, acc)| (*rel, acc.rows()));
        self.queued.iter().map(|(rel, f)| (*rel, f)).chain(best)
    }

    /// Empties, in place, what [`PartialAgg::frames`] returns for `best`,
    /// keeping the buffers and tables for the next slice.
    fn clear(&mut self, best: bool) {
        for (_, f) in &mut self.queued {
            f.clear();
        }
        self.queued_rows = 0;
        if best {
            for (_, acc) in &mut self.best {
                acc.clear();
            }
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

/// The worker context: everything one thread needs, and the state of the
/// stratum it evaluates.
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
    /// This worker's partition of every relation; returned by
    /// [`Worker::run`].
    store: WorkerStore,
    /// The stratum being evaluated.
    si: usize,
    /// Pending delta rows: ids merged since the last Iterate.
    delta: Vec<DeltaRow>,
    /// The stratum's DWS controller: `None` under Global and SSP, and
    /// during a stratum's init phase, so it sees only fixpoint batches.
    dws: Option<DwsController>,
    /// Start of the open `EvalDelta` span.
    t_eval: Instant,
    /// Rows Distribute merged here or sent in the current iteration.
    produced: u64,
    /// The stratum's round (0 in init, +1 per Gather), stamped on batches.
    round: u64,
    /// `held[j]`: batches drained from worker `j`, not merged yet.
    held: Vec<Vec<Batch>>,
}

impl<'a> Worker<'a> {
    /// Claims worker `me`'s endpoints and builds its context around its
    /// store.
    pub fn new(
        plan: &'a PhysicalPlan,
        cfg: &'a EngineConfig,
        coord: &'a Coordination,
        me: WorkerId,
        store: WorkerStore,
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
            store,
            si: 0,
            delta: Vec::new(),
            dws: None,
            t_eval: Instant::now(),
            produced: 0,
            round: 0,
            held: (0..cfg.workers).map(|_| Vec::new()).collect(),
        }
    }

    /// Runs the full evaluation for this worker; returns the final local
    /// store and the worker's recorder.
    pub fn run(mut self) -> Result<(WorkerStore, Recorder)> {
        for si in 0..self.plan.strata.len() {
            self.run_stratum(si)?;
        }
        // The kernel's probe counters go into the report.
        let m = &mut self.rec.counters;
        m.probe_hits += self.scratch.probe_hits;
        m.probe_reuse += self.scratch.probe_reuse;
        Ok((self.store, self.rec))
    }

    fn run_stratum(&mut self, si: usize) -> Result<()> {
        self.si = si;
        self.dws = None;
        self.round = 0;
        let coord = self.coord;
        self.meet(&coord.sync, 1)?;
        coord.check_deadline()?;

        // ---- Init phase: base rules + inline facts ----
        self.t_eval = Instant::now();
        let plan = self.plan;
        let stratum = &plan.strata[si];
        let mut acc = PartialAgg::default();
        for rule in &stratum.init_rules {
            let head = rule.head_rel;
            let mut sink = |row: Row<'_>| acc.push(plan, head, row);
            self.evaluator.eval_init(rule, &self.store, &mut sink);
        }
        if self.me == 0 {
            for (rel, t) in &plan.facts {
                if stratum.rels.contains(rel) {
                    acc.push(plan, *rel, t.row());
                }
            }
        }
        self.finish(acc, 0)?;
        self.meet(&coord.sync, 1)?;
        // Every peer sent its init rows before it arrived: drain them now,
        // so the DWS controller sees only fixpoint batches.
        self.gather();
        if matches!(self.cfg.strategy, Strategy::Dws) {
            self.dws = Some(DwsController::new(self.cfg.workers));
        }
        self.fixpoint()
    }

    /// Arrives at `barrier` reporting `rows` and waits (an `Idle` span)
    /// for the others; `Ok(false)` once an all-zero round ended the stratum.
    fn meet(&mut self, barrier: &RoundBarrier, rows: u64) -> Result<bool> {
        let ticket = barrier.arrive(rows);
        let mut cont = true;
        self.wait_until(Phase::Idle, |_| {
            barrier.passed(ticket).map(|c| cont = c).is_some()
        })?;
        Ok(cont)
    }

    /// The one loop in which a worker waits, timed as one `phase` span:
    /// each turn checks `done`, drains the inbox ([`Worker::drain_into`]),
    /// checks the deadline and the abort flag, and sleeps [`WAIT_SLICE`]
    /// when nothing arrived. `Err` once the run is aborted or past its
    /// deadline.
    fn wait_until(&mut self, phase: Phase, mut done: impl FnMut(&mut Self) -> bool) -> Result<()> {
        let t = Instant::now();
        let out = loop {
            if done(self) {
                break Ok(());
            }
            let arrived = self.drain_into(false);
            if let Err(e) = self.coord.check_deadline() {
                break Err(e);
            }
            if !arrived {
                std::thread::sleep(WAIT_SLICE);
            }
        };
        self.rec.close(phase, t, 0, 0, 0);
        out
    }

    /// The stratum's fixpoint, one loop for all three strategies: Gather,
    /// the strategy's wait, Iterate (with its Distribute). Global meets
    /// the others at the round barrier after every iteration and stops
    /// after an all-zero round. SSP and DWS park at a local fixpoint until
    /// work arrives or the global fixpoint is declared; before Iterate,
    /// SSP stays within `s` iterations of the slowest active worker and
    /// DWS waits for ω rows for at most τ. Each exit leaves one
    /// `TerminationRound` mark with `a == 0`.
    fn fixpoint(&mut self) -> Result<()> {
        let coord = self.coord;
        let sc = &coord.strata[self.si];
        let global = matches!(self.cfg.strategy, Strategy::Global);
        let ssp = matches!(self.cfg.strategy, Strategy::Ssp { .. });
        loop {
            coord.check_deadline()?;
            self.round += 1;
            self.gather();

            if !global && self.delta.is_empty() {
                // Local fixpoint: park until new work or global fixpoint.
                if ssp {
                    sc.ssp.finish(self.me);
                }
                let ti = Instant::now();
                let outcome = sc.termination.idle_wait(|| self.endpoints.has_inbound());
                self.rec.close(Phase::Idle, ti, 0, 0, 0);
                let work = outcome == IdleOutcome::Work;
                self.rec.mark(Mark::TerminationRound, work as u64, 0, 0);
                if !work {
                    return coord.check_deadline();
                }
                if ssp {
                    sc.ssp.rejoin(self.me);
                }
                continue;
            }
            self.omega_wait()?;
            if ssp && sc.ssp.ahead(self.me) {
                self.wait_until(Phase::Idle, |w| !sc.ssp.ahead(w.me))?;
            }

            let t0 = Instant::now();
            let processed = self.iterate()?;
            if let Some(ctrl) = &mut self.dws {
                ctrl.on_iteration(processed as usize, t0.elapsed());
            }
            let depth = coord.buffers.inbound_len(self.me) as u64;
            self.rec.end_iteration(processed, self.produced, depth);
            if ssp {
                sc.ssp.advance(self.me);
            }
            if global {
                let cont = self.meet(&sc.round, self.produced)?;
                self.rec.mark(Mark::TerminationRound, cont as u64, 0, 0);
                if !cont {
                    return Ok(());
                }
            }
        }
    }

    /// DWS only: waits up to τ while the delta is smaller than ω
    /// (Algorithm 2 lines 5–8), draining arrivals meanwhile, then updates
    /// ω and τ and records the decision.
    fn omega_wait(&mut self) -> Result<()> {
        let Some(ctrl) = &self.dws else {
            return Ok(());
        };
        let (omega, until) = (ctrl.omega(), Instant::now() + ctrl.tau());
        if self.delta.len() < omega {
            self.wait_until(Phase::OmegaWait, |w| {
                w.delta.len() >= omega || Instant::now() >= until
            })?;
        }
        let ctrl = self.dws.as_mut().expect("a DWS worker");
        ctrl.update_params();
        self.rec.dws_decision(
            ctrl.omega() as u64,
            ctrl.tau().as_nanos() as u64,
            self.delta.len() as u64,
            ctrl.model(),
        );
        Ok(())
    }

    /// One local semi-naive iteration and its Distribute: runs every
    /// matching delta variant over the pending delta rows, which become
    /// empty and collect the next delta. Head rows pass through the partial
    /// aggregation of §5.2.3 ("the Distribute operators also perform some
    /// partial aggregation"). Each kernel call's second pass runs in slices
    /// of [`SLICE_ROWS`]; whenever [`FLUSH_ROWS`] queued rows are buffered
    /// after a slice, [`Worker::flush`] hands them to Distribute before the
    /// next slice, so later slices probe stores those rows may have grown
    /// (monotone rules only derive more from them). Their `min`/`max` rows
    /// are distributed once, by [`Worker::finish`] at the end.
    ///
    /// Best-first groups (see the module docs) instead join the worker's
    /// order, and after every other group Iterate evaluates that order one
    /// slice of the best [`SLICE_ROWS`] pending ids at a time until it is
    /// empty. Each slice checks the deadline, is distributed whole, and
    /// requeues the ids its local merges improve; Iterate drains inbound
    /// batches between slices ([`Worker::drain_into`]).
    /// Returns the delta rows evaluated, counting rows requeued and
    /// evaluated again.
    fn iterate(&mut self) -> Result<u64> {
        self.t_eval = Instant::now();
        self.produced = 0;
        let before = self.rec.counters.tuples_processed;
        // Gather (§5.2.2): an aggregate group updated several times since
        // the last iteration has one id, which reads its newest value, so
        // dropping repeated ids keeps only the newest row. Without this,
        // `sum` relations fragment convergence into O(total-change/ε)
        // micro-deltas. The sort also clusters the delta by (rel, route):
        // each cluster runs as one batch per matching rule, a set
        // relation's rows in merge (= id) order.
        let mut rows = std::mem::take(&mut self.delta);
        rows.sort_unstable();
        rows.dedup();
        let mut acc = PartialAgg::default();
        for group in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if self.best_first[group[0].0].is_some() {
                for &row in group {
                    self.enqueue(row);
                }
                continue;
            }
            self.eval_group(group, &mut acc)?;
        }
        let rels = &self.plan.strata[self.si].rels;
        if rels.iter().any(|&rel| self.best_first[rel].is_some()) {
            self.eval_best_first(&mut acc)?;
        }
        let evaluated = self.rec.counters.tuples_processed - before;
        self.finish(acc, evaluated)?;
        Ok(evaluated)
    }

    /// Iterate's best-first part: moves the best-first rows that the delta
    /// gained so far into their orders, then evaluates the orders one
    /// slice at a time until they are empty, distributing each slice and
    /// requeueing what it improves.
    fn eval_best_first(&mut self, acc: &mut PartialAgg) -> Result<()> {
        let mut slice = Vec::with_capacity(SLICE_ROWS);
        let mut requeued = 0;
        loop {
            self.requeue(requeued);
            requeued = self.delta.len();
            if !self.next_slice(&mut slice) {
                break;
            }
            self.coord.check_deadline()?;
            self.eval_group(&slice, acc)?;
            self.flush(acc, true)?;
            if self.endpoints.has_inbound() {
                self.gather();
                self.t_eval = Instant::now();
            }
        }
        // Every order is empty now; free its heaps. Kept until the next
        // Iterate, they raised `sssp-web`'s peak RSS by 1.5–3 MB.
        for order in self.best_first.iter_mut().flatten() {
            order.routes.fill_with(BinaryHeap::new);
        }
        Ok(())
    }

    /// Runs every delta rule of the stratum that consumes `group`'s
    /// `(rel, route)` over it, feeding head rows to `acc` unless this
    /// worker already stores them (`RecStore::already_stored`: such a row
    /// was routed to every destination when it was first stored, so it
    /// would merge as `Old` everywhere), and offers the buffered rows to
    /// [`Worker::flush`] after every slice.
    fn eval_group(&mut self, group: &[DeltaRow], acc: &mut PartialAgg) -> Result<()> {
        let plan = self.plan;
        let (rel, route) = (group[0].0, group[0].1);
        self.rec.counters.tuples_processed += group.len() as u64;
        for rule in &plan.strata[self.si].delta_rules {
            let spec = rule.delta.as_ref().expect("delta rule");
            if spec.rel != rel || spec.route != route as usize {
                continue;
            }
            let head = rule.head_rel;
            let n = self
                .evaluator
                .sort_batch(rule, &self.store, group, &mut self.scratch);
            for lo in (0..n).step_by(SLICE_ROWS) {
                let slice = lo..n.min(lo + SLICE_ROWS);
                let stored = self.store.rec(head);
                self.evaluator.eval_sorted(
                    rule,
                    &self.store,
                    group,
                    slice,
                    &mut self.scratch,
                    &mut |row| {
                        if !stored.already_stored(row) {
                            acc.push(plan, head, row)
                        }
                    },
                );
                self.flush(acc, false)?;
            }
            let m = &mut self.rec.counters;
            m.kernel_batches += 1;
            m.kernel_rows += group.len() as u64;
        }
        Ok(())
    }

    /// Iterate's hand-off to Distribute after a slice, which splits the
    /// open `EvalDelta` span: with `best`, every buffered row; without,
    /// the queued rows once [`FLUSH_ROWS`] of them are buffered.
    fn flush(&mut self, acc: &mut PartialAgg, best: bool) -> Result<()> {
        if !best && acc.queued_rows < FLUSH_ROWS {
            return Ok(());
        }
        self.rec.close(Phase::EvalDelta, self.t_eval, 0, 0, 0);
        self.distribute(acc.frames(best))?;
        acc.clear(best);
        self.t_eval = Instant::now();
        Ok(())
    }

    /// The hand-off that ends the init phase and each iteration: closes
    /// the `EvalDelta` span, which evaluated `rows` delta rows, and
    /// distributes every row, freeing each `min`/`max` table first.
    fn finish(&mut self, acc: PartialAgg, rows: u64) -> Result<()> {
        self.rec.close(Phase::EvalDelta, self.t_eval, rows, 0, 0);
        let out = acc.drain();
        self.distribute(out.iter().map(|(rel, rows)| (*rel, rows)))
    }

    /// Queues best-first delta row `row` at its stored value; `false`
    /// (and nothing queued) for a row of any other relation.
    fn enqueue(&mut self, (rel, route, id): DeltaRow) -> bool {
        let Some(order) = &mut self.best_first[rel] else {
            return false;
        };
        let priority = order.priority(self.store.rec(rel).rows().row(id as usize).get(order.col));
        order.routes[route as usize].push((priority, Reverse(id)));
        true
    }

    /// Moves the best-first rows of `delta[from..]` into their orders, and
    /// keeps the others in the delta for the next iteration.
    fn requeue(&mut self, from: usize) {
        let mut keep = from;
        for i in from..self.delta.len() {
            let row = self.delta[i];
            if !self.enqueue(row) {
                self.delta[keep] = row;
                keep += 1;
            }
        }
        self.delta.truncate(keep);
    }

    /// Fills `slice` with the best [`SLICE_ROWS`] pending ids of the first
    /// `(rel, route)` with any, skipping stale entries; `false` once every
    /// order is empty. A `min` value only falls and a `max` value only
    /// rises, so an entry queued at another value than its row's stored
    /// one was queued again at the better value, and is stale. An id
    /// queued twice at one value (merged from a slice and from an inbound
    /// batch before it was requeued) has equal entries, which pop
    /// together and are taken once.
    fn next_slice(&mut self, slice: &mut Vec<DeltaRow>) -> bool {
        slice.clear();
        for (rel, order) in self.best_first.iter_mut().enumerate() {
            let Some(order) = order else {
                continue;
            };
            let rows = self.store.rec(rel).rows();
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
    /// into one frame per destination, which goes through the SPSC buffers
    /// as a batch once it holds `batch_size` rows, or once the relation's
    /// rows are routed. Adds the rows merged here and sent to
    /// [`Worker::produced`], and the sent-filter's hits and misses to the
    /// recorder.
    fn distribute<'r>(&mut self, outs: impl IntoIterator<Item = (RelId, &'r Frame)>) -> Result<()> {
        let t0 = Instant::now();
        let (plan, n) = (self.plan, self.cfg.workers);
        let batch = self.cfg.batch_size.max(1);
        let sent_before = self.rec.counters.tuples_sent;
        let mut local_new = 0u64;
        let mut staged: Vec<Frame> = (0..n).map(|_| Frame::default()).collect();
        let mut dests: Vec<WorkerId> = Vec::with_capacity(2);
        for (rel, rows) in outs {
            let decl = plan.idb[rel].as_ref().expect("IDB head");
            for row in rows.iter() {
                // The sent-filter: a row this worker already routed went to
                // the same (deterministic) destinations then; re-merging it
                // anywhere is a no-op, so the whole row can be dropped
                // before it is serialized. On one worker every row merges
                // locally, where the dedup table is the check, so no filter
                // is used.
                if n > 1 {
                    let m = &mut self.rec.counters;
                    match self.store.rec_mut(rel).already_sent(row) {
                        Some(true) => {
                            m.cache_hits += 1;
                            continue;
                        }
                        Some(false) => m.cache_misses += 1,
                        None => {}
                    }
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
                        local_new += self.merge_local(rel, row);
                    } else {
                        staged[d].push(row);
                        if staged[d].len() == batch {
                            self.send(d, rel, std::mem::take(&mut staged[d]))?;
                        }
                    }
                }
            }
            for (dest, rows) in staged.iter_mut().enumerate() {
                if !rows.is_empty() {
                    self.send(dest, rel, std::mem::take(rows))?;
                }
            }
        }
        let remote_sent = self.rec.counters.tuples_sent - sent_before;
        self.rec.counters.local_new += local_new;
        self.produced += local_new + remote_sent;
        self.rec
            .close(Phase::Distribute, t0, local_new, remote_sent, 0);
        Ok(())
    }

    /// Sends `frame`, one batch of `rel`'s rows, to worker `dest`, waiting
    /// out a full queue in a `Backpressure` span (nested in Distribute).
    fn send(&mut self, dest: WorkerId, rel: RelId, frame: Frame) -> Result<()> {
        let k = frame.len() as u64;
        self.coord.strata[self.si].termination.note_produced(k);
        let m = &mut self.rec.counters;
        m.batches_out += 1;
        m.tuples_sent += k;
        m.bytes_sent += frame.payload_bytes();
        let batch = Batch {
            rel: rel as u32,
            frame,
            sent_at: Instant::now(),
            from: self.me,
            round: self.round,
        };
        let mut unsent = self.endpoints.send(dest, batch).err();
        if unsent.is_none() {
            return Ok(());
        }
        self.wait_until(Phase::Backpressure, |w| {
            w.rec.counters.backpressure_retries += 1;
            let batch = unsent.take().expect("a batch to retry");
            unsent = w.endpoints.send(dest, batch).err();
            unsent.is_none()
        })
    }

    /// Merges one merge-layout row into the local store; on success, adds
    /// the stored row's id to the delta once for every route of the
    /// relation that maps here.
    fn merge_local(&mut self, rel: RelId, row: Row<'_>) -> u64 {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        let Merged::New(id) = self.store.rec_mut(rel).merge_row(row) else {
            return 0;
        };
        if decl.broadcast {
            // Broadcast relations run every variant everywhere.
            for r in 0..decl.partition_cols.len().max(1) {
                self.delta.push((rel, r as u8, id));
            }
        } else {
            // Route columns are group columns, so the incoming row routes
            // exactly as the stored one.
            for (ri, &c) in decl.partition_cols.iter().enumerate() {
                if self.coord.part.of_key(row.key(c)) == self.me {
                    self.delta.push((rel, ri as u8, id));
                }
            }
        }
        1
    }

    /// Gather: drains the inbox as one `Gather` span.
    fn gather(&mut self) {
        let tg = Instant::now();
        self.drain_into(true);
        self.rec.close(Phase::Gather, tg, 0, 0, 0);
    }

    /// Pops every inbound batch and merges it into the store/delta, except
    /// under Global, which merges only in Gather (`gather`) and only
    /// batches of rounds before its own; it holds any other batch, and
    /// merges held batches source by source in arrival order. The DWS
    /// controller, when present, observes every batch drained, wherever it
    /// is drained: batches it missed would underestimate λ. Returns whether
    /// any batch arrived.
    fn drain_into(&mut self, gather: bool) -> bool {
        let below = match self.cfg.strategy {
            Strategy::Global if gather => self.round,
            Strategy::Global => 0,
            _ => u64::MAX,
        };
        let termination = &self.coord.strata[self.si].termination;
        let tm = self.rec.is_tracing().then(Instant::now);
        let (mut arrived, mut batches, mut new) = (false, 0u64, 0u64);
        let mut held = std::mem::take(&mut self.held);
        for (j, from_j) in held.iter_mut().enumerate() {
            while let Some(batch) = self.endpoints.recv(j) {
                arrived = true;
                let m = &mut self.rec.counters;
                m.batches_in += 1;
                m.tuples_in += batch.len() as u64;
                m.bytes_in += batch.payload_bytes();
                if let Some(ctrl) = &mut self.dws {
                    ctrl.on_batch(batch.from, batch.len(), batch.sent_at);
                }
                from_j.push(batch);
            }
            // A peer sends its rounds in order, so the mergeable batches
            // are a prefix.
            let ready = from_j.partition_point(|b| b.round < below);
            for batch in from_j.drain(..ready) {
                batches += 1;
                let rel = batch.rel as usize;
                for row in batch.frame.iter() {
                    new += self.merge_local(rel, row);
                }
                termination.note_consumed(batch.len() as u64);
            }
        }
        self.held = held;
        self.rec.counters.local_new += new;
        if let Some(tm) = tm.filter(|_| batches > 0) {
            // Nested inside whichever phase drained: Gather or a wait.
            self.rec.close(Phase::Merge, tm, batches, new, 0);
        }
        arrived
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
        acc.push(p, rel, row.row());
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
            let mut got: Vec<Tuple> = decode(acc.frames(true))
                .into_iter()
                .map(|(r, t)| {
                    assert_eq!(r, rel);
                    t
                })
                .collect();
            acc.clear(true);
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

    /// Worker 0 of `cfg.workers` for `p`, whose base relation `edb` holds
    /// `rows`.
    fn one_worker<'a>(
        p: &'a PhysicalPlan,
        cfg: &'a EngineConfig,
        coord: &'a Coordination,
        edb: &[(&str, Vec<Tuple>)],
    ) -> Worker<'a> {
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        for (name, rows) in edb {
            data[p.rel_by_name(name).unwrap()] = Some(rows.clone());
        }
        let part = Partitioner::new(cfg.workers);
        let catalog = crate::catalog::EdbCatalog::build(p, &data, &part);
        let store = WorkerStore::build(p, &catalog, 0, true, 64);
        Worker::new(p, cfg, coord, 0, store)
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
            let w = one_worker(&p, &cfg, &coord, &[]);
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
        let warc = vec![Tuple::from_ints(&[1, 2, 10])];
        let mut w = one_worker(&p, &cfg, &coord, &[("warc", warc)]);
        let sp = p.rel_by_name("sp").unwrap();
        for (value, merged) in [(9, Merged::New(0)), (4, Merged::New(0))] {
            let row = Tuple::from_ints(&[1, value]);
            assert_eq!(w.store.rec_mut(sp).merge(&row), merged);
            w.delta.push((sp, 0, 0));
            w.requeue(0);
            assert!(w.delta.is_empty(), "queued in the order, not the delta");
        }
        // Merged locally and from a peer before one requeue: twice at 4.
        w.delta.push((sp, 0, 0));
        w.requeue(0);
        assert_eq!(w.best_first[sp].as_ref().unwrap().routes[0].len(), 3);
        let evaluated = w.iterate().unwrap();
        // Row 1 once, at 4 (its stale entry at 9 is skipped and its second
        // entry at 4 taken with the first), then the row it derived, (2, 14).
        assert_eq!(evaluated, 2);
        assert_eq!(w.rec.counters.kernel_rows, 2);
        let stored = w.store.rec(sp).rows();
        let mut got: Vec<Tuple> = stored.iter().map(|r| r.to_tuple()).collect();
        got.sort();
        assert_eq!(got, rows(&[[1, 4], [2, 14]]));
        assert!(w.delta.is_empty());
    }

    #[test]
    fn max_groups_are_taken_in_descending_order_one_slice_at_a_time() {
        let p = plan_of(crate::queries::DELIVERY);
        let cfg = EngineConfig::with_workers(1);
        let coord = Coordination::new(&p, &cfg);
        let mut w = one_worker(&p, &cfg, &coord, &[]);
        let d = p.rel_by_name("delivery").unwrap();
        // Group g holds value (g * 7) % 300: a permutation of 0..300.
        for g in 0..300 {
            let row = Tuple::from_ints(&[g, g * 7 % 300]);
            let Merged::New(id) = w.store.rec_mut(d).merge(&row) else {
                panic!("new group");
            };
            w.delta.push((d, 0, id));
        }
        w.requeue(0);
        let mut slice = Vec::new();
        let mut taken = Vec::new();
        while w.next_slice(&mut slice) {
            let rows = w.store.rec(d).rows();
            let value = |&(_, _, id): &DeltaRow| rows.row(id as usize).get(1).expect_int();
            taken.push(slice.iter().map(value).collect::<Vec<_>>());
        }
        let want: Vec<i64> = (0..300).rev().collect();
        assert_eq!(
            taken,
            [want[..SLICE_ROWS].to_vec(), want[SLICE_ROWS..].to_vec()]
        );
    }

    #[test]
    fn a_wait_ends_on_cancel_or_at_the_deadline() {
        // Worker 1 of 2 never arrives at the sync barrier, so only the
        // wait loop's own checks can end worker 0's wait.
        let p = tc_plan();
        let mut cfg = EngineConfig::with_workers(2);
        let coord = Coordination::new(&p, &cfg);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| one_worker(&p, &cfg, &coord, &[]).meet(&coord.sync, 1));
            std::thread::sleep(Duration::from_millis(5));
            assert!(!waiter.is_finished(), "passed without its peer");
            coord.cancel();
            let err = waiter.join().unwrap().unwrap_err();
            assert_eq!(err, DcdError::Execution("evaluation aborted".into()));
        });
        cfg.timeout = Some(Duration::from_millis(5));
        let coord = Coordination::new(&p, &cfg);
        let mut w = one_worker(&p, &cfg, &coord, &[]);
        let err = w.meet(&coord.sync, 1).unwrap_err();
        assert_eq!(err, DcdError::Timeout);
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
