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
//! pending ids never enter the delta. Every merge that improves a row
//! pushes the row's id straight into a worker-local order by stored value
//! (ascending for `min`, descending for `max`), and Iterate takes the best
//! 256 (`SLICE_ROWS`) at a time. After each slice it merges the slice's
//! local head rows and sends the remote ones, and inbound batches are
//! drained between slices; the ids those merges improve join the order
//! as they merge. One
//! Iterate thus runs until the worker's order is empty: label-correcting
//! shortest paths turned toward label-setting, as in Δ-stepping, so a row
//! is rarely evaluated at a value it is about to improve on. A relation
//! consumed by a non-linear rule (APSP's `path`) keeps semi-naive rounds:
//! there a row's derivations depend on the other rows of the store, and
//! ordering it sent ~8× more tuples.
//!
//! Routing note: each head row is routed once, by `owner` (the function
//! `H`), and meets the one existence check its destination allows
//! (`PartialAgg::route`). A derived tuple is *sent* once per distinct
//! destination worker, and every receiver re-derives locally which of the
//! relation's routes (§4.3) apply to it — this keeps multi-route relations
//! (APSP) correct even when two routes hash to the same worker.

use crate::config::EngineConfig;
use crate::eval::{DeltaRow, EvalScratch, Evaluator};
use crate::store::{Merged, RecStore, WorkerStore};
use dcd_common::{AggFunc, DcdError, Frame, Partitioner, Result, Row, Value, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, RelDecl, RelId, StorageKind};
use dcd_runtime::trace::{Mark, Phase};
use dcd_runtime::{
    Batch, BufferMatrix, DwsController, IdleOutcome, MetricsSnapshot, Recorder, RoundBarrier,
    SspClock, Strategy, Termination, WorkerEndpoints,
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
    /// Wall-clock deadline: `None` without a timeout, or when the clock
    /// cannot represent the end of the timeout.
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
            deadline: cfg.timeout.and_then(|t| Instant::now().checked_add(t)),
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
/// best-first group evaluates before its head rows are merged. Also the
/// head rows the kernel's sink buffers before it routes them
/// ([`PartialAgg::sink`]), so the buffer stays in cache.
const SLICE_ROWS: usize = 256;

/// Head rows between the kernel and Distribute, with the pre-Distribute
/// partial aggregation of §5.2.3: the kernel's sink ([`PartialAgg::sink`]),
/// which routes each head row once ([`PartialAgg::route`]). A `min`/`max`
/// head relation's rows collapse in a storage aggregate relation, created
/// at the relation's first kernel call, so "same group" and "better" mean
/// exactly what they mean at the merge; its best row per group reaches
/// Distribute, which routes it, when the iteration ends, or, while a
/// best-first group is evaluated, after each slice ([`PartialAgg::clear`]
/// keeps the tables, so no slice zeroes a fresh one). Every other row is
/// copied, as lanes, into its head relation's queue frame for its
/// destination, which [`Worker::flush`] hands on every [`FLUSH_ROWS`]
/// queued rows: a set row's only collapse is exact-duplicate elimination,
/// which the stored-row check, Distribute's sent-filter and the idempotent
/// merge already perform. A `sum`/`count` merge replaces the contributor's
/// previous value, so a group ends with the total it would have had from
/// the latest contribution alone: an exact duplicate merges as
/// `Merged::Old`, and a superseded contribution delivered first still moves
/// the total (and can queue the group for the next iteration) until its
/// successor, queued after it in the same frame, overwrites it, which costs
/// work but not correctness.
struct PartialAgg<'a> {
    plan: &'a PhysicalPlan,
    /// The discriminating function `H` and this worker's id.
    part: Partitioner,
    me: WorkerId,
    best: Vec<(RelId, DerivedRelation)>,
    /// Per head relation, one frame per destination worker and, last, one
    /// of rows with several destinations.
    queued: Vec<(RelId, Vec<Frame>)>,
    /// Rows in `queued`.
    queued_rows: usize,
    /// Set and `sum`/`count` rows the kernel emitted that
    /// [`PartialAgg::route`] has not routed yet.
    emitted: Frame,
    /// Rows handed to the sink, and the stored-row lookups made for them.
    head_rows: u64,
    stored_checks: u64,
}

impl<'a> PartialAgg<'a> {
    /// An empty accumulator for worker `me` of `part.partitions()`.
    fn new(plan: &'a PhysicalPlan, part: Partitioner, me: WorkerId) -> Self {
        PartialAgg {
            plan,
            part,
            me,
            best: Vec::new(),
            queued: Vec::new(),
            queued_rows: 0,
            emitted: Frame::default(),
            head_rows: 0,
            stored_checks: 0,
        }
    }

    /// The slot of head relation `rel`'s rows, created at its first
    /// kernel call: a `min`/`max` relation's accumulator, or any other
    /// relation's queue frames.
    fn head(&mut self, rel: RelId) -> Head<'a> {
        let decl = self.plan.idb[rel].as_ref().expect("IDB head");
        if let StorageKind::Agg {
            func: func @ (AggFunc::Min | AggFunc::Max),
            group_cols,
            ..
        } = decl.kind
        {
            let at = self.best.iter().position(|(r, _)| *r == rel);
            let at = at.unwrap_or_else(|| {
                let acc = DerivedRelation::aggregate(func, group_cols, 0.0, &[]);
                self.best.push((rel, acc));
                self.best.len() - 1
            });
            return Head::Collapse(at);
        }
        let at = self.queued.iter().position(|(r, _)| *r == rel);
        let at = at.unwrap_or_else(|| {
            let frames = (0..=self.part.partitions()).map(|_| Frame::default());
            self.queued.push((rel, frames.collect()));
            self.queued.len() - 1
        });
        Head::Queue(at, decl)
    }

    /// The kernel's sink for `head`'s rows, whose store on this worker
    /// is `stored`. A `min`/`max` row merges into its relation's
    /// accumulator. Any other row is buffered, and routed whenever the
    /// buffer holds [`SLICE_ROWS`] rows; the caller routes the rest
    /// ([`PartialAgg::route`]) once the kernel returns. The init phase and
    /// Iterate pass this one sink type, so the kernel is compiled once,
    /// and the sink is inlined into it: a call per head row cost 1-worker
    /// `tc-rmat` ~6% of its run time.
    fn sink<'s>(
        &'s mut self,
        head: Head<'a>,
        stored: &'s RecStore,
    ) -> impl FnMut(Row<'_>) + use<'a, 's> {
        #[inline(always)]
        move |row| match head {
            Head::Collapse(at) => self.collapse(at, row),
            Head::Queue(..) => {
                self.emitted.push(row);
                if self.emitted.len() == SLICE_ROWS {
                    self.route(head, stored);
                }
            }
        }
    }

    /// Merges a `min`/`max` head row into `best[at]`. Not inlined: the
    /// kernel inlines the sink, and this merge is rare next to its walk.
    #[inline(never)]
    fn collapse(&mut self, at: usize, row: Row<'_>) {
        self.head_rows += 1;
        self.best[at].1.merge(row);
    }

    /// Routes the rows the sink buffered for `head`, whose store on this
    /// worker is `stored`, and queues each for its destination ([`owner`]),
    /// unless its destinations include this worker and `stored` already
    /// holds it: such a row was routed to every destination when it was
    /// first stored, so it would merge as `Old` everywhere. A row only
    /// peers own never meets that check, which could not succeed: this
    /// worker stores only rows routed here. On one worker every row is
    /// this worker's, and none is routed. One pass over the buffer keeps
    /// the kernel's loop free of the lookups.
    #[inline(never)]
    fn route(&mut self, head: Head<'a>, stored: &RecStore) {
        let Head::Queue(at, decl) = head else {
            return;
        };
        let n = self.part.partitions();
        let mut emitted = std::mem::take(&mut self.emitted);
        self.head_rows += emitted.len() as u64;
        for row in emitted.iter() {
            // The row's queue frame, its one destination's or the last for
            // several, and whether it may land here.
            let (frame, here) = if n == 1 {
                (0, true)
            } else if let Some(d) = owner(&self.part, decl, row) {
                (d, d == self.me)
            } else {
                let mut routes = decl.partition_cols.iter();
                let here = routes.any(|&c| self.part.of_key(row.key(c)) == self.me);
                (n, decl.broadcast || here)
            };
            if here {
                if let Some(stored) = stored.already_stored(row) {
                    self.stored_checks += 1;
                    if stored {
                        continue;
                    }
                }
            }
            self.queued[at].1[frame].push(row);
            self.queued_rows += 1;
        }
        emitted.clear();
        self.emitted = emitted;
    }

    /// Consumes the accumulator, returning `(head relation, destination,
    /// rows)` for Distribute as [`PartialAgg::frames`] orders them. Each
    /// table is freed before its rows merge.
    fn drain(self) -> Vec<(RelId, Option<WorkerId>, Frame)> {
        debug_assert!(self.emitted.is_empty(), "emitted rows left unrouted");
        let n = self.part.partitions();
        let queued = self.queued.into_iter().flat_map(|(rel, frames)| {
            let dests = (0..n).map(Some).chain([None]);
            dests.zip(frames).map(move |(d, f)| (rel, d, f))
        });
        let best = self
            .best
            .into_iter()
            .map(|(rel, acc)| (rel, None, acc.into_rows()));
        queued.chain(best).collect()
    }

    /// `(head relation, destination, rows)`: the rows queued for each
    /// destination worker, then those with several destinations (`None`)
    /// and, with `best`, each `min`/`max` relation's best rows, which are
    /// routed in Distribute (`None`). The accumulator is not consumed.
    fn frames(&self, best: bool) -> impl Iterator<Item = (RelId, Option<WorkerId>, &Frame)> {
        debug_assert!(self.emitted.is_empty(), "emitted rows left unrouted");
        let n = self.part.partitions();
        let queued = self.queued.iter().flat_map(move |(rel, frames)| {
            let dests = (0..n).map(Some).chain([None]);
            dests.zip(frames).map(move |(d, f)| (*rel, d, f))
        });
        let best = if best { &self.best[..] } else { &[] };
        let best = best.iter().map(|(rel, acc)| (*rel, None, acc.rows()));
        queued.chain(best)
    }

    /// Empties, in place, what [`PartialAgg::frames`] returns for `best`,
    /// keeping the buffers and tables for the next slice.
    fn clear(&mut self, best: bool) {
        for f in self.queued.iter_mut().flat_map(|(_, frames)| frames) {
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

/// [`PartialAgg::sink`]'s handle on one head relation, taken once per
/// kernel call ([`PartialAgg::head`]).
#[derive(Clone, Copy)]
enum Head<'p> {
    /// A `min`/`max` relation, collapsing in `best[i]`.
    Collapse(usize),
    /// Any other relation, routed by its declaration and queued in
    /// `queued[i]`.
    Queue(usize, &'p RelDecl),
}

/// The one worker a row of `decl` goes to under `part` (§5.2.3's `H`):
/// `None` when it goes to several, that is, the relation is broadcast or
/// the row's routes hash to different workers. On one worker it is worker
/// 0, with no hashing. Always inlined: the routing pass calls it for
/// every row.
#[inline(always)]
fn owner(part: &Partitioner, decl: &RelDecl, row: Row<'_>) -> Option<WorkerId> {
    if part.partitions() == 1 {
        return Some(0);
    }
    if decl.broadcast {
        return None;
    }
    // The planner gives every relation a route column.
    let cols = &decl.partition_cols;
    let d = part.of_key(row.key(cols[0]));
    cols[1..]
        .iter()
        .all(|&c| part.of_key(row.key(c)) == d)
        .then_some(d)
}

/// Distribute's sent-filter on `store`'s relation (§6.2.2 on the
/// exchange): whether this worker already routed `row`, counted in `m` as
/// a hit or a miss. A row this worker routed went to the same
/// (deterministic) destinations then, and re-merging it anywhere is a
/// no-op, so it is dropped before it is serialized. `false` for a
/// relation without a filter.
#[inline]
fn already_sent(store: &mut RecStore, m: &mut MetricsSnapshot, row: Row<'_>) -> bool {
    match store.already_sent(row) {
        Some(true) => {
            m.cache_hits += 1;
            true
        }
        Some(false) => {
            m.cache_misses += 1;
            false
        }
        None => false,
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
    /// Pending delta rows: ids merged since the last Iterate, except those
    /// of best-first relations, which wait in `best_first`.
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
            scratch: EvalScratch::default(),
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
        let mut acc = PartialAgg::new(plan, coord.part, self.me);
        for rule in &stratum.init_rules {
            let (head, stored) = (acc.head(rule.head_rel), self.store.rec(rule.head_rel));
            self.evaluator
                .eval_init(rule, &self.store, &mut acc.sink(head, stored));
            acc.route(head, stored);
        }
        if self.me == 0 {
            for (rel, t) in &plan.facts {
                if stratum.rels.contains(rel) {
                    let (head, stored) = (acc.head(*rel), self.store.rec(*rel));
                    acc.sink(head, stored)(t.row());
                    acc.route(head, stored);
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

            if !global && self.pending() == 0 {
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
        if self.pending() < omega {
            self.wait_until(Phase::OmegaWait, |w| {
                w.pending() >= omega || Instant::now() >= until
            })?;
        }
        let pending = self.pending() as u64;
        let ctrl = self.dws.as_mut().expect("a DWS worker");
        ctrl.update_params();
        self.rec.dws_decision(
            ctrl.omega() as u64,
            ctrl.tau().as_nanos() as u64,
            pending,
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
    /// Best-first ids (see the module docs) wait in their orders instead,
    /// and after the delta Iterate evaluates the orders one slice of the
    /// best [`SLICE_ROWS`] pending ids at a time until they are empty. Each
    /// slice checks the deadline and is distributed whole, and the ids its
    /// local merges improve join the orders; Iterate drains inbound batches
    /// between slices ([`Worker::drain_into`]).
    /// Returns the delta rows evaluated, counting rows queued again and
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
        let mut acc = PartialAgg::new(self.plan, self.coord.part, self.me);
        for group in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            self.eval_group(group, &mut acc)?;
        }
        self.eval_best_first(&mut acc)?;
        let evaluated = self.rec.counters.tuples_processed - before;
        self.finish(acc, evaluated)?;
        Ok(evaluated)
    }

    /// Iterate's best-first part: evaluates the orders one slice at a time
    /// until they are empty, distributing each slice; the ids its merges
    /// improve join the orders as they merge.
    fn eval_best_first(&mut self, acc: &mut PartialAgg<'_>) -> Result<()> {
        let mut slice = Vec::new();
        while self.next_slice(&mut slice) {
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
    /// `(rel, route)` over it, handing each head row to `acc`'s sink
    /// ([`PartialAgg::sink`]), which routes it once and checks it against
    /// the head's store only when the row may land here, and offers the
    /// buffered rows to [`Worker::flush`] after every slice.
    fn eval_group(&mut self, group: &[DeltaRow], acc: &mut PartialAgg<'_>) -> Result<()> {
        let plan = self.plan;
        let (rel, route) = (group[0].0, group[0].1);
        self.rec.counters.tuples_processed += group.len() as u64;
        for rule in &plan.strata[self.si].delta_rules {
            let spec = rule.delta.as_ref().expect("delta rule");
            if spec.rel != rel || spec.route != route as usize {
                continue;
            }
            let head = acc.head(rule.head_rel);
            let n = self
                .evaluator
                .sort_batch(rule, &self.store, group, &mut self.scratch);
            for lo in (0..n).step_by(SLICE_ROWS) {
                let slice = lo..n.min(lo + SLICE_ROWS);
                let stored = self.store.rec(rule.head_rel);
                self.evaluator.eval_sorted(
                    rule,
                    &self.store,
                    group,
                    slice,
                    &mut self.scratch,
                    &mut acc.sink(head, stored),
                );
                acc.route(head, stored);
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
    fn flush(&mut self, acc: &mut PartialAgg<'_>, best: bool) -> Result<()> {
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
    /// distributes every row, freeing each `min`/`max` table first. Adds
    /// the accumulator's sink counts to the recorder.
    fn finish(&mut self, acc: PartialAgg<'_>, rows: u64) -> Result<()> {
        self.rec.close(Phase::EvalDelta, self.t_eval, rows, 0, 0);
        let m = &mut self.rec.counters;
        m.head_rows += acc.head_rows;
        m.stored_checks += acc.stored_checks;
        let out = acc.drain();
        self.distribute(out.iter().map(|(rel, dest, rows)| (*rel, *dest, rows)))
    }

    /// Delta rows waiting for Iterate: the delta's ids and the entries of
    /// the best-first orders.
    fn pending(&self) -> usize {
        let mut pending = self.delta.len();
        for order in self.best_first.iter().flatten() {
            pending += order.routes.iter().map(BinaryHeap::len).sum::<usize>();
        }
        pending
    }

    /// Fills `slice` with the best [`SLICE_ROWS`] pending ids of the first
    /// `(rel, route)` with any, skipping stale entries; `false` once every
    /// order is empty. A `min` value only falls and a `max` value only
    /// rises, so an entry queued at another value than its row's stored
    /// one was queued again at the better value, and is stale. Equal
    /// entries (an id improved between two values of one priority) pop
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

    /// Routes `(head relation, destination, rows)` frames (Distribute).
    /// A frame's destination was computed when its rows were routed
    /// ([`PartialAgg::route`]): rows this worker owns met the stored-row
    /// check then and merge here, feeding the next delta immediately. Every
    /// other row meets the sent-filter ([`already_sent`]), and rows without
    /// a destination (several destinations, or `min`/`max` rows) are routed
    /// here by the same [`owner`]. Remote rows are copied, as lanes, into
    /// one frame per destination, which goes through the SPSC buffers as a
    /// batch once it holds `batch_size` rows, or once the frame is routed.
    /// Adds the rows merged here and sent to [`Worker::produced`], and the
    /// sent-filter's hits and misses to the recorder.
    fn distribute<'r>(
        &mut self,
        outs: impl IntoIterator<Item = (RelId, Option<WorkerId>, &'r Frame)>,
    ) -> Result<()> {
        let t0 = Instant::now();
        let (plan, n) = (self.plan, self.cfg.workers);
        let sent_before = self.rec.counters.tuples_sent;
        let mut local_new = 0u64;
        let mut staged: Vec<Frame> = (0..n).map(|_| Frame::default()).collect();
        let mut dests: Vec<WorkerId> = Vec::with_capacity(2);
        for (rel, dest, rows) in outs {
            match dest {
                // Rows this worker owns met the stored-row check when they
                // were routed.
                Some(d) if d == self.me => {
                    for row in rows.iter() {
                        local_new += self.merge_local(rel, row);
                    }
                }
                Some(d) => self.stage_unsent(d, rel, rows, &mut staged[d])?,
                None => {
                    let decl = plan.idb[rel].as_ref().expect("IDB head");
                    for row in rows.iter() {
                        let (store, m) = (self.store.rec_mut(rel), &mut self.rec.counters);
                        if already_sent(store, m, row) {
                            continue;
                        }
                        if let Some(d) = owner(&self.coord.part, decl, row) {
                            local_new += self.deliver(d, rel, row, &mut staged)?;
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
                            local_new += self.deliver(d, rel, row, &mut staged)?;
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

    /// Distribute for `rows` of `rel` bound for peer `dest`: stages each
    /// row the sent-filter has not seen in `stage`, and sends the stage as
    /// a batch whenever it holds `batch_size` rows. One tight loop, so the
    /// filter's lookups overlap.
    fn stage_unsent(
        &mut self,
        dest: WorkerId,
        rel: RelId,
        rows: &Frame,
        stage: &mut Frame,
    ) -> Result<()> {
        let batch = self.cfg.batch_size.max(1);
        let mut full = Vec::new();
        let (store, m) = (self.store.rec_mut(rel), &mut self.rec.counters);
        for row in rows.iter() {
            if !already_sent(store, m, row) {
                stage.push(row);
                if stage.len() == batch {
                    full.push(std::mem::take(stage));
                }
            }
        }
        for frame in full {
            self.send(dest, rel, frame)?;
        }
        Ok(())
    }

    /// Distribute's hand-off of `rel`'s `row` to worker `dest`: merges it
    /// here when `dest` is this worker, returning 1 when it was new, or
    /// stages it for `dest`, sending the stage as a batch once it holds
    /// `batch_size` rows.
    fn deliver(
        &mut self,
        dest: WorkerId,
        rel: RelId,
        row: Row<'_>,
        staged: &mut [Frame],
    ) -> Result<u64> {
        if dest == self.me {
            return Ok(self.merge_local(rel, row));
        }
        staged[dest].push(row);
        if staged[dest].len() == self.cfg.batch_size.max(1) {
            self.send(dest, rel, std::mem::take(&mut staged[dest]))?;
        }
        Ok(0)
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

    /// Merges one merge-layout row into the local store; on success,
    /// queues the stored row's id once for every route of the relation
    /// that maps here: into the relation's order at its stored value when
    /// it is evaluated best-first, into the delta otherwise.
    fn merge_local(&mut self, rel: RelId, row: Row<'_>) -> u64 {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        let Merged::New(id) = self.store.rec_mut(rel).merge_row(row) else {
            return 0;
        };
        for route in 0..decl.partition_cols.len().max(1) {
            // Broadcast relations run every variant everywhere. Route
            // columns are group columns, so the incoming row routes exactly
            // as the stored one.
            let here = |&c: &usize| self.coord.part.of_key(row.key(c)) == self.me;
            if !decl.broadcast && !decl.partition_cols.get(route).is_some_and(here) {
                continue;
            }
            match &mut self.best_first[rel] {
                Some(order) => {
                    let value = self.store.rec(rel).rows().row(id as usize).get(order.col);
                    let priority = order.priority(value);
                    order.routes[route].push((priority, Reverse(id)));
                }
                None => self.delta.push((rel, route as u8, id)),
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

    /// The 1-worker sink for `p`.
    fn sink(p: &PhysicalPlan) -> PartialAgg<'_> {
        PartialAgg::new(p, Partitioner::new(1), 0)
    }

    /// Offers `row` of `rel` to `acc` against an empty store.
    fn push(acc: &mut PartialAgg<'_>, rel: RelId, row: &Tuple) {
        let (head, empty) = (acc.head(rel), RecStore::new(acc.plan, rel, true, 64));
        acc.sink(head, &empty)(row.row());
        acc.route(head, &empty);
    }

    /// `(relation, row)` for every row of `frames`, decoded.
    fn decode<'f>(
        frames: impl Iterator<Item = (RelId, Option<WorkerId>, &'f Frame)>,
    ) -> Vec<(RelId, Tuple)> {
        frames
            .flat_map(|(rel, _, f)| f.iter().map(move |r| (rel, r.to_tuple())))
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
            let mut acc = sink(&p);
            for row in rows(&[[1, 9], [1, 3], [1, 7], [2, 5]]) {
                push(&mut acc, rel, &row);
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
                push(&mut acc, rel, &row);
            }
            let out = acc.drain();
            let mut got: Vec<Tuple> = decode(out.iter().map(|(r, d, f)| (*r, *d, f)))
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
        let mut acc = sink(&p);
        for _ in 0..5 {
            push(&mut acc, tc, &Tuple::from_ints(&[1, 2]));
        }
        push(&mut acc, tc, &Tuple::from_ints(&[1, 3]));
        assert_eq!(acc.queued_rows, 6);
        assert_eq!(
            acc.drain().iter().map(|(_, _, f)| f.len()).sum::<usize>(),
            6
        );
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
        let mut acc = sink(&p);
        for (rel, row) in &pushed {
            push(&mut acc, *rel, row);
        }
        assert_eq!(acc.queued_rows, pushed.len(), "queued for the flush");
        let out = acc.drain();
        let got = decode(out.iter().map(|(r, d, f)| (*r, *d, f)));
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

    #[test]
    fn sink_checks_the_store_only_for_rows_that_may_land_here() {
        let part = Partitioner::new(2);
        let owned_by = |w: WorkerId| (0..).find(move |&k| part.of_key(k as u64) == w).unwrap();
        let (a, b) = (owned_by(0), owned_by(1));
        // Linear TC routes on column 1; non-linear TC also on column 0.
        for (src, legs) in [
            (
                crate::queries::TC,
                vec![([7, a], Some(0), true), ([7, b], Some(1), false)],
            ),
            (
                "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), tc(Z, Y).",
                vec![
                    ([a, a], Some(0), true),
                    ([b, a], None, true),
                    ([a, b], None, true),
                    ([b, b], Some(1), false),
                ],
            ),
        ] {
            let p = plan_of(src);
            let tc = p.rel_by_name("tc").unwrap();
            // Worker 0's store holds every row, even those it cannot own,
            // so only a lookup the sink makes can drop one.
            let mut store = RecStore::new(&p, tc, true, 64);
            let mut acc = PartialAgg::new(&p, part, 0);
            for (row, _, _) in &legs {
                store.merge(&Tuple::from_ints(row));
                let head = acc.head(tc);
                acc.sink(head, &store)(Tuple::from_ints(row).row());
                acc.route(head, &store);
            }
            let checked = legs.iter().filter(|(_, _, here)| *here).count();
            assert_eq!(acc.head_rows, legs.len() as u64, "{src}");
            assert_eq!(acc.stored_checks, checked as u64, "{src}");
            let mut queued: Vec<(Option<WorkerId>, Tuple)> = acc
                .frames(true)
                .flat_map(|(_, d, f)| f.iter().map(move |r| (d, r.to_tuple())))
                .collect();
            queued.sort();
            let mut want: Vec<(Option<WorkerId>, Tuple)> = legs
                .iter()
                .filter(|(_, _, here)| !here)
                .map(|(row, d, _)| (*d, Tuple::from_ints(row)))
                .collect();
            want.sort();
            assert_eq!(queued, want, "only rows for peers alone are queued: {src}");
        }
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
        // Group 1 merges at 9, then improves in place to 4; a row no
        // better than the stored one queues nothing. Group 3 improves from
        // 2^53 + 4 to 2^53 + 3, which rounds to the same `f64` (ties go to
        // the even mantissa), so it is queued twice at one priority.
        let big = 1 << 53;
        for (group, value, new) in [
            (1, 9, 1),
            (1, 4, 1),
            (1, 4, 0),
            (1, 6, 0),
            (3, big + 4, 1),
            (3, big + 3, 1),
        ] {
            let row = Tuple::from_ints(&[group, value]);
            assert_eq!(w.merge_local(sp, row.row()), new);
            assert!(w.delta.is_empty(), "queued in the order, not the delta");
        }
        let heap = &w.best_first[sp].as_ref().unwrap().routes[0];
        assert_eq!(heap.len(), 4);
        let mut distinct = heap.clone().into_sorted_vec();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "group 3's two entries are equal");
        assert_eq!(w.pending(), 4, "the ω-wait counts every entry");
        let evaluated = w.iterate().unwrap();
        // Row 1 once, at 4 (its stale entry at 9 is skipped), row 3 once
        // (its second entry is taken with the first), then the row 1
        // derived, (2, 14).
        assert_eq!(evaluated, 3);
        assert_eq!(w.rec.counters.kernel_rows, 3);
        let stored = w.store.rec(sp).rows();
        let mut got: Vec<Tuple> = stored.iter().map(|r| r.to_tuple()).collect();
        got.sort();
        assert_eq!(got, rows(&[[1, 4], [2, 14], [3, big + 3]]));
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
            assert_eq!(w.merge_local(d, row.row()), 1, "new group");
        }
        assert!(w.delta.is_empty());
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
