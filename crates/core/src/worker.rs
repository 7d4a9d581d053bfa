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
//! Init rules and delta rules run through one slice loop,
//! `Worker::eval_rule`, into the worker's one head-row accumulator
//! (`PartialAgg`, built once for the run), and every row leaves it through
//! one hand-off, `Worker::flush`: whenever a slice leaves `FLUSH_ROWS`
//! queued, after each best-first slice, and at the end of the init phase
//! and of each iteration.
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
//! A merged id is queued only for the routes some delta rule reads, so a
//! relation no delta rule reads (SSSP's `results`) queues nothing. A
//! `min`/`max` relation whose consuming delta rules are all linear (their
//! join steps probe only base relations) is evaluated *best-first*: every
//! merge that improves a row pushes its id into a worker-local order by
//! stored value (ascending for `min`, descending for `max`), and Iterate
//! evaluates the best 256 (`SLICE_ROWS`) at a time, distributing each
//! slice and draining inbound batches between slices, until the order is
//! empty: label-correcting shortest paths turned toward label-setting, as
//! in Δ-stepping, so a row is rarely evaluated at a value it is about to
//! improve on. A relation consumed by a non-linear rule (APSP's `path`)
//! keeps semi-naive rounds: there a row's derivations depend on the other
//! rows of the store, and ordering it sent ~8× more tuples.
//!
//! Routing note: `PartialAgg::route` is the one place a head row is
//! routed and checked (the stored-row check here, the sent-filter per
//! peer), so Distribute merges this worker's frames and sends each peer's
//! as they are. A derived tuple is *sent* once per distinct destination
//! worker, and every receiver re-derives locally which of the relation's
//! routes apply to it — this keeps multi-route relations (APSP) correct
//! even when two routes hash to the same worker.

use crate::config::EngineConfig;
use crate::eval::{DeltaRow, EvalScratch, Evaluator};
use crate::store::{Merged, RecStore, SentFilter, WorkerStore};
use dcd_common::{AggFunc, DcdError, Frame, Partitioner, Result, Row, Value, WorkerId};
use dcd_frontend::physical::{CompiledRule, PhysicalPlan, RelDecl, RelId, StorageKind};
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
/// evaluation slice leaves this many buffered, [`Worker::flush`] hands
/// them to Distribute before the next slice, so the buffer between the
/// kernel and Distribute stays bounded however large one init phase's or
/// iteration's output is. The flush tests in `tests/engine_e2e.rs` (set
/// and `sum` rows mid-iteration, and
/// `init_rows_flush_in_the_middle_of_the_init_phase`) and
/// `scripts/check_trace_smoke.sh` size their inputs to more than twice
/// this.
const FLUSH_ROWS: usize = 1 << 14;

/// Delta rows per evaluation slice: how often Iterate checks the buffer
/// against [`FLUSH_ROWS`], and how many of the best pending rows a
/// best-first group evaluates before its head rows are merged. Also the
/// head rows the kernel's sink buffers before it routes them
/// ([`PartialAgg::sink`]), so the buffer stays in cache.
const SLICE_ROWS: usize = 256;

/// The worker's head rows between the kernel and Distribute, with the
/// pre-Distribute partial aggregation of §5.2.3: the kernel's sink
/// ([`PartialAgg::sink`]) and the one routing pass ([`PartialAgg::route`]).
/// One lives on each [`Worker`] for the whole run, and its rows leave
/// only through [`Worker::flush`]. A `min`/`max` head relation's rows
/// collapse in a storage aggregate relation, made whenever the relation's
/// slot has none, so "same group" and "better" mean exactly what they
/// mean at the merge; its best row per group is routed when a flush asks
/// for it ([`PartialAgg::route_best`]): after each best-first slice, which
/// keeps the dedup table, so no slice zeroes a fresh one, and when the
/// init phase or an iteration ends, which frees it. Every other row is
/// routed as the sink buffers it. Either way each routed row meets its
/// one check per destination and is copied, as lanes, into its head
/// relation's queue frame for each that passes, and Distribute
/// ([`Worker::distribute`]) merges or sends the frames every
/// [`FLUSH_ROWS`] queued rows: a set row's only collapse is
/// exact-duplicate elimination, which those checks and the idempotent
/// merge already perform, and a `sum`/`count` merge replaces the
/// contributor's previous value (DESIGN.md, "Bounded emission").
struct PartialAgg<'a> {
    plan: &'a PhysicalPlan,
    /// The discriminating function `H`, this worker's id, rows per batch.
    part: Partitioner,
    me: WorkerId,
    batch: usize,
    /// Per head relation, from its first kernel call on.
    heads: Vec<HeadQueue>,
    /// Peer batches to send, `(relation, peer, rows)`, in order per pair.
    full: Vec<(RelId, WorkerId, Frame)>,
    /// Rows in the queue frames and the full batches.
    queued_rows: usize,
    /// Set and `sum`/`count` rows the kernel emitted that
    /// [`PartialAgg::route_emitted`] has not routed yet.
    emitted: Frame,
    /// The funnel: rows handed to the sink, the stored-row lookups made
    /// for them, and the sent-filter's hits and misses.
    head_rows: u64,
    stored_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One head relation's slot in [`PartialAgg`]: its `min`/`max` rows to
/// collapse, its sent-filter and one queue frame per destination worker.
struct HeadQueue {
    rel: RelId,
    best: Option<DerivedRelation>,
    sent: SentFilter,
    frames: Vec<Frame>,
}

impl<'a> PartialAgg<'a> {
    /// An empty accumulator for worker `me` of `part.partitions()`.
    fn new(plan: &'a PhysicalPlan, part: Partitioner, me: WorkerId, batch: usize) -> Self {
        PartialAgg {
            plan,
            part,
            me,
            batch: batch.max(1),
            heads: Vec::new(),
            full: Vec::new(),
            queued_rows: 0,
            emitted: Frame::default(),
            head_rows: 0,
            stored_checks: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The slot of head relation `rel`'s rows, created at its first kernel
    /// call with an empty sent-filter from its store here, `stored`; a
    /// `min`/`max` relation's accumulator is made whenever it has none.
    fn head(&mut self, rel: RelId, stored: &RecStore) -> Head<'a> {
        let decl = self.plan.idb[rel].as_ref().expect("IDB head");
        let at = self.heads.iter().position(|h| h.rel == rel);
        let at = at.unwrap_or_else(|| {
            self.heads.push(HeadQueue {
                rel,
                best: None,
                sent: stored.sent_filter(),
                frames: vec![Frame::default(); self.part.partitions()],
            });
            self.heads.len() - 1
        });
        match decl.kind {
            StorageKind::Agg {
                func: func @ (AggFunc::Min | AggFunc::Max),
                group_cols,
                ..
            } => {
                let new = || DerivedRelation::aggregate(func, group_cols, 0.0, &[]);
                self.heads[at].best.get_or_insert_with(new);
                Head::Collapse(at)
            }
            _ => Head::Queue(at, decl),
        }
    }

    /// The kernel's sink for `head`'s rows, whose store on this worker
    /// is `stored`. A `min`/`max` row merges into its relation's
    /// accumulator. Any other row is buffered, and routed whenever the
    /// buffer holds [`SLICE_ROWS`] rows; the caller routes the rest
    /// ([`PartialAgg::route_emitted`]) once the kernel returns. Every
    /// rule's slices ([`Worker::eval_rule`]) pass this one sink type, so
    /// the kernel is compiled once, and the sink is inlined into it: a
    /// call per head row cost 1-worker `tc-rmat` ~6% of its run time.
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
                    self.route_emitted(head, stored);
                }
            }
        }
    }

    /// Merges a `min`/`max` head row into `heads[at]`'s accumulator. Not
    /// inlined: the kernel inlines the sink, and this merge is rare next
    /// to its walk.
    #[inline(never)]
    fn collapse(&mut self, at: usize, row: Row<'_>) {
        self.head_rows += 1;
        self.heads[at]
            .best
            .as_mut()
            .expect("a min/max head")
            .merge(row);
    }

    /// Routes the rows the sink buffered for `head`, whose store on this
    /// worker is `stored` ([`PartialAgg::route`]). One pass over the
    /// buffer keeps the kernel's loop free of the lookups.
    #[inline(never)]
    fn route_emitted(&mut self, head: Head<'a>, stored: &RecStore) {
        let Head::Queue(at, decl) = head else {
            return;
        };
        let mut emitted = std::mem::take(&mut self.emitted);
        self.head_rows += emitted.len() as u64;
        self.route(at, decl, &emitted, Some(stored));
        emitted.clear();
        self.emitted = emitted;
    }

    /// Routes every `min`/`max` accumulator's best rows
    /// ([`PartialAgg::route`]; an aggregate store has no stored-row
    /// check) from where they lie, then empties the accumulator, freeing
    /// its rows but keeping its dedup table for the next slice; with
    /// `free`, it frees the dedup table before routing, so none of the
    /// table is left when the rows merge.
    fn route_best(&mut self, free: bool) {
        for at in 0..self.heads.len() {
            let head = &mut self.heads[at];
            let Some(mut table) = head.best.take() else {
                continue;
            };
            let decl = self.plan.idb[head.rel].as_ref().expect("IDB head");
            if free {
                self.route(at, decl, &table.into_rows(), None);
            } else {
                self.route(at, decl, table.rows(), None);
                table.clear();
                self.heads[at].best = Some(table);
            }
        }
    }

    /// The one place a head row is routed and checked: queues each of
    /// `rows`, rows of `heads[at]`'s relation `decl` whose store on this
    /// worker is `stored` (if it has one), in the frame of each of its
    /// destinations: the one worker [`owner`] gives it, or, for a broadcast
    /// relation or a row whose routes (§4.3) hash apart, every worker a
    /// route gives it, one copy each. A row whose destinations include
    /// this worker is dropped when `stored` already holds it: it was routed
    /// to every destination when it was first stored, so it would merge as
    /// `Old` everywhere. A row only peers own never meets that check, which
    /// could not succeed: this worker stores only rows routed here. A peer's
    /// copy meets the sent-filter instead, and is dropped when it went to
    /// that peer before; a peer frame is cut off at `batch` rows. On one
    /// worker every row is this worker's, and none is hashed; on more, each
    /// route column is hashed once per row.
    fn route(&mut self, at: usize, decl: &RelDecl, rows: &Frame, stored: Option<&RecStore>) {
        let (part, me, head) = (&self.part, self.me, &mut self.heads[at]);
        let mut owners = Vec::new();
        for row in rows.iter() {
            let one = owner(part, decl, row, &mut owners);
            let lands = |d| decl.broadcast || owners.contains(&d);
            let here = one.map_or_else(|| lands(me), |d| d == me);
            let checked = stored.filter(|_| here).and_then(|s| s.already_stored(row));
            self.stored_checks += checked.is_some() as u64;
            if checked == Some(true) {
                continue;
            }
            let dests = one.map_or(0..part.partitions(), |d| d..d + 1);
            for d in dests.filter(|&d| one.is_some() || lands(d)) {
                let sent = (d != me).then(|| head.sent.already_sent(d, row)).flatten();
                self.cache_hits += (sent == Some(true)) as u64;
                self.cache_misses += (sent == Some(false)) as u64;
                if sent == Some(true) {
                    continue;
                }
                let frame = &mut head.frames[d];
                frame.push(row);
                self.queued_rows += 1;
                if d != me && frame.len() == self.batch {
                    self.full.push((head.rel, d, std::mem::take(frame)));
                }
            }
        }
    }
}

/// What ended when [`Worker::flush`] runs.
#[derive(Clone, Copy)]
enum Flush {
    /// A set or `sum`/`count` slice: the queue goes once [`FLUSH_ROWS`]
    /// rows are buffered, its frames emptied in place.
    Slice,
    /// A best-first slice: the `min`/`max` best rows are routed and the
    /// queue goes, tables and frames emptied in place.
    BestSlice,
    /// The init phase or an iteration, which evaluated this many delta
    /// rows: as `BestSlice`, but each table is freed before its rows merge
    /// and each frame once it is merged or sent.
    End(u64),
}

/// [`PartialAgg::sink`]'s handle on one head relation, taken once per
/// kernel call ([`PartialAgg::head`]).
#[derive(Clone, Copy)]
enum Head<'p> {
    /// A `min`/`max` relation, collapsing in `heads[i]`'s accumulator.
    Collapse(usize),
    /// Any other relation, routed by its declaration and queued in
    /// `heads[i]`'s frames.
    Queue(usize, &'p RelDecl),
}

/// The one worker a row of `decl` goes to under `part` (§5.2.3's `H`):
/// `None` when it goes to several, that is, the relation is broadcast or
/// the row's routes hash to different workers; in the latter case
/// `owners` then holds the worker of every route column, each column
/// hashed once. On one worker it is worker 0, with no hashing. Always
/// inlined: the routing pass calls it for every row.
#[inline(always)]
fn owner(
    part: &Partitioner,
    decl: &RelDecl,
    row: Row<'_>,
    owners: &mut Vec<WorkerId>,
) -> Option<WorkerId> {
    if part.partitions() == 1 {
        return Some(0);
    }
    if decl.broadcast {
        return None;
    }
    // The planner gives every relation a route column.
    let cols = &decl.partition_cols;
    let d = part.of_key(row.key(cols[0]));
    for (i, &c) in cols.iter().enumerate().skip(1) {
        let e = part.of_key(row.key(c));
        if e != d {
            owners.clear();
            owners.extend([d, e]);
            owners.extend(cols[i + 1..].iter().map(|&c| part.of_key(row.key(c))));
            return None;
        }
    }
    Some(d)
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
    /// evaluated best-first, that is, it is a `min`/`max` relation that
    /// some delta rule consumes and every delta rule consuming it is
    /// linear; `None` otherwise.
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
        let rules = plan.strata.iter().flat_map(|s| &s.delta_rules);
        let mut consumers = rules
            .filter(|r| matches!(&r.delta, Some(d) if d.rel == rel))
            .peekable();
        (consumers.peek().is_some() && consumers.all(|r| r.is_linear())).then(|| BestFirst {
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

/// `read[rel][route]` for every IDB relation of `plan`: whether some
/// delta rule reads `rel`'s rows on `route` (§4.3).
fn read_routes(plan: &PhysicalPlan) -> Vec<Vec<bool>> {
    let routes = |d: &Option<RelDecl>| d.as_ref().map_or(0, |d| d.partition_cols.len().max(1));
    let mut read: Vec<Vec<bool>> = plan.idb.iter().map(|d| vec![false; routes(d)]).collect();
    for rule in plan.strata.iter().flat_map(|s| &s.delta_rules) {
        let d = rule.delta.as_ref().expect("delta rule");
        read[d.rel][d.route] = true;
    }
    read
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
    /// The head rows not yet distributed, and the sink's counters.
    acc: PartialAgg<'a>,
    /// `best_first[rel]`: relation `rel`'s order when it is evaluated
    /// best-first.
    best_first: Vec<Option<BestFirst>>,
    /// `read[rel][route]`: whether some delta rule reads relation `rel`
    /// on `route`; a merged id is queued only for such a route.
    read: Vec<Vec<bool>>,
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
            acc: PartialAgg::new(plan, coord.part, me, cfg.batch_size),
            best_first: (0..plan.idb.len())
                .map(|rel| BestFirst::of(plan, rel))
                .collect(),
            read: read_routes(plan),
            rec: Recorder::new(coord.epoch, cfg.trace.then_some(cfg.trace_capacity)),
            store,
            si: 0,
            delta: Vec::new(),
            dws: None,
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
        // The kernel's probe counters and the router's funnel, reported.
        let (m, acc) = (&mut self.rec.counters, &self.acc);
        m.probe_hits += self.scratch.probe_hits;
        m.probe_reuse += self.scratch.probe_reuse;
        m.head_rows += acc.head_rows;
        m.stored_checks += acc.stored_checks;
        m.cache_hits += acc.cache_hits;
        m.cache_misses += acc.cache_misses;
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
        let plan = self.plan;
        let stratum = &plan.strata[si];
        for rule in &stratum.init_rules {
            self.eval_rule(rule, &[])?;
        }
        if self.me == 0 {
            for (rel, t) in &plan.facts {
                if stratum.rels.contains(rel) {
                    let stored = self.store.rec(*rel);
                    let head = self.acc.head(*rel, stored);
                    self.acc.sink(head, stored)(t.row());
                    self.acc.route_emitted(head, stored);
                }
            }
        }
        self.flush(Flush::End(0))?;
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

    /// The one loop in which a worker waits, timed as one `phase` span
    /// (nested when it is `Backpressure`):
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
        if phase == Phase::Backpressure {
            self.rec.close_since(phase, t, 0, 0, 0);
        } else {
            self.rec.close(phase, 0, 0, 0);
        }
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
                let outcome = sc.termination.idle_wait(|| self.endpoints.has_inbound());
                self.rec.close(Phase::Idle, 0, 0, 0);
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
    /// partial aggregation"). Each variant runs in slices
    /// ([`Worker::eval_rule`]), so later slices probe stores a flush may
    /// have grown (monotone rules only derive more from them). Their
    /// `min`/`max` rows are routed and distributed once, by the
    /// [`Worker::flush`] that ends the iteration.
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
        for group in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            self.eval_group(group)?;
        }
        self.eval_best_first()?;
        let evaluated = self.rec.counters.tuples_processed - before;
        self.flush(Flush::End(evaluated))?;
        Ok(evaluated)
    }

    /// Iterate's best-first part: evaluates the orders one slice at a time
    /// until they are empty, distributing each slice; the ids its merges
    /// improve join the orders as they merge.
    fn eval_best_first(&mut self) -> Result<()> {
        let mut slice = Vec::new();
        while self.next_slice(&mut slice) {
            self.coord.check_deadline()?;
            self.eval_group(&slice)?;
            self.flush(Flush::BestSlice)?;
            if self.endpoints.has_inbound() {
                self.gather();
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
    /// `(rel, route)` over it ([`Worker::eval_rule`]), counting the group
    /// as a kernel batch per rule.
    fn eval_group(&mut self, group: &[DeltaRow]) -> Result<()> {
        let plan = self.plan;
        let (rel, route) = (group[0].0, group[0].1);
        self.rec.counters.tuples_processed += group.len() as u64;
        for rule in &plan.strata[self.si].delta_rules {
            let spec = rule.delta.as_ref().expect("delta rule");
            if spec.rel != rel || spec.route != route as usize {
                continue;
            }
            self.eval_rule(rule, group)?;
            let m = &mut self.rec.counters;
            m.kernel_batches += 1;
            m.kernel_rows += group.len() as u64;
        }
        Ok(())
    }

    /// The one slice loop every rule runs through, [`SLICE_ROWS`] at a
    /// time: a delta rule over the order [`Evaluator::sort_batch`] gives
    /// `group`, an init rule over its rows ([`Evaluator::init_rows`]). Each
    /// slice feeds the accumulator's sink ([`PartialAgg::sink`]), routes
    /// what it buffered and offers the queue to [`Worker::flush`].
    fn eval_rule(&mut self, rule: &CompiledRule, group: &[DeltaRow]) -> Result<()> {
        let ev = self.evaluator;
        let head = self.acc.head(rule.head_rel, self.store.rec(rule.head_rel));
        let n = match rule.delta {
            Some(_) => ev.sort_batch(rule, &self.store, group, &mut self.scratch),
            None => ev.init_rows(rule, &self.store),
        };
        for lo in (0..n).step_by(SLICE_ROWS) {
            let slice = lo..n.min(lo + SLICE_ROWS);
            let (store, stored) = (&self.store, self.store.rec(rule.head_rel));
            let mut sink = self.acc.sink(head, stored);
            match rule.delta {
                Some(_) => ev.eval_sorted(rule, store, group, slice, &mut self.scratch, &mut sink),
                None => ev.eval_init(rule, store, slice, &mut sink),
            }
            drop(sink);
            self.acc.route_emitted(head, stored);
            self.flush(Flush::Slice)?;
        }
        Ok(())
    }

    /// The one hand-off to Distribute, when a slice or a phase ends
    /// ([`Flush`]): closes the open `EvalDelta` span, which a slice's flush
    /// splits, and distributes the accumulator's queued rows.
    fn flush(&mut self, ended: Flush) -> Result<()> {
        let (rows, free) = match ended {
            Flush::Slice if self.acc.queued_rows < FLUSH_ROWS => return Ok(()),
            Flush::Slice | Flush::BestSlice => (0, false),
            Flush::End(rows) => (rows, true),
        };
        if !matches!(ended, Flush::Slice) {
            self.acc.route_best(free);
        }
        self.rec.close(Phase::EvalDelta, rows, 0, 0);
        self.distribute(free)
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

    /// Distribute: walks the accumulator's queue frames, each holding rows
    /// of one head relation that were routed to one destination, and met
    /// its check, when they were queued ([`PartialAgg::route`]). This
    /// worker's merge here, feeding the next delta immediately, each taken
    /// out of its slot meanwhile: with `free` it is then freed, otherwise
    /// emptied and put back, keeping its capacity. Then every peer batch
    /// goes as it is, the full ones of a (relation, peer) before its last.
    /// Adds the rows merged here and sent to [`Worker::produced`].
    fn distribute(&mut self, free: bool) -> Result<()> {
        debug_assert!(self.acc.emitted.is_empty(), "emitted rows left unrouted");
        let sent_before = self.rec.counters.tuples_sent;
        let mut local_new = 0u64;
        for at in 0..self.acc.heads.len() {
            let rel = self.acc.heads[at].rel;
            for dest in 0..self.cfg.workers {
                let mut rows = std::mem::take(&mut self.acc.heads[at].frames[dest]);
                if dest != self.me {
                    if !rows.is_empty() {
                        self.acc.full.push((rel, dest, rows));
                    }
                    continue;
                }
                for row in rows.iter() {
                    local_new += self.merge_local(rel, row);
                }
                if !free {
                    rows.clear();
                    self.acc.heads[at].frames[dest] = rows;
                }
            }
        }
        for (rel, dest, frame) in std::mem::take(&mut self.acc.full) {
            self.send(dest, rel, frame)?;
        }
        self.acc.queued_rows = 0;
        let remote_sent = self.rec.counters.tuples_sent - sent_before;
        self.rec.counters.local_new += local_new;
        self.produced += local_new + remote_sent;
        self.rec.close(Phase::Distribute, local_new, remote_sent, 0);
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

    /// Merges one merge-layout row into the local store; on success,
    /// queues the stored row's id once for every route of the relation
    /// that maps here and that some delta rule reads: into the relation's
    /// order at its stored value when it is evaluated best-first, into the
    /// delta otherwise.
    fn merge_local(&mut self, rel: RelId, row: Row<'_>) -> u64 {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        let Merged::New(id) = self.store.rec_mut(rel).merge_row(row) else {
            return 0;
        };
        for route in 0..decl.partition_cols.len().max(1) {
            if !self.read[rel][route] {
                continue;
            }
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
        self.drain_into(true);
        self.rec.close(Phase::Gather, 0, 0, 0);
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
            self.rec.close_since(Phase::Merge, tm, batches, new, 0);
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
        PartialAgg::new(p, Partitioner::new(1), 0, 64)
    }

    /// Offers `row` of `rel` to `acc` against an empty store.
    fn push(acc: &mut PartialAgg<'_>, rel: RelId, row: &Tuple) {
        let empty = RecStore::new(acc.plan, rel, true, 64);
        let head = acc.head(rel, &empty);
        acc.sink(head, &empty)(row.row());
        acc.route_emitted(head, &empty);
    }

    /// Every frame queued in `acc`, full batches first, as `(relation,
    /// destination, frame)`.
    fn frames<'f>(acc: &'f PartialAgg<'_>) -> impl Iterator<Item = (RelId, WorkerId, &'f Frame)> {
        let full = acc.full.iter().map(|(rel, d, f)| (*rel, *d, f));
        let slots = acc.heads.iter().flat_map(|h| {
            let dests = h.frames.iter().enumerate();
            dests.map(move |(d, f)| (h.rel, d, f))
        });
        full.chain(slots)
    }

    /// `(relation, destination, row)` for every row queued in `acc`,
    /// decoded.
    fn queued(acc: &PartialAgg<'_>) -> Vec<(RelId, WorkerId, Tuple)> {
        let rows =
            frames(acc).flat_map(|(rel, d, f)| f.iter().map(move |r| (rel, d, r.to_tuple())));
        rows.collect()
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
            assert!(queued(&acc).is_empty(), "collapsed until flushed");
            acc.route_best(false);
            let mut got: Vec<Tuple> = queued(&acc)
                .into_iter()
                .map(|(r, d, t)| {
                    assert_eq!((r, d), (rel, 0));
                    t
                })
                .collect();
            got.sort();
            assert_eq!(got, rows(&want), "{name}");
            // A flushed accumulator starts over: a row worse than the
            // flushed best is new again.
            for row in rows(&[[1, 20], [3, 4]]) {
                push(&mut acc, rel, &row);
            }
            acc.route_best(true);
            assert!(acc.heads[0].best.is_none(), "freed at the end of a phase");
            // The next phase's first row makes a new one.
            push(&mut acc, rel, &Tuple::from_ints(&[1, 30]));
            acc.route_best(false);
            let mut got: Vec<Tuple> = queued(&acc).into_iter().map(|(.., t)| t).collect();
            got.sort();
            let mut again = [want.as_slice(), &[[1, 20], [1, 30], [3, 4]]].concat();
            again.sort();
            assert_eq!(got, rows(&again), "{name}");
        }
    }

    #[test]
    fn partial_agg_routes_best_rows_to_their_owners_when_flushed() {
        let part = Partitioner::new(2);
        let owned_by = |w: WorkerId| (0..).find(move |&k| part.of_key(k as u64) == w).unwrap();
        let (a, b) = (owned_by(0), owned_by(1));
        // CC's `cc2` routes on its group column; APSP's `path` on both of
        // its group columns, so a row whose columns hash apart goes to
        // both workers.
        for (src, name, pushed, want) in [
            (
                crate::queries::CC,
                "cc2",
                vec![vec![a, 9], vec![a, 4], vec![b, 6]],
                vec![(0, vec![a, 4]), (1, vec![b, 6])],
            ),
            (
                crate::queries::APSP,
                "path",
                vec![vec![a, a, 5], vec![a, b, 7], vec![a, b, 3], vec![b, b, 1]],
                vec![
                    (0, vec![a, a, 5]),
                    (0, vec![a, b, 3]),
                    (1, vec![a, b, 3]),
                    (1, vec![b, b, 1]),
                ],
            ),
        ] {
            let p = plan_of(src);
            let rel = p.rel_by_name(name).unwrap();
            let mut acc = PartialAgg::new(&p, part, 0, 64);
            for row in &pushed {
                push(&mut acc, rel, &Tuple::from_ints(row));
            }
            assert_eq!(acc.head_rows, pushed.len() as u64, "{name}");
            acc.route_best(false);
            assert!(acc.heads[0].best.as_ref().unwrap().rows().is_empty());
            let mut want: Vec<(WorkerId, Tuple)> = want
                .iter()
                .map(|(d, r)| (*d, Tuple::from_ints(r)))
                .collect();
            want.sort();
            assert_eq!(acc.queued_rows, want.len(), "{name}");
            let mut got: Vec<(WorkerId, Tuple)> =
                queued(&acc).into_iter().map(|(_, d, t)| (d, t)).collect();
            got.sort();
            assert_eq!(got, want, "{name}");
            assert_eq!(acc.stored_checks, 0, "an aggregate has no stored check");
        }
    }

    #[test]
    fn partial_agg_passes_set_rows_through() {
        // Set rows are NOT collapsed here: exact-duplicate elimination is
        // left to the stored-row check, the sent-filter and the idempotent
        // merge, so the accumulator must forward every row without hashing
        // it (on one worker with an empty store, every row is queued).
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut acc = sink(&p);
        for _ in 0..5 {
            push(&mut acc, tc, &Tuple::from_ints(&[1, 2]));
        }
        push(&mut acc, tc, &Tuple::from_ints(&[1, 3]));
        assert_eq!(acc.queued_rows, 6);
        assert_eq!(queued(&acc).len(), 6);
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
        let got: Vec<(RelId, Tuple)> = queued(&acc).into_iter().map(|(r, _, t)| (r, t)).collect();
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
        let c = (b + 1..).find(|&k| part.of_key(k as u64) == 1).unwrap();
        // `(row, destinations, stored)`. Linear TC routes on column 1;
        // non-linear TC also on column 0, so a row whose columns hash apart
        // goes to both workers.
        for (src, legs) in [
            (
                crate::queries::TC,
                vec![
                    ([7, a], vec![0], true),
                    ([8, a], vec![0], false),
                    ([7, b], vec![1], true),
                    ([8, b], vec![1], false),
                    ([9, c], vec![1], false),
                ],
            ),
            (
                "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), tc(Z, Y).",
                vec![
                    ([a, a], vec![0], true),
                    ([b, a], vec![0, 1], true),
                    ([a, b], vec![0, 1], false),
                    ([b, b], vec![1], true),
                ],
            ),
        ] {
            let p = plan_of(src);
            let tc = p.rel_by_name("tc").unwrap();
            // Worker 0's store holds every row marked stored, even those it
            // cannot own, so only a lookup the sink makes can drop one.
            let mut store = RecStore::new(&p, tc, true, 64);
            for (row, ..) in legs.iter().filter(|(.., stored)| *stored) {
                store.merge(&Tuple::from_ints(row));
            }
            // Batches of 2 rows, each leg routed twice.
            let mut acc = PartialAgg::new(&p, part, 0, 2);
            let route_all = |acc: &mut PartialAgg<'_>| {
                for (row, ..) in &legs {
                    let head = acc.head(tc, &store);
                    acc.sink(head, &store)(Tuple::from_ints(row).row());
                    acc.route_emitted(head, &store);
                }
            };
            route_all(&mut acc);
            let here = |dests: &Vec<WorkerId>| dests.contains(&0);
            let checked = legs.iter().filter(|(_, dests, _)| here(dests)).count();
            let routed = legs
                .iter()
                .filter(|(_, dests, stored)| !(here(dests) && *stored));
            let to_peer = routed
                .clone()
                .filter(|(_, dests, _)| dests.contains(&1))
                .count();
            assert_eq!(acc.head_rows, legs.len() as u64, "{src}");
            assert_eq!(acc.stored_checks, checked as u64, "{src}");
            assert_eq!(
                (acc.cache_hits, acc.cache_misses),
                (0, to_peer as u64),
                "the filter once per peer: {src}"
            );
            let mut got: Vec<(WorkerId, Tuple)> =
                queued(&acc).into_iter().map(|(_, d, t)| (d, t)).collect();
            got.sort();
            let mut want: Vec<(WorkerId, Tuple)> = routed
                .flat_map(|(row, dests, _)| dests.iter().map(|&d| (d, Tuple::from_ints(row))))
                .collect();
            want.sort();
            assert_eq!(
                got, want,
                "one copy per destination, unless stored here: {src}"
            );
            // Routed again, a row bound for the peer hits the sent-filter
            // and is not queued again; the rows for this worker still are,
            // as the store never merged them.
            route_all(&mut acc);
            assert_eq!(acc.stored_checks, 2 * checked as u64, "{src}");
            assert_eq!(
                (acc.cache_hits, acc.cache_misses),
                (to_peer as u64, to_peer as u64),
                "{src}"
            );
            let peer = queued(&acc).into_iter().filter(|(_, d, _)| *d == 1);
            assert_eq!(peer.count(), to_peer, "a sent row is queued once: {src}");
            assert!(
                frames(&acc).all(|(_, d, f)| d == 0 || f.len() <= 2),
                "peer batches are cut at batch_size: {src}"
            );
            assert_eq!(acc.queued_rows, queued(&acc).len(), "{src}");
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
    fn a_slice_flush_keeps_the_buffers_and_the_end_of_an_iteration_frees_them() {
        let p = plan_of(
            "sp(To, min<C>) <- src(To, C).
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
        );
        let cfg = EngineConfig::with_workers(1);
        let coord = Coordination::new(&p, &cfg);
        let warc = [[1, 2, 5], [2, 3, 1]]
            .map(|r| Tuple::from_ints(&r))
            .to_vec();
        let mut w = one_worker(&p, &cfg, &coord, &[("warc", warc)]);
        let sp = p.rel_by_name("sp").unwrap();
        assert_eq!(w.merge_local(sp, Tuple::from_ints(&[1, 0]).row()), 1);
        let mut slice = Vec::new();
        assert!(w.next_slice(&mut slice));
        w.eval_group(&slice).unwrap();
        w.flush(Flush::BestSlice).unwrap();
        let head = &w.acc.heads[0];
        assert!(
            head.best.as_ref().unwrap().rows().is_empty(),
            "emptied in place"
        );
        assert!(
            head.frames
                .iter()
                .all(|f| f.is_empty() && f.resident_bytes() > 0),
            "emptied in place, keeping their capacity"
        );
        assert_eq!(w.pending(), 1, "(2, 5) merged and queued");
        w.iterate().unwrap();
        for head in &w.acc.heads {
            assert!(head.best.is_none(), "no min/max table held");
            assert!(
                head.frames.iter().all(|f| f.resident_bytes() == 0),
                "frames freed"
            );
        }
        let mut got: Vec<Tuple> = w
            .store
            .rec(sp)
            .rows()
            .iter()
            .map(|r| r.to_tuple())
            .collect();
        got.sort();
        assert_eq!(got, rows(&[[1, 0], [2, 5], [3, 6]]));
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
            // No delta rule reads these, so their ids are not queued.
            (crate::queries::CC, "cc", false),
            (crate::queries::APSP, "apsp", false),
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
    fn ids_no_delta_rule_reads_are_not_queued() {
        // `best` (a `min`) and `out` (a set) are read by no delta rule.
        let p = plan_of(
            "sp(To, min<C>) <- src(To, C).
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
             best(To, min<C>) <- sp(To, C).
             out(To) <- sp(To, _).",
        );
        let cfg = EngineConfig::with_workers(1);
        let coord = Coordination::new(&p, &cfg);
        let mut w = one_worker(&p, &cfg, &coord, &[]);
        let rel = |name| p.rel_by_name(name).unwrap();
        assert!(w.best_first[rel("best")].is_none());
        assert_eq!(
            w.merge_local(rel("best"), Tuple::from_ints(&[1, 5]).row()),
            1
        );
        assert_eq!(w.merge_local(rel("out"), Tuple::from_ints(&[1]).row()), 1);
        assert_eq!(w.pending(), 0, "merged, but queued nowhere");
        assert_eq!(w.merge_local(rel("sp"), Tuple::from_ints(&[1, 5]).row()), 1);
        assert_eq!(w.pending(), 1);
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
