//! The rule interpreter: executes [`CompiledRule`] register machines
//! against a worker's local store.
//!
//! Every rule runs one walk: a prelude (the delta row's binds when there
//! is one, then pre-assignments and pre-filters), then the join chain of
//! index probes and nested-loop scans, applying assignments and filters at
//! their compiled levels and emitting one merge-layout head row per
//! complete binding. A constant rule has no chain and runs on worker 0.
//! An init rule's leading scan visits each row on one worker only, so no
//! derivation is duplicated: a replicated base relation is strided across
//! workers, and a broadcast derived relation (every row on every worker)
//! is read only where each row is owned, `H(row[partition_cols[0]]) == me`.
//! An init rule runs over a range of its leading scan's rows
//! ([`Evaluator::init_rows`]), so the worker evaluates it in slices, as it
//! does a delta group; a rule that opens with an index probe, or has no
//! atom, is one slice.
//!
//! Rows are read and written as `u64` lanes ([`Row`] views of the stores'
//! [`Frame`]s). Registers are [`Value`]s: a bind reads a cell straight
//! from its lane, and the kernel writes each head row's lanes into one
//! reusable one-row frame that it hands to the sink, so no `Tuple` is
//! built on the way from a rule to the store.
//!
//! A delta entry ([`DeltaRow`]) names its row by id in the worker's own
//! derived store rather than carrying a copy, so each derived row is
//! stored once. The kernel resolves the id when it reads the row, and an
//! aggregate group's id always reads the group's newest value.
//!
//! The engine runs the *batched* kernel: one `(rel, route)` group of delta
//! rows against one rule, with one persistent register file, in two passes
//! so the worker can flush head rows between slices. Pass 1
//! ([`Evaluator::sort_batch`]) orders the group by first-probe key when
//! the rule opens with an index probe; pass 2 ([`Evaluator::eval_sorted`])
//! runs the walk over a range of that order with a memo of the first
//! probe's last bucket, so runs of equal keys descend the index once
//! (probe memoization). [`Evaluator::eval_delta`], the walk for one row,
//! is the reference the differential tests pin the kernel against.

use crate::store::WorkerStore;
use dcd_common::{Frame, Partitioner, Row, Value, WorkerId};
use dcd_frontend::physical::{
    BindAction, CompiledRule, PhysicalPlan, Placement, Probe, RelId, Step, Target,
};
use std::ops::Range;

/// A pending delta row: `(relation, route, row id)`, the id indexing the
/// relation's rows in this worker's store.
pub type DeltaRow = (RelId, u8, u32);

/// Applies a bind list to `row`, updating `regs`; returns `false` when a
/// check fails (candidate rejected).
#[inline]
fn apply_binds(row: Row<'_>, binds: &[BindAction], regs: &mut [Value]) -> bool {
    debug_assert_eq!(row.arity(), binds.len(), "arity mismatch");
    for (c, b) in binds.iter().enumerate() {
        match b {
            BindAction::Bind(r) => regs[*r as usize] = row.get(c),
            BindAction::Check(r) => {
                if regs[*r as usize] != row.get(c) {
                    return false;
                }
            }
            BindAction::CheckConst(v) => {
                if row.get(c) != *v {
                    return false;
                }
            }
            BindAction::Skip => {}
        }
    }
    true
}

/// The stored rows of `rule`'s delta relation, which its delta ids index.
#[inline]
fn delta_rows<'s>(rule: &CompiledRule, store: &'s WorkerStore) -> &'s Frame {
    store
        .rec(rule.delta.as_ref().expect("delta rule").rel)
        .rows()
}

/// Applies a step's assignments then filters.
#[inline]
fn apply_level(step: &Step, regs: &mut [Value]) -> bool {
    for a in &step.assigns {
        regs[a.reg as usize] = a.expr.eval(regs);
    }
    step.filters.iter().all(|f| f.eval(regs))
}

/// The prelude every rule runs before its join chain: binds `delta_row`
/// (a delta rule's) into registers, then applies the rule's
/// pre-assignments and pre-filters. Returns `false` when the row is
/// rejected before the chain starts.
#[inline]
fn prelude(rule: &CompiledRule, delta_row: Option<Row<'_>>, regs: &mut [Value]) -> bool {
    if let Some(row) = delta_row {
        let spec = rule.delta.as_ref().expect("delta rule");
        if !apply_binds(row, &spec.binds, regs) {
            return false;
        }
    }
    for a in &rule.pre_assigns {
        regs[a.reg as usize] = a.expr.eval(regs);
    }
    rule.pre_filters.iter().all(|f| f.eval(regs))
}

/// What the walk keeps across the rows of one call: the store it reads,
/// the rows of an init rule's leading scan it visits, the one-row frame
/// each head row is written into, and the first probe's memo, that is,
/// the key the first probe last looked up, that key's bucket, and how
/// often it descended the index (`hits`) or reused the bucket (`reuse`).
/// The store is immutable while a `Walk` lives, so the bucket borrow
/// stays valid across rows.
struct Walk<'s> {
    store: &'s WorkerStore,
    scan: Range<usize>,
    head: Frame,
    last: Option<(u64, &'s [u32])>,
    hits: u64,
    reuse: u64,
}

impl<'s> Walk<'s> {
    fn new(store: &'s WorkerStore) -> Self {
        Walk {
            store,
            scan: 0..usize::MAX,
            head: Frame::default(),
            last: None,
            hits: 0,
            reuse: 0,
        }
    }
}

/// Reusable per-worker evaluation state for the batched kernel: one
/// register file (resized per rule, never reallocated per row), the
/// first-probe sort buffer, and the probe-memoization counters. A worker allocates one of these and
/// threads it through every [`Evaluator::sort_batch`] and
/// [`Evaluator::eval_sorted`] call, so the steady-state hot loop performs
/// zero allocations per delta row.
#[derive(Default)]
pub struct EvalScratch {
    regs: Vec<Value>,
    /// `(first-probe key, batch row index)` pairs, sorted to cluster rows
    /// that probe the same key.
    order: Vec<(u64, u32)>,
    /// Index descents performed by batched first probes.
    pub probe_hits: u64,
    /// Batched first probes answered by reusing the previous row's bucket.
    pub probe_reuse: u64,
}

/// Evaluation context shared by one worker.
#[derive(Clone, Copy)]
pub struct Evaluator<'a> {
    /// The plan.
    pub plan: &'a PhysicalPlan,
    /// This worker.
    pub me: WorkerId,
    /// Total workers (for strided scans).
    pub workers: usize,
}

impl Evaluator<'_> {
    /// Runs a delta rule for one delta row, appending merge-layout head
    /// rows to `out`. Returns the number of rows emitted. The engine
    /// always runs the batched kernel ([`Evaluator::sort_batch`], then
    /// [`Evaluator::eval_sorted`]); this row-at-a-time path is the
    /// reference the kernel's tests compare against.
    pub fn eval_delta(
        &self,
        rule: &CompiledRule,
        store: &WorkerStore,
        delta_row: Row<'_>,
        out: &mut Frame,
    ) -> usize {
        let mut regs = vec![Value::Int(0); rule.nregs];
        let before = out.len();
        if prelude(rule, Some(delta_row), &mut regs) {
            let mut walk = Walk::new(store);
            self.run_steps(rule, &mut walk, 0, &mut regs, &mut |r| out.push(r));
        }
        out.len() - before
    }

    /// Pass 1 of the kernel: fills `scratch`'s visiting order for `batch`
    /// (whose ids index `store`'s rows of the rule's delta relation) and
    /// returns its length. When the rule opens with an index probe, only
    /// rows that pass the prelude are kept, sorted by their first-probe
    /// key (stably, preserving batch order within a key) so that rows
    /// probing one key are visited in a run. Otherwise every row is kept,
    /// in batch order. The key only orders the rows: pass 2 computes each
    /// row's key again.
    pub fn sort_batch(
        &self,
        rule: &CompiledRule,
        store: &WorkerStore,
        batch: &[DeltaRow],
        scratch: &mut EvalScratch,
    ) -> usize {
        let EvalScratch { regs, order, .. } = scratch;
        regs.clear();
        regs.resize(rule.nregs, Value::Int(0));
        order.clear();
        let Some(Step {
            probe: Probe::Index { key, .. },
            ..
        }) = rule.steps.first()
        else {
            order.extend((0..batch.len() as u32).map(|i| (0, i)));
            return order.len();
        };
        let rows = delta_rows(rule, store);
        for (i, &(_, _, id)) in batch.iter().enumerate() {
            if prelude(rule, Some(rows.row(id as usize)), regs) {
                order.push((key.eval(regs).key_bits(), i as u32));
            }
        }
        order.sort_by_key(|&(k, _)| k);
        order.len()
    }

    /// Pass 2 of the kernel over `range` of the order
    /// [`Evaluator::sort_batch`] left in `scratch` for `batch`: the
    /// prelude, then the walk, for each row. The register file lives in
    /// `scratch`, so the per-row cost is pure binding work, and the rows
    /// share one first-probe memo, so a run of equal keys descends the
    /// index once (`scratch` counts descents as `probe_hits` and reuses as
    /// `probe_reuse`). Delta rows and probe targets are fetched from
    /// `store` on every call, so `store` may grow between slices, and a
    /// stored aggregate row a flush changed between the passes is read at
    /// its newest value: the prelude runs again and the first probe's key
    /// is computed again (DESIGN.md, the `sort_batch` bullet, says why
    /// that derives exactly what the newest value derives).
    pub fn eval_sorted(
        &self,
        rule: &CompiledRule,
        store: &WorkerStore,
        batch: &[DeltaRow],
        range: Range<usize>,
        scratch: &mut EvalScratch,
        sink: &mut impl FnMut(Row<'_>),
    ) {
        let EvalScratch {
            regs,
            order,
            probe_hits,
            probe_reuse,
        } = scratch;
        let delta = delta_rows(rule, store);
        let mut walk = Walk::new(store);
        for &(_, i) in &order[range] {
            let row = delta.row(batch[i as usize].2 as usize);
            if prelude(rule, Some(row), regs) {
                self.run_steps(rule, &mut walk, 0, regs, sink);
            }
        }
        *probe_hits += walk.hits;
        *probe_reuse += walk.reuse;
    }

    /// The rows an init rule's slices cover: its leading scan's rows; one,
    /// standing for the whole rule, when it opens with an index probe; and
    /// for a constant rule (`sp(To, min<C>) <- To = start, C = 0.`), which
    /// derives the same row everywhere, one on worker 0 and none elsewhere.
    pub fn init_rows(&self, rule: &CompiledRule, store: &WorkerStore) -> usize {
        match rule.steps.first() {
            Some(s) if matches!(s.probe, Probe::Scan) => store.relation(s.target).rows().len(),
            Some(_) => 1,
            None => (self.me == 0) as usize,
        }
    }

    /// Runs an initialization rule over `range` of its rows
    /// ([`Evaluator::init_rows`]), feeding merge-layout head rows to
    /// `sink`. Consecutive ranges emit, in order, exactly the rows one
    /// call over all of them emits.
    pub fn eval_init(
        &self,
        rule: &CompiledRule,
        store: &WorkerStore,
        range: Range<usize>,
        sink: &mut impl FnMut(Row<'_>),
    ) {
        debug_assert!(rule.delta.is_none());
        let scan = range.start..range.end.min(self.init_rows(rule, store));
        if scan.is_empty() {
            return;
        }
        let mut regs = vec![Value::Int(0); rule.nregs];
        if prelude(rule, None, &mut regs) {
            let mut walk = Walk::new(store);
            walk.scan = scan;
            self.run_steps(rule, &mut walk, 0, &mut regs, sink);
        }
    }

    /// Whether an init rule's leading scan of `target` visits its row
    /// `i`, `row`, on this worker (see the module docs): each row is
    /// visited on exactly one worker.
    #[inline]
    fn visits(&self, target: Target, i: usize, row: Row<'_>) -> bool {
        match target {
            Target::Edb(rel) => {
                let placement = self.plan.edb[rel].as_ref().map(|d| d.placement);
                placement != Some(Placement::Replicated) || i % self.workers == self.me
            }
            Target::Idb { rel, .. } => match self.plan.idb[rel].as_ref() {
                Some(d) if d.broadcast => {
                    Partitioner::new(self.workers).of_key(row.key(d.partition_cols[0])) == self.me
                }
                _ => true,
            },
        }
    }

    /// The walk: the join chain from step `k` on, over the registers the
    /// prelude and steps `..k` bound, writing each complete binding's head
    /// row into `walk`'s one-row frame and handing it to `sink`. The only
    /// code that iterates a probe bucket or a scan. Step 0's index probe
    /// goes through `walk`'s memo.
    fn run_steps<'s>(
        &self,
        rule: &CompiledRule,
        walk: &mut Walk<'s>,
        k: usize,
        regs: &mut [Value],
        sink: &mut impl FnMut(Row<'_>),
    ) {
        if k == rule.steps.len() {
            walk.head.clear();
            walk.head
                .push_values(rule.head_exprs.iter().map(|e| e.eval(regs)));
            sink(walk.head.row(0));
            return;
        }
        let step = &rule.steps[k];
        // The store is immutable while a slice of the kernel runs (derived
        // rows are buffered and merged between slices), so rows are
        // borrowed straight from the target relation; binds re-verify the
        // probe column exactly.
        let target = walk.store.relation(step.target);
        let rows = target.rows();
        match &step.probe {
            Probe::Index { col, key } => {
                let key_bits = key.eval(regs).key_bits();
                let ids = match walk.last {
                    Some((last, ids)) if k == 0 && last == key_bits => {
                        walk.reuse += 1;
                        ids
                    }
                    _ if k == 0 => {
                        walk.hits += 1;
                        let ids = target.probe_ids(*col, key_bits);
                        walk.last = Some((key_bits, ids));
                        ids
                    }
                    _ => target.probe_ids(*col, key_bits),
                };
                for &id in ids {
                    let row = rows.row(id as usize);
                    if apply_binds(row, &step.binds, regs) && apply_level(step, regs) {
                        self.run_steps(rule, walk, k + 1, regs, sink);
                    }
                }
            }
            Probe::Scan => {
                let leading = k == 0 && rule.delta.is_none();
                let scan = if leading {
                    walk.scan.start..walk.scan.end.min(rows.len())
                } else {
                    0..rows.len()
                };
                for i in scan {
                    let row = rows.row(i);
                    if leading && !self.visits(step.target, i, row) {
                        continue;
                    }
                    if apply_binds(row, &step.binds, regs) && apply_level(step, regs) {
                        self.run_steps(rule, walk, k + 1, regs, sink);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Merged, WorkerStore};
    use dcd_common::{Partitioner, Tuple};

    /// Runs init rule `rule` over all its rows, decoding its head rows.
    fn run_init(ev: &Evaluator, rule: &CompiledRule, store: &WorkerStore, out: &mut Vec<Tuple>) {
        let rows = 0..ev.init_rows(rule, store);
        ev.eval_init(rule, store, rows, &mut |r| out.push(r.to_tuple()));
    }

    /// Runs delta rule `rule` for `row`, decoding its head rows.
    fn delta_of(
        ev: &Evaluator,
        rule: &CompiledRule,
        store: &WorkerStore,
        row: &Tuple,
        out: &mut Vec<Tuple>,
    ) {
        let mut heads = Frame::default();
        ev.eval_delta(rule, store, row.row(), &mut heads);
        out.extend(heads.iter().map(|r| r.to_tuple()));
    }
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn build(src: &str, edb: &[(&str, Vec<Tuple>)]) -> (PhysicalPlan, WorkerStore) {
        let a = analyze(parse_program(src).unwrap()).unwrap();
        let p = plan(&a, &PlannerConfig::default()).unwrap();
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        for (name, rows) in edb {
            let id = p.rel_by_name(name).unwrap();
            data[id] = Some(rows.clone());
        }
        let catalog = crate::catalog::EdbCatalog::build(&p, &data, &Partitioner::new(1));
        let store = WorkerStore::build(&p, &catalog, 0, true, 64);
        (p, store)
    }

    #[test]
    fn tc_single_worker_one_iteration() {
        let (p, mut store) = build(
            "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).",
            &[(
                "arc",
                vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[2, 3])],
            )],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let tc = p.rel_by_name("tc").unwrap();
        // Init: tc := arc.
        let mut out = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut out);
        }
        assert_eq!(out.len(), 2);
        let mut delta = Vec::new();
        for row in &out {
            if let Merged::New(id) = store.rec_mut(tc).merge(row) {
                delta.push(store.rec(tc).rows().row(id as usize).to_tuple());
            }
        }
        // One delta step: (1,2) ⋈ arc → (1,3).
        let mut out2 = Vec::new();
        for d in &delta {
            for r in &p.strata[0].delta_rules {
                delta_of(&ev, r, &store, d, &mut out2);
            }
        }
        assert!(out2.contains(&Tuple::from_ints(&[1, 3])));
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn constraints_filter_during_join() {
        let (p, store) = build(
            "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.",
            &[(
                "arc",
                vec![Tuple::from_ints(&[0, 1]), Tuple::from_ints(&[0, 2])],
            )],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let mut out = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut out);
        }
        out.sort();
        // (1,2) and (2,1); (1,1) and (2,2) removed by X != Y.
        assert_eq!(
            out,
            vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[2, 1])]
        );
    }

    #[test]
    fn arithmetic_assignment_in_chain() {
        let (p, mut store) = build(
            "sp(To, min<C>) <- src(To), C = 0.
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.",
            &[
                ("src", vec![Tuple::from_ints(&[1])]),
                (
                    "warc",
                    vec![Tuple::from_ints(&[1, 2, 10]), Tuple::from_ints(&[2, 3, 5])],
                ),
            ],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let sp = p.rel_by_name("sp").unwrap();
        let mut out = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut out);
        }
        assert_eq!(out, vec![Tuple::from_ints(&[1, 0])]);
        let mut delta = Vec::new();
        if let Merged::New(id) = store.rec_mut(sp).merge(&out[0]) {
            delta.push(store.rec(sp).rows().row(id as usize).to_tuple());
        }
        let mut out2 = Vec::new();
        for d in &delta {
            for r in &p.strata[0].delta_rules {
                delta_of(&ev, r, &store, d, &mut out2);
            }
        }
        assert_eq!(out2, vec![Tuple::from_ints(&[2, 10])]);
    }

    #[test]
    fn strided_scan_splits_replicated_tables() {
        let src = "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.
                   sg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y).";
        let a = analyze(parse_program(src).unwrap()).unwrap();
        let p = plan(&a, &PlannerConfig::default()).unwrap();
        let arc_id = p.rel_by_name("arc").unwrap();
        let rows: Vec<Tuple> = (0..10)
            .flat_map(|i| {
                vec![
                    Tuple::from_ints(&[i, 100 + i]),
                    Tuple::from_ints(&[i, 200 + i]),
                ]
            })
            .collect();
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[arc_id] = Some(rows);
        let part = Partitioner::new(2);
        let catalog = crate::catalog::EdbCatalog::build(&p, &data, &part);
        let mut all = Vec::new();
        for me in 0..2 {
            let store = WorkerStore::build(&p, &catalog, me, true, 64);
            let ev = Evaluator {
                plan: &p,
                me,
                workers: 2,
            };
            let mut out = Vec::new();
            for r in &p.strata[0].init_rules {
                run_init(&ev, r, &store, &mut out);
            }
            all.extend(out);
        }
        all.sort();
        all.dedup();
        // Each parent i yields (100+i, 200+i) and (200+i, 100+i); the
        // strided scan must produce each exactly once across workers.
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn constant_rule_runs_on_worker_zero_only() {
        let src = "sp(To, min<C>) <- To = start, C = 0.
                   sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.";
        let a = analyze(parse_program(src).unwrap()).unwrap();
        let mut cfg = PlannerConfig::default();
        cfg.params.insert("start".into(), Value::Int(7));
        let p = plan(&a, &cfg).unwrap();
        let data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        let part = Partitioner::new(3);
        let catalog = crate::catalog::EdbCatalog::build(&p, &data, &part);
        for me in 0..3 {
            let store = WorkerStore::build(&p, &catalog, me, true, 64);
            let ev = Evaluator {
                plan: &p,
                me,
                workers: 3,
            };
            let mut out = Vec::new();
            for r in &p.strata[0].init_rules {
                run_init(&ev, r, &store, &mut out);
            }
            if me == 0 {
                assert_eq!(out, vec![Tuple::from_ints(&[7, 0])]);
            } else {
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn batch_kernel_matches_tuple_at_a_time_and_reuses_probes() {
        // Arcs chosen so two tc delta rows probe the same key (2): the
        // kernel must reuse the bucket and still emit identical rows.
        let (p, mut store) = build(
            "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).",
            &[(
                "arc",
                vec![
                    Tuple::from_ints(&[0, 2]),
                    Tuple::from_ints(&[1, 2]),
                    Tuple::from_ints(&[2, 3]),
                    Tuple::from_ints(&[2, 4]),
                    Tuple::from_ints(&[3, 5]),
                ],
            )],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let tc = p.rel_by_name("tc").unwrap();
        let mut init = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut init);
        }
        let mut batch: Vec<DeltaRow> = Vec::new();
        for row in &init {
            if let Merged::New(id) = store.rec_mut(tc).merge(row) {
                batch.push((tc, 0, id));
            }
        }
        let rule = &p.strata[0].delta_rules[0];
        let mut want = Vec::new();
        for &(_, _, id) in &batch {
            delta_of(
                &ev,
                rule,
                &store,
                &store.rec(tc).rows().row(id as usize).to_tuple(),
                &mut want,
            );
        }
        let mut got = Vec::new();
        let mut scratch = EvalScratch::default();
        let n = ev.sort_batch(rule, &store, &batch, &mut scratch);
        ev.eval_sorted(rule, &store, &batch, 0..n, &mut scratch, &mut |r| {
            got.push(r.to_tuple())
        });
        want.sort();
        got.sort();
        assert_eq!(got, want);
        // Keys probed: 2, 2, 3, 4, 5 → one reused descent.
        assert_eq!(scratch.probe_reuse, 1);
        assert_eq!(scratch.probe_hits, 4);
    }

    #[test]
    fn batch_kernel_handles_prefilters_and_arithmetic() {
        let (p, mut store) = build(
            "sp(To, min<C>) <- src(To), C = 0.
             sp(To2, min<C>) <- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2, C < 100.",
            &[
                ("src", vec![Tuple::from_ints(&[1]), Tuple::from_ints(&[4])]),
                (
                    "warc",
                    vec![
                        Tuple::from_ints(&[1, 2, 10]),
                        Tuple::from_ints(&[1, 3, 200]),
                        Tuple::from_ints(&[4, 5, 7]),
                    ],
                ),
            ],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let sp = p.rel_by_name("sp").unwrap();
        let mut init = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut init);
        }
        let mut batch: Vec<DeltaRow> = Vec::new();
        for row in &init {
            if let Merged::New(id) = store.rec_mut(sp).merge(row) {
                batch.push((sp, 0, id));
            }
        }
        let rule = &p.strata[0].delta_rules[0];
        let mut want = Vec::new();
        for &(_, _, id) in &batch {
            delta_of(
                &ev,
                rule,
                &store,
                &store.rec(sp).rows().row(id as usize).to_tuple(),
                &mut want,
            );
        }
        let mut got = Vec::new();
        let mut scratch = EvalScratch::default();
        let n = ev.sort_batch(rule, &store, &batch, &mut scratch);
        ev.eval_sorted(rule, &store, &batch, 0..n, &mut scratch, &mut |r| {
            got.push(r.to_tuple())
        });
        want.sort();
        got.sort();
        assert_eq!(got, want);
        // The C < 100 filter prunes (1 → 3, 200) in both paths.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn row_improved_between_passes_is_skipped_or_read_at_its_newest_value() {
        // A `min` improvement can only fail a lower-bound pre-filter, so
        // `C1 > 2` is the filter an improved row can start to fail.
        let filtered = "sp(To, min<C>) <- src(To, C).
                        sp(To2, min<C>) <- sp(To1, C1), C1 > 2, warc(To1, To2, C2), C = C1 + C2.";
        let warc = ("warc", vec![[1, 2, 10], [1, 3, 5]]);
        // The first probe is keyed on the aggregate value, so the improved
        // row probes another bucket than the one pass 1 sorted it by.
        let keyed = "sp(To, min<C>) <- src(To, C).
                     sp(To2, min<C>) <- sp(To1, C1), hop(C1, To2, C2), C = C1 + C2.";
        let hop = ("hop", vec![[4, 2, 1], [9, 3, 1]]);
        let cases: [(&str, _, i64, &[[i64; 2]]); 3] = [
            (filtered, &warc, 1, &[]),
            (filtered, &warc, 4, &[[2, 14], [3, 9]]),
            (keyed, &hop, 4, &[[2, 5]]),
        ];
        for (src, (base, rows), improved, emitted) in cases {
            let rows = rows.iter().map(|r| Tuple::from_ints(r)).collect();
            let (p, mut store) = build(src, &[("src", vec![]), (base, rows)]);
            let ev = Evaluator {
                plan: &p,
                me: 0,
                workers: 1,
            };
            let sp = p.rel_by_name("sp").unwrap();
            let rule = &p.strata[0].delta_rules[0];
            let Merged::New(id) = store.rec_mut(sp).merge(&Tuple::from_ints(&[1, 9])) else {
                panic!("first row is new");
            };
            let batch = [(sp, 0, id)];
            let mut scratch = EvalScratch::default();
            let n = ev.sort_batch(rule, &store, &batch, &mut scratch);
            assert_eq!(n, 1, "9 passes the prelude");
            // What a backpressure drain between the passes can do.
            let better = Tuple::from_ints(&[1, improved]);
            assert_eq!(store.rec_mut(sp).merge(&better), Merged::New(id));
            let mut got = Vec::new();
            ev.eval_sorted(rule, &store, &batch, 0..n, &mut scratch, &mut |r| {
                got.push(r.to_tuple())
            });
            let mut want = Vec::new();
            delta_of(
                &ev,
                rule,
                &store,
                &store.rec(sp).rows().row(id as usize).to_tuple(),
                &mut want,
            );
            got.sort();
            want.sort();
            assert_eq!(got, want, "{base}, improved to {improved}");
            let emitted: Vec<Tuple> = emitted.iter().map(|r| Tuple::from_ints(r)).collect();
            assert_eq!(got, emitted, "{base}, improved to {improved}");
        }
    }

    #[test]
    fn repeated_variable_in_delta_checks_equality() {
        let (p, mut store) = build(
            "loopy(X) <- arc(X, X). loopy(X) <- loopy(X), arc(X, X).",
            &[(
                "arc",
                vec![Tuple::from_ints(&[1, 1]), Tuple::from_ints(&[1, 2])],
            )],
        );
        let ev = Evaluator {
            plan: &p,
            me: 0,
            workers: 1,
        };
        let loopy = p.rel_by_name("loopy").unwrap();
        let mut out = Vec::new();
        for r in &p.strata[0].init_rules {
            run_init(&ev, r, &store, &mut out);
        }
        assert_eq!(out, vec![Tuple::from_ints(&[1])]);
        let mut delta = Vec::new();
        if let Merged::New(id) = store.rec_mut(loopy).merge(&out[0]) {
            delta.push(store.rec(loopy).rows().row(id as usize).to_tuple());
        }
        let mut out2 = Vec::new();
        for d in &delta {
            for r in &p.strata[0].delta_rules {
                delta_of(&ev, r, &store, d, &mut out2);
            }
        }
        assert_eq!(out2, vec![Tuple::from_ints(&[1])]);
    }
}
