//! Worker-local storage: shared/sliced base relations and
//! recursive-relation stores.
//!
//! Each worker owns one [`WorkerStore`]: an `Arc` handle per base relation
//! taken from the shared [`EdbCatalog`]
//! (replicated relations point at the *same* sealed allocation on every
//! worker; partitioned relations at this worker's slice) and a [`RecStore`]
//! per derived relation. A `RecStore` combines the Gather merge logic
//! (§5.2.2) over the O(1) dedup table with the aggregate-aware index
//! (§6.2.1). The only existence-check cache (§6.2.2) is the set relation's
//! [`SentFilter`] on the exchange, per (row, destination): the store hands
//! out an empty one, and the worker's router owns it and its state.
//! A [`BitMatrix`] over the catalog's integer box makes both checks exact
//! bit tests for the rows inside it, one sent matrix per destination.

use crate::catalog::EdbCatalog;
use dcd_common::{Frame, Row, Tuple, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind, Target};
use dcd_storage::{BitMatrix, DerivedRelation, RowStore, SealedRelation, TupleCache};
use std::ops::RangeInclusive;
use std::sync::Arc;

pub use dcd_storage::Merged;

/// Store for one derived relation on one worker.
pub struct RecStore {
    rel: DerivedRelation,
    /// Whether head rows meet the stored-row check
    /// ([`RecStore::already_stored`]): an optimized set relation.
    checked: bool,
    /// The empty sent-filter handed out for this relation's rows.
    sent: SentFilter,
}

impl RecStore {
    /// Creates the store for `rel` as declared in `plan`. A set relation's
    /// sent-filters get `cache_slots` lossy slots. With `optimized` off
    /// (the Table 4 ablation) there is no filter, and aggregate merges
    /// locate their group by a linear scan of the stored rows instead of
    /// the §6.2.1 index.
    pub fn new(plan: &PhysicalPlan, rel: RelId, optimized: bool, cache_slots: usize) -> Self {
        let decl = plan.idb[rel].as_ref().expect("IDB relation");
        let rel = match &decl.kind {
            StorageKind::Set => DerivedRelation::set(&decl.index_cols),
            StorageKind::Agg {
                func,
                group_cols,
                epsilon,
            } => {
                let rel =
                    DerivedRelation::aggregate(*func, *group_cols, *epsilon, &decl.index_cols);
                if optimized {
                    rel
                } else {
                    rel.with_linear_lookup()
                }
            }
        };
        let checked = optimized && matches!(decl.kind, StorageKind::Set);
        RecStore {
            rel,
            checked,
            sent: SentFilter {
                lossy: (checked && cache_slots > 0).then(|| TupleCache::new(cache_slots)),
                ..SentFilter::default()
            },
        }
    }

    /// Gives an optimized set relation of `arity` columns a bit matrix
    /// over `ints` for its stored-row check and its sent-filter, when one
    /// passes [`BitMatrix::new`]'s size rule.
    fn within(mut self, ints: Option<&RangeInclusive<i64>>, arity: usize) -> Self {
        let bits = ints.and_then(|ints| BitMatrix::new(ints, arity));
        self.sent.empty = bits.filter(|_| self.checked);
        if let Some(bits) = &self.sent.empty {
            self.rel = self.rel.with_bits(bits.clone());
        }
        self
    }

    /// Number of logical rows / groups.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Merges one incoming merge-layout row (the Gather operator).
    #[inline]
    pub fn merge_row(&mut self, row: Row<'_>) -> Merged {
        self.rel.merge(row)
    }

    /// [`RecStore::merge_row`] for a row given as a [`Tuple`]: the adapter
    /// for callers outside the engine (store replays in benchmarks and
    /// tests).
    pub fn merge(&mut self, row: &Tuple) -> Merged {
        self.merge_row(row.row())
    }

    /// Whether this set relation already stores `row`, so re-merging it
    /// anywhere is a no-op: the existence check a head row this worker
    /// owns meets before it is queued for Distribute. `None` when the
    /// relation has no such check: an aggregate relation, or any relation
    /// with optimizations off. The sent-filter's size does not gate it.
    #[inline]
    pub fn already_stored(&self, row: Row<'_>) -> Option<bool> {
        self.checked.then(|| self.rel.contains(row))
    }

    /// An empty sent-filter for this relation's rows ([`SentFilter`]).
    pub fn sent_filter(&self) -> SentFilter {
        self.sent.clone()
    }

    /// The current logical rows (one stored copy each) and their row-id
    /// indexes.
    pub fn relation(&self) -> &RowStore {
        &self.rel
    }

    /// All current logical rows.
    pub fn rows(&self) -> &Frame {
        self.rel.rows()
    }

    /// Consumes the store, returning its logical rows without copying
    /// them.
    pub fn into_rows(self) -> Frame {
        self.rel.into_rows()
    }
}

/// The rows of one set relation this worker sent to each peer (§6.2.2 on
/// the exchange), exact inside the relation's bit matrix and sound but
/// lossy outside it; the router owns one per head relation.
#[derive(Clone, Default)]
pub struct SentFilter {
    /// The lossy filter of the rows outside the matrix (`cache_slots`).
    lossy: Option<TupleCache>,
    /// The empty matrix over the box, when the relation has one.
    empty: Option<BitMatrix>,
    /// Per destination, the matrix of the rows sent there.
    sent: Vec<BitMatrix>,
}

impl SentFilter {
    /// Whether this worker already sent `row` to worker `dest`, recording
    /// it if not; a send to one peer is no hit for another. `None` when the
    /// row meets no filter: an aggregate relation, whose rows evolve, any
    /// relation with optimizations off, or one outside the matrix at 0
    /// `cache_slots`.
    pub fn already_sent(&mut self, dest: WorkerId, row: Row<'_>) -> Option<bool> {
        if let Some(empty) = &self.empty {
            if dest >= self.sent.len() {
                self.sent.resize(dest + 1, empty.clone());
            }
            if let Some(new) = self.sent[dest].insert(row) {
                return Some(!new);
            }
        }
        self.lossy.as_mut().map(|lossy| lossy.seen(row, dest))
    }
}

/// All per-worker storage.
pub struct WorkerStore {
    /// `edb[p]`: this worker's handle on base relation `p` — shared for
    /// replicated relations, a private slice for partitioned ones.
    pub edb: Vec<Option<Arc<SealedRelation>>>,
    /// `idb[p]`: this worker's store for derived relation `p`.
    pub idb: Vec<Option<RecStore>>,
}

impl WorkerStore {
    /// Builds the store for worker `me`: takes base-relation handles from
    /// the shared catalog and creates empty recursive stores, with a bit
    /// matrix over the catalog's integer box where one fits. No EDB rows
    /// are copied and no indexes are built here — the catalog did both,
    /// exactly once.
    pub fn build(
        plan: &PhysicalPlan,
        catalog: &EdbCatalog,
        me: WorkerId,
        optimized: bool,
        cache_slots: usize,
    ) -> Self {
        let edb = (0..plan.edb.len())
            .map(|id| catalog.for_worker(id, me))
            .collect();
        let idb = plan
            .idb
            .iter()
            .map(|d| {
                d.as_ref().map(|d| {
                    let store = RecStore::new(plan, d.id, optimized, cache_slots);
                    store.within(catalog.int_box(), d.arity)
                })
            })
            .collect();
        WorkerStore { edb, idb }
    }

    /// The base relation `rel` (panics if not EDB — planner bug).
    pub fn base(&self, rel: RelId) -> &SealedRelation {
        self.edb[rel].as_ref().expect("EDB relation present")
    }

    /// The derived store `rel`.
    pub fn rec(&self, rel: RelId) -> &RecStore {
        self.idb[rel].as_ref().expect("IDB relation present")
    }

    /// The rows and row-id indexes a join step reads: the base relation
    /// or this worker's derived store.
    pub fn relation(&self, target: Target) -> &RowStore {
        match target {
            Target::Edb(rel) => self.base(rel),
            Target::Idb { rel, .. } => self.rec(rel).relation(),
        }
    }

    /// Mutable derived store `rel`.
    pub fn rec_mut(&mut self, rel: RelId) -> &mut RecStore {
        self.idb[rel].as_mut().expect("IDB relation present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Value;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn tuples(rows: &Frame) -> Vec<Tuple> {
        rows.iter().map(|r| r.to_tuple()).collect()
    }

    fn tc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).").unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn cc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program(
                "cc2(Y, min<Y>) <- arc(Y, _).
                 cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
                 cc(Y, min<Z>) <- cc2(Y, Z).",
            )
            .unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    #[test]
    fn set_store_merges_and_dedups() {
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut s = RecStore::new(&p, tc, true, 64);
        assert_eq!(s.merge(&Tuple::from_ints(&[1, 2])), Merged::New(0));
        assert_eq!(s.merge(&Tuple::from_ints(&[1, 2])), Merged::Old);
        assert_eq!(tuples(s.rows()), [Tuple::from_ints(&[1, 2])]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn agg_store_improves_and_prunes() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut s = RecStore::new(&p, cc2, true, 64);
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 9])), Merged::New(0));
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 9])), Merged::Old);
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 10])), Merged::Old);
        // The improvement keeps the group's id.
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 3])), Merged::New(0));
        assert_eq!(tuples(s.rows()), vec![Tuple::from_ints(&[5, 3])]);
    }

    #[test]
    fn unoptimized_store_agrees_with_optimized() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut fast = RecStore::new(&p, cc2, true, 64);
        let mut slow = RecStore::new(&p, cc2, false, 64);
        let rows = [[1i64, 7], [2, 5], [1, 3], [1, 9], [2, 2], [3, 3]];
        for r in rows {
            let t = Tuple::from_ints(&r);
            assert_eq!(fast.merge(&t), slow.merge(&t), "divergence on {t:?}");
        }
        assert_eq!(tuples(fast.rows()), tuples(slow.rows()));
    }

    #[test]
    fn sent_filter_only_on_optimized_set_stores() {
        let (tc, cc) = (tc_plan(), cc_plan());
        let row = Tuple::from_ints(&[1, 2]);
        let mut set = RecStore::new(&tc, tc.rel_by_name("tc").unwrap(), true, 64);
        set.merge(&row);
        let mut sent = set.sent_filter();
        assert_eq!(
            sent.already_sent(1, row.row()),
            Some(false),
            "merging never touches it"
        );
        assert_eq!(sent.already_sent(1, row.row()), Some(true));
        assert_eq!(sent.already_sent(2, row.row()), Some(false), "per peer");
        assert_eq!(
            set.sent_filter().already_sent(1, row.row()),
            Some(false),
            "the store hands out an empty filter"
        );
        let off = RecStore::new(&tc, tc.rel_by_name("tc").unwrap(), false, 64);
        let agg = RecStore::new(&cc, cc.rel_by_name("cc2").unwrap(), true, 64);
        for s in [off, agg] {
            let mut sent = s.sent_filter();
            assert_eq!(sent.already_sent(1, row.row()), None);
            assert_eq!(sent.already_sent(1, row.row()), None);
            assert!(sent.lossy.is_none());
        }
    }

    #[test]
    fn stored_check_needs_an_optimized_set_store_not_a_filter() {
        let (tc, cc) = (tc_plan(), cc_plan());
        let row = Tuple::from_ints(&[1, 2]);
        let tc_rel = tc.rel_by_name("tc").unwrap();
        // No sent-filter slots: the stored-row check still runs.
        let mut set = RecStore::new(&tc, tc_rel, true, 0);
        assert_eq!(set.already_stored(row.row()), Some(false));
        set.merge(&row);
        assert_eq!(set.already_stored(row.row()), Some(true));
        let no_filter = set.sent_filter().already_sent(1, row.row());
        assert_eq!(no_filter, None, "no filter");
        let mut off = RecStore::new(&tc, tc_rel, false, 64);
        let mut agg = RecStore::new(&cc, cc.rel_by_name("cc2").unwrap(), true, 64);
        for s in [&mut off, &mut agg] {
            s.merge(&row);
            assert_eq!(s.already_stored(row.row()), None);
        }
    }

    #[test]
    fn a_sent_hit_comes_only_after_that_send() {
        // Rows inside the box meet an exact matrix per destination: a hit
        // exactly when that row went to that destination before. Rows
        // outside it meet the 2-slot lossy filter: a hit only then.
        use dcd_common::rng::Rng;
        use std::collections::HashSet;
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let s = RecStore::new(&p, tc, true, 2).within(Some(&(-2..=5)), 2);
        assert!(s.sent.empty.is_some());
        let mut s = s.sent_filter();
        let (mut rng, mut sent) = (Rng::seed_from_u64(7), HashSet::new());
        for _ in 0..4000 {
            let row = [rng.gen_range(-4..8i64), rng.gen_range(-4..8i64)];
            let dest = rng.gen_range(0..4usize);
            let t = Tuple::from_ints(&row);
            let hit = s.already_sent(dest, t.row()).expect("a filter");
            let before = !sent.insert((dest, row));
            assert!(!hit || before, "{row:?} to {dest}: a hit before any send");
            if row.iter().all(|v| (-2..=5).contains(v)) {
                assert_eq!(hit, before, "{row:?} to {dest}: the matrix is exact");
            }
        }
        // A float row misses the matrix and meets the lossy filter.
        let float = Tuple::new(&[Value::Int(1), Value::Float(2.0)]);
        assert_eq!(s.already_sent(1, float.row()), Some(false));
    }

    #[test]
    fn the_catalog_box_gives_set_stores_their_matrix() {
        let p = tc_plan();
        let (arc, tc) = (p.rel_by_name("arc").unwrap(), p.rel_by_name("tc").unwrap());
        let build = |rows: Vec<Tuple>, optimized: bool| {
            let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
            data[arc] = Some(rows);
            let catalog = EdbCatalog::build(&p, &data, &dcd_common::Partitioner::new(1));
            WorkerStore::build(&p, &catalog, 0, optimized, 64)
        };
        let small: Vec<Tuple> = (0..100).map(|i| Tuple::from_ints(&[i, i + 1])).collect();
        assert!(build(small.clone(), true).rec(tc).sent.empty.is_some());
        // With optimizations off there are no bits; a box of 1025 values
        // is too large for a matrix at arity 2.
        assert!(build(small, false).rec(tc).sent.empty.is_none());
        let wide = vec![Tuple::from_ints(&[0, 1024])];
        assert!(build(wide, true).rec(tc).sent.empty.is_none());
        let mut ws = build(vec![Tuple::from_ints(&[0, 1])], true);
        let row = Tuple::from_ints(&[1, 0]);
        assert_eq!(ws.rec(tc).already_stored(row.row()), Some(false));
        ws.rec_mut(tc).merge(&row);
        assert_eq!(ws.rec(tc).already_stored(row.row()), Some(true));
    }

    #[test]
    fn worker_store_partitions_edb() {
        use dcd_common::Partitioner;
        let p = tc_plan();
        let arc = p.rel_by_name("arc").unwrap();
        let rows: Vec<Tuple> = (0..100).map(|i| Tuple::from_ints(&[i, i + 1])).collect();
        let mut edb_data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        edb_data[arc] = Some(rows.clone());
        let part = Partitioner::new(4);
        let catalog = EdbCatalog::build(&p, &edb_data, &part);
        let mut total = 0;
        for w in 0..4 {
            let ws = WorkerStore::build(&p, &catalog, w, true, 64);
            total += ws.base(arc).len();
            // Index on column 0 was built (tc's rule probes arc on col 0);
            // probing an unindexed column panics.
            ws.base(arc).probe_ids(0, 0);
            for r in ws.base(arc).rows().iter() {
                assert_eq!(part.of_key(r.key(0)), w);
            }
        }
        assert_eq!(total, 100);
    }
}
