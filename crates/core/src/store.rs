//! Worker-local storage: shared/sliced base relations and
//! recursive-relation stores.
//!
//! Each worker owns one [`WorkerStore`]: an `Arc` handle per base relation
//! taken from the shared [`EdbCatalog`]
//! (replicated relations point at the *same* sealed allocation on every
//! worker; partitioned relations at this worker's slice) and a [`RecStore`]
//! per derived relation. A `RecStore` combines the Gather merge logic
//! (§5.2.2) over the O(1) dedup table with the aggregate-aware index
//! (§6.2.1). The only existence-check cache (§6.2.2) is the set
//! relation's Distribute sent-filter, which sits on the exchange, not on
//! the merge path.

use crate::catalog::EdbCatalog;
use dcd_common::{Frame, Row, Tuple, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind, Target};
use dcd_storage::{DerivedRelation, RowStore, SealedRelation, TupleCache};
use std::sync::Arc;

pub use dcd_storage::Merged;

/// Store for one derived relation on one worker.
pub struct RecStore {
    rel: DerivedRelation,
    /// Whether head rows meet the stored-row check
    /// ([`RecStore::already_stored`]): an optimized set relation.
    checked: bool,
    /// Slot count of the sent-filter; 0 when the relation has none.
    filter_slots: usize,
    /// Distribute's exact-duplicate filter, allocated on first use.
    sent_filter: Option<TupleCache>,
}

impl RecStore {
    /// Creates the store for `rel` as declared in `plan`. A set relation
    /// gets a sent-filter of `cache_slots` slots. With `optimized` off
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
            filter_slots: if checked { cache_slots } else { 0 },
            sent_filter: None,
        }
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

    /// Distribute's sent-filter: whether this worker already routed `row`
    /// (a sound but lossy check), recording it if not. `None` when the
    /// relation has no filter: an aggregate relation, whose rows evolve,
    /// or any relation with optimizations off.
    pub fn already_sent(&mut self, row: Row<'_>) -> Option<bool> {
        if self.filter_slots == 0 {
            return None;
        }
        let filter = self
            .sent_filter
            .get_or_insert_with(|| TupleCache::new(self.filter_slots));
        Some(filter.seen(row))
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
    /// the shared catalog and creates empty recursive stores. No EDB rows
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
                d.as_ref()
                    .map(|d| RecStore::new(plan, d.id, optimized, cache_slots))
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
        let sent = |s: &mut RecStore| s.already_sent(row.row());
        let mut set = RecStore::new(&tc, tc.rel_by_name("tc").unwrap(), true, 64);
        set.merge(&row);
        assert!(
            set.sent_filter.is_none(),
            "merging never touches the filter"
        );
        assert_eq!(sent(&mut set), Some(false));
        assert_eq!(sent(&mut set), Some(true));
        let mut off = RecStore::new(&tc, tc.rel_by_name("tc").unwrap(), false, 64);
        let mut agg = RecStore::new(&cc, cc.rel_by_name("cc2").unwrap(), true, 64);
        for s in [&mut off, &mut agg] {
            assert_eq!(sent(s), None);
            assert_eq!(sent(s), None);
            assert!(s.sent_filter.is_none());
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
        assert_eq!(set.already_sent(row.row()), None, "no filter");
        let mut off = RecStore::new(&tc, tc_rel, false, 64);
        let mut agg = RecStore::new(&cc, cc.rel_by_name("cc2").unwrap(), true, 64);
        for s in [&mut off, &mut agg] {
            s.merge(&row);
            assert_eq!(s.already_stored(row.row()), None);
        }
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
