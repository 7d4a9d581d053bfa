//! Worker-local storage: shared/sliced base relations and
//! recursive-relation stores.
//!
//! Each worker owns one [`WorkerStore`]: an `Arc` handle per base relation
//! taken from the shared [`EdbCatalog`](crate::catalog::EdbCatalog)
//! (replicated relations point at the *same* sealed allocation on every
//! worker; partitioned relations at this worker's slice) and a [`RecStore`]
//! per derived relation combining the Gather merge logic (§5.2.2), the
//! aggregate-aware index (§6.2.1) and the existence-check cache (§6.2.2).

use crate::catalog::EdbCatalog;
use dcd_common::{Tuple, WorkerId};
use dcd_frontend::ast::AggFunc;
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind};
use dcd_storage::{
    AggCache, AggFunc as StAggFunc, AggRelation, BPlusTree, SealedRelation, SetRelation, TupleCache,
};
use std::sync::Arc;

/// Outcome of merging one incoming row.
#[derive(Debug, PartialEq)]
pub enum Merged {
    /// The logical row is new/improved: feed it to the next delta.
    New(Tuple),
    /// Duplicate / non-improving.
    Old,
}

/// Secondary probe index: column → bucket of current logical rows.
struct SecondaryIndex {
    col: usize,
    map: BPlusTree<Vec<Tuple>>,
    /// For aggregate relations, rows with equal leading `group_cols`
    /// replace each other; `usize::MAX` disables replacement (set rels).
    group_cols: usize,
}

impl SecondaryIndex {
    fn upsert(&mut self, row: &Tuple) {
        let key = row.key(self.col);
        let bucket = self.map.or_insert_with(key, Vec::new);
        if self.group_cols != usize::MAX {
            if let Some(slot) = bucket
                .iter_mut()
                .find(|r| r.values()[..self.group_cols] == row.values()[..self.group_cols])
            {
                *slot = row.clone();
                return;
            }
        }
        bucket.push(row.clone());
    }

    fn probe(&self, key: u64) -> &[Tuple] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Store for one derived relation on one worker.
pub struct RecStore {
    kind: StorageKind,
    set: Option<SetRelation>,
    agg: Option<AggRelation>,
    secondary: Vec<SecondaryIndex>,
    tuple_cache: Option<TupleCache>,
    agg_cache: Option<AggCache>,
    /// §6.2 optimizations enabled? When off, aggregate merges locate their
    /// group by a linear scan (the pre-optimization behaviour of §6.2.1)
    /// and the caches are bypassed.
    optimized: bool,
}

impl RecStore {
    /// Creates the store for `rel` as declared in `plan`.
    pub fn new(plan: &PhysicalPlan, rel: RelId, optimized: bool, cache_slots: usize) -> Self {
        let decl = plan.idb[rel].as_ref().expect("IDB relation");
        let mut secondary: Vec<SecondaryIndex> = Vec::new();
        let (set, agg, tuple_cache, agg_cache, sec_group);
        match &decl.kind {
            StorageKind::Set => {
                let key_col = decl.partition_cols[0];
                set = Some(SetRelation::new(key_col));
                agg = None;
                tuple_cache = optimized.then(|| TupleCache::new(cache_slots));
                agg_cache = None;
                sec_group = usize::MAX;
                // The primary set index covers `key_col`; extra probe
                // columns get secondaries.
                for &c in &decl.index_cols {
                    if c != key_col {
                        secondary.push(SecondaryIndex {
                            col: c,
                            map: BPlusTree::new(),
                            group_cols: sec_group,
                        });
                    }
                }
            }
            StorageKind::Agg {
                func,
                group_cols,
                epsilon,
            } => {
                set = None;
                agg = Some(AggRelation::new(
                    to_storage_func(*func),
                    *group_cols,
                    *epsilon,
                ));
                tuple_cache = None;
                agg_cache = (optimized && matches!(func, AggFunc::Min | AggFunc::Max))
                    .then(|| AggCache::new(cache_slots));
                sec_group = *group_cols;
                for &c in &decl.index_cols {
                    secondary.push(SecondaryIndex {
                        col: c,
                        map: BPlusTree::new(),
                        group_cols: sec_group,
                    });
                }
            }
        }
        RecStore {
            kind: decl.kind.clone(),
            set,
            agg,
            secondary,
            tuple_cache,
            agg_cache,
            optimized,
        }
    }

    /// Storage semantics.
    pub fn kind(&self) -> &StorageKind {
        &self.kind
    }

    /// Number of logical rows / groups.
    pub fn len(&self) -> usize {
        match (&self.set, &self.agg) {
            (Some(s), _) => s.len(),
            (_, Some(a)) => a.len(),
            _ => 0,
        }
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges one incoming merge-layout row (the Gather operator).
    pub fn merge(&mut self, row: &Tuple) -> Merged {
        // Matching on the place (not a clone) is fine: every bound field is
        // `Copy`, so the scrutinee borrow ends before the arms run.
        match self.kind {
            StorageKind::Set => {
                if let Some(cache) = &mut self.tuple_cache {
                    if cache.check(row) {
                        return Merged::Old;
                    }
                }
                let set = self.set.as_mut().expect("set store");
                if set.insert(row.clone()) {
                    if let Some(cache) = &mut self.tuple_cache {
                        cache.record(row);
                    }
                    for idx in &mut self.secondary {
                        idx.upsert(row);
                    }
                    Merged::New(row.clone())
                } else {
                    if let Some(cache) = &mut self.tuple_cache {
                        cache.record(row);
                    }
                    Merged::Old
                }
            }
            StorageKind::Agg {
                func, group_cols, ..
            } => {
                // Cache pre-check (min/max only): prune non-improving rows
                // without touching the B+-tree.
                if let Some(cache) = &mut self.agg_cache {
                    let group = row.prefix(group_cols);
                    if let Some(cached) = cache.get(&group) {
                        let candidate = row.values()[group_cols];
                        let non_improving = match func {
                            AggFunc::Min => candidate >= cached,
                            AggFunc::Max => candidate <= cached,
                            _ => false,
                        };
                        if non_improving {
                            return Merged::Old;
                        }
                    }
                }
                if !self.optimized {
                    // Pre-§6.2.1 behaviour: locate the group with a linear
                    // scan of the relation before merging.
                    let agg = self.agg.as_ref().expect("agg store");
                    let group_vals = &row.values()[..group_cols];
                    let mut _found = false;
                    for logical in agg.iter() {
                        if &logical.values()[..group_cols] == group_vals {
                            _found = true;
                            break;
                        }
                    }
                }
                let agg = self.agg.as_mut().expect("agg store");
                match agg.merge(row) {
                    dcd_storage::aggregate::MergeOutcome::Updated(logical) => {
                        if let Some(cache) = &mut self.agg_cache {
                            let group = logical.prefix(group_cols);
                            cache.record(&group, logical.values()[group_cols]);
                        }
                        for idx in &mut self.secondary {
                            idx.upsert(&logical);
                        }
                        Merged::New(logical)
                    }
                    dcd_storage::aggregate::MergeOutcome::Unchanged => Merged::Old,
                }
            }
        }
    }

    /// Probes the relation on `col == key` (index join).
    pub fn probe(&self, col: usize, key: u64) -> &[Tuple] {
        if let Some(set) = &self.set {
            if set.key_col() == col {
                return set.probe(key);
            }
        }
        self.secondary
            .iter()
            .find(|s| s.col == col)
            .map(|s| s.probe(key))
            .unwrap_or_else(|| panic!("no index on column {col}"))
    }

    /// All current logical rows (scan).
    pub fn rows(&self) -> Vec<Tuple> {
        match (&self.set, &self.agg) {
            (Some(s), _) => s.iter().cloned().collect(),
            (_, Some(a)) => a.rows(),
            _ => Vec::new(),
        }
    }

    /// Streams the current logical rows without materializing a `Vec` —
    /// the evaluator's in-place IDB scan. Set rows are borrowed straight
    /// from the index; aggregate rows are assembled lazily.
    pub fn scan(&self) -> RecScan<'_> {
        match (&self.set, &self.agg) {
            (Some(s), _) => RecScan::Set(s.scan()),
            (_, Some(a)) => RecScan::Agg(a.scan()),
            _ => RecScan::Empty,
        }
    }

    /// Existence-cache `(hits, misses)` for this relation, summed over the
    /// tuple and aggregate caches (both zero when optimizations are off).
    pub fn cache_stats(&self) -> (u64, u64) {
        let (mut h, mut m) = (0, 0);
        if let Some(c) = &self.tuple_cache {
            h += c.hits();
            m += c.misses();
        }
        if let Some(c) = &self.agg_cache {
            h += c.hits();
            m += c.misses();
        }
        (h, m)
    }
}

/// Streaming scan over a [`RecStore`]'s logical rows. `Cow` items let set
/// relations lend their rows borrow-only while aggregate relations yield
/// the `(group…, value)` rows they assemble on the fly.
pub enum RecScan<'a> {
    /// Borrowed rows from a set relation.
    Set(dcd_storage::SetScan<'a>),
    /// Assembled rows from an aggregate relation.
    Agg(dcd_storage::AggScan<'a>),
    /// Defensive arm for a store with no backing relation.
    Empty,
}

impl<'a> Iterator for RecScan<'a> {
    type Item = std::borrow::Cow<'a, Tuple>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RecScan::Set(s) => s.next().map(std::borrow::Cow::Borrowed),
            RecScan::Agg(a) => a.next().map(std::borrow::Cow::Owned),
            RecScan::Empty => None,
        }
    }
}

fn to_storage_func(f: AggFunc) -> StAggFunc {
    match f {
        AggFunc::Min => StAggFunc::Min,
        AggFunc::Max => StAggFunc::Max,
        AggFunc::Sum => StAggFunc::Sum,
        AggFunc::Count => StAggFunc::Count,
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

    /// Mutable derived store `rel`.
    pub fn rec_mut(&mut self, rel: RelId) -> &mut RecStore {
        self.idb[rel].as_mut().expect("IDB relation present")
    }

    /// Existence-cache `(hits, misses)` totals over every derived store.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.idb
            .iter()
            .flatten()
            .map(RecStore::cache_stats)
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

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
    fn set_store_merges_and_probes() {
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut s = RecStore::new(&p, tc, true, 64);
        assert_eq!(
            s.merge(&Tuple::from_ints(&[1, 2])),
            Merged::New(Tuple::from_ints(&[1, 2]))
        );
        assert_eq!(s.merge(&Tuple::from_ints(&[1, 2])), Merged::Old);
        // tc is keyed on column 1 (its join column).
        let hits = s.probe(1, Tuple::from_ints(&[0, 2]).key(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn agg_store_improves_and_prunes() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut s = RecStore::new(&p, cc2, true, 64);
        assert!(matches!(
            s.merge(&Tuple::from_ints(&[5, 9])),
            Merged::New(_)
        ));
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 9])), Merged::Old);
        assert_eq!(s.merge(&Tuple::from_ints(&[5, 10])), Merged::Old);
        match s.merge(&Tuple::from_ints(&[5, 3])) {
            Merged::New(row) => assert_eq!(row, Tuple::from_ints(&[5, 3])),
            other => panic!("expected improvement, got {other:?}"),
        }
        assert_eq!(s.rows(), vec![Tuple::from_ints(&[5, 3])]);
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
            let a = fast.merge(&t);
            let b = slow.merge(&t);
            assert_eq!(
                matches!(a, Merged::New(_)),
                matches!(b, Merged::New(_)),
                "divergence on {t:?}"
            );
        }
        let mut fr = fast.rows();
        let mut sr = slow.rows();
        fr.sort();
        sr.sort();
        assert_eq!(fr, sr);
    }

    #[test]
    fn scan_streams_the_same_rows_as_rows() {
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut s = RecStore::new(&p, tc, true, 64);
        for i in 0..50i64 {
            s.merge(&Tuple::from_ints(&[i % 7, i]));
        }
        let a = s.rows();
        let b: Vec<Tuple> = s.scan().map(|c| c.into_owned()).collect();
        assert_eq!(a, b);

        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut s = RecStore::new(&p, cc2, true, 64);
        for i in 0..50i64 {
            s.merge(&Tuple::from_ints(&[i % 7, i]));
        }
        let a = s.rows();
        let b: Vec<Tuple> = s.scan().map(|c| c.into_owned()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_store_partitions_edb() {
        use dcd_common::Partitioner;
        use dcd_storage::EdbRead;
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
            // Index on column 0 was built (tc's rule probes arc on col 0).
            assert!(ws.base(arc).has_index(0));
            for r in ws.base(arc).rows() {
                assert_eq!(part.of_key(r.key(0)), w);
            }
        }
        assert_eq!(total, 100);
    }
}
