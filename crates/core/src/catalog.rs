//! The shared, immutable EDB catalog: base data built exactly once.
//!
//! Before workers spawn, the engine turns the loaded EDB into an
//! [`EdbCatalog`]: for every replicated relation one
//! `Arc<SealedRelation>` — rows *and* hash indexes — shared by every
//! worker, and for every partitioned relation one sealed slice per worker.
//! This replaces the seed design where each worker copied every replicated
//! relation (`rows.to_vec()`) and rebuilt its indexes privately, which made
//! replicated-EDB residency O(workers); with the catalog it is O(1).
//! The seal runs inside `Engine::run` (it counts in `run_s` and the
//! report's `seal_ns`), before the fixpoint starts. A partitioned relation
//! is sealed on one thread per worker, the calling thread among them; a
//! replicated one, a single slice, on the calling thread alone.
//!
//! Each relation is sealed clustered on one of its index columns (see
//! [`SealedRelation::partitioned`]): the partition column when it is
//! indexed, else the lowest index column.

use dcd_common::{DcdError, Partitioner, Result, Tuple, WorkerId};
use dcd_frontend::physical::{PhysicalPlan, Placement, RelId, StorageKind};
use dcd_storage::SealedRelation;
use std::borrow::Cow;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// How one base relation is materialized.
enum CatalogEntry {
    /// One shared copy (rows + indexes) for all workers.
    Replicated(Arc<SealedRelation>),
    /// One sealed slice per worker, by `H(row[col])`.
    Partitioned(Vec<Arc<SealedRelation>>),
}

/// All base relations of one evaluation, sealed and placement-resolved.
pub struct EdbCatalog {
    rels: Vec<Option<CatalogEntry>>,
    /// See [`EdbCatalog::int_box`].
    ints: Option<RangeInclusive<i64>>,
}

impl EdbCatalog {
    /// Seals every base relation per the plan's placement. A base
    /// relation is its loaded rows and its inline facts; only a relation
    /// with facts is copied to join them. A row whose arity is not its
    /// relation's is an error, found by the seal's row copy
    /// (`Engine::load_edb` does not scan the rows).
    pub fn try_build(
        plan: &PhysicalPlan,
        edb_data: &[Option<Vec<Tuple>>],
        part: &Partitioner,
    ) -> Result<Self> {
        let mut rels = Vec::with_capacity(plan.edb.len());
        for decl in &plan.edb {
            let Some(d) = decl else {
                rels.push(None);
                continue;
            };
            let mut rows = Cow::Borrowed(edb_data[d.id].as_deref().unwrap_or(&[]));
            for (_, fact) in plan.facts.iter().filter(|(rel, _)| *rel == d.id) {
                rows.to_mut().push(fact.clone());
            }
            let mut cols = d.index_cols.clone();
            cols.sort_unstable();
            let (slices, col) = match d.placement {
                Placement::Replicated => (&Partitioner::new(1), cols.first().copied().unwrap_or(0)),
                Placement::Partitioned(c) => (part, c),
            };
            let sealed = SealedRelation::partitioned(&rows, d.arity, &cols, slices, col);
            let mut sealed = sealed.map_err(|i| {
                let (row, name) = (&rows[i], &d.name);
                let msg = format!(
                    "row {row:?} has arity {} but '{name}' expects {}",
                    row.arity(),
                    d.arity
                );
                DcdError::Execution(msg)
            })?;
            rels.push(Some(match d.placement {
                Placement::Replicated => {
                    let one = sealed.pop().expect("one partition yields one slice");
                    CatalogEntry::Replicated(Arc::new(one))
                }
                Placement::Partitioned(_) => {
                    CatalogEntry::Partitioned(sealed.into_iter().map(Arc::new).collect())
                }
            }));
        }
        Ok(EdbCatalog {
            rels,
            ints: int_box(plan, edb_data),
        })
    }

    /// The least interval holding every integer cell of the base
    /// relations and inline facts, over which set stores may keep a bit
    /// matrix: one pass, made only when the plan has a set relation.
    /// `None` without such a relation or such a cell.
    pub fn int_box(&self) -> Option<&RangeInclusive<i64>> {
        self.ints.as_ref()
    }

    /// [`EdbCatalog::try_build`] for rows known to have their relations'
    /// arities; panics otherwise.
    pub fn build(plan: &PhysicalPlan, edb_data: &[Option<Vec<Tuple>>], part: &Partitioner) -> Self {
        Self::try_build(plan, edb_data, part).expect("every row has its relation's arity")
    }

    /// The sealed relation worker `me` reads for `rel` (`None` for IDB
    /// slots). Replicated relations hand out clones of the same `Arc`.
    pub fn for_worker(&self, rel: RelId, me: WorkerId) -> Option<Arc<SealedRelation>> {
        match self.rels.get(rel)?.as_ref()? {
            CatalogEntry::Replicated(shared) => Some(Arc::clone(shared)),
            CatalogEntry::Partitioned(slices) => Some(Arc::clone(&slices[me])),
        }
    }

    /// Resident bytes of all replicated relations — counted once, because
    /// they exist once regardless of worker count.
    pub fn replicated_bytes(&self) -> u64 {
        self.rels
            .iter()
            .flatten()
            .map(|e| match e {
                CatalogEntry::Replicated(r) => r.resident_bytes(),
                CatalogEntry::Partitioned(_) => 0,
            })
            .sum()
    }

    /// Resident bytes of the partitioned slices held for worker `me` —
    /// the EDB storage unique to that worker.
    pub fn partitioned_bytes(&self, me: WorkerId) -> u64 {
        self.rels
            .iter()
            .flatten()
            .map(|e| match e {
                CatalogEntry::Replicated(_) => 0,
                CatalogEntry::Partitioned(slices) => slices[me].resident_bytes(),
            })
            .sum()
    }
}

/// [`EdbCatalog::int_box`] of `plan` over `edb_data`.
fn int_box(plan: &PhysicalPlan, data: &[Option<Vec<Tuple>>]) -> Option<RangeInclusive<i64>> {
    let mut kinds = plan.idb.iter().flatten().map(|d| &d.kind);
    if !kinds.any(|k| *k == StorageKind::Set) {
        return None;
    }
    let base = plan.edb.iter().flatten().flat_map(|d| &data[d.id]);
    let facts = plan.facts.iter().map(|(_, fact)| fact);
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for row in base.flatten().chain(facts).map(Tuple::row) {
        for (c, &lane) in row.lanes().iter().enumerate() {
            if !row.is_float(c) {
                (lo, hi) = (lo.min(lane as i64), hi.max(lane as i64));
            }
        }
    }
    (lo <= hi).then_some(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn plan_for(src: &str) -> PhysicalPlan {
        plan(
            &analyze(parse_program(src).unwrap()).unwrap(),
            &PlannerConfig::default(),
        )
        .unwrap()
    }

    /// TC partitions `arc` on column 0; SG replicates it (two probe keys).
    const TC: &str = "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).";
    const SG: &str = "sg(X, Y) <- arc(P, X), arc(P, Y), X != Y.
                      sg(X, Y) <- arc(A, X), sg(A, B), arc(B, Y).";

    fn arcs(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::from_ints(&[i, i + 1])).collect()
    }

    fn catalog_for(src: &str, workers: usize, rows: Vec<Tuple>) -> (PhysicalPlan, EdbCatalog) {
        let p = plan_for(src);
        let arc = p.rel_by_name("arc").unwrap();
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[arc] = Some(rows);
        let cat = EdbCatalog::build(&p, &data, &Partitioner::new(workers));
        (p, cat)
    }

    #[test]
    fn replicated_relations_share_one_allocation() {
        let (p, cat) = catalog_for(SG, 4, arcs(50));
        let arc = p.rel_by_name("arc").unwrap();
        let a = cat.for_worker(arc, 0).unwrap();
        let b = cat.for_worker(arc, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same Arc handed to every worker");
        assert_eq!(a.len(), 50);
        assert!(cat.replicated_bytes() > 0);
        assert_eq!(cat.partitioned_bytes(0), 0);
    }

    #[test]
    fn replicated_bytes_do_not_scale_with_workers() {
        let (_, cat1) = catalog_for(SG, 1, arcs(50));
        let (_, cat4) = catalog_for(SG, 4, arcs(50));
        assert_eq!(cat1.replicated_bytes(), cat4.replicated_bytes());
    }

    #[test]
    fn partitioned_relations_split_rows_exhaustively() {
        let (p, cat) = catalog_for(TC, 4, arcs(100));
        let arc = p.rel_by_name("arc").unwrap();
        let part = Partitioner::new(4);
        let mut total = 0;
        for w in 0..4 {
            let slice = cat.for_worker(arc, w).unwrap();
            total += slice.len();
            for row in slice.rows().iter() {
                assert_eq!(part.of_key(row.key(0)), w);
            }
            assert!(cat.partitioned_bytes(w) > 0 || slice.is_empty());
        }
        assert_eq!(total, 100);
        assert_eq!(cat.replicated_bytes(), 0);
    }

    #[test]
    fn a_row_of_another_arity_is_named_wherever_it_sits() {
        // TC partitions `arc`, SG replicates it.
        for (src, workers) in [(TC, 1), (TC, 2), (TC, 3), (TC, 4), (SG, 2), (SG, 4)] {
            let p = plan_for(src);
            let arc = p.rel_by_name("arc").unwrap();
            for (bad, at) in [(&[70][..], 0), (&[70, 71, 72], 5), (&[70, 71, 72], 10)] {
                let mut rows = arcs(10);
                rows.insert(at, Tuple::from_ints(bad));
                let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
                data[arc] = Some(rows);
                let built = EdbCatalog::try_build(&p, &data, &Partitioner::new(workers));
                let Some(DcdError::Execution(msg)) = built.err() else {
                    panic!("a row of arity {} must fail the seal", bad.len());
                };
                let want = format!("row {:?} has arity {}", Tuple::from_ints(bad), bad.len());
                assert!(msg.contains(&want), "{msg}");
                assert!(msg.ends_with("but 'arc' expects 2"), "{msg}");
            }
        }
    }

    #[test]
    fn the_int_box_spans_every_integer_cell_and_fact() {
        use dcd_common::Value;
        // Float cells do not widen it; inline facts do, for base and
        // derived relations alike.
        let mut rows = arcs(10);
        rows.push(Tuple::new(&[Value::Int(-4), Value::Float(1e9)]));
        let (_, cat) = catalog_for(TC, 2, rows);
        assert_eq!(cat.int_box(), Some(&(-4..=10)));
        let with_facts = format!("arc(3, 40). tc(-9, 2.5). {TC}");
        let p = plan_for(&with_facts);
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[p.rel_by_name("arc").unwrap()] = Some(arcs(10));
        let cat = EdbCatalog::build(&p, &data, &Partitioner::new(1));
        assert_eq!(cat.int_box(), Some(&(-9..=40)));
        // No integer cell: no box.
        let (_, empty) = catalog_for(TC, 2, Vec::new());
        assert_eq!(empty.int_box(), None);
        let floats = vec![Tuple::new(&[Value::Float(0.5), Value::Float(1.5)])];
        assert_eq!(catalog_for(SG, 2, floats).1.int_box(), None);
    }

    #[test]
    fn a_plan_without_a_set_relation_computes_no_box() {
        let sssp = "sp(X, min<D>) <- X = 1, D = 0.
                    sp(Y, min<D>) <- sp(X, D1), arc(X, Y, W), D = D1 + W.";
        let p = plan_for(sssp);
        let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
        data[p.rel_by_name("arc").unwrap()] = Some(vec![Tuple::from_ints(&[1, 2, 5])]);
        let cat = EdbCatalog::build(&p, &data, &Partitioner::new(2));
        assert_eq!(cat.int_box(), None);
    }

    #[test]
    fn idb_slots_are_absent() {
        let (p, cat) = catalog_for(TC, 2, arcs(10));
        let tc = p.rel_by_name("tc").unwrap();
        assert!(cat.for_worker(tc, 0).is_none());
    }
}
