//! Immutable, index-complete base (EDB) relations.
//!
//! Algorithm 1 line 3: "Construct Index for each partition of B on the
//! partition key". Base relations never change during evaluation, so all
//! their rows *and* all their hash indexes are built exactly once, up
//! front, by [`SealedRelation::build`] — after which the relation is
//! immutable and freely shareable across worker threads (`&SealedRelation`
//! / `Arc<SealedRelation>` are `Sync`). Replicated relations are built once
//! for the whole engine and shared; partitioned relations are built once
//! per worker from that worker's slice. Reads go through the
//! [`RowStore`] layout that derived relations use too.

use crate::rows::RowStore;
use dcd_common::{Partitioner, Tuple};
use std::ops::Deref;

/// An immutable EDB relation (or partition slice) with its hash indexes.
///
/// Derefs to its [`RowStore`] for reads; there is no `DerefMut`, so a
/// sealed relation never changes after [`SealedRelation::build`].
pub struct SealedRelation {
    store: RowStore,
}

impl SealedRelation {
    /// Builds the relation and every requested hash index. This is the
    /// only constructor: a sealed relation is never observable in a
    /// partially-indexed state.
    pub fn build(rows: Vec<Tuple>, index_cols: &[usize]) -> Self {
        let mut store = RowStore::new(index_cols);
        for row in rows {
            store.push(row);
        }
        SealedRelation { store }
    }

    /// Splits `rows` into per-worker row slices by `H(row[col])`
    /// (Algorithm 1, line 2).
    pub fn partition_rows(rows: &[Tuple], part: &Partitioner, col: usize) -> Vec<Vec<Tuple>> {
        let n = part.partitions();
        let mut out: Vec<Vec<Tuple>> = (0..n).map(|_| Vec::new()).collect();
        for row in rows {
            out[part.of_key(row.key(col))].push(row.clone());
        }
        out
    }
}

impl Deref for SealedRelation {
    type Target = RowStore;

    #[inline]
    fn deref(&self) -> &RowStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Tuple> {
        vec![
            Tuple::from_ints(&[1, 2]),
            Tuple::from_ints(&[1, 3]),
            Tuple::from_ints(&[2, 3]),
            Tuple::from_ints(&[3, 1]),
        ]
    }

    fn probe(r: &SealedRelation, col: usize, key: u64) -> Vec<&Tuple> {
        r.probe_ids(col, key)
            .iter()
            .map(|&i| &r.rows()[i as usize])
            .collect()
    }

    #[test]
    fn probe_finds_all_matches() {
        let r = SealedRelation::build(edges(), &[0]);
        let hits = probe(&r, 0, Tuple::from_ints(&[1]).key(0));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t[0].expect_int() == 1));
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let r = SealedRelation::build(edges(), &[1]);
        assert!(r.probe_ids(1, 99).is_empty());
    }

    #[test]
    fn duplicate_index_cols_build_once() {
        let r = SealedRelation::build(edges(), &[0, 0]);
        assert!(r.has_index(0));
        assert_eq!(probe(&r, 0, Tuple::from_ints(&[2]).key(0)).len(), 1);
    }

    #[test]
    fn multiple_indexes_coexist() {
        let r = SealedRelation::build(edges(), &[0, 1]);
        assert_eq!(probe(&r, 1, Tuple::from_ints(&[0, 3]).key(1)).len(), 2);
        assert_eq!(probe(&r, 0, Tuple::from_ints(&[3]).key(0)).len(), 1);
    }

    #[test]
    fn partition_rows_is_exhaustive_and_disjoint() {
        let rows = edges();
        let part = Partitioner::new(3);
        let parts = SealedRelation::partition_rows(&rows, &part, 0);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rows.len());
        for (w, p) in parts.iter().enumerate() {
            for row in p {
                assert_eq!(part.of_key(row.key(0)), w);
            }
        }
    }

    #[test]
    fn empty_relation() {
        let r = SealedRelation::build(vec![], &[0]);
        assert!(r.is_empty());
        assert!(r.probe_ids(0, 0).is_empty());
    }

    #[test]
    fn resident_bytes_grows_with_rows_and_indexes() {
        let bare = SealedRelation::build(edges(), &[]);
        let indexed = SealedRelation::build(edges(), &[0, 1]);
        assert!(bare.resident_bytes() > 0);
        assert!(indexed.resident_bytes() > bare.resident_bytes());
    }
}
