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
//!
//! The seal clusters the rows: they are stored sorted by the key bits of
//! one indexed column, with ties kept in input order, so a probe on that
//! column reads one contiguous run of rows. Every index is CSR (see
//! [`RowStore`]), and each bucket lists its rows in input order.

use crate::rows::{distinct, Index, RowStore};
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
    ///
    /// Rows are stored sorted by `(key bits of the clustering column,
    /// input position)`; the clustering column is the first of
    /// `index_cols`. With no index the rows keep their input order.
    pub fn build(mut rows: Vec<Tuple>, index_cols: &[usize]) -> Self {
        let cols = distinct(index_cols);
        let Some(&c) = cols.first() else {
            return SealedRelation {
                store: RowStore::from_parts(rows, Vec::new()),
            };
        };
        let len = rows.len();
        let n = u32::try_from(len).expect("sealed relation exceeds u32 row ids");
        // order[id] = (clustering key, input position) of the row that
        // gets id `id`; positions are unique, so the sort is total.
        let mut order: Vec<(u64, u32)> = rows.iter().map(|r| r.key(c)).zip(0..n).collect();
        order.sort_unstable();
        let mut id_of = vec![0u32; len];
        for (id, &(_, pos)) in (0..n).zip(&order) {
            id_of[pos as usize] = id;
        }
        // Other columns are indexed while `rows` is still in input order,
        // so their runs list ids in input order too.
        let indexes = cols
            .iter()
            .map(|&col| {
                let idx = if col == c {
                    Index::clustered(&order)
                } else {
                    Index::csr(|| {
                        rows.iter()
                            .map(move |r| r.key(col))
                            .zip(id_of.iter().copied())
                    })
                };
                (col, idx)
            })
            .collect();
        permute(&mut rows, order.into_iter().map(|(_, pos)| pos).collect());
        SealedRelation {
            store: RowStore::from_parts(rows, indexes),
        }
    }

    /// Splits `rows` into per-worker row slices by `H(row[col])`
    /// (Algorithm 1, line 2). Each slice is allocated at its exact size.
    pub fn partition_rows(rows: &[Tuple], part: &Partitioner, col: usize) -> Vec<Vec<Tuple>> {
        let n = part.partitions();
        let mut sizes = vec![0usize; n];
        for row in rows {
            sizes[part.of_key(row.key(col))] += 1;
        }
        let mut out: Vec<Vec<Tuple>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for row in rows {
            out[part.of_key(row.key(col))].push(row.clone());
        }
        out
    }
}

/// Reorders `rows` in place so that `rows[i]` becomes the old
/// `rows[perm[i]]`, walking each cycle of the permutation once (no second
/// copy of the rows). `perm` is consumed as the visited marks.
fn permute(rows: &mut [Tuple], mut perm: Vec<u32>) {
    for start in 0..perm.len() {
        let mut i = start;
        loop {
            let from = perm[i] as usize;
            perm[i] = i as u32;
            if from == start {
                break;
            }
            rows.swap(i, from);
            i = from;
        }
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
    fn rows_are_clustered_on_the_first_index_column_in_input_order() {
        let input = vec![
            Tuple::from_ints(&[3, 1]),
            Tuple::from_ints(&[1, 9]),
            Tuple::from_ints(&[2, 1]),
            Tuple::from_ints(&[1, 4]),
            Tuple::from_ints(&[3, 7]),
        ];
        let r = SealedRelation::build(input, &[0, 1]);
        let firsts: Vec<i64> = r.rows().iter().map(|t| t[0].expect_int()).collect();
        assert_eq!(firsts, [1, 1, 2, 3, 3]);
        // Equal keys keep their input order, on the clustering column and
        // on the other index alike.
        let ones = probe(&r, 0, Tuple::from_ints(&[1]).key(0));
        assert_eq!(
            ones,
            [&Tuple::from_ints(&[1, 9]), &Tuple::from_ints(&[1, 4])]
        );
        assert_eq!(r.probe_ids(0, Tuple::from_ints(&[1]).key(0)), &[0, 1]);
        let by_second = probe(&r, 1, Tuple::from_ints(&[1]).key(0));
        assert_eq!(
            by_second,
            [&Tuple::from_ints(&[3, 1]), &Tuple::from_ints(&[2, 1])]
        );
    }

    #[test]
    fn resident_bytes_counts_rows_runs_and_ids_exactly() {
        use std::mem::size_of;
        // Three distinct keys in each column, four rows.
        let r = SealedRelation::build(edges(), &[0, 1]);
        let rows = 4 * size_of::<Tuple>();
        let runs = (3 + 3) * (size_of::<u64>() + size_of::<(u32, u32)>());
        let ids = (4 + 4) * size_of::<u32>();
        assert_eq!(r.resident_bytes(), (rows + runs + ids) as u64);
    }

    #[test]
    fn resident_bytes_grows_with_rows_and_indexes() {
        let bare = SealedRelation::build(edges(), &[]);
        let indexed = SealedRelation::build(edges(), &[0, 1]);
        assert!(bare.resident_bytes() > 0);
        assert!(indexed.resident_bytes() > bare.resident_bytes());
    }
}
