//! The one row layout shared by base and derived relations.
//!
//! A [`RowStore`] keeps every row of a relation exactly once, in a
//! `Vec<Tuple>`, and answers point lookups through per-column hash indexes
//! that map a key to row *ids* (`u32` positions in that vector), never row
//! copies. The evaluator resolves a probe as `probe_ids(col, key)` followed
//! by `rows()[id]`, whether the target is an immutable base relation
//! ([`SealedRelation`](crate::SealedRelation)) or a derived relation
//! ([`DerivedRelation`](crate::DerivedRelation)) that grows during the
//! fixpoint.
//!
//! The two differ only in how an index holds its ids. A derived relation
//! keeps a growable bucket per key. A sealed relation is built in one go,
//! so each index is CSR: one flat id array per column plus a map from key
//! to the `(start, end)` run of that key's ids in it.
//!
//! Because an index entry is an id, a row whose aggregate value is updated
//! in place stays where it is in every index — except an index on the
//! updated column itself, where an in-place update moves the id to the
//! bucket of its new key.

use dcd_common::hash::FastMap;
use dcd_common::{Tuple, Value};

/// Rows plus `u32` row-id hash indexes on selected columns.
pub struct RowStore {
    rows: Vec<Tuple>,
    /// `(col, index on the key bits of column col)`.
    indexes: Vec<(usize, Index)>,
}

/// One column's key → row-ids index.
pub(crate) enum Index {
    /// A growable bucket of ids per key (derived relations).
    Buckets(FastMap<u64, Vec<u32>>),
    /// Compressed sparse rows (sealed relations): key `k`'s ids are
    /// `ids[start..end]` for `runs[k] = (start, end)`.
    Csr {
        runs: FastMap<u64, (u32, u32)>,
        ids: Vec<u32>,
    },
}

impl Index {
    /// A CSR index over `entries`' `(key, id)` pairs; each run lists its
    /// ids in the order `entries` yields them. `entries` is walked twice:
    /// once to size the runs, once to fill them.
    pub(crate) fn csr<I: Iterator<Item = (u64, u32)>>(entries: impl Fn() -> I) -> Self {
        let mut runs: FastMap<u64, (u32, u32)> = FastMap::default();
        for (key, _) in entries() {
            runs.entry(key).or_insert((0, 0)).1 += 1;
        }
        let mut next = 0;
        for run in runs.values_mut() {
            let count = run.1;
            *run = (next, next);
            next += count;
        }
        let mut ids = vec![0; next as usize];
        for (key, id) in entries() {
            let run = runs.get_mut(&key).expect("key counted in the sizing pass");
            ids[run.1 as usize] = id;
            run.1 += 1;
        }
        Index::Csr { runs, ids }
    }

    /// A CSR index on the column the rows are sorted by: `sorted[id]`
    /// holds row `id`'s key (first field), so every run is a range of
    /// consecutive ids and the id array is the identity.
    pub(crate) fn clustered(sorted: &[(u64, u32)]) -> Self {
        let mut runs: FastMap<u64, (u32, u32)> = FastMap::default();
        let mut start = 0;
        for run in sorted.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len() as u32;
            debug_assert!(!runs.contains_key(&run[0].0), "keys must arrive sorted");
            runs.insert(run[0].0, (start, end));
            start = end;
        }
        let ids = (0..start).collect();
        Index::Csr { runs, ids }
    }

    /// The ids stored under `key` (empty when absent).
    #[inline]
    fn ids(&self, key: u64) -> &[u32] {
        match self {
            Index::Buckets(map) => map.get(&key).map_or(&[], |b| b.as_slice()),
            Index::Csr { runs, ids } => runs
                .get(&key)
                .map_or(&[], |&(start, end)| &ids[start as usize..end as usize]),
        }
    }

    fn buckets_mut(&mut self) -> &mut FastMap<u64, Vec<u32>> {
        match self {
            Index::Buckets(map) => map,
            Index::Csr { .. } => panic!("a sealed row store is immutable"),
        }
    }
}

impl RowStore {
    /// An empty store with growable buckets on each of `index_cols`
    /// (duplicates ignored).
    pub(crate) fn new(index_cols: &[usize]) -> Self {
        let indexes = distinct(index_cols)
            .into_iter()
            .map(|col| (col, Index::Buckets(FastMap::default())))
            .collect();
        RowStore::from_parts(Vec::new(), indexes)
    }

    /// A store over `rows` with prebuilt `indexes`, whose ids must point
    /// into `rows`.
    pub(crate) fn from_parts(rows: Vec<Tuple>, indexes: Vec<(usize, Index)>) -> Self {
        RowStore { rows, indexes }
    }

    /// Appends `row`, indexes it, and returns its id. Panics on a sealed
    /// (CSR-indexed) store.
    pub(crate) fn push(&mut self, row: Tuple) -> u32 {
        let id = u32::try_from(self.rows.len()).expect("row store exceeds u32 row ids");
        for (col, idx) in &mut self.indexes {
            idx.buckets_mut().entry(row.key(*col)).or_default().push(id);
        }
        self.rows.push(row);
        id
    }

    /// Overwrites column `col` of row `id` with `value`. Indexes on other
    /// columns are untouched; an index on `col` moves the id to the bucket
    /// of the new key (and drops the old bucket once it is empty). Panics
    /// if that index is a sealed (CSR) one.
    pub(crate) fn set_value(&mut self, id: u32, col: usize, value: Value) {
        let row = &mut self.rows[id as usize];
        let (old, new) = (row.key(col), value.key_bits());
        row.values_mut()[col] = value;
        if old == new {
            return;
        }
        if let Some((_, idx)) = self.indexes.iter_mut().find(|(c, _)| *c == col) {
            let idx = idx.buckets_mut();
            if let Some(bucket) = idx.get_mut(&old) {
                if let Some(pos) = bucket.iter().position(|&i| i == id) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    idx.remove(&old);
                }
            }
            idx.entry(new).or_default().push(id);
        }
    }

    /// All rows; a row's id is its position here.
    #[inline]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether an index exists on `col`.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.iter().any(|(c, _)| *c == col)
    }

    /// The ids of the rows whose column `col` has key bits `key` (empty
    /// when the key is absent). Callers probing a run of equal keys can
    /// hold the slice across rows and resolve ids against
    /// [`RowStore::rows`]. Panics if no index covers `col` (a planner bug,
    /// not a user error).
    #[inline]
    pub fn probe_ids(&self, col: usize, key: u64) -> &[u32] {
        self.indexes
            .iter()
            .find(|(c, _)| *c == col)
            .unwrap_or_else(|| panic!("probe on unindexed column {col}"))
            .1
            .ids(key)
    }

    /// Approximate resident heap size in bytes: the row storage (including
    /// spilled values) plus every index — a key and its bucket header or
    /// run per map entry, plus the id payloads.
    pub fn resident_bytes(&self) -> u64 {
        let tuple_sz = std::mem::size_of::<Tuple>() as u64;
        let value_sz = std::mem::size_of::<Value>() as u64;
        let mut bytes = self.rows.capacity() as u64 * tuple_sz;
        for row in &self.rows {
            if row.arity() > dcd_common::tuple::INLINE_ARITY {
                bytes += row.arity() as u64 * value_sz;
            }
        }
        let id_sz = std::mem::size_of::<u32>() as u64;
        let key_sz = std::mem::size_of::<u64>();
        for (_, idx) in &self.indexes {
            bytes += match idx {
                Index::Buckets(map) => {
                    let entry = (key_sz + std::mem::size_of::<Vec<u32>>()) as u64;
                    map.len() as u64 * entry
                        + map.values().map(|b| b.capacity() as u64).sum::<u64>() * id_sz
                }
                Index::Csr { runs, ids } => {
                    let entry = (key_sz + std::mem::size_of::<(u32, u32)>()) as u64;
                    runs.len() as u64 * entry + ids.capacity() as u64 * id_sz
                }
            };
        }
        bytes
    }
}

/// `cols` without repeats, in first-seen order.
pub(crate) fn distinct(cols: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(cols.len());
    for &col in cols {
        if !out.contains(&col) {
            out.push(col);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(s: &RowStore, col: usize, v: i64) -> Vec<Tuple> {
        s.probe_ids(col, Value::Int(v).key_bits())
            .iter()
            .map(|&i| s.rows()[i as usize].clone())
            .collect()
    }

    #[test]
    fn push_assigns_sequential_ids_and_indexes() {
        let mut s = RowStore::new(&[0, 1, 0]);
        assert_eq!(s.push(Tuple::from_ints(&[1, 2])), 0);
        assert_eq!(s.push(Tuple::from_ints(&[1, 3])), 1);
        assert_eq!(probe(&s, 0, 1).len(), 2);
        assert_eq!(probe(&s, 1, 3), vec![Tuple::from_ints(&[1, 3])]);
        assert!(probe(&s, 1, 9).is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_value_moves_the_id_only_in_the_updated_columns_index() {
        let mut s = RowStore::new(&[0, 1]);
        let id = s.push(Tuple::from_ints(&[7, 5]));
        s.set_value(id, 1, Value::Int(3));
        assert_eq!(s.rows()[0], Tuple::from_ints(&[7, 3]));
        assert!(probe(&s, 1, 5).is_empty(), "old key must not keep the id");
        assert_eq!(probe(&s, 1, 3), vec![Tuple::from_ints(&[7, 3])]);
        assert_eq!(probe(&s, 0, 7), vec![Tuple::from_ints(&[7, 3])]);
    }

    #[test]
    #[should_panic(expected = "unindexed column")]
    fn probe_on_unindexed_column_panics() {
        RowStore::new(&[0]).probe_ids(1, 0);
    }
}
