//! Immutable, index-complete base (EDB) relations.
//!
//! Algorithm 1 lines 2–3 partition each base relation and index every
//! partition before the loop starts. [`SealedRelation::partitioned`] does
//! both in one pass: it reads each row's clustering key once, radix-sorts
//! the `u32` input positions by it and then by owner, builds every index
//! from those positions, frees the sort buffers, and only then copies each
//! row, once, into its worker's slice, which never changes after. A slice
//! stores its rows sorted by one indexed column's key bits, ties in input
//! order, so a probe on that column reads one contiguous run of rows. The
//! copy reads the input in order and writes each `Tuple`'s `u64` lanes
//! (see [`Frame`]), 8 bytes a cell, into its sorted slot of a zeroed
//! buffer allocated at its exact size.
//! Every index is CSR (see [`RowStore`]); each bucket lists its rows in
//! input order.

use crate::rows::{distinct, Index, RowStore};
use dcd_common::{Frame, Partitioner, Tuple};
use std::mem::replace;
use std::ops::{Deref, Range};

/// An immutable EDB relation (or partition slice) with its hash indexes.
///
/// Derefs to its [`RowStore`] for reads; there is no `DerefMut`, so a
/// sealed relation never changes after it is built.
pub struct SealedRelation(RowStore);

impl SealedRelation {
    /// Seals all of `rows`, which must share one arity, as one relation
    /// clustered on `index_cols[0]`: the one-slice case of
    /// [`SealedRelation::partitioned`].
    pub fn build(rows: &[Tuple], index_cols: &[usize]) -> Self {
        let cluster = index_cols.first().copied().unwrap_or(0);
        let arity = rows.first().map_or(0, Tuple::arity);
        let slices = Self::partitioned(rows, arity, index_cols, &Partitioner::new(1), cluster);
        let mut slices = slices.expect("rows of one arity");
        slices.pop().expect("one partition yields one slice")
    }

    /// Splits `rows` into one slice per partition of `part` by
    /// `H(row[col])` and seals each with a hash index on every column of
    /// `index_cols`: the only constructor, so no slice is ever partly
    /// indexed. Each slice stores its rows sorted by the key bits of `col`
    /// if it is indexed, else of `index_cols[0]`, ties in input order.
    ///
    /// Every row must have `arity` values; otherwise `Err` names the
    /// position in `rows` of the first that does not. The check rides on
    /// the row copy, the one pass that reads whole rows, so a relation is
    /// read once however it was loaded.
    pub fn partitioned(
        rows: &[Tuple],
        arity: usize,
        index_cols: &[usize],
        part: &Partitioner,
        col: usize,
    ) -> Result<Vec<Self>, usize> {
        let (mut cols, slices) = (distinct(index_cols), part.partitions());
        if let Some(i) = cols.iter().position(|&c| c == col) {
            cols[..=i].rotate_right(1);
        }
        let first = cols.first().copied();
        // The clustering sort reads a row's owner off its key when that
        // is the partition key; every other sort needs the owner array.
        let owner_of = |r: &Tuple| part.of_key(key(r, col)) as u32;
        let owners: Vec<u32> = match slices == 1 || (first == Some(col) && cols.len() == 1) {
            true => Vec::new(),
            false => rows.iter().map(owner_of).collect(),
        };
        let owner = |k, p: u32| match owners.get(p as usize) {
            Some(&o) => o as usize,
            None => part.of_key(k),
        };
        // Without an index every key is 0, so the rows keep input order.
        let (keys, pos, ranges) = sort(rows, |r| first.map_or(0, |c| key(r, c)), slices, owner);
        let clustered = |r: &Range<usize>| {
            Vec::from_iter(first.map(|c| (c, Index::sorted(&keys[r.clone()], 0..r.len() as u32))))
        };
        let mut indexes: Vec<Vec<(usize, Index)>> = ranges.iter().map(clustered).collect();
        drop(keys);
        // Each input row's global sorted position: slice `w` holds the
        // positions in `ranges[w]`, and a row's id is its offset there.
        let mut slot = vec![0u32; rows.len()];
        (0..).zip(&pos).for_each(|(s, &p)| slot[p as usize] = s);
        drop(pos);
        // A stable sort, so each run lists its ids in input order.
        for &c in cols.iter().skip(1) {
            let (keys, order, _) = sort(rows, |r| key(r, c), slices, owner);
            for (slice, r) in indexes.iter_mut().zip(&ranges) {
                let start = r.start as u32;
                let ids = order[r.clone()].iter().map(|&p| slot[p as usize] - start);
                slice.push((c, Index::sorted(&keys[r.clone()], ids)));
            }
        }
        drop(owners);
        // Copy the rows in input order, each straight into its slot.
        let mut frames = Vec::from_iter(ranges.iter().map(|r| Frame::zeroed(arity, r.len())));
        for (p, (row, &s)) in rows.iter().zip(&slot).enumerate() {
            if row.arity() != arity {
                return Err(p);
            }
            let w = ranges.partition_point(|r| r.end <= s as usize);
            frames[w].overwrite(s as usize - ranges[w].start, row.row());
        }
        let seal = |(lanes, idx)| SealedRelation(RowStore::from_parts(lanes, idx));
        Ok(frames.into_iter().zip(indexes).map(seal).collect())
    }
}

/// The key bits of `row[col]`, or 0 for a row too short to have it (which
/// the row copy then reports).
#[inline]
fn key(row: &Tuple, col: usize) -> u64 {
    let row = row.row();
    match col < row.arity() {
        true => row.key(col),
        false => 0,
    }
}

/// Reads `key` of every row once, then returns the keys and row positions
/// sorted stably by it (LSD radix, skipping bytes all keys share), then by
/// `owner(key, position)`, with each of the `owners` runs in them.
fn sort(
    rows: &[Tuple],
    key: impl Fn(&Tuple) -> u64,
    owners: usize,
    owner: impl Fn(u64, u32) -> usize,
) -> (Vec<u64>, Vec<u32>, Vec<Range<usize>>) {
    let n = u32::try_from(rows.len()).expect("sealed relation exceeds u32 row ids");
    let (mut keys, mut pos) = (Vec::from_iter(rows.iter().map(key)), Vec::from_iter(0..n));
    let mut tmp = (vec![0; rows.len()], vec![0; rows.len()]);
    let varying = keys.iter().fold(0, |acc, &k| acc | (k ^ keys[0]));
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let byte = |k, _| (k >> shift) as usize & 0xff;
        counting_pass(&mut keys, &mut pos, &mut tmp, 256, byte);
    }
    let runs = match owners {
        1 => std::iter::once(0..rows.len()).collect(),
        _ => counting_pass(&mut keys, &mut pos, &mut tmp, owners, owner),
    };
    (keys, pos, runs)
}

/// One stable counting-sort pass of `(keys, pos)` by `digit`, through the
/// scratch arrays `tmp`; returns each digit's run.
fn counting_pass(
    keys: &mut Vec<u64>,
    pos: &mut Vec<u32>,
    tmp: &mut (Vec<u64>, Vec<u32>),
    digits: usize,
    digit: impl Fn(u64, u32) -> usize,
) -> Vec<Range<usize>> {
    let mut count = vec![0; digits];
    for (&k, &p) in keys.iter().zip(pos.iter()) {
        count[digit(k, p)] += 1;
    }
    let starts = Vec::from_iter(count.iter().scan(0, |s, &c| Some(replace(s, *s + c))));
    let mut next = starts.clone();
    for (&k, &p) in keys.iter().zip(pos.iter()) {
        let slot = &mut next[digit(k, p)];
        (tmp.0[*slot], tmp.1[*slot]) = (k, p);
        *slot += 1;
    }
    std::mem::swap(keys, &mut tmp.0);
    std::mem::swap(pos, &mut tmp.1);
    starts.into_iter().zip(next).map(|(a, b)| a..b).collect()
}

impl Deref for SealedRelation {
    type Target = RowStore;

    #[inline]
    fn deref(&self) -> &RowStore {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Value;

    fn edges() -> Vec<Tuple> {
        vec![
            Tuple::from_ints(&[1, 2]),
            Tuple::from_ints(&[1, 3]),
            Tuple::from_ints(&[2, 3]),
            Tuple::from_ints(&[3, 1]),
        ]
    }

    fn probe(r: &SealedRelation, col: usize, key: u64) -> Vec<Tuple> {
        r.probe_ids(col, key)
            .iter()
            .map(|&i| r.rows().row(i as usize).to_tuple())
            .collect()
    }

    fn tuples(r: &SealedRelation) -> Vec<Tuple> {
        r.rows().iter().map(|row| row.to_tuple()).collect()
    }

    #[test]
    fn probe_finds_all_matches() {
        let r = SealedRelation::build(&edges(), &[0]);
        let hits = probe(&r, 0, Value::Int(1).key_bits());
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t.get(0).expect_int() == 1));
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let r = SealedRelation::build(&edges(), &[1]);
        assert!(r.probe_ids(1, 99).is_empty());
    }

    #[test]
    fn duplicate_index_cols_build_once() {
        let r = SealedRelation::build(&edges(), &[0, 0]);
        assert_eq!(probe(&r, 0, Value::Int(2).key_bits()).len(), 1);
    }

    #[test]
    fn multiple_indexes_coexist() {
        let r = SealedRelation::build(&edges(), &[0, 1]);
        assert_eq!(probe(&r, 1, Value::Int(3).key_bits()).len(), 2);
        assert_eq!(probe(&r, 0, Value::Int(3).key_bits()).len(), 1);
    }

    #[test]
    fn partitioned_slices_are_exhaustive_and_disjoint() {
        let rows = edges();
        let part = Partitioner::new(3);
        let parts = SealedRelation::partitioned(&rows, 2, &[0], &part, 0).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rows.len());
        for (w, p) in parts.iter().enumerate() {
            for row in p.rows().iter() {
                assert_eq!(part.of_key(row.key(0)), w);
            }
        }
    }

    #[test]
    fn a_row_of_another_arity_is_reported_not_sealed() {
        let mut rows = edges();
        rows.insert(2, Tuple::from_ints(&[7]));
        rows.push(Tuple::from_ints(&[1, 2, 3]));
        for parts in [1, 3] {
            let part = Partitioner::new(parts);
            for col in [0, 1] {
                let sealed = SealedRelation::partitioned(&rows, 2, &[0, 1], &part, col);
                let bad = sealed.err().expect("a row of another arity");
                assert!([2, rows.len() - 1].contains(&bad), "{bad}");
            }
        }
        let part = Partitioner::new(2);
        assert!(SealedRelation::partitioned(&rows, 1, &[0], &part, 0).is_err());
    }

    #[test]
    fn empty_relation() {
        let r = SealedRelation::build(&[], &[0]);
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
        let r = SealedRelation::build(&input, &[0, 1]);
        let firsts: Vec<i64> = r.rows().iter().map(|t| t.get(0).expect_int()).collect();
        assert_eq!(firsts, [1, 1, 2, 3, 3]);
        // Equal keys keep their input order, on the clustering column and
        // on the other index alike.
        let ones = probe(&r, 0, Value::Int(1).key_bits());
        assert_eq!(ones, [Tuple::from_ints(&[1, 9]), Tuple::from_ints(&[1, 4])]);
        assert_eq!(r.probe_ids(0, Value::Int(1).key_bits()), &[0, 1]);
        let by_second = probe(&r, 1, Value::Int(1).key_bits());
        assert_eq!(
            by_second,
            [Tuple::from_ints(&[3, 1]), Tuple::from_ints(&[2, 1])]
        );
    }

    #[test]
    fn partition_column_leads_the_clustering_when_indexed() {
        // Column 1 falls as column 0 rises and column 2 cycles, so each
        // clustering column gives a different stored order.
        let rows: Vec<Tuple> = (0..30)
            .map(|i| Tuple::from_ints(&[i, 29 - i, i % 4]))
            .collect();
        let part = Partitioner::new(2);
        let on = |slices: &[SealedRelation], c: usize| {
            slices
                .iter()
                .all(|s| s.rows().iter().is_sorted_by_key(|r| r.key(c)))
        };
        let sealed =
            |cols: &[usize], col| SealedRelation::partitioned(&rows, 3, cols, &part, col).unwrap();
        assert!(on(&sealed(&[0, 1, 2], 1), 1));
        assert!(!on(&sealed(&[0, 1, 2], 1), 0));
        assert!(on(&sealed(&[0, 1, 2], 0), 0));
        // An unindexed partition column leaves the first index column.
        assert!(on(&sealed(&[0, 1], 2), 0));
        assert!(on(&[SealedRelation::build(&rows, &[1, 0])], 1));
        assert_eq!(tuples(&SealedRelation::build(&rows, &[])), rows);
    }

    /// Rows, runs and ids of a sealed store with `rows` integer rows of
    /// `arity` 8-byte lanes and `runs` distinct keys summed over its
    /// indexes, allocated at exact size.
    fn exact_bytes(rows: usize, arity: usize, runs: usize, indexes: usize) -> u64 {
        use std::mem::size_of;
        let rows_b = rows * arity * size_of::<u64>();
        let runs_b = runs * (size_of::<u64>() + size_of::<(u32, u32)>());
        let ids_b = indexes * rows * size_of::<u32>();
        (rows_b + runs_b + ids_b) as u64
    }

    #[test]
    fn resident_bytes_counts_rows_runs_and_ids_exactly() {
        // Three distinct keys in each column, four rows.
        let r = SealedRelation::build(&edges(), &[0, 1]);
        assert_eq!(r.resident_bytes(), exact_bytes(4, 2, 3 + 3, 2));
    }

    #[test]
    fn partitioned_slices_are_allocated_at_their_exact_size() {
        // Enough rows that a vector grown by doubling would show slack.
        let rows: Vec<Tuple> = (0..1000).map(|i| Tuple::from_ints(&[i % 37, i])).collect();
        let part = Partitioner::new(3);
        for col in [0, 1] {
            for slice in SealedRelation::partitioned(&rows, 2, &[0, 1], &part, col).unwrap() {
                let distinct = |c: usize| {
                    let mut keys: Vec<u64> = slice.rows().iter().map(|r| r.key(c)).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    keys.len()
                };
                let want = exact_bytes(slice.len(), 2, distinct(0) + distinct(1), 2);
                assert_eq!(slice.resident_bytes(), want, "partition column {col}");
            }
        }
    }

    #[test]
    fn resident_bytes_grows_with_rows_and_indexes() {
        let bare = SealedRelation::build(&edges(), &[]);
        let indexed = SealedRelation::build(&edges(), &[0, 1]);
        assert!(bare.resident_bytes() > 0);
        assert!(indexed.resident_bytes() > bare.resident_bytes());
    }
}
