//! Immutable, index-complete base (EDB) relations.
//!
//! Algorithm 1 lines 2–3 partition each base relation and index every
//! partition before the loop starts. [`SealedRelation::partitioned`] does
//! both on one thread per partition (`std::thread::scope`; the calling
//! thread takes the first share, so a one-partition seal spawns none).
//! First each thread counts, then scatters, one chunk of the input by
//! owner, so each slice's row positions and clustering keys land in one
//! region, in input order. From then on a slice is one thread's: it sorts
//! its rows by clustering key (one counting pass when the keys span few
//! values, else a radix sort over the bytes in which they differ), builds
//! every index from the sorted order, and copies each of its rows, once
//! and in input order, into its sorted slot of the slice's lane [`Frame`].
//! A slice stores its rows sorted by one indexed column's key bits, ties
//! in input order, so a probe on that column reads one contiguous run of
//! rows. Every index is CSR (see [`RowStore`]); each bucket lists its rows
//! in input order.
//!
//! The calling thread allocates every buffer whose size grows with the row
//! count: positions, keys and sort scratch, each index's id array and runs
//! map (sized from the distinct keys its thread counted), and each slice's
//! frame with its float tags. The spawned threads only write into them,
//! so they never draw on a malloc arena of their own (DESIGN.md §7).

use crate::rows::{distinct, Index, RowStore};
use dcd_common::hash::FastMap;
use dcd_common::{Frame, Partitioner, Row, Tuple};
use std::mem::{swap, take};
use std::ops::Deref;

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
    /// Runs on `part.partitions()` threads, the calling one included.
    ///
    /// Every row must have `arity` values; otherwise `Err` names the
    /// position in `rows` of the first that does not, whatever the
    /// partition count. The check rides on the row copy, the one pass that
    /// reads whole rows, so it costs no pass of its own.
    pub fn partitioned(
        rows: &[Tuple],
        arity: usize,
        index_cols: &[usize],
        part: &Partitioner,
        col: usize,
    ) -> Result<Vec<Self>, usize> {
        let n = rows.len();
        u32::try_from(n).expect("sealed relation exceeds u32 row ids");
        let (mut cols, slices) = (distinct(index_cols), part.partitions());
        if let Some(i) = cols.iter().position(|&c| c == col) {
            cols[..=i].rotate_right(1);
        }
        let first = cols.first().copied();
        let owner_of = |k| match slices {
            1 => 0,
            _ => part.of_key(k),
        };
        let owner = |r: &Tuple| owner_of(key(r.row(), col));
        let chunk = n.div_ceil(slices).max(1);
        let chunks = || (0u32..).step_by(chunk).zip(rows.chunks(chunk));

        // Each input chunk counts its rows per owner.
        let mut counts = vec![vec![0usize; slices]; n.div_ceil(chunk)];
        on_threads(
            chunks().zip(&mut counts),
            |((_, rows), counts)| match slices {
                1 => counts[0] = rows.len(),
                _ => rows.iter().for_each(|r| counts[owner(r)] += 1),
            },
        );
        let totals = Vec::from_iter((0..slices).map(|w| counts.iter().map(|c| c[w]).sum()));
        let ranges = Vec::from_iter(totals.iter().scan(0, |start, &len| {
            *start += len;
            Some(*start - len..*start)
        }));

        // Each chunk then writes its rows' positions and clustering keys to
        // its part of each owner's region: the regions lie in owner order,
        // and a region's parts in input order. It also notes the owners
        // that get a float, and the least and greatest key.
        let (mut pos, mut keys) = (vec![0u32; n], vec![0u64; n]);
        let mut outs = Vec::from_iter(counts.iter().map(|_| Vec::with_capacity(slices)));
        let (mut pos_rest, mut keys_rest) = (&mut pos[..], &mut keys[..]);
        for w in 0..slices {
            for (out, c) in outs.iter_mut().zip(&counts) {
                out.push((
                    split_off(&mut pos_rest, c[w]),
                    split_off(&mut keys_rest, c[w]),
                ));
            }
        }
        let mut floats = vec![vec![false; slices]; counts.len()];
        let work = chunks().zip(&mut outs).zip(&mut floats);
        let bounds = on_threads(work, |(((start, rows), outs), floats)| {
            let (floats, mut bounds) = (&mut floats[..], (u64::MAX, 0));
            for (p, t) in (start..).zip(rows) {
                let r = t.row();
                let k = first.map_or(0, |c| key(r, c));
                let w = if first == Some(col) {
                    owner_of(k)
                } else {
                    owner(t)
                };
                let (pos, keys) = &mut outs[w];
                push(pos, p);
                push(keys, k);
                floats[w] |= !r.all_ints();
                bounds = (bounds.0.min(k), bounds.1.max(k));
            }
            bounds
        });
        let (lo, hi) = bounds
            .iter()
            .fold((u64::MAX, 0), |(l, h), b| (l.min(b.0), h.max(b.1)));

        // Each slice sorts its rows by clustering key, ties in input order:
        // a row's id is its place in that order, and `id_of` maps each
        // place in the region to it. When the keys span no more values
        // than there are rows over all slices, one counting pass does it;
        // otherwise a radix sort over the keys' varying bytes.
        let span = hi.checked_sub(lo).and_then(|d| d.checked_add(1));
        let span = span.filter(|&s| s.saturating_mul(slices as u64) <= n as u64);
        let mut id_of = vec![0u32; n];
        let mut indexes = Vec::from_iter((0..slices).map(|_| Vec::with_capacity(cols.len())));
        if let Some(span) = span {
            let mut ends = Vec::from_iter((0..slices).map(|_| vec![0u32; span as usize]));
            let work = split(&mut keys, &totals)
                .into_iter()
                .zip(split(&mut id_of, &totals));
            let distinct = on_threads(work.zip(&mut ends), |((keys, id_of), ends)| {
                counting_sort(keys, lo, id_of, ends)
            });
            if let Some(c) = first {
                let mut built = csr(&distinct, &totals);
                on_threads(built.iter_mut().zip(&ends), |((runs, ids), ends)| {
                    let mut start = 0;
                    for (b, &end) in (0..).zip(ends.iter()) {
                        if end > start {
                            runs.insert(lo + b, (start, end));
                            start = end;
                        }
                    }
                    ids.iter_mut().zip(0..).for_each(|(id, i)| *id = i);
                });
                add(&mut indexes, c, built);
            }
        }

        // The rest are radix sorts: of the clustering column when the
        // counting pass did not do it, and of each other index column,
        // whose ids they list by key, each key's ids in input order.
        let (mut perm, mut tmp) = (Vec::new(), (Vec::new(), Vec::new()));
        let sorts = std::iter::once(first).chain(cols.iter().skip(1).map(|&c| Some(c)));
        for (i, c) in sorts.enumerate().skip(span.is_some() as usize) {
            perm.resize(n, 0);
            tmp.0.resize(n, 0);
            tmp.1.resize(n, 0);
            let work = split(&mut keys, &totals)
                .into_iter()
                .zip(split(&mut perm, &totals))
                .zip(
                    split(&mut tmp.0, &totals)
                        .into_iter()
                        .zip(split(&mut tmp.1, &totals)),
                )
                .zip(split(&mut id_of, &totals).into_iter().zip(&ranges));
            let distinct = on_threads(work, |(((keys, perm), tmp), (id_of, r))| {
                if let (Some(c), true) = (c, i > 0) {
                    let pos = &pos[r.clone()];
                    keys.iter_mut()
                        .zip(pos)
                        .for_each(|(k, &p)| *k = key(rows[p as usize].row(), c));
                }
                perm.iter_mut().zip(0..).for_each(|(p, j)| *p = j);
                radix_sort(keys, perm, tmp);
                if i == 0 {
                    perm.iter()
                        .zip(0..)
                        .for_each(|(&j, id)| id_of[j as usize] = id);
                }
                keys.chunk_by(|a, b| a == b).count()
            });
            let Some(c) = c else { continue };
            let mut built = csr(&distinct, &totals);
            on_threads(built.iter_mut().zip(&ranges), |((runs, ids), r)| {
                let mut start = 0;
                for run in keys[r.clone()].chunk_by(|a, b| a == b) {
                    let end = start + run.len() as u32;
                    runs.insert(run[0], (start, end));
                    start = end;
                }
                let (perm, id_of) = (&perm[r.clone()], &id_of[r.clone()]);
                ids.iter_mut()
                    .zip(perm)
                    .for_each(|(id, &j)| *id = id_of[j as usize]);
            });
            add(&mut indexes, c, built);
        }
        drop((keys, perm, tmp));

        // Each slice copies its rows in input order, each straight into
        // its slot.
        let tagged = (0..slices).map(|w| floats.iter().any(|f| f[w]));
        let frame = |(&len, floats)| Frame::zeroed(arity, len, floats);
        let mut frames = Vec::from_iter(totals.iter().zip(tagged).map(frame));
        let bad = on_threads(frames.iter_mut().zip(&ranges), |(frame, r)| {
            for (&p, &id) in pos[r.clone()].iter().zip(&id_of[r.clone()]) {
                let row = rows[p as usize].row();
                if row.arity() != arity {
                    return Some(p as usize);
                }
                frame.overwrite(id as usize, row);
            }
            None
        });
        if let Some(p) = bad.into_iter().flatten().min() {
            return Err(p);
        }
        let seal = |(lanes, idx)| SealedRelation(RowStore::from_parts(lanes, idx));
        Ok(frames.into_iter().zip(indexes).map(seal).collect())
    }
}

/// A CSR index's runs map and id array (see [`Index::Csr`]).
type Csr = (FastMap<u64, (u32, u32)>, Vec<u32>);

/// An empty CSR index for each slice `w`, allocated at its exact size for
/// `distinct[w]` keys and `totals[w]` rows.
fn csr(distinct: &[usize], totals: &[usize]) -> Vec<Csr> {
    let csr = |(&keys, &rows)| {
        let runs = FastMap::with_capacity_and_hasher(keys, Default::default());
        (runs, vec![0; rows])
    };
    Vec::from_iter(distinct.iter().zip(totals).map(csr))
}

/// Adds each slice's index on column `col`.
fn add(indexes: &mut [Vec<(usize, Index)>], col: usize, built: Vec<Csr>) {
    for (slice, (runs, ids)) in indexes.iter_mut().zip(built) {
        slice.push((col, Index::Csr { runs, ids }));
    }
}

/// The key bits of `row[col]`, or 0 for a row too short to have it (which
/// the row copy then reports).
#[inline]
fn key(row: Row<'_>, col: usize) -> u64 {
    match col < row.arity() {
        true => row.key(col),
        false => 0,
    }
}

/// Runs `job` on every share of `work`: the first on the calling thread,
/// each other on a scoped thread of its own. Returns the results in order.
fn on_threads<W: Send, R: Send>(
    work: impl IntoIterator<Item = W>,
    job: impl Fn(W) -> R + Sync,
) -> Vec<R> {
    let (job, mut work) = (&job, work.into_iter());
    let first = work.next();
    std::thread::scope(|s| {
        let spawned = Vec::from_iter(work.map(|w| s.spawn(move || job(w))));
        let mut out = Vec::from_iter(first.map(job));
        for thread in spawned {
            out.push(
                thread
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        out
    })
}

/// The first `len` items of `rest`, which keeps the others.
fn split_off<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// `v` cut into consecutive parts of `lens`.
fn split<'a, T>(mut v: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    Vec::from_iter(lens.iter().map(|&len| split_off(&mut v, len)))
}

/// Writes `v` into the first slot of `out`, which then starts after it.
fn push<T>(out: &mut &mut [T], v: T) {
    let (head, tail) = take(out).split_first_mut().expect("a slot counted for it");
    *head = v;
    *out = tail;
}

/// Counting-sorts the region whose keys are `keys`, each at most
/// `ends.len() - 1` above `lo`: stores each row's sorted place in
/// `id_of`, ties in input order, and leaves `ends[k - lo]` the end of key
/// `k`'s run. Returns the number of distinct keys.
fn counting_sort(keys: &[u64], lo: u64, id_of: &mut [u32], ends: &mut [u32]) -> usize {
    keys.iter().for_each(|&k| ends[(k - lo) as usize] += 1);
    let distinct = ends.iter().filter(|&&c| c > 0).count();
    ends.iter_mut()
        .fold(0, |start, c| start + std::mem::replace(c, start));
    for (&k, id) in keys.iter().zip(id_of) {
        let next = &mut ends[(k - lo) as usize];
        *id = *next;
        *next += 1;
    }
    distinct
}

/// Sorts `keys` and `perm` together, stably by key: LSD radix, one
/// counting pass per byte in which the keys differ, through the scratch
/// `tmp` of the same length.
fn radix_sort(keys: &mut [u64], perm: &mut [u32], tmp: (&mut [u64], &mut [u32])) {
    let varying = keys.iter().fold(0, |acc, &k| acc | (k ^ keys[0]));
    let shifts = (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0);
    let (mut src, mut dst) = ((keys, perm), tmp);
    // An odd pass count would end in the scratch: start there instead.
    if shifts.clone().count() % 2 == 1 {
        dst.0.copy_from_slice(src.0);
        dst.1.copy_from_slice(src.1);
        swap(&mut src, &mut dst);
    }
    for shift in shifts {
        let digit = |k: u64| (k >> shift) as usize & 0xff;
        let mut next = [0usize; 256];
        src.0.iter().for_each(|&k| next[digit(k)] += 1);
        next.iter_mut()
            .fold(0, |start, c| start + std::mem::replace(c, start));
        for (&k, &p) in src.0.iter().zip(src.1.iter()) {
            let slot = &mut next[digit(k)];
            (dst.0[*slot], dst.1[*slot]) = (k, p);
            *slot += 1;
        }
        swap(&mut src, &mut dst);
    }
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
