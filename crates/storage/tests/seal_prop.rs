//! Property tests for the seal: [`SealedRelation::partitioned`], which
//! partitions, sorts and indexes a base relation on one thread per
//! partition, must give every slice exactly what a one-row-at-a-time
//! oracle written here gives it.
//!
//! Relations have arity 1–4. Cells come from one of two pools: a narrow
//! one (small integers and the integral floats equal to them), whose keys
//! span few values, so the clustering sort is one counting pass; and a
//! wide one (negative integers, `i64` extremes, `-0.0` and `0.0`, other
//! floats), whose keys make it a radix sort. Rows repeat keys, relations
//! may be empty, and each case picks 0–3 index columns (repeats allowed),
//! a partition column that is indexed or not, and 1–4 partitions.
//!
//! The oracle: slice `w` holds the rows with `H(row[col]) == w`, stably
//! sorted by the key bits of the clustering column (`col` when indexed,
//! else the first index column); each index's runs list, per key in
//! ascending order, the ids of its rows in input order, from a linear scan
//! of the input. Every slice must match it in lanes, float tags, runs,
//! ids and `resident_bytes`. A row of another arity inserted anywhere must
//! be reported at the same, first, input position whatever the partition
//! count.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Partitioner, Tuple, Value};
use dcd_storage::SealedRelation;
use std::collections::BTreeMap;

fn narrow_pool() -> Vec<Value> {
    let mut pool = Vec::from_iter((0..6).map(Value::Int));
    pool.extend([Value::Float(2.0), Value::Float(5.0)]);
    pool
}

fn wide_pool() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(-7),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(1 << 40),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(0.5),
        Value::Float(-3.25),
    ]
}

/// One generated seal: the relation and how it is sealed, plus where a row
/// of another arity is inserted for the error check.
#[derive(Clone, Debug)]
struct Case {
    arity: usize,
    rows: Vec<Tuple>,
    index_cols: Vec<usize>,
    col: usize,
    parts: usize,
    bad_at: usize,
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..=4, 0usize..2).prop_flat_map(|(arity, wide)| {
        let pool = move || {
            if wide == 1 {
                wide_pool()
            } else {
                narrow_pool()
            }
        };
        let row = proptest::collection::vec(0..pool().len(), arity..=arity);
        let rows = proptest::collection::vec(row, 0..90);
        let index_cols = proptest::collection::vec(0..arity, 0..=3);
        let shape = (rows, index_cols, 0..arity, 1usize..=4, 0usize..=90);
        shape.prop_map(move |(rows, index_cols, col, parts, bad_at)| {
            let pool = pool();
            let row = |r: &Vec<usize>| Tuple::new(&Vec::from_iter(r.iter().map(|&i| pool[i])));
            let rows = Vec::from_iter(rows.iter().map(row));
            let bad_at = bad_at.min(rows.len());
            Case {
                arity,
                rows,
                index_cols,
                col,
                parts,
                bad_at,
            }
        })
    })
}

/// One slice as the oracle builds it.
struct Slice {
    rows: Frame,
    /// Per index column, each key's ids in ascending key order.
    runs: Vec<(usize, BTreeMap<u64, Vec<u32>>)>,
}

impl Slice {
    /// Row lanes and float tags, plus per index a run per key and an id
    /// per row, all at their exact sizes.
    fn resident_bytes(&self) -> u64 {
        let (run, id) = (8 + 8, 4);
        let indexes = self
            .runs
            .iter()
            .map(|(_, runs)| runs.len() * run + self.rows.len() * id);
        self.rows.resident_bytes() + indexes.sum::<usize>() as u64
    }
}

fn key(t: &Tuple, c: usize) -> u64 {
    t.get(c).key_bits()
}

fn oracle(c: &Case) -> Vec<Slice> {
    let mut cols: Vec<usize> = Vec::new();
    for &i in &c.index_cols {
        if !cols.contains(&i) {
            cols.push(i);
        }
    }
    let cluster = if cols.contains(&c.col) {
        Some(c.col)
    } else {
        cols.first().copied()
    };
    let part = Partitioner::new(c.parts);
    (0..c.parts)
        .map(|w| {
            let mut members: Vec<usize> = (0..c.rows.len())
                .filter(|&p| part.of_key(key(&c.rows[p], c.col)) == w)
                .collect();
            members.sort_by_key(|&p| cluster.map_or(0, |k| key(&c.rows[p], k)));
            let floats = members.iter().any(|&p| !c.rows[p].row().all_ints());
            let mut rows = Frame::zeroed(c.arity, members.len(), floats);
            for (id, &p) in members.iter().enumerate() {
                rows.overwrite(id, c.rows[p].row());
            }
            let id_of = |p: usize| members.iter().position(|&m| m == p).unwrap() as u32;
            let runs = cols.iter().map(|&k| {
                let mut runs: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                for p in (0..c.rows.len()).filter(|p| members.contains(p)) {
                    runs.entry(key(&c.rows[p], k)).or_default().push(id_of(p));
                }
                (k, runs)
            });
            Slice {
                rows,
                runs: runs.collect(),
            }
        })
        .collect()
}

fn check(c: &Case) {
    let part = Partitioner::new(c.parts);
    let got = SealedRelation::partitioned(&c.rows, c.arity, &c.index_cols, &part, c.col);
    let got = got.expect("rows of one arity");
    let want = oracle(c);
    prop_assert_eq!(got.len(), want.len());
    for (w, (got, want)) in got.iter().zip(&want).enumerate() {
        prop_assert!(got.rows() == &want.rows, "slice {} rows", w);
        for (col, runs) in &want.runs {
            for (&k, ids) in runs {
                prop_assert_eq!(
                    got.probe_ids(*col, k),
                    &ids[..],
                    "slice {} col {} key {:#x}",
                    w,
                    col,
                    k
                );
            }
        }
        prop_assert_eq!(got.resident_bytes(), want.resident_bytes(), "slice {}", w);
    }
}

/// A row of another arity at `c.bad_at` (and, when there is room, a
/// second one after it) is reported at `c.bad_at` for every partition
/// count.
fn check_bad_arity(c: &Case) {
    let mut rows = c.rows.clone();
    rows.insert(c.bad_at, Tuple::from_ints(&vec![9; c.arity % 4 + 1]));
    if c.bad_at + 2 < rows.len() {
        rows.insert(c.bad_at + 2, Tuple::from_ints(&vec![9; c.arity + 1]));
    }
    for parts in 1..=4 {
        let part = Partitioner::new(parts);
        let got = SealedRelation::partitioned(&rows, c.arity, &c.index_cols, &part, c.col);
        prop_assert_eq!(got.err(), Some(c.bad_at), "{} partitions", parts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_slice_matches_the_oracle(c in case()) {
        check(&c);
        check_bad_arity(&c);
    }
}

#[test]
fn both_sorts_are_exercised() {
    // Narrow keys over enough rows take the counting sort; the same rows
    // with one `i64::MIN` key take the radix sort. Both agree with the
    // oracle at every partition count.
    let mut rows: Vec<Tuple> = (0..200)
        .map(|i| Tuple::from_ints(&[i % 7, i % 3, i]))
        .collect();
    for wide in [false, true] {
        if wide {
            rows[100] = Tuple::from_ints(&[i64::MIN, 0, 0]);
        }
        for parts in 1..=4 {
            for (index_cols, col) in [(vec![0, 1], 0), (vec![1, 2], 0), (vec![], 2)] {
                let c = Case {
                    arity: 3,
                    rows: rows.clone(),
                    index_cols,
                    col,
                    parts,
                    bad_at: 0,
                };
                check(&c);
            }
        }
    }
}
