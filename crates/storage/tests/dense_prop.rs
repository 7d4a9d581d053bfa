//! Property tests of a set relation's bit matrix: a `DerivedRelation`
//! given a box must store, answer `contains` and report `Merged` exactly
//! as a `BTreeSet<Vec<Value>>` of the merged rows says, whatever mix of
//! rows it meets.
//!
//! Rows draw their cells from a palette: integers inside the box (which
//! holds negative ids), just outside it, `i64`'s extremes, and floats,
//! among them `Float(3.0)` (equal to `Int(3)`), `Float(-0.0)` and
//! `Float(0.0)`. The first float row merged moves the matrix's rows into
//! the dedup table, so later merges check the table's value semantics
//! against rows the matrix stored. A box too large for the size rule makes
//! no matrix, and the relation runs on its dedup table alone.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Tuple, Value};
use dcd_storage::{BitMatrix, DerivedRelation, Merged};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// The box the small palette's integers `-3..=4` fill.
const SMALL: RangeInclusive<i64> = -3..=4;

/// Cell `i` of the palette.
fn cell(i: u8) -> Value {
    const INTS: [i64; 11] = [-3, -1, 0, 1, 3, 4, -4, 5, 1000, i64::MIN, i64::MAX];
    const FLOATS: [f64; 4] = [3.0, -0.0, 0.0, 2.5];
    match INTS.get(i as usize) {
        Some(&v) => Value::Int(v),
        None => Value::Float(FLOATS[i as usize - INTS.len()]),
    }
}

/// Rows of `arity` cells: integer rows first, so the matrix stores many
/// rows, then rows whose cells may be floats, whose first float row moves
/// them into the dedup table.
fn rows(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = |cells: u8| {
        let c = (0..cells).prop_map(cell);
        proptest::collection::vec(c, arity..arity + 1)
    };
    let ints = proptest::collection::vec(row(11), 1..60);
    let mixed = proptest::collection::vec(row(15), 0..30);
    (ints, mixed).prop_map(|(mut ints, mixed)| {
        ints.extend(mixed);
        ints
    })
}

/// Merges `rows` into a set relation over `within` and checks it against
/// the oracle after every merge.
fn check(within: RangeInclusive<i64>, arity: usize, rows: &[Vec<Value>]) {
    let mut rel = DerivedRelation::set(&[0]);
    if let Some(bits) = BitMatrix::new(&within, arity) {
        rel = rel.with_bits(bits);
    }
    let mut oracle = BTreeSet::new();
    for values in rows {
        let t = Tuple::new(values);
        let row = t.row();
        let had = oracle.contains(values);
        // Sound always; exact for an all-integer row.
        let found = rel.contains(row);
        prop_assert!(!found || had, "contains {:?} without it", values);
        if row.all_ints() {
            prop_assert_eq!(found, had, "contains {:?}", values);
        }
        let merged = rel.merge(row);
        prop_assert_eq!(matches!(merged, Merged::New(_)), !had, "merge {:?}", values);
        if let Merged::New(id) = merged {
            prop_assert_eq!(id as usize, rel.len() - 1, "a set insert appends");
            oracle.insert(values.clone());
        }
        prop_assert!(rel.contains(row) || !row.all_ints(), "{:?} stored", values);
        let mut stored: Vec<Vec<Value>> = rel.rows().iter().map(|r| r.values().collect()).collect();
        stored.sort();
        let want: Vec<Vec<Value>> = oracle.iter().cloned().collect();
        prop_assert_eq!(stored, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pairs_in_a_small_box_match_the_oracle(rows in rows(2)) {
        check(SMALL, 2, &rows);
    }

    #[test]
    fn single_cells_in_a_small_box_match_the_oracle(rows in rows(1)) {
        check(SMALL, 1, &rows);
    }

    #[test]
    fn a_box_at_the_i64_edge_matches_the_oracle(rows in rows(2)) {
        // `hi` is `i64::MAX`: a cell below `lo` must not wrap into it.
        let edge = i64::MAX - 20..=i64::MAX;
        prop_assert!(BitMatrix::new(&edge, 2).is_some());
        check(edge, 2, &rows);
        let low = i64::MIN..=i64::MIN + 20;
        check(low, 2, &rows);
    }

    #[test]
    fn a_box_too_large_for_a_matrix_runs_on_the_table(rows in rows(2)) {
        let wide = -3..=1021;
        prop_assert!(BitMatrix::new(&wide, 2).is_none());
        check(wide, 2, &rows);
    }
}

#[test]
fn the_size_rule_follows_the_first_table() {
    // 2^13 first slots of (2 + arity) four-byte lanes, in bits.
    let span = |n: i64| -7..=n - 8;
    assert!(BitMatrix::new(&span(1024), 2).is_some());
    assert!(BitMatrix::new(&span(1025), 2).is_none());
    assert!(BitMatrix::new(&span(786_432), 1).is_some());
    assert!(BitMatrix::new(&span(786_433), 1).is_none());
    assert!(BitMatrix::new(&span(109), 3).is_some());
    assert!(BitMatrix::new(&span(110), 3).is_none());
    assert!(BitMatrix::new(&(i64::MIN..=i64::MAX), 1).is_none());
}

#[test]
fn a_float_row_finds_the_integer_row_the_matrix_stored() {
    let mut rel = DerivedRelation::set(&[]).with_bits(BitMatrix::new(&SMALL, 1).unwrap());
    let int = |v| Tuple::from_ints(&[v]);
    let float = |v| Tuple::new(&[Value::Float(v)]);
    assert_eq!(rel.merge(int(3).row()), Merged::New(0));
    assert_eq!(rel.merge(int(0).row()), Merged::New(1));
    // Before any float is merged the matrix answers; a float misses it.
    assert!(!rel.contains(float(3.0).row()), "sound, not exact");
    assert_eq!(
        rel.merge(float(3.0).row()),
        Merged::Old,
        "Int(3) == Float(3.0)"
    );
    assert!(rel.contains(float(3.0).row()), "the table now answers");
    assert_eq!(rel.merge(float(-0.0).row()), Merged::New(2));
    assert_eq!(
        rel.merge(float(0.0).row()),
        Merged::Old,
        "Int(0) == Float(0.0)"
    );
    assert_eq!(rel.merge(float(-0.0).row()), Merged::Old);
    assert_eq!(rel.merge(int(4).row()), Merged::New(3));
    assert_eq!(rel.merge(int(4).row()), Merged::Old);
    assert_eq!(rel.len(), 4);
}
