//! Property tests: a `DerivedRelation` must behave exactly like a naive
//! hash-map model under arbitrary merge sequences, for set semantics and
//! for each aggregate function, and its row-id indexes must agree with a
//! filter over its rows at every step — including an index on the
//! aggregate column, whose ids move when a value is updated in place.
//! Every `Merged::New(id)` must name the stored row of the incoming row's
//! key: a set insert is the last row appended, and an aggregate group
//! keeps the id of its first merge through every improvement.
//!
//! Keys drawn from mixed `Int`/`Float` values pin the dedup table's
//! exact-comparison fallback, where equal key bits do not mean equal
//! values.
//!
//! A `SealedRelation` must store its input clustered on its first index
//! column, and every CSR index must hand back exactly the rows a linear
//! filter over the input finds, in input order, with each row id in
//! exactly one bucket per index. Sealed partitioned, each slice must be
//! exactly that relation over the rows the `Partitioner` gives its
//! worker, whichever column the rows are partitioned on (clustered on the
//! partition column when it is indexed).

use dcd_common::hash::{FastMap, FastSet};
use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Partitioner, Tuple, Value};
use dcd_storage::{AggFunc, DerivedRelation, Merged, SealedRelation};

/// Semantics under test; `None` is a set relation.
type Kind = Option<AggFunc>;

/// Model state per group (or per row, for sets).
#[derive(Default)]
struct Group {
    /// min/max: the extremum; sum: the total; count: the count.
    value: f64,
    contribs: FastMap<i64, f64>,
    emitted: f64,
}

const EPSILON: f64 = 0.3;

/// Merges `row` through its lane encoding.
fn merge(rel: &mut DerivedRelation, row: &Tuple) -> Merged {
    rel.merge(row.row())
}

/// Every row of `rows`, decoded.
fn tuples(rows: &Frame) -> Vec<Tuple> {
    rows.iter().map(|r| r.to_tuple()).collect()
}

/// The incoming merge-layout row for one `(a, b, c)` draw: `(a, b)` for
/// sets, `(a, b)` = (group, value) for min/max, `(a, b)` = (group,
/// contributor) for count and `(a, b, c/4)` for sum.
fn incoming(kind: Kind, (a, b, c): (i64, i64, i64)) -> Tuple {
    match kind {
        Some(AggFunc::Sum) => {
            Tuple::new(&[Value::Int(a), Value::Int(b), Value::Float(c as f64 / 4.0)])
        }
        _ => Tuple::from_ints(&[a, b]),
    }
}

/// Applies one merge to the model; returns whether it is new/improved.
fn model_merge(
    kind: Kind,
    model: &mut FastMap<i64, Group>,
    set: &mut FastSet<(i64, i64)>,
    (a, b, c): (i64, i64, i64),
) -> bool {
    let Some(func) = kind else {
        return set.insert((a, b));
    };
    let fresh = !model.contains_key(&a);
    let g = model.entry(a).or_insert_with(|| Group {
        value: match func {
            AggFunc::Min | AggFunc::Max => b as f64,
            _ => 0.0,
        },
        emitted: f64::NEG_INFINITY,
        ..Group::default()
    });
    match func {
        AggFunc::Min | AggFunc::Max => {
            let better = match func {
                AggFunc::Min => (b as f64) < g.value,
                _ => (b as f64) > g.value,
            };
            if better {
                g.value = b as f64;
            }
            fresh || better
        }
        AggFunc::Count => {
            if g.contribs.insert(b, 1.0).is_some() {
                return false;
            }
            g.value = g.contribs.len() as f64;
            true
        }
        AggFunc::Sum => {
            let val = c as f64 / 4.0;
            let old = g.contribs.insert(b, val).unwrap_or(0.0);
            g.value += val - old;
            if (g.value - g.emitted).abs() <= EPSILON {
                return false;
            }
            g.emitted = g.value;
            true
        }
    }
}

/// The model's logical rows, sorted.
fn model_rows(kind: Kind, model: &FastMap<i64, Group>, set: &FastSet<(i64, i64)>) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = match kind {
        None => set
            .iter()
            .map(|&(a, b)| Tuple::from_ints(&[a, b]))
            .collect(),
        Some(func) => model
            .iter()
            .map(|(&a, g)| {
                let v = match func {
                    AggFunc::Sum => Value::Float(g.value),
                    _ => Value::Int(g.value as i64),
                };
                Tuple::new(&[Value::Int(a), v])
            })
            .collect(),
    };
    rows.sort();
    rows
}

fn check(kind: Kind, ops: &[(i64, i64, i64)], linear: bool) {
    // Both logical columns are indexed; for aggregates column 1 is the
    // aggregate column itself.
    let mut rel = match kind {
        None => DerivedRelation::set(&[0, 1]),
        Some(func) => DerivedRelation::aggregate(func, 1, EPSILON, &[0, 1]),
    };
    if linear {
        rel = rel.with_linear_lookup();
    }
    let mut model: FastMap<i64, Group> = FastMap::default();
    let mut set: FastSet<(i64, i64)> = FastSet::default();
    // Aggregate group → the id of its first merge.
    let mut group_ids: FastMap<i64, u32> = FastMap::default();
    // The incoming row's key: the group prefix, or the whole set row.
    let key_len = if kind.is_some() { 1 } else { 2 };
    for &op in ops {
        let row = incoming(kind, op);
        let got = merge(&mut rel, &row);
        let want = model_merge(kind, &mut model, &mut set, op);
        prop_assert_eq!(matches!(got, Merged::New(_)), want, "merge {:?}", op);
        if let Merged::New(id) = got {
            let stored = rel.rows().row(id as usize).to_tuple();
            prop_assert_eq!(
                &stored.values()[..key_len],
                &row.values()[..key_len],
                "id {} names the incoming row's key",
                id
            );
            if kind.is_none() {
                prop_assert_eq!(id as usize, rel.len() - 1, "a set insert appends");
            } else {
                let first = *group_ids.entry(op.0).or_insert(id);
                prop_assert_eq!(id, first, "group {} keeps its id", op.0);
            }
        }

        let mut rows = tuples(rel.rows());
        rows.sort();
        prop_assert_eq!(rows, model_rows(kind, &model, &set));

        for col in 0..2 {
            let keys: FastSet<u64> = rel.rows().iter().map(|r| r.key(col)).collect();
            for key in keys {
                let mut via_index: Vec<Tuple> = rel
                    .probe_ids(col, key)
                    .iter()
                    .map(|&i| rel.rows().row(i as usize).to_tuple())
                    .collect();
                let mut via_filter: Vec<Tuple> = tuples(rel.rows())
                    .into_iter()
                    .filter(|r| r.get(col).key_bits() == key)
                    .collect();
                via_index.sort();
                via_filter.sort();
                prop_assert_eq!(via_index, via_filter, "col {} key {}", col, key);
            }
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0..6i64, 0..8i64, 0..8i64), 1..120)
}

/// A value from a small domain, so keys repeat: an int in `-4..4`, the
/// same number as an integral float (`Int(7)` and `Float(7.0)` share key
/// bits), or a non-integral float.
fn value((v, kind): (i64, u8)) -> Value {
    match kind {
        0 => Value::Int(v),
        1 => Value::Float(v as f64),
        _ => Value::Float(v as f64 + 0.5),
    }
}

/// A row as exact bits, telling `Int(7)` from `Float(7.0)` (which `==`
/// does not).
fn bits(t: &Tuple) -> Vec<(bool, u64)> {
    t.values()
        .iter()
        .map(|v| match *v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        })
        .collect()
}

/// Set or `min` merges with keys drawn from mixed values, against a model
/// that finds a key by `==` over every stored row. Key bits do not decide
/// equality here: `Int(7) == Float(7.0)` share them, `Float(-0.0)`,
/// `Float(0.0)` and `Int(0)` share them with only the last two equal, and
/// `Int(b)` shares them with the float whose IEEE bits are `b`. A set row
/// is `(a, b)`; a `min` row is `(a, value b)` with group key `a`.
fn check_mixed(kind: Kind, ops: &[(Value, Value)], linear: bool) {
    let mut rel = match kind {
        None => DerivedRelation::set(&[0, 1]),
        Some(func) => DerivedRelation::aggregate(func, 1, EPSILON, &[0, 1]),
    };
    if linear {
        rel = rel.with_linear_lookup();
    }
    let mut model: Vec<Tuple> = Vec::new();
    for &(a, b) in ops {
        let row = Tuple::new(&[a, b]);
        let key = if kind.is_some() { 1 } else { 2 };
        let want = match model
            .iter_mut()
            .find(|r| r.values()[..key] == row.values()[..key])
        {
            None => {
                model.push(row.clone());
                true
            }
            Some(_) if kind.is_none() => false,
            Some(r) => {
                let better = b < r.get(1);
                if better {
                    *r = Tuple::new(&[r.get(0), b]);
                }
                better
            }
        };
        let got = merge(&mut rel, &row);
        prop_assert_eq!(matches!(got, Merged::New(_)), want, "merge {:?}", row);
        let mut stored: Vec<_> = tuples(rel.rows()).iter().map(bits).collect();
        let mut expected: Vec<_> = model.iter().map(bits).collect();
        stored.sort();
        expected.sort();
        prop_assert_eq!(stored, expected, "after merging {:?}", row);
    }
}

fn mixed_ops() -> impl Strategy<Value = Vec<(Value, Value)>> {
    let cell = || (-4..4i64, 0..3u8);
    proptest::collection::vec((cell(), cell()), 1..80)
        .prop_map(|ops| ops.into_iter().map(|(a, b)| (value(a), value(b))).collect())
}

#[test]
fn mixed_keys_fixed_cases() {
    let (i, f) = (Value::Int, Value::Float);
    let one = i(1);
    let cases: [&[Value]; 3] = [
        &[i(7), f(7.0)],
        &[f(-0.0), f(0.0), i(0)],
        &[i(1.5f64.to_bits() as i64), f(1.5)],
    ];
    for kind in [None, Some(AggFunc::Min)] {
        for linear in [false, true] {
            for keys in cases {
                // Each case in both orders, as set rows `(k, 1)` and as
                // `min` rows `(k, 1)` with group key `k`.
                let forward: Vec<_> = keys.iter().map(|&k| (k, one)).collect();
                let backward: Vec<_> = forward.iter().rev().copied().collect();
                check_mixed(kind, &forward, linear);
                check_mixed(kind, &backward, linear);
            }
            // Both key columns mixed at once.
            let pairs: Vec<_> = cases
                .iter()
                .flat_map(|a| cases.iter().flat_map(move |b| a.iter().zip(b.iter())))
                .map(|(&a, &b)| (a, b))
                .collect();
            check_mixed(kind, &pairs, linear);
        }
    }
}

/// `rel` must hold exactly `input` (one slice's rows, in input order),
/// stably sorted by the first of `cols`, and each index must list, per
/// key, the rows a linear filter over `input` finds, in input order, with
/// every row id in exactly one bucket.
fn check_slice(rel: &SealedRelation, input: &[&Tuple], cols: &[usize]) {
    let mut want: Vec<&Tuple> = input.to_vec();
    if let Some(&c) = cols.first() {
        want.sort_by_key(|r| r.get(c).key_bits());
    }
    let stored: Vec<_> = tuples(rel.rows()).iter().map(bits).collect();
    let want: Vec<_> = want.into_iter().map(bits).collect();
    prop_assert_eq!(stored, want, "clustered row order");

    for &col in cols {
        let mut keys: Vec<u64> = input.iter().map(|r| r.get(col).key_bits()).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut seen: Vec<u32> = Vec::new();
        for &key in &keys {
            let ids = rel.probe_ids(col, key);
            seen.extend_from_slice(ids);
            let via_index: Vec<_> = ids
                .iter()
                .map(|&i| bits(&rel.rows().row(i as usize).to_tuple()))
                .collect();
            let via_filter: Vec<_> = input
                .iter()
                .filter(|r| r.get(col).key_bits() == key)
                .map(|r| bits(r))
                .collect();
            prop_assert_eq!(via_index, via_filter, "col {} key {}", col, key);
        }
        seen.sort_unstable();
        prop_assert_eq!(
            seen,
            (0..input.len() as u32).collect::<Vec<_>>(),
            "col {} ids",
            col
        );
        prop_assert!(rel.probe_ids(col, Value::Int(99).key_bits()).is_empty());
    }
}

fn distinct(index_cols: &[usize]) -> Vec<usize> {
    let mut cols: Vec<usize> = Vec::new();
    for &c in index_cols {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

fn check_sealed(input: &[Tuple], index_cols: &[usize]) {
    let rel = SealedRelation::build(input, index_cols);
    let input: Vec<&Tuple> = input.iter().collect();
    check_slice(&rel, &input, &distinct(index_cols));
}

/// Partitioned on `col` into `parts` slices, slice `w` must be sealed
/// from exactly the rows the `Partitioner` gives worker `w`, in input
/// order, clustered on `col` if it is indexed, and the slices together
/// must hold the input multiset.
fn check_partitioned(input: &[Tuple], index_cols: &[usize], parts: usize, col: usize) {
    let part = Partitioner::new(parts);
    let slices = SealedRelation::partitioned(input, 3, index_cols, &part, col).unwrap();
    prop_assert_eq!(slices.len(), parts);
    // The partition column leads the clustering when it is indexed.
    let mut cols = distinct(index_cols);
    if let Some(i) = cols.iter().position(|&c| c == col) {
        cols[..=i].rotate_right(1);
    }
    for (w, slice) in slices.iter().enumerate() {
        let mine: Vec<&Tuple> = input
            .iter()
            .filter(|r| part.of_key(r.get(col).key_bits()) == w)
            .collect();
        check_slice(slice, &mine, &cols);
    }
    let mut held: Vec<_> = slices
        .iter()
        .flat_map(|s| tuples(s.rows()).iter().map(bits).collect::<Vec<_>>())
        .collect();
    let mut want: Vec<_> = input.iter().map(bits).collect();
    held.sort();
    want.sort();
    prop_assert_eq!(held, want, "slices hold the input multiset");
}

/// A sealed-row value: [`value`]'s small mixed domain, or (kind 3) an
/// integer key of magnitude ≥ 2^32, negative half the time.
fn sealed_value((v, kind): (i64, u8)) -> Value {
    match kind {
        3 => Value::Int((2 * v + 1) << 33),
        _ => value((v, kind)),
    }
}

fn sealed_rows() -> impl Strategy<Value = Vec<Tuple>> {
    let cell = || (-4..4i64, 0..4u8);
    proptest::collection::vec((cell(), cell(), cell()), 0..40).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, c)| Tuple::new(&[sealed_value(a), sealed_value(b), sealed_value(c)]))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sealed_probes_match_a_linear_filter_in_input_order(
        rows in sealed_rows(),
        index_cols in proptest::collection::vec(0..3usize, 0..4),
    ) {
        check_sealed(&rows, &index_cols);
    }

    #[test]
    fn partitioned_slices_match_a_per_worker_model(
        rows in sealed_rows(),
        index_cols in proptest::collection::vec(0..3usize, 1..3),
        parts in 1..5usize,
    ) {
        // Rows have three columns, so the partition column is in turn
        // the clustering column, another index column when there is
        // one, and an unindexed column when one is left.
        for col in 0..3 {
            check_partitioned(&rows, &index_cols, parts, col);
        }
        check_partitioned(&rows, &[], parts, 0);
    }

    #[test]
    fn set_matches_model(ops in ops(), linear in any::<bool>()) {
        check(None, &ops, linear);
    }

    #[test]
    fn set_matches_model_on_mixed_keys(ops in mixed_ops(), linear in any::<bool>()) {
        check_mixed(None, &ops, linear);
    }

    #[test]
    fn min_matches_model_on_mixed_keys(ops in mixed_ops(), linear in any::<bool>()) {
        check_mixed(Some(AggFunc::Min), &ops, linear);
    }

    #[test]
    fn min_matches_model(ops in ops(), linear in any::<bool>()) {
        check(Some(AggFunc::Min), &ops, linear);
    }

    #[test]
    fn max_matches_model(ops in ops(), linear in any::<bool>()) {
        check(Some(AggFunc::Max), &ops, linear);
    }

    #[test]
    fn sum_matches_model(ops in ops(), linear in any::<bool>()) {
        check(Some(AggFunc::Sum), &ops, linear);
    }

    #[test]
    fn count_matches_model(ops in ops(), linear in any::<bool>()) {
        check(Some(AggFunc::Count), &ops, linear);
    }
}
