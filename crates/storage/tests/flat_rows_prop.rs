//! Property tests for the flat row layout: rows stored as `u64` lanes
//! (with float tags only once a relation holds a float) must behave
//! exactly like a `Vec<Tuple>` model compared by `Value` equality.
//!
//! Rows have arity 0, 1–4 or 5–6 (the arities where a `Tuple` stays
//! inline or spills), and cells are drawn from a small pool of mixed
//! values chosen to collide: integers and the integral floats equal to
//! them, `-0.0` and `0.0` (unequal, with equal key bits), NaN, integers
//! above 2^53 next to the floats they round to, and keys wider than 32
//! bits. Each case checks, against the model:
//!
//! * every `Merged` outcome of a set relation and of a `min` relation,
//!   and the id a new or improved row gets;
//! * the stored rows, bit for bit and in id order;
//! * `probe_ids` on every column, for every stored key;
//! * `DerivedRelation::contains`, the read-only check a head row meets
//!   before it is buffered;
//! * the `Frame` round trip (encode, copy, decode);
//! * the sent-filter: a `TupleCache` hit for a destination always names a
//!   row equal to one recorded before for that destination, and a row
//!   just recorded hits, unless its destination is beyond the slot count,
//!   which never hits.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Tuple, Value};
use dcd_storage::{AggFunc, DerivedRelation, Merged, TupleCache};

/// The cell pool; `Strategy` draws indexes into it.
fn pool() -> Vec<Value> {
    let big = 1i64 << 53;
    vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(0.5),
        Value::Float(f64::NAN),
        Value::Int(big),
        Value::Int(big + 1),
        Value::Float(big as f64),
        Value::Float((big + 2) as f64),
        Value::Int(1 << 40),
        Value::Int(-(1 << 40) - 7),
        Value::Int((1 << 32) + 1),
        Value::Int(i64::MAX),
        Value::Float(-(i64::MIN as f64)),
    ]
}

/// `(arity, rows)`: up to 60 rows of one arity in 0..=6.
fn input() -> impl Strategy<Value = (usize, Vec<Tuple>)> {
    let n = pool().len();
    (0usize..=6).prop_flat_map(move |arity| {
        let row = proptest::collection::vec(0..n, arity..=arity);
        proptest::collection::vec(row, 0..60).prop_map(move |rows| {
            let pool = pool();
            let rows = rows
                .iter()
                .map(|r| Tuple::new(&Vec::from_iter(r.iter().map(|&i| pool[i]))));
            (arity, rows.collect())
        })
    })
}

/// A row as exact bits, telling `Int(7)` from `Float(7.0)`.
fn bits(t: &Tuple) -> Vec<(bool, u64)> {
    let cell = |v: &Value| match *v {
        Value::Int(i) => (false, i as u64),
        Value::Float(f) => (true, f.to_bits()),
    };
    t.values().iter().map(cell).collect()
}

fn stored(rel: &DerivedRelation) -> Vec<Vec<(bool, u64)>> {
    rel.rows().iter().map(|r| bits(&r.to_tuple())).collect()
}

/// Every index of `rel` (one per column) against a filter over `model`.
fn check_probes(rel: &DerivedRelation, model: &[Tuple]) {
    for col in 0..model.first().map_or(0, Tuple::arity) {
        for key in model.iter().map(|r| r.get(col).key_bits()) {
            let want: Vec<u32> = (0..model.len() as u32)
                .filter(|&i| model[i as usize].get(col).key_bits() == key)
                .collect();
            let mut got = rel.probe_ids(col, key).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, want, "col {} key {:#x}", col, key);
        }
    }
}

/// A set relation indexed on every column, merged row by row.
fn check_set(arity: usize, rows: &[Tuple]) {
    let cols: Vec<usize> = (0..arity).collect();
    let mut rel = DerivedRelation::set(&cols);
    let mut model: Vec<Tuple> = Vec::new();
    for row in rows {
        let present = model.iter().any(|m| m == row);
        let contains = rel.contains(row.row());
        prop_assert_eq!(contains, present, "contains {:?}", row);
        let got = rel.merge(row.row());
        let want = match present {
            true => Merged::Old,
            false => Merged::New(model.len() as u32),
        };
        prop_assert_eq!(got, want, "merge {:?}", row);
        if !present {
            model.push(row.clone());
        }
    }
    let want: Vec<_> = model.iter().map(bits).collect();
    prop_assert_eq!(stored(&rel), want);
    check_probes(&rel, &model);
}

/// A `min` relation grouped on every column but the last, indexed on
/// every column (the aggregate column's ids move on each improvement).
fn check_min(arity: usize, rows: &[Tuple]) {
    let g = arity - 1;
    let cols: Vec<usize> = (0..arity).collect();
    let mut rel = DerivedRelation::aggregate(AggFunc::Min, g, 0.0, &cols);
    let mut model: Vec<Tuple> = Vec::new();
    for row in rows {
        let group = model
            .iter()
            .position(|m| m.values()[..g] == row.values()[..g]);
        let want = match group {
            None => {
                model.push(row.clone());
                Merged::New(model.len() as u32 - 1)
            }
            Some(id) if row.get(g) < model[id].get(g) => {
                let mut vals = model[id].values().to_vec();
                vals[g] = row.get(g);
                model[id] = Tuple::new(&vals);
                Merged::New(id as u32)
            }
            Some(_) => Merged::Old,
        };
        prop_assert_eq!(rel.merge(row.row()), want, "merge {:?}", row);
        prop_assert!(!rel.contains(row.row()), "aggregates never pre-check");
    }
    let want: Vec<_> = model.iter().map(bits).collect();
    prop_assert_eq!(stored(&rel), want);
    check_probes(&rel, &model);
}

/// Encodes `rows` into frames two ways, copies one row by row, and
/// decodes every copy bit for bit.
fn check_frames(arity: usize, rows: &[Tuple]) {
    let want: Vec<_> = rows.iter().map(bits).collect();
    let decode = |f: &Frame| -> Vec<_> { f.iter().map(|r| bits(&r.to_tuple())).collect() };
    let (mut by_values, mut by_row) = (Frame::new(arity), Frame::default());
    for t in rows {
        by_values.push_values(t.values().iter().copied());
        by_row.push(t.row());
    }
    let mut copied = Frame::new(arity);
    for r in by_values.iter() {
        copied.push(r);
    }
    for f in [&by_values, &by_row, &copied] {
        prop_assert_eq!(decode(f), want.clone());
    }
}

/// A tiny sent-filter over `rows`, row `i` looked up for destination
/// `dests[i]`: every hit names a row equal to one recorded earlier for the
/// same destination, a row just recorded hits, and a destination beyond
/// the 4 slots never hits.
fn check_sent_filter(rows: &[Tuple], dests: &[usize]) {
    let mut filter = TupleCache::new(4);
    let sent: Vec<(&Tuple, usize)> = rows.iter().zip(dests.iter().copied()).collect();
    for (i, &(row, d)) in sent.iter().enumerate() {
        if filter.seen(row.row(), d) {
            prop_assert!(d < 4, "{:?} hit for destination {}", row, d);
            prop_assert!(
                sent[..i].contains(&(row, d)),
                "false hit on {:?} for {}",
                row,
                d
            );
        } else {
            prop_assert_eq!(filter.seen(row.row(), d), d < 4, "{:?} for {}", row, d);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_rows_match_a_tuple_model(
        (arity, rows) in input(),
        dests in proptest::collection::vec(0usize..6, 60),
    ) {
        check_set(arity, &rows);
        if arity > 0 {
            check_min(arity, &rows);
        }
        check_frames(arity, &rows);
        check_sent_filter(&rows, &dests);
    }
}

#[test]
fn colliding_cells_fixed_cases() {
    // Pairs that share key bits but differ as values, or differ in bits
    // but are equal, in both orders and in every column position.
    let (i, f) = (Value::Int, Value::Float);
    let big = 1i64 << 53;
    let pairs = [
        (f(-0.0), f(0.0)),
        (i(0), f(0.0)),
        (i(big + 1), f(big as f64)),
        (i(1.5f64.to_bits() as i64), f(1.5)),
        (f(f64::NAN), f(f64::NAN)),
        (i(5), i(5 + (1 << 32))),
    ];
    for (a, b) in pairs {
        for arity in 1..=5 {
            for col in 0..arity {
                let row = |v| {
                    let mut vals = vec![Value::Int(3); arity];
                    vals[col] = v;
                    Tuple::new(&vals)
                };
                let rows = [row(a), row(b), row(a), row(b)];
                check_set(arity, &rows);
                check_min(arity, &rows);
                check_frames(arity, &rows);
                check_sent_filter(&rows, &[1, 1, 1, 1]);
                check_sent_filter(&rows, &[1, 2, 2, 1]);
            }
        }
    }
}
