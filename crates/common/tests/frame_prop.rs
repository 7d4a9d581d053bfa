//! Property tests for the flat [`Frame`] row layout: encode/decode
//! round-trips against [`Tuple`] at arities 0–6, which brackets the
//! `INLINE_ARITY` (= 4) boundary where tuples switch from inline to
//! spilled storage, over mixed `Int`/`Float` cells.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Tuple, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
    ]
}

/// Rows of a fixed arity, as flat value vectors.
fn rows_strategy(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(
        proptest::collection::vec(value_strategy(), arity..=arity),
        0..40,
    )
}

/// `(arity, rows)` over the full 0..=6 arity range.
fn frame_input() -> impl Strategy<Value = (usize, Vec<Vec<Value>>)> {
    (0usize..=6).prop_flat_map(|a| rows_strategy(a).prop_map(move |rows| (a, rows)))
}

/// Values as exact bits, telling `Int(7)` from `Float(7.0)` (which `==`
/// does not).
fn bits(vals: impl IntoIterator<Item = Value>) -> Vec<(bool, u64)> {
    vals.into_iter()
        .map(|v| match v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        })
        .collect()
}

fn encode(arity: usize, rows: &[Vec<Value>]) -> Frame {
    let mut frame = Frame::new(arity);
    for r in rows {
        frame.push_values(r.iter().copied());
    }
    frame
}

fn decode(frame: &Frame) -> Vec<Vec<(bool, u64)>> {
    frame.iter().map(|r| bits(r.values())).collect()
}

proptest! {
    #[test]
    fn tuple_roundtrip_via_frame((arity, rows) in frame_input()) {
        let frame = encode(arity, &rows);
        prop_assert_eq!(frame.len(), rows.len());
        prop_assert_eq!(frame.arity(), Some(arity));
        // Decode back: bit-identical values, in order.
        let want: Vec<_> = rows.iter().map(|r| bits(r.iter().copied())).collect();
        prop_assert_eq!(decode(&frame), want);
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(&frame.row(i).to_tuple(), &Tuple::new(r));
        }
    }

    #[test]
    fn push_row_and_push_values_agree((arity, rows) in frame_input()) {
        let by_values = encode(arity, &rows);
        let mut by_row = Frame::default();
        for r in &rows {
            by_row.push(Tuple::new(r).row());
        }
        let mut copied = Frame::new(arity);
        for row in by_values.iter() {
            copied.push(row);
        }
        prop_assert_eq!(decode(&by_row), decode(&by_values));
        prop_assert_eq!(decode(&copied), decode(&by_values));
        prop_assert_eq!(by_row.payload_bytes(), by_values.payload_bytes());
    }

    #[test]
    fn payload_bytes_is_the_lane_stride(
        arity in 0usize..=6,
        n in 0usize..50,
    ) {
        let row: Vec<Value> = (0..arity as i64).map(Value::Int).collect();
        let frame = encode(arity, &vec![row; n]);
        prop_assert_eq!(frame.payload_bytes(), (n * arity * 8) as u64);
    }
}

/// The INLINE_ARITY = 4 boundary, deterministically: arity 4 stays inline,
/// arity 5 spills, and the frame encodes both identically.
#[test]
fn inline_boundary_roundtrip() {
    for arity in [3usize, 4, 5] {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| {
                let vals: Vec<i64> = (0..arity as i64).map(|c| i * 10 + c).collect();
                Tuple::from_ints(&vals)
            })
            .collect();
        let mut frame = Frame::new(arity);
        for t in &rows {
            frame.push(t.row());
        }
        let back: Vec<Tuple> = frame.iter().map(|r| r.to_tuple()).collect();
        assert_eq!(back, rows, "arity {arity}");
    }
}
