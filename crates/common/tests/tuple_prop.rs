//! Pins [`Tuple`]'s semantics to those of the `Value`-array layout it
//! replaced: equality, order and `Debug` agree with a copy of the old
//! `enum Tuple { Inline { len, vals: [Value; 4] }, Spilled(Box<[Value]>) }`
//! and its derives, on arities 0–6 (across the `INLINE_ARITY` = 4
//! boundary) over mixed `Int`/`Float` cells, signed zeros, NaNs, integral
//! floats and the ends of `i64`. Equal tuples hash alike, and the lanes
//! round-trip through [`Row`] bit for bit.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The old layout, derives and all.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Model {
    Inline { len: u8, vals: [Value; 4] },
    Spilled(Box<[Value]>),
}

impl Model {
    fn new(vals: &[Value]) -> Self {
        if vals.len() <= 4 {
            let mut arr = [Value::Int(0); 4];
            arr[..vals.len()].copy_from_slice(vals);
            Model::Inline {
                len: vals.len() as u8,
                vals: arr,
            }
        } else {
            Model::Spilled(vals.into())
        }
    }

    fn values(&self) -> &[Value] {
        match self {
            Model::Inline { len, vals } => &vals[..*len as usize],
            Model::Spilled(v) => v,
        }
    }
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Cells that collide often: signed zeros, NaNs of both signs, integral
/// floats equal to small ints, and the ends of `i64` as ints and floats.
fn value_strategy() -> impl Strategy<Value = Value> {
    let special = [
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(-1.0),
        Value::Float(0.5),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(i64::MIN as f64),
        Value::Float(-(i64::MIN as f64)),
    ];
    prop_oneof![
        4 => (0..special.len()).prop_map(move |i| special[i]),
        2 => (-2i64..3).prop_map(Value::Int),
        1 => (-2i64..3).prop_map(|i| Value::Float(i as f64)),
        1 => any::<i64>().prop_map(Value::Int),
        1 => any::<f64>().prop_map(Value::Float),
    ]
}

fn cells() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(value_strategy(), 0..=6)
}

/// `Int(i)` as the float of the same value where one exists.
fn twin(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Float(i as f64),
        Value::Float(f) => Value::Float(f),
    }
}

/// Two rows that are often equal or nearly so: independent, `b` a copy of
/// `a` with ints turned into floats, or `a` with one cell replaced.
fn pair() -> impl Strategy<Value = (Vec<Value>, Vec<Value>)> {
    (cells(), cells(), 0u8..3, value_strategy()).prop_map(|(a, b, how, v)| match how {
        0 => (a, b),
        1 => {
            let t = a.iter().map(|&c| twin(c)).collect();
            (a, t)
        }
        _ => {
            let mut t = a.clone();
            if let Some(c) = t.last_mut() {
                *c = v;
            }
            (a, t)
        }
    })
}

/// Values as exact bits, telling `Int(7)` from `Float(7.0)`.
fn bits(vals: &[Value]) -> Vec<(bool, u64)> {
    vals.iter()
        .map(|v| match *v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        })
        .collect()
}

fn hash_of(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn eq_cmp_and_debug_agree_with_the_value_layout((a, b) in pair()) {
        let (ta, tb) = (Tuple::new(&a), Tuple::new(&b));
        let (ma, mb) = (Model::new(&a), Model::new(&b));
        prop_assert_eq!(ta == tb, ma == mb, "{:?} vs {:?}", ma, mb);
        prop_assert_eq!(ta.cmp(&tb), ma.cmp(&mb), "{:?} vs {:?}", ma, mb);
        prop_assert_eq!(ta.partial_cmp(&tb), ma.partial_cmp(&mb));
        prop_assert_eq!(format!("{ta:?}"), format!("{ma:?}"));
        prop_assert_eq!(format!("{ta}"), format!("{ma:?}"));
        if ta == tb {
            prop_assert_eq!(hash_of(&ta), hash_of(&tb), "{:?} == {:?}", ma, mb);
        }
    }

    #[test]
    fn lanes_round_trip_bit_for_bit(a in cells()) {
        let t = Tuple::new(&a);
        prop_assert_eq!(t.arity(), a.len());
        prop_assert_eq!(bits(&t.values()), bits(&a));
        let got: Vec<Value> = (0..t.arity()).map(|i| t.get(i)).collect();
        prop_assert_eq!(bits(&got), bits(&a));
        prop_assert_eq!(t.row().all_ints(), a.iter().all(|v| matches!(v, Value::Int(_))));
        let back = t.row().to_tuple();
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(bits(&back.values()), bits(&a));
        prop_assert_eq!(hash_of(&back), hash_of(&t));
        let mut frame = Frame::new(a.len());
        frame.push(Tuple::from_ints(&vec![7; a.len()]).row());
        frame.push(t.row());
        let copied = Tuple::from_row(frame.row(1));
        prop_assert_eq!(bits(&copied.values()), bits(&a));
        prop_assert_eq!(copied.row().all_ints(), t.row().all_ints());
        prop_assert_eq!(hash_of(&copied), hash_of(&t));
    }
}

#[test]
fn an_inline_tuple_is_40_bytes() {
    assert_eq!(std::mem::size_of::<Tuple>(), 40);
}

/// Whether `t`'s lanes live inside the `Tuple` value itself.
fn lanes_inline(t: &Tuple) -> bool {
    let start = t as *const Tuple as usize;
    let lanes = t.row().lanes().as_ptr() as usize;
    (start..start + std::mem::size_of::<Tuple>()).contains(&lanes)
}

#[test]
fn inline_tuples_do_not_spill() {
    let t = Tuple::from_ints(&[1, 2, 3, 4]);
    assert!(lanes_inline(&t));
    assert_eq!(t.arity(), 4);
    assert_eq!(t.get(2), Value::Int(3));
}

#[test]
fn long_tuples_spill() {
    let t = Tuple::from_ints(&[1, 2, 3, 4, 5]);
    assert!(!lanes_inline(&t));
    assert_eq!(t.arity(), 5);
    assert_eq!(t.get(4), Value::Int(5));
}

#[test]
fn equality_ignores_padding() {
    let a = Tuple::from_ints(&[1, 2]);
    let b = Tuple::new(&[Value::Int(1), Value::Int(2)]);
    assert_eq!(a, b);
    assert_ne!(a, Tuple::from_ints(&[1, 2, 0]));
}

#[test]
fn ordering_is_lexicographic() {
    assert!(Tuple::from_ints(&[1, 2]) < Tuple::from_ints(&[1, 3]));
    assert!(Tuple::from_ints(&[1]) < Tuple::from_ints(&[1, 0]));
}

#[test]
fn from_exact_iter_matches_new() {
    for n in 0..7usize {
        let vals: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let a = Tuple::from_exact_iter(n, vals.iter().copied());
        assert_eq!(a, Tuple::new(&vals));
        assert_eq!(a.arity(), n);
    }
}
