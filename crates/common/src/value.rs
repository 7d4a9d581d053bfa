//! The scalar value type used for all Datalog terms.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A Datalog constant: a 64-bit integer or a 64-bit float.
///
/// All eight benchmark queries of the paper operate on integer vertex ids,
/// integer costs/levels, or float PageRank masses, so two variants suffice.
/// The type is `Copy`, 16 bytes, and totally ordered (floats are ordered by
/// the IEEE-754 total order, so `NaN` compares consistently, and an `Int`
/// compares with a `Float` exactly), so it can be used as an ordered key
/// and inside hash tables: `a == b` implies equal [`Value::key_bits`].
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// A signed 64-bit integer (vertex ids, counts, integer costs).
    Int(i64),
    /// A 64-bit float (PageRank mass, fractional edge weights).
    Float(f64),
}

#[allow(clippy::should_implement_trait)] // Datalog arithmetic is total (no overflow panics, div-by-zero defined), unlike std ops
impl Value {
    /// Returns the payload as `f64`, converting integers losslessly for the
    /// magnitudes used in practice.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }

    /// Returns the integer payload or panics; used on code paths where the
    /// planner has already proven the term is integer-typed.
    #[inline]
    pub fn expect_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => panic!("expected integer value, found float {v}"),
        }
    }

    /// A stable 64-bit key for hashing and partitioning. Integer and float
    /// values that are `==` map to the same key.
    #[inline]
    pub fn key_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            // Floats that happen to be integral compare equal to the
            // corresponding Int, so they must hash identically. The range
            // is exactly i64's: [-2^63, 2^63).
            Value::Float(v) => {
                if v.fract() == 0.0 && v >= i64::MIN as f64 && v < -(i64::MIN as f64) {
                    v as i64 as u64
                } else {
                    v.to_bits()
                }
            }
        }
    }

    /// Checked addition following Datalog arithmetic: ints stay ints,
    /// any float operand promotes to float.
    #[inline]
    pub fn add(self, other: Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(b)),
            _ => Value::Float(self.as_f64() + other.as_f64()),
        }
    }

    /// Subtraction with the same promotion rule as [`Value::add`].
    #[inline]
    pub fn sub(self, other: Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(b)),
            _ => Value::Float(self.as_f64() - other.as_f64()),
        }
    }

    /// Multiplication with the same promotion rule as [`Value::add`].
    #[inline]
    pub fn mul(self, other: Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(b)),
            _ => Value::Float(self.as_f64() * other.as_f64()),
        }
    }

    /// Division. Integer division by zero yields `Int(0)` (Datalog engines
    /// conventionally make arithmetic total) and `i64::MIN / -1` wraps to
    /// `i64::MIN`; float division follows IEEE.
    #[inline]
    pub fn div(self, other: Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if b == 0 {
                    Value::Int(0)
                } else {
                    Value::Int(a.wrapping_div(b))
                }
            }
            _ => Value::Float(self.as_f64() / other.as_f64()),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
        }
    }
}

/// Compares an integer with a float exactly: `Int(a)` sits at the real
/// number `a` in the floats' total order, so `Int(0) == Float(0.0)`,
/// `Float(-0.0) < Int(0)`, and NaNs stay at the ends. `a as f64` rounds
/// above 2^53, but rounding is monotone, so it can only turn an unequal
/// pair into a tie. A tie means `b` is integral with `|b| <= 2^63`, and
/// is refined exactly in `i128`.
#[inline]
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    (a as f64)
        .total_cmp(&b)
        .then_with(|| i128::from(a).cmp(&(b as i128)))
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_bits().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    #[inline]
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    #[inline]
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_equality_and_order() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert!(Value::Int(2) < Value::Int(3));
        assert!(Value::Int(-1) < Value::Int(0));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < Value::Float(2.0));
    }

    #[test]
    fn mixed_int_float_equality_is_consistent_with_hash() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(a), hash_of(b));
    }

    /// Mixed values around the points where `i64 as f64` rounds: ±2^53
    /// and ±2^63, plus zeros, NaN and infinities.
    fn mixed_values() -> Vec<Value> {
        let mut out = Vec::new();
        for base in [1i64 << 53, -(1i64 << 53)] {
            for d in -2..=2 {
                out.push(Value::Int(base + d));
            }
            let f = base as f64;
            for bits in [f.to_bits() - 1, f.to_bits(), f.to_bits() + 1] {
                out.push(Value::Float(f64::from_bits(bits)));
            }
        }
        for i in [i64::MAX, i64::MAX - 1, i64::MAX - 1024, i64::MAX - 1025] {
            out.extend([
                Value::Int(i),
                Value::Int(-i),
                Value::Int(i64::MIN + (i64::MAX - i)),
            ]);
        }
        let top = -(i64::MIN as f64); // 2^63
        let below = f64::from_bits(top.to_bits() - 1); // 2^63 - 1024
        for f in [top, below, f64::from_bits(top.to_bits() + 1)] {
            out.extend([Value::Float(f), Value::Float(-f)]);
        }
        for f in [
            0.0,
            -0.0,
            7.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            out.push(Value::Float(f));
        }
        out.extend([Value::Int(0), Value::Int(7)]);
        out
    }

    #[test]
    fn mixed_comparison_is_exact_above_2_pow_53() {
        let (p, q, r) = (
            Value::Int((1 << 53) + 1),
            Value::Float((1u64 << 53) as f64),
            Value::Int(1 << 53),
        );
        // `(2^53 + 1) as f64` rounds to 2^53; the comparison must not.
        assert_ne!(p, q);
        assert!(p > q);
        assert_eq!(q, r);
        assert_ne!(p, r);
        let mut v = vec![p, q, r];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 2);
        assert!(v[0] < v[1] && v[1] == p);
        // At the bottom of i64's range the float is exact and equal.
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(i64::MAX) < Value::Float(-(i64::MIN as f64)));
    }

    #[test]
    fn mixed_comparison_keeps_existing_orders() {
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert!(Value::Float(-0.0) < Value::Float(0.0));
        assert_eq!(Value::Float(0.0), Value::Int(0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Int(-1) < Value::Float(-0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
        assert!(Value::Int(i64::MIN) > Value::Float(-f64::NAN));
    }

    #[test]
    fn mixed_order_is_total_and_transitive() {
        let vals = mixed_values();
        for &a in &vals {
            assert_eq!(a.cmp(&a), Ordering::Equal, "{a:?}");
            for &b in &vals {
                assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{a:?} vs {b:?}");
                for &c in &vals {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                    if a == b && b == c {
                        assert_eq!(a, c, "{a:?} == {b:?} == {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_values_have_equal_key_bits() {
        let vals = mixed_values();
        for &a in &vals {
            for &b in &vals {
                if a == b {
                    assert_eq!(a.key_bits(), b.key_bits(), "{a:?} == {b:?}");
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(Value::Float(0.5)), Value::Float(2.5));
        assert_eq!(Value::Int(7).div(Value::Int(2)), Value::Int(3));
        assert_eq!(Value::Int(7).div(Value::Int(0)), Value::Int(0));
        assert_eq!(Value::Float(1.0).div(Value::Int(4)), Value::Float(0.25));
    }

    #[test]
    fn integer_division_wraps_instead_of_overflowing() {
        let min = Value::Int(i64::MIN);
        assert_eq!(min.div(Value::Int(-1)), min);
        assert_eq!(min.div(Value::Int(1)), min);
        assert_eq!(
            Value::Int(i64::MAX).div(Value::Int(-1)),
            Value::Int(-i64::MAX)
        );
        assert_eq!(Value::Int(-7).div(Value::Int(2)), Value::Int(-3));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Int(-12).to_string(), "-12");
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
    }

    #[test]
    fn sub_and_mul() {
        assert_eq!(Value::Int(5).sub(Value::Int(7)), Value::Int(-2));
        assert_eq!(Value::Int(4).mul(Value::Int(3)), Value::Int(12));
        assert_eq!(Value::Float(2.0).mul(Value::Int(3)), Value::Float(6.0));
    }
}
