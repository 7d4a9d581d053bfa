//! Fixed-arity rows with inline storage.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// Maximum arity stored inline; every query in the paper has arity ≤ 4
/// (APSP `path(A,B,D)` is 3, PageRank partials `(X, Y, K)` are 3).
pub const INLINE_ARITY: usize = 4;

/// A Datalog fact: a short, immutable row of [`Value`]s.
///
/// Rows of arity ≤ [`INLINE_ARITY`] live entirely inline (no heap
/// allocation); longer rows spill to a boxed slice. Cloning an inline tuple
/// is a memcpy; cloning a spilled tuple allocates.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tuple {
    /// Inline storage: `len` live values at the front of the array.
    Inline {
        /// Number of live values.
        len: u8,
        /// Backing array; slots `len..` are `Value::Int(0)` padding that is
        /// never observed through the public API.
        vals: [Value; INLINE_ARITY],
    },
    /// Heap storage for arity > [`INLINE_ARITY`].
    Spilled(Box<[Value]>),
}

impl Tuple {
    /// Builds a tuple from a slice of values.
    pub fn new(vals: &[Value]) -> Self {
        if vals.len() <= INLINE_ARITY {
            let mut arr = [Value::Int(0); INLINE_ARITY];
            arr[..vals.len()].copy_from_slice(vals);
            Tuple::Inline {
                len: vals.len() as u8,
                vals: arr,
            }
        } else {
            Tuple::Spilled(vals.to_vec().into_boxed_slice())
        }
    }

    /// Convenience constructor from integers.
    pub fn from_ints(vals: &[i64]) -> Self {
        Tuple::from_exact_iter(vals.len(), vals.iter().map(|&v| Value::Int(v)))
    }

    /// Builds a tuple of known arity from a value iterator without any
    /// intermediate allocation for inline arities. `iter` must yield
    /// exactly `len` values.
    pub fn from_exact_iter(len: usize, mut iter: impl Iterator<Item = Value>) -> Self {
        if len <= INLINE_ARITY {
            let mut arr = [Value::Int(0); INLINE_ARITY];
            for slot in arr.iter_mut().take(len) {
                *slot = iter.next().expect("iterator shorter than declared len");
            }
            debug_assert!(iter.next().is_none(), "iterator longer than declared len");
            Tuple::Inline {
                len: len as u8,
                vals: arr,
            }
        } else {
            let v: Vec<Value> = iter.collect();
            debug_assert_eq!(v.len(), len, "iterator length mismatch");
            Tuple::Spilled(v.into_boxed_slice())
        }
    }

    /// Number of values in the row.
    #[inline]
    pub fn arity(&self) -> usize {
        match self {
            Tuple::Inline { len, .. } => *len as usize,
            Tuple::Spilled(v) => v.len(),
        }
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match self {
            Tuple::Inline { len, vals } => &vals[..*len as usize],
            Tuple::Spilled(v) => v,
        }
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    #[inline]
    fn index(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }
}

impl fmt::Debug for Tuple {
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

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<&[i64]> for Tuple {
    fn from(vals: &[i64]) -> Self {
        Tuple::from_ints(vals)
    }
}

impl<const N: usize> From<[i64; N]> for Tuple {
    fn from(vals: [i64; N]) -> Self {
        Tuple::from_ints(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_tuples_do_not_spill() {
        let t = Tuple::from_ints(&[1, 2, 3, 4]);
        assert!(matches!(t, Tuple::Inline { .. }));
        assert_eq!(t.arity(), 4);
        assert_eq!(t[2], Value::Int(3));
    }

    #[test]
    fn long_tuples_spill() {
        let t = Tuple::from_ints(&[1, 2, 3, 4, 5]);
        assert!(matches!(t, Tuple::Spilled(_)));
        assert_eq!(t.arity(), 5);
        assert_eq!(t[4], Value::Int(5));
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
}
