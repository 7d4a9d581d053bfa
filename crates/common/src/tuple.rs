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

    /// An empty (arity-0) tuple; used for propositional facts.
    pub fn unit() -> Self {
        Tuple::new(&[])
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

    /// The values as a mutable slice (in-place aggregate updates).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Value] {
        match self {
            Tuple::Inline { len, vals } => &mut vals[..*len as usize],
            Tuple::Spilled(v) => v,
        }
    }

    /// Projects the tuple onto the given column indices.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        let vals = self.values();
        if cols.len() <= INLINE_ARITY {
            let mut arr = [Value::Int(0); INLINE_ARITY];
            for (i, &c) in cols.iter().enumerate() {
                arr[i] = vals[c];
            }
            Tuple::Inline {
                len: cols.len() as u8,
                vals: arr,
            }
        } else {
            Tuple::Spilled(cols.iter().map(|&c| vals[c]).collect())
        }
    }

    /// The leading `n` values as a borrowed slice (the group-by key of an
    /// aggregate row). No allocation at all: use this when the caller only
    /// compares or hashes the prefix.
    #[inline]
    pub fn group_key(&self, n: usize) -> &[Value] {
        &self.values()[..n]
    }

    /// Concatenates two tuples (used when joining).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let a = self.values();
        let b = other.values();
        let total = a.len() + b.len();
        if total <= INLINE_ARITY {
            let mut arr = [Value::Int(0); INLINE_ARITY];
            arr[..a.len()].copy_from_slice(a);
            arr[a.len()..total].copy_from_slice(b);
            Tuple::Inline {
                len: total as u8,
                vals: arr,
            }
        } else {
            let mut v = Vec::with_capacity(total);
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            Tuple::Spilled(v.into_boxed_slice())
        }
    }

    /// The 64-bit key of column `col`, used for hashing/partitioning.
    #[inline]
    pub fn key(&self, col: usize) -> u64 {
        self.values()[col].key_bits()
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
    fn projection_reorders_and_duplicates() {
        let t = Tuple::from_ints(&[10, 20, 30]);
        assert_eq!(t.project(&[2, 0]), Tuple::from_ints(&[30, 10]));
        assert_eq!(t.project(&[1, 1]), Tuple::from_ints(&[20, 20]));
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn concat_spills_when_needed() {
        let a = Tuple::from_ints(&[1, 2, 3]);
        let b = Tuple::from_ints(&[4, 5]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 5);
        assert_eq!(c.values()[4], Value::Int(5));
        let d = Tuple::from_ints(&[1]).concat(&Tuple::from_ints(&[2]));
        assert!(matches!(d, Tuple::Inline { .. }));
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
