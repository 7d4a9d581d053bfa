//! Fixed-arity rows of `u64` lanes with inline storage.

use crate::frame::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Maximum arity stored inline; every query in the paper has arity ≤ 4
/// (APSP `path(A,B,D)` is 3, PageRank partials `(X, Y, K)` are 3).
pub const INLINE_ARITY: usize = 4;

/// A Datalog fact: a short, immutable row in the layout of a
/// [`Frame`](crate::Frame) row, one `u64` lane per cell (an `Int` is its
/// `i64` bits, a `Float` its `f64` bits) plus one float tag per cell.
///
/// Rows of arity ≤ [`INLINE_ARITY`] live entirely inline in 40 bytes (no
/// heap allocation); longer rows spill to boxed lanes and tags. Cloning an
/// inline tuple is a memcpy; cloning a spilled tuple allocates.
/// [`Tuple::row`] views it as a [`Row`] for free, and [`Tuple::from_row`]
/// copies a row's lanes back.
///
/// Equality, order and hash follow the cells as [`Value`]s:
/// `Int(1) == Float(1.0)`, `Float(-0.0) != Float(0.0)`; inline tuples sort
/// before spilled ones, inline tuples by arity and then cell by cell,
/// spilled tuples cell by cell and then by length.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    /// `len` live cells at the front of the arrays; the rest are zero
    /// lanes and `false` tags.
    Inline {
        len: u8,
        floats: [bool; INLINE_ARITY],
        lanes: [u64; INLINE_ARITY],
    },
    /// Arity > [`INLINE_ARITY`]; `floats` is empty when no cell is a float.
    Spilled {
        lanes: Box<[u64]>,
        floats: Box<[bool]>,
    },
}

/// A value's lane and whether it is a float.
#[inline]
pub(crate) fn lane(v: Value) -> (u64, bool) {
    match v {
        Value::Int(i) => (i as u64, false),
        Value::Float(f) => (f.to_bits(), true),
    }
}

impl Tuple {
    /// Builds a tuple from a slice of values.
    pub fn new(vals: &[Value]) -> Self {
        Tuple::from_exact_iter(vals.len(), vals.iter().copied())
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
            let (mut lanes, mut floats) = ([0; INLINE_ARITY], [false; INLINE_ARITY]);
            for cell in lanes.iter_mut().zip(&mut floats).take(len) {
                let v = iter.next().expect("iterator shorter than declared len");
                (*cell.0, *cell.1) = lane(v);
            }
            debug_assert!(iter.next().is_none(), "iterator longer than declared len");
            Tuple(Repr::Inline {
                len: len as u8,
                floats,
                lanes,
            })
        } else {
            let (lanes, floats): (Vec<u64>, Vec<bool>) = iter.map(lane).unzip();
            debug_assert_eq!(lanes.len(), len, "iterator length mismatch");
            let floats = match floats.contains(&true) {
                true => floats.into_boxed_slice(),
                false => Box::default(),
            };
            Tuple(Repr::Spilled {
                lanes: lanes.into_boxed_slice(),
                floats,
            })
        }
    }

    /// A copy of `row`'s lanes and tags.
    pub fn from_row(row: Row<'_>) -> Self {
        let n = row.arity();
        if n <= INLINE_ARITY {
            let (mut lanes, mut floats) = ([0; INLINE_ARITY], [false; INLINE_ARITY]);
            lanes[..n].copy_from_slice(row.lanes);
            if !row.floats.is_empty() {
                floats[..n].copy_from_slice(row.floats);
            }
            Tuple(Repr::Inline {
                len: n as u8,
                floats,
                lanes,
            })
        } else {
            let floats = match row.all_ints() {
                true => Box::default(),
                false => row.floats.into(),
            };
            Tuple(Repr::Spilled {
                lanes: row.lanes.into(),
                floats,
            })
        }
    }

    /// The tuple as a [`Row`]: its float tags are empty when no cell is a
    /// float, as [`Frame::row`](crate::Frame::row) gives them.
    #[inline]
    pub fn row(&self) -> Row<'_> {
        match &self.0 {
            Repr::Inline { len, floats, lanes } => {
                let n = *len as usize;
                let floats = match *floats == [false; INLINE_ARITY] {
                    true => &[][..],
                    false => &floats[..n],
                };
                Row {
                    lanes: &lanes[..n],
                    floats,
                }
            }
            Repr::Spilled { lanes, floats } => Row { lanes, floats },
        }
    }

    /// Number of values in the row.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled { lanes, .. } => lanes.len(),
        }
    }

    /// Cell `i` as a [`Value`]; panics if `i >= arity()`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        self.row().get(i)
    }

    /// The cells decoded as values, inline for arity ≤ [`INLINE_ARITY`].
    pub fn values(&self) -> Values {
        let row = self.row();
        match row.arity() <= INLINE_ARITY {
            true => {
                let mut vals = [Value::Int(0); INLINE_ARITY];
                vals.iter_mut().zip(row.values()).for_each(|(v, c)| *v = c);
                Values(Cells::Inline(row.arity() as u8, vals))
            }
            false => Values(Cells::Spilled(row.values().collect())),
        }
    }

    fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled { .. })
    }
}

/// A [`Tuple`]'s cells as owned [`Value`]s; derefs to `[Value]`.
pub struct Values(Cells);

enum Cells {
    Inline(u8, [Value; INLINE_ARITY]),
    Spilled(Box<[Value]>),
}

impl Deref for Values {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Cells::Inline(len, vals) => &vals[..*len as usize],
            Cells::Spilled(vals) => vals,
        }
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.row() == other.row()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.row(), other.row());
        let cells = || a.values().cmp(b.values());
        match (self.is_spilled(), other.is_spilled()) {
            (false, false) => a.arity().cmp(&b.arity()).then_with(cells),
            (true, true) => cells(),
            (false, true) => Ordering::Less,
            (true, false) => Ordering::Greater,
        }
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let row = self.row();
        state.write_usize(row.arity());
        (0..row.arity()).for_each(|c| state.write_u64(row.key(c)));
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.row().values().enumerate() {
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
