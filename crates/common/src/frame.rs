//! Flat, arity-strided rows of `u64` lanes: the one row layout of the
//! engine, from a rule head to the store and across the exchange.
//!
//! A [`Frame`] stores rows of one arity contiguously in one `Vec<u64>`,
//! one 8-byte lane per cell: an `Int` is its `i64` bits and a `Float` its
//! `f64` bits. Per-cell float tags stay empty (and unallocated) until the
//! frame stores its first `Float`, so an all-integer relation (every
//! relation of the paper's queries except PageRank's) pays nothing for
//! them. A [`Row`] view gives cells back as [`Value`]s with `Value`'s
//! exact semantics (`Int(1) == Float(1.0)`, `Float(-0.0) != Float(0.0)`,
//! [`Row::key`] equal to [`Value::key_bits`], so routing and partitioning
//! are unchanged); a row with no float compares and hashes by its lanes.
//!
//! [`Frame::new`] pins the arity; a default frame learns it from its first
//! row. Arity-0 rows are legal: the row count is tracked explicitly.

use crate::tuple::{lane, Tuple};
use crate::value::Value;
use std::fmt;

/// One row of a [`Frame`]: its lanes, plus one float tag per lane when
/// the frame holds any float (empty otherwise).
#[derive(Clone, Copy)]
pub struct Row<'a> {
    pub(crate) lanes: &'a [u64],
    pub(crate) floats: &'a [bool],
}

impl<'a> Row<'a> {
    /// Number of cells.
    #[inline]
    pub fn arity(&self) -> usize {
        self.lanes.len()
    }

    /// The raw lanes.
    #[inline]
    pub fn lanes(&self) -> &'a [u64] {
        self.lanes
    }

    /// Whether cell `col` holds a float.
    #[inline]
    pub fn is_float(&self, col: usize) -> bool {
        self.floats.get(col).is_some_and(|&f| f)
    }

    /// Whether every cell holds an integer, so the lanes alone decide
    /// equality and key bits.
    #[inline]
    pub fn all_ints(&self) -> bool {
        !self.floats.contains(&true)
    }

    /// Cell `col` as a [`Value`].
    #[inline]
    pub fn get(&self, col: usize) -> Value {
        let lane = self.lanes[col];
        if self.is_float(col) {
            Value::Float(f64::from_bits(lane))
        } else {
            Value::Int(lane as i64)
        }
    }

    /// The 64-bit key of cell `col`: [`Value::key_bits`] of
    /// [`Row::get`], which for an integer is its lane.
    #[inline]
    pub fn key(&self, col: usize) -> u64 {
        if self.is_float(col) {
            self.get(col).key_bits()
        } else {
            self.lanes[col]
        }
    }

    /// The cells as values, in column order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + 'a {
        let row = *self;
        (0..row.arity()).map(move |c| row.get(c))
    }

    /// Whether the leading `n` cells of `self` and `other` are equal as
    /// values (lanes alone when neither holds a float).
    #[inline]
    pub fn prefix_eq(&self, other: &Row<'_>, n: usize) -> bool {
        if self.floats.is_empty() && other.floats.is_empty() {
            self.lanes[..n] == other.lanes[..n]
        } else {
            (0..n).all(|c| self.get(c) == other.get(c))
        }
    }

    /// The row as a [`Tuple`], for the API edge (results, tests): a
    /// copy of its lanes.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::from_row(*self)
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.prefix_eq(other, self.arity())
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_tuple(), f)
    }
}

/// A flat block of fixed-arity rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Frame {
    /// Lanes of all rows, concatenated: row `i` is
    /// `lanes[i * arity .. (i + 1) * arity]`.
    lanes: Vec<u64>,
    /// Empty while every stored cell is an `Int`; from the first `Float`
    /// on, one tag per lane (`true` for a float).
    floats: Vec<bool>,
    /// The fixed row width. `None` until the first row is pushed.
    arity: Option<usize>,
    /// Number of rows (explicit so arity-0 frames can count rows).
    rows: usize,
}

impl Frame {
    /// An empty frame with a pinned arity.
    pub fn new(arity: usize) -> Self {
        Frame {
            arity: Some(arity),
            ..Frame::default()
        }
    }

    /// `rows` all-zero integer rows in one zeroed allocation, with every
    /// float tag allocated up front when `floats` (so overwriting a row
    /// with a `Float` in it allocates nothing).
    pub fn zeroed(arity: usize, rows: usize, floats: bool) -> Self {
        Frame {
            lanes: vec![0; arity * rows],
            floats: vec![false; if floats { arity * rows } else { 0 }],
            rows,
            ..Frame::new(arity)
        }
    }

    /// The row width, or `None` for a fresh default frame.
    #[inline]
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the frame holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Payload bytes (what crosses the exchange): lanes plus any tags.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        (self.lanes.len() * std::mem::size_of::<u64>() + self.floats.len()) as u64
    }

    /// Allocated heap bytes: lane and tag capacity.
    pub fn resident_bytes(&self) -> u64 {
        (self.lanes.capacity() * std::mem::size_of::<u64>() + self.floats.capacity()) as u64
    }

    /// Pins the arity to `n` on the first row; panics if a later row's
    /// width disagrees (a routing bug, not a data error).
    #[inline]
    fn start_row(&mut self, n: usize) {
        match self.arity {
            Some(a) => assert_eq!(a, n, "frame arity mismatch"),
            None => self.arity = Some(n),
        }
        self.rows += 1;
    }

    /// Appends a copy of `row`. Always inlined: the kernel's sink pushes
    /// every head row it is handed, and a call per row cost 1-worker
    /// `tc-rmat` ~6% of its run time.
    #[inline(always)]
    pub fn push(&mut self, row: Row<'_>) {
        self.start_row(row.arity());
        if !self.floats.is_empty() || !row.all_ints() {
            self.floats.resize(self.lanes.len(), false);
            match row.floats.is_empty() {
                true => self.floats.resize(self.lanes.len() + row.arity(), false),
                false => self.floats.extend_from_slice(row.floats),
            }
        }
        self.lanes.extend_from_slice(row.lanes);
    }

    /// Appends one row given as values (encode).
    #[inline]
    pub fn push_values(&mut self, vals: impl ExactSizeIterator<Item = Value>) {
        self.start_row(vals.len());
        for v in vals {
            let (bits, float) = lane(v);
            if float || !self.floats.is_empty() {
                self.floats.resize(self.lanes.len(), false);
                self.floats.push(float);
            }
            self.lanes.push(bits);
        }
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> Row<'_> {
        let a = self.arity.unwrap_or(0);
        debug_assert!(i < self.rows, "row index out of range");
        let cells = i * a..(i + 1) * a;
        let floats = match self.floats.is_empty() {
            true => &[][..],
            false => &self.floats[cells.clone()],
        };
        Row {
            lanes: &self.lanes[cells],
            floats,
        }
    }

    /// Overwrites row `i` with a copy of `row`, which must have the
    /// frame's arity.
    pub fn overwrite(&mut self, i: usize, row: Row<'_>) {
        let a = self.arity.unwrap_or(0);
        assert_eq!(a, row.arity(), "frame arity mismatch");
        let cells = i * a..(i + 1) * a;
        self.lanes[cells.clone()].copy_from_slice(row.lanes);
        if !self.floats.is_empty() || !row.all_ints() {
            self.floats.resize(self.lanes.len(), false);
            match row.floats.is_empty() {
                true => self.floats[cells].fill(false),
                false => self.floats[cells].copy_from_slice(row.floats),
            }
        }
    }

    /// Overwrites cell `col` of row `i` with `v`.
    pub fn set(&mut self, i: usize, col: usize, v: Value) {
        let cell = i * self.arity.unwrap_or(0) + col;
        let (bits, float) = lane(v);
        if float && self.floats.is_empty() {
            self.floats.resize(self.lanes.len(), false);
        }
        if let Some(tag) = self.floats.get_mut(cell) {
            *tag = float;
        }
        self.lanes[cell] = bits;
    }

    /// Removes every row (and the arity and float tags, so a refilled
    /// frame starts over) and keeps the allocations.
    pub fn clear(&mut self) {
        self.lanes.clear();
        self.floats.clear();
        self.arity = None;
        self.rows = 0;
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.rows).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(arity: usize, rows: &[Tuple]) -> Frame {
        let mut f = Frame::new(arity);
        for t in rows {
            f.push_values(t.values().iter().copied());
        }
        f
    }

    fn tuples(f: &Frame) -> Vec<Tuple> {
        f.iter().map(|r| r.to_tuple()).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rows = vec![
            Tuple::from_ints(&[1, 2]),
            Tuple::from_ints(&[3, 4]),
            Tuple::from_ints(&[5, 6]),
        ];
        let f = frame(2, &rows);
        assert_eq!(f.len(), 3);
        assert_eq!(f.arity(), Some(2));
        assert_eq!(tuples(&f), rows);
        assert_eq!(f.row(1).lanes(), &[3, 4]);
    }

    #[test]
    fn arity_zero_counts_rows() {
        let f = frame(0, &[Tuple::new(&[]), Tuple::new(&[])]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.payload_bytes(), 0);
        assert_eq!(tuples(&f), vec![Tuple::new(&[]), Tuple::new(&[])]);
    }

    #[test]
    fn for_rel_learns_arity_from_first_row() {
        let mut f = Frame::default();
        assert_eq!(f.arity(), None);
        f.push_values([7, 8, 9].map(Value::Int).into_iter());
        assert_eq!(f.arity(), Some(3));
        f.push(Tuple::from_ints(&[1, 2, 3]).row());
        assert_eq!(f.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mixed_arities_panic() {
        let mut f = Frame::new(2);
        f.push_values([Value::Int(1)].into_iter());
    }

    #[test]
    fn iterator_yields_all_rows_in_order() {
        let f = frame(
            1,
            &(0..10).map(|i| Tuple::from_ints(&[i])).collect::<Vec<_>>(),
        );
        let seen: Vec<i64> = f.iter().map(|r| r.get(0).expect_int()).collect();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(f.iter().len(), 10);
    }

    #[test]
    fn payload_bytes_counts_lanes_and_only_needed_tags() {
        let f = frame(3, &[Tuple::from_ints(&[1, 2, 3])]);
        assert_eq!(f.payload_bytes(), 3 * 8);
        let mixed = Tuple::new(&[Value::Int(1), Value::Float(0.5)]);
        let f = frame(2, &[Tuple::from_ints(&[1, 2]), mixed.clone()]);
        assert_eq!(f.payload_bytes(), 2 * 2 * 8 + 2 * 2);
        assert_eq!(tuples(&f), [Tuple::from_ints(&[1, 2]), mixed]);
    }

    #[test]
    fn rows_keep_value_semantics() {
        let (i, fl) = (Value::Int, Value::Float);
        let f = frame(
            1,
            &[i(1), fl(1.0), fl(-0.0), fl(0.0), i(0)].map(|v| Tuple::new(&[v])),
        );
        let r: Vec<Row> = f.iter().collect();
        assert_eq!(r[0], r[1], "Int(1) == Float(1.0)");
        assert_ne!(r[2], r[3], "-0.0 != 0.0");
        assert_eq!(r[3], r[4]);
        for row in &r {
            assert_eq!(row.key(0), row.get(0).key_bits());
        }
        assert!(f.row(0).all_ints() && !f.row(1).all_ints());
    }

    #[test]
    fn set_tags_a_float_into_an_integer_frame() {
        let mut f = frame(2, &[Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[3, 4])]);
        f.set(1, 1, Value::Float(0.5));
        assert_eq!(
            f.row(1).to_tuple(),
            Tuple::new(&[Value::Int(3), Value::Float(0.5)])
        );
        assert_eq!(f.row(0).to_tuple(), Tuple::from_ints(&[1, 2]));
        f.set(1, 1, Value::Int(9));
        assert_eq!(f.row(1).to_tuple(), Tuple::from_ints(&[3, 9]));
        f.clear();
        assert_eq!((f.len(), f.payload_bytes()), (0, 0));
    }
}
