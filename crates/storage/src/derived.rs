//! Derived (IDB) relations: set semantics or an aggregate head (§6.2.1).
//!
//! A [`DerivedRelation`] stores each logical row once, in the same
//! [`RowStore`] layout base relations use, and adds two things on top:
//!
//! * a dedup table that finds a row's id from its key: the whole row for
//!   a set relation, the group-by prefix for an aggregate relation (so the
//!   table *is* the paper's group index). It is one flat open-addressing
//!   array with linear probing; each slot holds a hash tag, the row id and
//!   the key's bits inline (in 32-bit lanes while every key fits them), so
//!   a lookup reads one contiguous run of slots and, while every key value
//!   seen is an `Int`, never touches the stored rows: an integer's key
//!   bits are its lane, hashed and compared in place. Once a `Float` key
//!   value has been stored or probed, key bits no longer decide equality
//!   (`Float(-0.0)` and `Float(0.0)` share them, as do a float and the
//!   integer holding its IEEE bits), so every bits match is then confirmed
//!   against the stored row by value.
//! * optionally for a set relation, a [`BitMatrix`] over an integer box
//!   that holds the rows inside it in place of the dedup table, until the
//!   first `Float` row merged moves them into the table.
//! * aggregate values updated in place in the stored row, plus — for
//!   `sum`/`count` — a side table of per-contributor values (the paper's
//!   second index "on the attribute value that is incrementally
//!   computed"), so a re-contribution from the same source *replaces* its
//!   previous value rather than double-counting.
//!
//! `min`/`max` merges emit a delta only when the extremum improves
//! (DeALS-style monotonic aggregation, so the fixpoint is exact); `sum`
//! deltas fire when the total moves by more than a caller-chosen ε
//! (PageRank's convergence test); `count` deltas fire whenever the number
//! of distinct contributors grows.

use crate::rows::RowStore;
use dcd_common::hash::FastMap;
use dcd_common::{AggFunc, Frame, Row, Value};
use std::ops::{Deref, RangeInclusive};

/// Outcome of merging one incoming row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merged {
    /// The logical row with this id is new/improved: feed it to the next
    /// delta. A set row's id is its append position; an aggregate group
    /// keeps the id it got at insertion for its whole life, so its id
    /// always reads the group's newest value.
    New(u32),
    /// Duplicate / non-improving.
    Old,
}

/// Slots allocated on first use. A relation that stays small pays one
/// zeroed allocation of this many slots (96–128 KiB for one- or two-value
/// keys) and one that stays empty allocates nothing; one that grows skips
/// the smallest doublings, whose re-placement cost ~20 ns per moved key
/// on a 2-vCPU x86 host. (There, 2^14 slots re-placed less but raised
/// `sssp-web` peak RSS by ~2 MB.)
const FIRST_SLOTS: usize = 1 << 13;

/// The table doubles before an insert would fill more than
/// `MAX_LOAD_NUM / MAX_LOAD_DEN` of its slots.
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// The key hash's odd multiplier: one multiply per key value, Fx-style;
/// the high half (the tag, whose top bits are the home slot) mixes all.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Whether key bits `b` survive a round trip through one `u32` lane
/// (sign-extended, so small negative integers fit too).
#[inline]
fn narrow(b: u64) -> bool {
    b as i64 as i32 as i64 == b as i64
}

/// Key value `i`'s bits in `slot`.
#[inline]
fn lane_bits(slot: &[u32], i: usize, wide: bool) -> u64 {
    if wide {
        u64::from(slot[2 + 2 * i]) | u64::from(slot[3 + 2 * i]) << 32
    } else {
        slot[2 + i] as i32 as i64 as u64
    }
}

/// Writes key value `i`'s bits `b` into `slot`.
#[inline]
fn set_lane_bits(slot: &mut [u32], i: usize, wide: bool, b: u64) {
    if wide {
        slot[2 + 2 * i] = b as u32;
        slot[3 + 2 * i] = (b >> 32) as u32;
    } else {
        slot[2 + i] = b as u32;
    }
}

/// Where a missing key goes: the free slot its probe ended on and its
/// hash tag. Meaningless under linear lookup, which has no table.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Vacancy {
    slot: usize,
    tag: u32,
}

/// The dedup table: open addressing with linear probing over one flat
/// `u32` array. Slot `s` is `lanes[s * stride..][..stride]`: the key's
/// tag (the high half of its hash), the row id plus one (zero marks a free
/// slot, so a fresh table is one zeroed allocation), then the key's
/// `key_bits()` — one lane per key value while every stored key's bits
/// fit 32 bits (vertex ids, costs), two lanes per value once one does not.
/// A key's home slot is the top bits of its tag, so slots stay in hash
/// order, and a rebuild re-places them from their tags alone, writing the
/// new table almost sequentially.
#[derive(Default)]
struct KeyTable {
    lanes: Vec<u32>,
    /// Key values per slot; fixed at first use (a relation's arity, or
    /// its group-by width, never changes).
    width: usize,
    /// Key bits take two lanes per value.
    wide: bool,
    /// Lanes per slot: 2 + `width` × (1 or 2).
    stride: usize,
    /// Slot count minus one; the slot count is a power of two.
    mask: usize,
    /// `32 - log2(slot count)`: shifting a tag right by this gives its
    /// home slot.
    shift: u32,
    /// Occupied slots.
    len: usize,
    /// A `Float` key value has been stored or probed: a bits match must
    /// then be confirmed by comparing the stored row.
    exact: bool,
}

/// One pass over the leading `width` cells of `key`: its tag (the high
/// half of its hash), whether its bits fit narrow lanes, and whether it
/// holds a float.
#[inline]
fn hash(key: Row<'_>, width: usize) -> (u32, bool, bool) {
    let float = !key.all_ints() && (0..width).any(|c| key.is_float(c));
    let (mut h, mut fits) = (0u64, true);
    for (c, &lane) in key.lanes()[..width].iter().enumerate() {
        let b = if float { key.key(c) } else { lane };
        h = (h.rotate_left(26) ^ b).wrapping_mul(HASH_MUL);
        fits &= narrow(b);
    }
    ((h >> 32) as u32, fits, float)
}

impl KeyTable {
    /// The id of the row in `rows` whose leading `width` cells equal
    /// those of `key`, or the vacancy where `key` goes. First grows the
    /// table if an insert could overfill it, and widens it if `key` needs
    /// wide lanes, so the vacancy stays valid until [`KeyTable::fill`].
    #[inline]
    fn find(&mut self, key: Row<'_>, width: usize, rows: &Frame) -> Result<u32, Vacancy> {
        let (tag, fits, float) = hash(key, width);
        if self.lanes.is_empty() {
            self.width = width;
            self.rebuild(FIRST_SLOTS, false);
        }
        debug_assert_eq!(width, self.width, "key width changed");
        let grow = (self.len + 1) * MAX_LOAD_DEN > (self.mask + 1) * MAX_LOAD_NUM;
        if grow || !(fits || self.wide) {
            self.rebuild((self.mask + 1) << grow as u32, !fits || self.wide);
        }
        self.exact |= float;
        self.probe(tag, key, rows, self.exact)
    }

    /// The id of the row in `rows` whose leading cells equal those of
    /// `key`, if any; unlike [`KeyTable::find`] it changes nothing.
    #[inline]
    fn lookup(&self, key: Row<'_>, rows: &Frame) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let (tag, fits, float) = hash(key, self.width);
        // Equal values have equal key bits, so a key whose bits fit no
        // stored lane equals no stored key.
        if !(fits || self.wide) {
            return None;
        }
        self.probe(tag, key, rows, self.exact || float).ok()
    }

    /// Walks the probe sequence of `tag` for `key`; `exact` confirms a
    /// bits match against the stored row.
    #[inline]
    fn probe(&self, tag: u32, key: Row<'_>, rows: &Frame, exact: bool) -> Result<u32, Vacancy> {
        let (stride, wide) = (self.stride, self.wide);
        // An integer's key bits are its lane.
        let lanes = &key.lanes()[..self.width];
        let ints = !exact || key.all_ints();
        let bits_match = |slot: &[u32]| {
            let mut cells = lanes.iter().enumerate();
            cells.all(|(i, &l)| lane_bits(slot, i, wide) == if ints { l } else { key.key(i) })
        };
        let mut s = self.home(tag);
        loop {
            let slot = &self.lanes[s * stride..s * stride + stride];
            if slot[1] == 0 {
                return Err(Vacancy { slot: s, tag });
            }
            if slot[0] == tag && bits_match(slot) {
                let id = slot[1] - 1;
                if !exact || rows.row(id as usize).prefix_eq(&key, self.width) {
                    return Ok(id);
                }
            }
            s = (s + 1) & self.mask;
        }
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// Stores row `id`, whose leading cells are the key `find` missed,
    /// in the vacancy `find` returned.
    fn fill(&mut self, at: Vacancy, id: u32, row: Row<'_>) {
        let (stride, wide) = (self.stride, self.wide);
        let slot = &mut self.lanes[at.slot * stride..][..stride];
        slot[0] = at.tag;
        slot[1] = id.checked_add(1).expect("row id below u32::MAX");
        for i in 0..self.width {
            set_lane_bits(slot, i, wide, row.key(i));
        }
        self.len += 1;
    }

    /// Frees every slot and keeps the allocation, its size and its lane
    /// width. Only occupied slots are written (a free slot is one whose
    /// id is 0), so pages of the zeroed allocation no key reached stay
    /// untouched and out of the resident set.
    fn clear(&mut self) {
        if self.len > 0 {
            for slot in self.lanes.chunks_exact_mut(self.stride) {
                if slot[1] != 0 {
                    slot[1] = 0;
                }
            }
            self.len = 0;
        }
        self.exact = false;
    }

    /// Re-places every slot, by its tag, into a fresh table of `slots`
    /// slots with `wide` lanes; no key is rehashed and no stored row read.
    #[cold]
    #[inline(never)]
    fn rebuild(&mut self, slots: usize, wide: bool) {
        assert!(
            slots.trailing_zeros() <= 32,
            "tags address at most 2^32 slots"
        );
        let (old_stride, old_wide) = (self.stride, self.wide);
        self.wide = wide;
        self.stride = 2 + self.width * (1 + wide as usize);
        let stride = self.stride;
        let old = std::mem::replace(&mut self.lanes, vec![0; slots * stride]);
        self.mask = slots - 1;
        self.shift = 32 - slots.trailing_zeros();
        // (`max(1)`: the first build has no old slots and no stride.)
        for slot in old.chunks_exact(old_stride.max(1)).filter(|s| s[1] != 0) {
            let mut s = self.home(slot[0]);
            while self.lanes[s * stride + 1] != 0 {
                s = (s + 1) & self.mask;
            }
            let new = &mut self.lanes[s * stride..s * stride + stride];
            if wide == old_wide {
                new.copy_from_slice(slot);
                continue;
            }
            new[..2].copy_from_slice(&slot[..2]);
            for i in 0..self.width {
                set_lane_bits(new, i, wide, lane_bits(slot, i, old_wide));
            }
        }
    }
}

/// Exact membership of the all-integer rows of one arity whose cells all
/// lie in `lo..=hi`: one bit per such row, at the mixed-radix index of its
/// cells' offsets from `lo`, allocated at the first insert. Any other row,
/// such as one with a `Float` cell, is outside it.
#[derive(Clone, Debug)]
pub struct BitMatrix {
    lo: i64,
    /// Values per column.
    span: u64,
    /// Bits: `span^arity`.
    len: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// The empty matrix of rows of `arity` cells in `within`, if it is no
    /// larger than the dedup table's first allocation for such rows
    /// (`FIRST_SLOTS` slots of `2 + arity` lanes; at arity 2, a span of at
    /// most 1024 values).
    pub fn new(within: &RangeInclusive<i64>, arity: usize) -> Option<Self> {
        let (lo, hi) = (*within.start(), *within.end());
        let span = u64::try_from(i128::from(hi) - i128::from(lo) + 1).ok()?;
        let limit = (FIRST_SLOTS * (2 + arity) * 32) as u128;
        let len = u128::from(span)
            .checked_pow(arity as u32)
            .filter(|&n| n <= limit)?;
        let words = Vec::new();
        Some(BitMatrix {
            lo,
            span,
            len: len as usize,
            words,
        })
    }

    /// `row`'s bit, or `None` when it is outside the matrix.
    #[inline]
    fn bit(&self, row: Row<'_>) -> Option<usize> {
        if !row.all_ints() {
            return None;
        }
        let mut at = 0u64;
        for &lane in row.lanes() {
            // Below `lo` wraps to at least `span`, as `hi` fits an `i64`.
            let off = (lane as i64).wrapping_sub(self.lo) as u64;
            if off >= self.span {
                return None;
            }
            at = at * self.span + off;
        }
        Some(at as usize)
    }

    /// Whether bit `b` is set.
    #[inline]
    fn test(&self, b: usize) -> bool {
        !self.words.is_empty() && self.words[b / 64] >> (b % 64) & 1 != 0
    }

    /// Sets `row`'s bit: `Some(true)` if it was clear, `Some(false)` if it
    /// was set, `None` when `row` is outside the matrix.
    #[inline]
    pub fn insert(&mut self, row: Row<'_>) -> Option<bool> {
        let b = self.bit(row)?;
        if self.words.is_empty() {
            self.words = vec![0; self.len.div_ceil(64)];
        }
        let new = !self.test(b);
        self.words[b / 64] |= 1 << (b % 64);
        Some(new)
    }
}

#[derive(Clone, Copy)]
struct Aggregate {
    func: AggFunc,
    group_cols: usize,
    epsilon: f64,
}

/// Per-group state of a `sum`/`count` relation.
struct Contributions {
    /// Contributor key → its latest value.
    by_source: FastMap<u64, f64>,
    /// The last total emitted as a delta (`sum` only).
    emitted: f64,
}

/// A recursive relation: one stored copy per logical row, indexed by row
/// id. Derefs to its [`RowStore`] for reads (`rows`, `probe_ids`).
///
/// Incoming merge-layout rows are `(group…, value)` for `min`/`max`,
/// `(group…, contributor, value)` for `sum`, `(group…, contributor)` for
/// `count`, and the row itself for set relations; stored (logical) rows
/// are the row itself or `(group…, aggregate value)`.
pub struct DerivedRelation {
    store: RowStore,
    /// `None` for set relations.
    agg: Option<Aggregate>,
    /// Key (whole row, or group prefix) → row id; `None` under linear
    /// lookup. With `dense`, only rows outside the matrix.
    table: Option<KeyTable>,
    /// The matrix, until the first `Float` row is merged.
    dense: Option<BitMatrix>,
    /// `sum`/`count` state, indexed by row id.
    contribs: Vec<Contributions>,
}

impl DerivedRelation {
    /// An empty set relation indexed on `index_cols`.
    pub fn set(index_cols: &[usize]) -> Self {
        DerivedRelation {
            store: RowStore::new(index_cols),
            agg: None,
            table: Some(KeyTable::default()),
            dense: None,
            contribs: Vec::new(),
        }
    }

    /// Keeps the membership of the rows `bits` covers in `bits` instead of
    /// the dedup table. Only a set relation takes it.
    pub fn with_bits(mut self, bits: BitMatrix) -> Self {
        self.dense = (self.agg.is_none() && self.table.is_some()).then_some(bits);
        self
    }

    /// An empty aggregate relation with `group_cols` leading group-by
    /// columns, indexed on `index_cols` (which may include the aggregate
    /// column `group_cols`). `epsilon` is the minimum total movement for a
    /// `sum` delta and is ignored by the other functions.
    pub fn aggregate(func: AggFunc, group_cols: usize, epsilon: f64, index_cols: &[usize]) -> Self {
        DerivedRelation {
            agg: Some(Aggregate {
                func,
                group_cols,
                epsilon,
            }),
            ..DerivedRelation::set(index_cols)
        }
    }

    /// Locates existing rows by a linear scan of `rows()` and keeps no
    /// dedup table: the behaviour before the §6.2.1 index, kept for the
    /// Table 4 ablation.
    pub fn with_linear_lookup(mut self) -> Self {
        self.table = None;
        self
    }

    /// The id of the stored row whose leading `width` cells equal those
    /// of `key`, or where to insert it.
    #[inline]
    fn find(&mut self, key: Row<'_>, width: usize) -> Result<u32, Vacancy> {
        let rows = self.store.rows();
        match &mut self.table {
            Some(table) => table.find(key, width, rows),
            None => (0..rows.len() as u32)
                .find(|&id| rows.row(id as usize).prefix_eq(&key, width))
                .ok_or(Vacancy::default()),
        }
    }

    /// Moves the matrix's rows into the dedup table and drops the
    /// matrix: the first `Float` row needs value comparison.
    #[cold]
    #[inline(never)]
    fn migrate(&mut self) {
        let (Some(bits), Some(table)) = (self.dense.take(), &mut self.table) else {
            return;
        };
        let rows = self.store.rows();
        for (id, row) in rows.iter().enumerate() {
            if bits.bit(row).is_some() {
                let at = table.find(row, row.arity(), rows);
                table.fill(at.expect_err("new"), id as u32, row);
            }
        }
    }

    /// Stores a copy of `row`, whose key `find` placed at `at`, and
    /// returns its id.
    fn insert(&mut self, at: Vacancy, row: Row<'_>) -> u32 {
        if let Some(table) = &mut self.table {
            table.fill(at, self.store.len() as u32, row);
        }
        self.store.push(row)
    }

    /// Consumes the relation, returning its logical rows (in id order)
    /// without copying them.
    pub fn into_rows(self) -> Frame {
        self.store.into_rows()
    }

    /// Empties the relation, freeing its rows but keeping every other
    /// allocation: refilling it allocates and zeroes no new table.
    pub fn clear(&mut self) {
        if let Some(table) = &mut self.table {
            table.clear();
        }
        if let Some(bits) = &mut self.dense {
            bits.words.fill(0);
        }
        self.contribs.clear();
        self.store.clear();
    }

    /// Whether a set relation already stores `row` (always `false` for
    /// an aggregate relation, or under linear lookup). Reads only: the
    /// evaluator calls it while it holds the relation borrowed. A `Float`
    /// row equal to a matrix row answers `false`, which is sound.
    #[inline]
    pub fn contains(&self, row: Row<'_>) -> bool {
        if let Some(bits) = &self.dense {
            if let Some(b) = bits.bit(row) {
                return bits.test(b);
            }
        }
        match (&self.table, self.agg) {
            (Some(table), None) => table.lookup(row, self.store.rows()).is_some(),
            _ => false,
        }
    }

    /// Merges one incoming merge-layout row.
    pub fn merge(&mut self, t: Row<'_>) -> Merged {
        let Some(agg) = self.agg else {
            if let Some(bits) = &mut self.dense {
                match bits.insert(t) {
                    Some(true) => return Merged::New(self.store.push(t)),
                    Some(false) => return Merged::Old,
                    None if !t.all_ints() => self.migrate(),
                    None => {}
                }
            }
            return match self.find(t, t.arity()) {
                Ok(_) => Merged::Old,
                Err(at) => Merged::New(self.insert(at, t)),
            };
        };
        let g = agg.group_cols;
        let found = self.find(t, g);
        let id = match agg.func {
            AggFunc::Min | AggFunc::Max => {
                let new = t.get(g);
                let id = match found {
                    Ok(id) => id,
                    Err(at) => return Merged::New(self.insert(at, t)),
                };
                let cur = self.store.rows().row(id as usize).get(g);
                let better = match agg.func {
                    AggFunc::Min => new < cur,
                    _ => new > cur,
                };
                if !better {
                    return Merged::Old;
                }
                self.store.set_value(id, g, new);
                id
            }
            AggFunc::Sum | AggFunc::Count => {
                let id = found.unwrap_or_else(|at| {
                    let zero = match agg.func {
                        AggFunc::Count => Value::Int(0),
                        _ => Value::Float(0.0),
                    };
                    let mut row = Frame::new(g + 1);
                    let group: Vec<Value> = t.values().take(g).chain([zero]).collect();
                    row.push_values(group.into_iter());
                    self.contribs.push(Contributions {
                        by_source: FastMap::default(),
                        emitted: f64::NEG_INFINITY,
                    });
                    self.insert(at, row.row(0))
                });
                let state = &mut self.contribs[id as usize];
                let contributor = t.key(g);
                if agg.func == AggFunc::Count {
                    if state.by_source.insert(contributor, 1.0).is_some() {
                        return Merged::Old;
                    }
                    let total = Value::Int(state.by_source.len() as i64);
                    self.store.set_value(id, g, total);
                } else {
                    let val = t.get(g + 1).as_f64();
                    let old = state.by_source.insert(contributor, val).unwrap_or(0.0);
                    let stored = self.store.rows().row(id as usize).get(g);
                    let total = stored.as_f64() + (val - old);
                    self.store.set_value(id, g, Value::Float(total));
                    if (total - state.emitted).abs() <= agg.epsilon {
                        return Merged::Old;
                    }
                    state.emitted = total;
                }
                id
            }
        };
        Merged::New(id)
    }
}

impl Deref for DerivedRelation {
    type Target = RowStore;

    #[inline]
    fn deref(&self) -> &RowStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Tuple;

    /// The `Tuple` side of the tests: merge a tuple, read rows back.
    impl DerivedRelation {
        fn merge_t(&mut self, t: &Tuple) -> Merged {
            self.merge(t.row())
        }

        fn tuples(&self) -> Vec<Tuple> {
            self.rows().iter().map(|r| r.to_tuple()).collect()
        }
    }

    fn ints(v: &[i64]) -> Tuple {
        Tuple::from_ints(v)
    }

    fn floats(group: i64, contributor: i64, v: f64) -> Tuple {
        Tuple::new(&[Value::Int(group), Value::Int(contributor), Value::Float(v)])
    }

    #[test]
    fn set_dedups_and_stores_each_row_once() {
        let mut r = DerivedRelation::set(&[1]);
        assert_eq!(r.merge_t(&ints(&[1, 2])), Merged::New(0));
        assert_eq!(r.merge_t(&ints(&[1, 2])), Merged::Old);
        assert_eq!(r.merge_t(&ints(&[3, 2])), Merged::New(1));
        assert_eq!(r.tuples(), [ints(&[1, 2]), ints(&[3, 2])]);
        assert_eq!(r.probe_ids(1, Value::Int(2).key_bits()), &[0, 1]);
    }

    #[test]
    fn min_keeps_smallest_and_reports_updates() {
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[]);
        assert_eq!(r.merge_t(&ints(&[1, 10])), Merged::New(0));
        assert_eq!(r.merge_t(&ints(&[1, 12])), Merged::Old);
        assert_eq!(r.merge_t(&ints(&[1, 7])), Merged::New(0));
        assert_eq!(r.tuples(), [ints(&[1, 7])]);
    }

    #[test]
    fn clear_empties_and_the_relation_refills() {
        // `clear` frees the row buffer and keeps the dedup table.
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[1]);
        r.merge_t(&ints(&[1, 10]));
        r.merge_t(&ints(&[2, 4]));
        r.merge_t(&ints(&[1, 7]));
        let lanes = r.table.as_ref().map(|t| t.lanes.len());
        assert!(r.store.rows().resident_bytes() > 0);
        assert_eq!(r.tuples(), [ints(&[1, 7]), ints(&[2, 4])]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.store.rows().resident_bytes(), 0, "row buffer freed");
        assert!(r.probe_ids(1, Value::Int(7).key_bits()).is_empty());
        // The old groups are gone: 12 is new, not worse than 7.
        assert_eq!(r.merge_t(&ints(&[1, 12])), Merged::New(0));
        assert_eq!(r.merge_t(&ints(&[1, 9])), Merged::New(0));
        assert_eq!(r.tuples(), [ints(&[1, 9])]);
        assert_eq!(r.table.as_ref().map(|t| t.lanes.len()), lanes, "kept");
    }

    #[test]
    fn max_multi_column_groups() {
        // APSP-shaped: group = (A, B).
        let mut r = DerivedRelation::aggregate(AggFunc::Max, 2, 0.0, &[]);
        r.merge_t(&ints(&[1, 2, 30]));
        r.merge_t(&ints(&[1, 3, 40]));
        assert_eq!(r.merge_t(&ints(&[1, 2, 25])), Merged::Old);
        assert_eq!(r.merge_t(&ints(&[1, 2, 35])), Merged::New(0));
        assert_eq!(r.tuples(), [ints(&[1, 2, 35]), ints(&[1, 3, 40])]);
    }

    #[test]
    fn count_counts_distinct_contributors() {
        // Attend: cnt(Y, count<X>).
        let mut r = DerivedRelation::aggregate(AggFunc::Count, 1, 0.0, &[]);
        assert_eq!(r.merge_t(&ints(&[1, 100])), Merged::New(0));
        assert_eq!(r.tuples(), [ints(&[1, 1])]);
        assert_eq!(r.merge_t(&ints(&[1, 100])), Merged::Old);
        assert_eq!(r.merge_t(&ints(&[1, 101])), Merged::New(0));
        assert_eq!(r.tuples(), [ints(&[1, 2])]);
    }

    #[test]
    fn sum_replaces_contributions_and_respects_epsilon() {
        let mut r = DerivedRelation::aggregate(AggFunc::Sum, 1, 0.1, &[]);
        assert_eq!(r.merge_t(&floats(1, 7, 0.5)), Merged::New(0));
        assert_eq!(r.merge_t(&floats(1, 8, 0.25)), Merged::New(0));
        // Contributor 7 revises 0.5 → 0.45: replaced, not added, and the
        // 0.05 move stays under ε (but the stored total still moves).
        assert_eq!(r.merge_t(&floats(1, 7, 0.45)), Merged::Old);
        assert!((r.rows().row(0).get(1).as_f64() - 0.7).abs() < 1e-12);
        assert_eq!(r.merge_t(&floats(1, 7, 1.0)), Merged::New(0));
    }

    #[test]
    fn linear_lookup_agrees_with_the_dedup_table() {
        let mut fast = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[1]);
        let mut slow = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[1]).with_linear_lookup();
        for r in [[1i64, 7], [2, 5], [1, 3], [1, 9], [2, 2], [3, 3]] {
            assert_eq!(fast.merge_t(&ints(&r)), slow.merge_t(&ints(&r)));
        }
        assert_eq!(fast.tuples(), slow.tuples());
    }

    #[test]
    fn hash_collisions_fall_back_to_exact_comparison() {
        // Forge a collision: two keys placed under one (fake) hash share a
        // probe sequence and a tag, so only their inline bits tell them
        // apart.
        let mut rows = Frame::new(1);
        for v in 1..=3 {
            rows.push_values([Value::Int(v)].into_iter());
        }
        let (one, two, three) = (rows.row(0), rows.row(1), rows.row(2));
        let mut t = KeyTable::default();
        assert!(t.find(one, 1, &Frame::new(1)).is_err()); // sizes the table
        for (id, row) in [one, two].into_iter().enumerate() {
            let at = t.probe(42, row, &rows, false).unwrap_err();
            t.fill(at, id as u32, row);
        }
        assert_eq!(t.probe(42, one, &rows, false), Ok(0));
        assert_eq!(t.probe(42, two, &rows, false), Ok(1));
        assert!(t.probe(42, three, &rows, false).is_err());
        // Growing re-places both by their (shared) tag; they stay findable.
        t.rebuild(4 * FIRST_SLOTS, true);
        assert_eq!(t.probe(42, two, &rows, false), Ok(1));
        assert_eq!(t.probe(42, one, &rows, false), Ok(0));
    }

    #[test]
    fn equal_key_bits_fall_back_to_exact_comparison() {
        // These keys share key bits, hence hash and tag, but not values.
        let mut r = DerivedRelation::set(&[]);
        let bits = Value::Int(1.5f64.to_bits() as i64);
        assert!(matches!(r.merge_t(&Tuple::new(&[bits])), Merged::New(_)));
        assert!(matches!(
            r.merge_t(&Tuple::new(&[Value::Float(1.5)])),
            Merged::New(_)
        ));
        assert_eq!(r.merge_t(&Tuple::new(&[bits])), Merged::Old);
        for v in [-0.0, 0.0] {
            assert!(matches!(
                r.merge_t(&Tuple::new(&[Value::Float(v)])),
                Merged::New(_)
            ));
        }
        assert_eq!(r.merge_t(&Tuple::new(&[Value::Int(0)])), Merged::Old);
        assert_eq!(r.merge_t(&Tuple::new(&[Value::Float(-0.0)])), Merged::Old);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn keys_wider_than_32_bits_widen_the_table() {
        // Narrow lanes hold 32 sign-extended bits: these pairs agree there
        // and differ above, so the first wide key must rebuild the table
        // with 64-bit lanes, keeping the narrow keys findable.
        let mut r = DerivedRelation::set(&[]);
        for v in [5, -1, 7] {
            assert!(matches!(r.merge_t(&ints(&[v, 1])), Merged::New(_)));
        }
        for v in [5 + (1 << 32), u32::MAX as i64, i64::MIN + 7] {
            assert!(matches!(r.merge_t(&ints(&[v, 1])), Merged::New(_)));
        }
        for v in [5, -1, 7, 5 + (1 << 32), u32::MAX as i64, i64::MIN + 7] {
            assert_eq!(r.merge_t(&ints(&[v, 1])), Merged::Old, "{v}");
        }
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn table_grows_without_losing_rows() {
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 2, 0.0, &[]);
        let n = 5 * FIRST_SLOTS as i64;
        for i in 0..n {
            assert!(matches!(r.merge_t(&ints(&[i, -i, 9])), Merged::New(_)));
        }
        for i in 0..n {
            assert_eq!(r.merge_t(&ints(&[i, -i, 10])), Merged::Old);
        }
        assert_eq!(r.merge_t(&ints(&[7, -7, 1])), Merged::New(7));
        assert_eq!(r.rows().row(7).to_tuple(), ints(&[7, -7, 1]));
        assert_eq!(r.len(), n as usize);
    }
}
