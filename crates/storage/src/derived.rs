//! Derived (IDB) relations: set semantics or an aggregate head (§6.2.1).
//!
//! A [`DerivedRelation`] stores each logical row once, in the same
//! [`RowStore`] layout base relations use, and adds two things on top:
//!
//! * a dedup table that finds a row's id from its key: the whole row for
//!   a set relation, the group-by prefix for an aggregate relation (so the
//!   table *is* the paper's group index). It is one flat open-addressing
//!   array with linear probing; each slot holds a hash tag, the row id and
//!   the key's `key_bits()` inline (in 32-bit lanes while every key fits
//!   them), so a lookup reads one contiguous run of slots and, while every
//!   key value seen is an `Int`, never touches the stored rows. Once a
//!   `Float` key value has been stored or probed, key bits no longer
//!   decide equality (`Float(-0.0)` and `Float(0.0)` share them, as do a
//!   float and the integer holding its IEEE bits), so every bits match is
//!   then confirmed against the stored row with `==`.
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
use dcd_common::hash::{combine, FastMap};
use dcd_common::{Tuple, Value};
use std::ops::Deref;

/// The four aggregate functions supported in recursive rule heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Monotonically decreasing extremum.
    Min,
    /// Monotonically increasing extremum.
    Max,
    /// Monotonic sum over distinct contributors (contributions may be
    /// revised; the total converges under damping).
    Sum,
    /// Count of distinct contributors.
    Count,
}

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

impl KeyTable {
    /// The id of the row in `rows` whose leading `key.len()` values equal
    /// `key`, or the vacancy where `key` goes. First grows the table if an
    /// insert could overfill it, and widens it if `key` needs wide lanes,
    /// so the vacancy stays valid until [`KeyTable::fill`].
    fn find(&mut self, key: &[Value], rows: &[Tuple]) -> Result<u32, Vacancy> {
        // One pass over the key: its hash, whether its bits fit narrow
        // lanes, and whether it holds a float.
        let (mut h, mut fits, mut float) = (0xcbf2_9ce4_8422_2325, true, false);
        for v in key {
            let b = v.key_bits();
            h = combine(h, b);
            fits &= narrow(b);
            float |= matches!(v, Value::Float(_));
        }
        if self.lanes.is_empty() {
            self.width = key.len();
            self.rebuild(FIRST_SLOTS, false);
        }
        debug_assert_eq!(key.len(), self.width, "key width changed");
        let grow = (self.len + 1) * MAX_LOAD_DEN > (self.mask + 1) * MAX_LOAD_NUM;
        if grow || !(fits || self.wide) {
            self.rebuild((self.mask + 1) << grow as u32, !fits || self.wide);
        }
        self.exact |= float;
        self.probe((h >> 32) as u32, key, rows)
    }

    /// Walks the probe sequence of `tag` for `key`.
    fn probe(&self, tag: u32, key: &[Value], rows: &[Tuple]) -> Result<u32, Vacancy> {
        let stride = self.stride;
        let mut s = self.home(tag);
        loop {
            let slot = &self.lanes[s * stride..s * stride + stride];
            if slot[1] == 0 {
                return Err(Vacancy { slot: s, tag });
            }
            let wide = self.wide;
            let bits_match = || {
                let mut values = key.iter().enumerate();
                values.all(|(i, v)| lane_bits(slot, i, wide) == v.key_bits())
            };
            if slot[0] == tag && bits_match() {
                let id = slot[1] - 1;
                if !self.exact || rows[id as usize].values()[..key.len()] == *key {
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

    /// Stores row `id`, whose leading values are the key `find` missed,
    /// in the vacancy `find` returned.
    fn fill(&mut self, at: Vacancy, id: u32, row: &[Value]) {
        let (stride, wide) = (self.stride, self.wide);
        let slot = &mut self.lanes[at.slot * stride..][..stride];
        slot[0] = at.tag;
        slot[1] = id.checked_add(1).expect("row id below u32::MAX");
        for (i, v) in row[..self.width].iter().enumerate() {
            set_lane_bits(slot, i, wide, v.key_bits());
        }
        self.len += 1;
    }

    /// Re-places every slot, by its tag, into a fresh table of `slots`
    /// slots with `wide` lanes; no key is rehashed and no stored row read.
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
    /// lookup.
    table: Option<KeyTable>,
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
            contribs: Vec::new(),
        }
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

    /// The id of the stored row whose leading `key.len()` values equal
    /// `key`, or where to insert it.
    fn find(&mut self, key: &[Value]) -> Result<u32, Vacancy> {
        let rows = self.store.rows();
        match &mut self.table {
            Some(table) => table.find(key, rows),
            None => (0..rows.len() as u32)
                .find(|&id| rows[id as usize].values()[..key.len()] == *key)
                .ok_or(Vacancy::default()),
        }
    }

    /// Stores `row`, whose key `find` placed at `at`, and returns its id.
    fn insert(&mut self, at: Vacancy, row: Tuple) -> u32 {
        if let Some(table) = &mut self.table {
            table.fill(at, self.store.len() as u32, row.values());
        }
        self.store.push(row)
    }

    /// Merges one incoming merge-layout row.
    pub fn merge(&mut self, t: &Tuple) -> Merged {
        let Some(agg) = self.agg else {
            return match self.find(t.values()) {
                Ok(_) => Merged::Old,
                Err(at) => Merged::New(self.insert(at, t.clone())),
            };
        };
        let g = agg.group_cols;
        let found = self.find(t.group_key(g));
        let id = match agg.func {
            AggFunc::Min | AggFunc::Max => {
                let new = t[g];
                let id = match found {
                    Ok(id) => id,
                    Err(at) => return Merged::New(self.insert(at, t.clone())),
                };
                let cur = self.store.rows()[id as usize][g];
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
                    let group = t.group_key(g).iter().copied();
                    let row = Tuple::from_exact_iter(g + 1, group.chain([zero]));
                    self.contribs.push(Contributions {
                        by_source: FastMap::default(),
                        emitted: f64::NEG_INFINITY,
                    });
                    self.insert(at, row)
                });
                let state = &mut self.contribs[id as usize];
                let contributor = t[g].key_bits();
                if agg.func == AggFunc::Count {
                    if state.by_source.insert(contributor, 1.0).is_some() {
                        return Merged::Old;
                    }
                    let total = Value::Int(state.by_source.len() as i64);
                    self.store.set_value(id, g, total);
                } else {
                    let val = t[g + 1].as_f64();
                    let old = state.by_source.insert(contributor, val).unwrap_or(0.0);
                    let total = self.store.rows()[id as usize][g].as_f64() + (val - old);
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

    fn ints(v: &[i64]) -> Tuple {
        Tuple::from_ints(v)
    }

    fn floats(group: i64, contributor: i64, v: f64) -> Tuple {
        Tuple::new(&[Value::Int(group), Value::Int(contributor), Value::Float(v)])
    }

    #[test]
    fn set_dedups_and_stores_each_row_once() {
        let mut r = DerivedRelation::set(&[1]);
        assert_eq!(r.merge(&ints(&[1, 2])), Merged::New(0));
        assert_eq!(r.merge(&ints(&[1, 2])), Merged::Old);
        assert_eq!(r.merge(&ints(&[3, 2])), Merged::New(1));
        assert_eq!(r.rows(), &[ints(&[1, 2]), ints(&[3, 2])]);
        assert_eq!(r.probe_ids(1, Value::Int(2).key_bits()), &[0, 1]);
    }

    #[test]
    fn min_keeps_smallest_and_reports_updates() {
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[]);
        assert_eq!(r.merge(&ints(&[1, 10])), Merged::New(0));
        assert_eq!(r.merge(&ints(&[1, 12])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 7])), Merged::New(0));
        assert_eq!(r.rows(), &[ints(&[1, 7])]);
    }

    #[test]
    fn max_multi_column_groups() {
        // APSP-shaped: group = (A, B).
        let mut r = DerivedRelation::aggregate(AggFunc::Max, 2, 0.0, &[]);
        r.merge(&ints(&[1, 2, 30]));
        r.merge(&ints(&[1, 3, 40]));
        assert_eq!(r.merge(&ints(&[1, 2, 25])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 2, 35])), Merged::New(0));
        assert_eq!(r.rows(), &[ints(&[1, 2, 35]), ints(&[1, 3, 40])]);
    }

    #[test]
    fn count_counts_distinct_contributors() {
        // Attend: cnt(Y, count<X>).
        let mut r = DerivedRelation::aggregate(AggFunc::Count, 1, 0.0, &[]);
        assert_eq!(r.merge(&ints(&[1, 100])), Merged::New(0));
        assert_eq!(r.rows(), &[ints(&[1, 1])]);
        assert_eq!(r.merge(&ints(&[1, 100])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 101])), Merged::New(0));
        assert_eq!(r.rows(), &[ints(&[1, 2])]);
    }

    #[test]
    fn sum_replaces_contributions_and_respects_epsilon() {
        let mut r = DerivedRelation::aggregate(AggFunc::Sum, 1, 0.1, &[]);
        assert_eq!(r.merge(&floats(1, 7, 0.5)), Merged::New(0));
        assert_eq!(r.merge(&floats(1, 8, 0.25)), Merged::New(0));
        // Contributor 7 revises 0.5 → 0.45: replaced, not added, and the
        // 0.05 move stays under ε (but the stored total still moves).
        assert_eq!(r.merge(&floats(1, 7, 0.45)), Merged::Old);
        assert!((r.rows()[0][1].as_f64() - 0.7).abs() < 1e-12);
        assert_eq!(r.merge(&floats(1, 7, 1.0)), Merged::New(0));
    }

    #[test]
    fn linear_lookup_agrees_with_the_dedup_table() {
        let mut fast = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[1]);
        let mut slow = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[1]).with_linear_lookup();
        for r in [[1i64, 7], [2, 5], [1, 3], [1, 9], [2, 2], [3, 3]] {
            assert_eq!(fast.merge(&ints(&r)), slow.merge(&ints(&r)));
        }
        assert_eq!(fast.rows(), slow.rows());
    }

    #[test]
    fn hash_collisions_fall_back_to_exact_comparison() {
        // Forge a collision: two keys placed under one (fake) hash share a
        // probe sequence and a tag, so only their inline bits tell them
        // apart.
        let rows = [ints(&[1]), ints(&[2])];
        let mut t = KeyTable::default();
        assert!(t.find(&[Value::Int(0)], &[]).is_err()); // sizes the table
        for (id, row) in rows.iter().enumerate() {
            let at = t.probe(42, row.values(), &rows).unwrap_err();
            t.fill(at, id as u32, row.values());
        }
        assert_eq!(t.probe(42, &[Value::Int(1)], &rows), Ok(0));
        assert_eq!(t.probe(42, &[Value::Int(2)], &rows), Ok(1));
        assert!(t.probe(42, &[Value::Int(3)], &rows).is_err());
        // Growing re-places both by their (shared) tag; they stay findable.
        t.rebuild(4 * FIRST_SLOTS, true);
        assert_eq!(t.probe(42, &[Value::Int(2)], &rows), Ok(1));
        assert_eq!(t.probe(42, &[Value::Int(1)], &rows), Ok(0));
    }

    #[test]
    fn equal_key_bits_fall_back_to_exact_comparison() {
        // These keys share key bits, hence hash and tag, but not values.
        let mut r = DerivedRelation::set(&[]);
        let bits = Value::Int(1.5f64.to_bits() as i64);
        assert!(matches!(r.merge(&Tuple::new(&[bits])), Merged::New(_)));
        assert!(matches!(
            r.merge(&Tuple::new(&[Value::Float(1.5)])),
            Merged::New(_)
        ));
        assert_eq!(r.merge(&Tuple::new(&[bits])), Merged::Old);
        for v in [-0.0, 0.0] {
            assert!(matches!(
                r.merge(&Tuple::new(&[Value::Float(v)])),
                Merged::New(_)
            ));
        }
        assert_eq!(r.merge(&Tuple::new(&[Value::Int(0)])), Merged::Old);
        assert_eq!(r.merge(&Tuple::new(&[Value::Float(-0.0)])), Merged::Old);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn keys_wider_than_32_bits_widen_the_table() {
        // Narrow lanes hold 32 sign-extended bits: these pairs agree there
        // and differ above, so the first wide key must rebuild the table
        // with 64-bit lanes, keeping the narrow keys findable.
        let mut r = DerivedRelation::set(&[]);
        for v in [5, -1, 7] {
            assert!(matches!(r.merge(&ints(&[v, 1])), Merged::New(_)));
        }
        for v in [5 + (1 << 32), u32::MAX as i64, i64::MIN + 7] {
            assert!(matches!(r.merge(&ints(&[v, 1])), Merged::New(_)));
        }
        for v in [5, -1, 7, 5 + (1 << 32), u32::MAX as i64, i64::MIN + 7] {
            assert_eq!(r.merge(&ints(&[v, 1])), Merged::Old, "{v}");
        }
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn table_grows_without_losing_rows() {
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 2, 0.0, &[]);
        let n = 5 * FIRST_SLOTS as i64;
        for i in 0..n {
            assert!(matches!(r.merge(&ints(&[i, -i, 9])), Merged::New(_)));
        }
        for i in 0..n {
            assert_eq!(r.merge(&ints(&[i, -i, 10])), Merged::Old);
        }
        assert_eq!(r.merge(&ints(&[7, -7, 1])), Merged::New(7));
        assert_eq!(r.rows()[7], ints(&[7, -7, 1]));
        assert_eq!(r.len(), n as usize);
    }
}
