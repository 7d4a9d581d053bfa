//! Derived (IDB) relations: set semantics or an aggregate head (§6.2.1).
//!
//! A [`DerivedRelation`] stores each logical row once, in the same
//! [`RowStore`] layout base relations use, and adds two things on top:
//!
//! * a dedup table from a row's hash to its row id. Set relations hash the
//!   whole row; aggregate relations hash the group-by prefix, so the table
//!   *is* the paper's group index. A hash hit is confirmed by comparing the
//!   stored row exactly; rows sharing a hash are chained by id.
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
#[derive(Debug, PartialEq)]
pub enum Merged {
    /// The logical row is new/improved: feed it to the next delta.
    New(Tuple),
    /// Duplicate / non-improving.
    Old,
}

/// End of a dedup-table collision chain.
const NONE: u32 = u32::MAX;

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
    /// Row hash (set) or group-prefix hash (aggregate) → the newest row id
    /// with that hash.
    dedup: FastMap<u64, u32>,
    /// `chain[id]`: the next older row id with the same hash, or [`NONE`].
    chain: Vec<u32>,
    /// `sum`/`count` state, indexed by row id.
    contribs: Vec<Contributions>,
    /// Locate rows by a scan of `rows()` instead of the dedup table.
    linear: bool,
}

impl DerivedRelation {
    /// An empty set relation indexed on `index_cols`.
    pub fn set(index_cols: &[usize]) -> Self {
        DerivedRelation {
            store: RowStore::new(index_cols),
            agg: None,
            dedup: FastMap::default(),
            chain: Vec::new(),
            contribs: Vec::new(),
            linear: false,
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
        self.linear = true;
        self
    }

    /// The id of the stored row whose leading `key.len()` values equal
    /// `key`; `h` is the hash of `key`.
    fn find(&self, h: u64, key: &[Value]) -> Option<u32> {
        let rows = self.store.rows();
        let matches = |id: u32| &rows[id as usize].values()[..key.len()] == key;
        if self.linear {
            return (0..rows.len() as u32).find(|&id| matches(id));
        }
        let mut id = *self.dedup.get(&h)?;
        while !matches(id) {
            id = self.chain[id as usize];
            if id == NONE {
                return None;
            }
        }
        Some(id)
    }

    fn insert(&mut self, h: u64, row: Tuple) -> u32 {
        let id = self.store.push(row);
        if !self.linear {
            let older = self.dedup.insert(h, id).unwrap_or(NONE);
            self.chain.push(older);
        }
        id
    }

    /// Merges one incoming merge-layout row.
    pub fn merge(&mut self, t: &Tuple) -> Merged {
        let Some(agg) = self.agg else {
            let h = hash(t.values());
            if self.find(h, t.values()).is_some() {
                return Merged::Old;
            }
            self.insert(h, t.clone());
            return Merged::New(t.clone());
        };
        let g = agg.group_cols;
        let group = t.group_key(g);
        let h = hash(group);
        let found = self.find(h, group);
        let id = match agg.func {
            AggFunc::Min | AggFunc::Max => {
                let new = t[g];
                let Some(id) = found else {
                    self.insert(h, t.clone());
                    return Merged::New(t.clone());
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
                let id = found.unwrap_or_else(|| {
                    let zero = match agg.func {
                        AggFunc::Count => Value::Int(0),
                        _ => Value::Float(0.0),
                    };
                    let row = Tuple::from_exact_iter(g + 1, group.iter().copied().chain([zero]));
                    self.contribs.push(Contributions {
                        by_source: FastMap::default(),
                        emitted: f64::NEG_INFINITY,
                    });
                    self.insert(h, row)
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
        Merged::New(self.store.rows()[id as usize].clone())
    }
}

impl Deref for DerivedRelation {
    type Target = RowStore;

    #[inline]
    fn deref(&self) -> &RowStore {
        &self.store
    }
}

/// Order-sensitive hash of a row or group prefix.
#[inline]
fn hash(vals: &[Value]) -> u64 {
    vals.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| combine(h, v.key_bits()))
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
        assert_eq!(r.merge(&ints(&[1, 2])), Merged::New(ints(&[1, 2])));
        assert_eq!(r.merge(&ints(&[1, 2])), Merged::Old);
        assert!(matches!(r.merge(&ints(&[3, 2])), Merged::New(_)));
        assert_eq!(r.rows(), &[ints(&[1, 2]), ints(&[3, 2])]);
        assert_eq!(r.probe_ids(1, Value::Int(2).key_bits()), &[0, 1]);
    }

    #[test]
    fn min_keeps_smallest_and_reports_updates() {
        let mut r = DerivedRelation::aggregate(AggFunc::Min, 1, 0.0, &[]);
        assert_eq!(r.merge(&ints(&[1, 10])), Merged::New(ints(&[1, 10])));
        assert_eq!(r.merge(&ints(&[1, 12])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 7])), Merged::New(ints(&[1, 7])));
        assert_eq!(r.rows(), &[ints(&[1, 7])]);
    }

    #[test]
    fn max_multi_column_groups() {
        // APSP-shaped: group = (A, B).
        let mut r = DerivedRelation::aggregate(AggFunc::Max, 2, 0.0, &[]);
        r.merge(&ints(&[1, 2, 30]));
        r.merge(&ints(&[1, 3, 40]));
        assert_eq!(r.merge(&ints(&[1, 2, 25])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 2, 35])), Merged::New(ints(&[1, 2, 35])));
        assert_eq!(r.rows(), &[ints(&[1, 2, 35]), ints(&[1, 3, 40])]);
    }

    #[test]
    fn count_counts_distinct_contributors() {
        // Attend: cnt(Y, count<X>).
        let mut r = DerivedRelation::aggregate(AggFunc::Count, 1, 0.0, &[]);
        assert_eq!(r.merge(&ints(&[1, 100])), Merged::New(ints(&[1, 1])));
        assert_eq!(r.merge(&ints(&[1, 100])), Merged::Old);
        assert_eq!(r.merge(&ints(&[1, 101])), Merged::New(ints(&[1, 2])));
    }

    #[test]
    fn sum_replaces_contributions_and_respects_epsilon() {
        let mut r = DerivedRelation::aggregate(AggFunc::Sum, 1, 0.1, &[]);
        assert!(matches!(r.merge(&floats(1, 7, 0.5)), Merged::New(_)));
        assert!(matches!(r.merge(&floats(1, 8, 0.25)), Merged::New(_)));
        // Contributor 7 revises 0.5 → 0.45: replaced, not added, and the
        // 0.05 move stays under ε (but the stored total still moves).
        assert_eq!(r.merge(&floats(1, 7, 0.45)), Merged::Old);
        assert!((r.rows()[0][1].as_f64() - 0.7).abs() < 1e-12);
        assert!(matches!(r.merge(&floats(1, 7, 1.0)), Merged::New(_)));
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
        let mut r = DerivedRelation::set(&[]);
        // Forge a chain: both rows land under one (fake) hash.
        r.insert(42, ints(&[1]));
        r.insert(42, ints(&[2]));
        assert_eq!(r.find(42, &[Value::Int(1)]), Some(0));
        assert_eq!(r.find(42, &[Value::Int(2)]), Some(1));
        assert_eq!(r.find(42, &[Value::Int(3)]), None);
    }
}
