//! The existence-check cache of §6.2.2, applied to the exchange.
//!
//! The paper puts a constant-time cache in front of a logarithmic index:
//! "when checking the tuples, we first look up the cache in constant time.
//! If the key is already there, we ignore the tuple; otherwise, we proceed
//! to check the index." Here the dedup table of
//! [`DerivedRelation`](crate::DerivedRelation) is already O(1), so the
//! merge path has no cache. The one cache left is the router's sent-filter,
//! where a hit saves what the table cannot: serializing a duplicate row,
//! queueing it to a peer and deserializing it there. A row inside a set
//! relation's [`BitMatrix`](crate::BitMatrix) meets one exact matrix per
//! destination instead; [`TupleCache`] filters every other row. It is a
//! direct-mapped array of exact entries, held as one
//! flat [`Frame`] of slots (8 bytes a cell), so a hit is always *sound*
//! (it proves the row was recorded for that destination); a miss says
//! nothing. Collisions simply evict. A row with several destinations is
//! looked up once per destination, so the destination is folded into the
//! slot index rather than stored: one table serves every peer.

use dcd_common::hash::FxStyleHasher;
use dcd_common::{Frame, Row};
use std::hash::Hasher;

/// The odd step between one destination's slot for a row and the next
/// destination's (the golden-ratio constant): odd, so distinct
/// destinations below the slot count land on distinct slots.
const DEST_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

fn row_hash(row: Row<'_>) -> u64 {
    let mut h = FxStyleHasher::default();
    for c in 0..row.arity() {
        h.write_u64(row.key(c));
    }
    h.finish()
}

/// Lossy set of recently recorded `(row, destination)` pairs.
#[derive(Clone)]
pub struct TupleCache {
    /// Slot `i` is `slots.row(i)` when `filled[i]`; both are allocated,
    /// zeroed, at the first row, whose arity sizes the slots.
    slots: Frame,
    filled: Vec<bool>,
    mask: usize,
}

impl TupleCache {
    /// Creates a cache with `slots` entries (rounded up to a power of two).
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(2);
        TupleCache {
            slots: Frame::default(),
            filled: Vec::new(),
            mask: n - 1,
        }
    }

    /// Whether `row` was definitely recorded before for destination
    /// `dest` (a sound duplicate check); records it if not. The row's
    /// slot is `(hash + dest·DEST_STEP) & mask`: since the step is odd,
    /// a slot holding `row` at `dest`'s index was written for `dest` and
    /// no other destination below the slot count, so a hit stays proof.
    /// A destination at or beyond the slot count never hits.
    pub fn seen(&mut self, row: Row<'_>, dest: usize) -> bool {
        if dest > self.mask {
            return false;
        }
        if self.filled.is_empty() {
            self.slots = Frame::zeroed(row.arity(), self.mask + 1, false);
            self.filled = vec![false; self.mask + 1];
        }
        let at = row_hash(row).wrapping_add((dest as u64).wrapping_mul(DEST_STEP));
        let idx = at as usize & self.mask;
        if self.filled[idx] && self.slots.row(idx) == row {
            return true;
        }
        self.slots.overwrite(idx, row);
        self.filled[idx] = true;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::{Tuple, Value};

    fn seen(c: &mut TupleCache, t: &Tuple) -> bool {
        c.seen(t.row(), 1)
    }

    #[test]
    fn tuple_cache_hit_after_record() {
        let mut c = TupleCache::new(64);
        let t = Tuple::from_ints(&[1, 2]);
        assert!(!seen(&mut c, &t));
        assert!(seen(&mut c, &t));
    }

    #[test]
    fn tuple_cache_never_false_positive() {
        let mut c = TupleCache::new(4); // tiny, lots of collisions
        for i in 0..1000 {
            // A hit must mean the exact row was recorded and not evicted;
            // every row here is new, so each is a miss.
            assert!(
                !seen(&mut c, &Tuple::from_ints(&[i])),
                "false positive for {i}"
            );
        }
        // An all-zero row is not mistaken for an empty (zeroed) slot.
        let mut c = TupleCache::new(4);
        assert!(!seen(&mut c, &Tuple::from_ints(&[0, 0])));
    }

    #[test]
    fn tuple_cache_keeps_value_semantics() {
        let mut c = TupleCache::new(64);
        let float = |v| Tuple::new(&[Value::Float(v)]);
        assert!(!seen(&mut c, &float(-0.0)));
        assert!(!seen(&mut c, &float(0.0)), "-0.0 and 0.0 differ");
        assert!(
            seen(&mut c, &Tuple::from_ints(&[0])),
            "Int(0) == Float(0.0)"
        );
    }

    #[test]
    fn tuple_cache_eviction_is_harmless() {
        let mut c = TupleCache::new(2);
        let a = Tuple::from_ints(&[1]);
        seen(&mut c, &a);
        for i in 2..100 {
            seen(&mut c, &Tuple::from_ints(&[i]));
        }
        // `a` may or may not still be cached; seen() just returns a bool.
        let _ = seen(&mut c, &a);
    }

    #[test]
    fn a_hit_is_per_destination() {
        let mut c = TupleCache::new(64);
        let t = Tuple::from_ints(&[1, 2]);
        assert!(!c.seen(t.row(), 1));
        assert!(!c.seen(t.row(), 2), "recorded for 1, not for 2");
        assert!(c.seen(t.row(), 1));
        assert!(c.seen(t.row(), 2));
        assert!(!c.seen(t.row(), 0));
        // Beyond the slot count, two destinations would share an index.
        for dest in [64, 65, 1 << 20] {
            assert!(!c.seen(t.row(), dest), "{dest}");
            assert!(!c.seen(t.row(), dest), "{dest} never hits");
        }
        // The last destination below it still records and hits.
        assert!(!c.seen(t.row(), 63));
        assert!(c.seen(t.row(), 63));
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        assert_eq!(TupleCache::new(100).mask + 1, 128);
        assert_eq!(TupleCache::new(1).mask + 1, 2);
    }
}
