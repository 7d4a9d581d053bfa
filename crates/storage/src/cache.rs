//! The existence-check cache of §6.2.2, applied to the exchange.
//!
//! The paper puts a constant-time cache in front of a logarithmic index:
//! "when checking the tuples, we first look up the cache in constant time.
//! If the key is already there, we ignore the tuple; otherwise, we proceed
//! to check the index." Here the dedup table of
//! [`DerivedRelation`](crate::DerivedRelation) is already O(1), so the
//! merge path has no cache. The one cache left is Distribute's sent-filter,
//! where a hit saves what the table cannot: serializing a duplicate row,
//! queueing it to a peer and deserializing it there.
//!
//! [`TupleCache`] is a direct-mapped array of exact entries, so a hit is
//! always *sound* (it proves the tuple was recorded); a miss says nothing.
//! Collisions simply evict.

use dcd_common::Tuple;
use std::hash::BuildHasher;

fn tuple_hash(t: &Tuple) -> u64 {
    dcd_common::hash::FxBuild::default().hash_one(t)
}

/// Lossy set of recently recorded tuples.
pub struct TupleCache {
    slots: Vec<Option<Tuple>>,
    mask: usize,
    hits: u64,
    misses: u64,
}

impl TupleCache {
    /// Creates a cache with `slots` entries (rounded up to a power of two).
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(2);
        TupleCache {
            slots: vec![None; n],
            mask: n - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether `t` was definitely seen before (a sound duplicate check).
    pub fn check(&mut self, t: &Tuple) -> bool {
        let idx = (tuple_hash(t) as usize) & self.mask;
        if self.slots[idx].as_ref() == Some(t) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Records `t` as seen.
    pub fn record(&mut self, t: &Tuple) {
        let idx = (tuple_hash(t) as usize) & self.mask;
        self.slots[idx] = Some(t.clone());
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_cache_hit_after_record() {
        let mut c = TupleCache::new(64);
        let t = Tuple::from_ints(&[1, 2]);
        assert!(!c.check(&t));
        c.record(&t);
        assert!(c.check(&t));
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn tuple_cache_never_false_positive() {
        let mut c = TupleCache::new(4); // tiny, lots of collisions
        for i in 0..1000 {
            let t = Tuple::from_ints(&[i]);
            // A hit must mean the exact tuple was recorded and not evicted —
            // and we only record AFTER checking, so first sight is a miss.
            assert!(!c.check(&t), "false positive for {i}");
            c.record(&t);
        }
    }

    #[test]
    fn tuple_cache_eviction_is_harmless() {
        let mut c = TupleCache::new(2);
        let a = Tuple::from_ints(&[1]);
        c.record(&a);
        for i in 2..100 {
            c.record(&Tuple::from_ints(&[i]));
        }
        // `a` may or may not still be cached; check() just returns a bool.
        let _ = c.check(&a);
    }

    #[test]
    fn sizes_round_to_power_of_two() {
        let c = TupleCache::new(100);
        assert_eq!(c.slots.len(), 128);
        let c = TupleCache::new(1);
        assert_eq!(c.slots.len(), 2);
    }
}
