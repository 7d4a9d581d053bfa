//! The hash-based discriminating function `H` of Algorithm 1.
//!
//! Both base and recursive tables are split into disjoint partitions by the
//! value of their join key (§2.2); partition `i` is owned by worker `W_i`.

use crate::hash::mix64;
use crate::WorkerId;

/// Maps 64-bit join keys to one of `n` workers.
///
/// The mapping mixes the key first so that dense integer vertex ids spread
/// across workers instead of striping, then reduces with the Lemire
/// multiply-shift trick (no modulo in the hot path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    n: usize,
}

impl Partitioner {
    /// Creates a partitioner over `n ≥ 1` workers.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one partition");
        Partitioner { n }
    }

    /// Number of partitions/workers.
    #[inline]
    pub fn partitions(&self) -> usize {
        self.n
    }

    /// The worker owning 64-bit key `k` — the function `H`.
    #[inline]
    pub fn of_key(&self, k: u64) -> WorkerId {
        // Multiply-shift reduction of the mixed key to [0, n).
        ((mix64(k) as u128 * self.n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_maps_everything_to_zero() {
        let p = Partitioner::new(1);
        for k in 0..100 {
            assert_eq!(p.of_key(k), 0);
        }
    }

    #[test]
    fn result_is_in_range() {
        for n in 1..17 {
            let p = Partitioner::new(n);
            for k in 0..1000u64 {
                assert!(p.of_key(k * 2_654_435_761) < n);
            }
        }
    }

    #[test]
    fn dense_ids_spread_roughly_evenly() {
        let n = 8;
        let p = Partitioner::new(n);
        let mut counts = vec![0usize; n];
        let total = 80_000u64;
        for k in 0..total {
            counts[p.of_key(k)] += 1;
        }
        let expected = total as usize / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "partition {i} got {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = Partitioner::new(7);
        let b = Partitioner::new(7);
        for k in 0..500 {
            assert_eq!(a.of_key(k), b.of_key(k));
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Partitioner::new(0);
    }
}
