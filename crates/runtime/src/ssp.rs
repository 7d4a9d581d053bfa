//! The Stale-Synchronous-Parallel clock (§4.1, after Das & Zaniolo \[14\]).
//!
//! SSP relaxes the global barrier: a worker may run at most `s` local
//! iterations ahead of the slowest *active* worker. Workers that reached a
//! local fixpoint step aside (their clock reads "finished") so they do not
//! hold anyone back, and rejoin at the global frontier when reactivated by
//! incoming tuples.

use std::sync::atomic::{AtomicU64, Ordering};

const FINISHED: u64 = u64::MAX;

/// Per-worker iteration counters with a bounded-staleness test.
pub struct SspClock {
    iters: Vec<AtomicU64>,
    s: u64,
}

impl SspClock {
    /// Creates a clock for `n` workers with staleness bound `s`.
    pub fn new(n: usize, s: usize) -> Self {
        SspClock {
            iters: (0..n).map(|_| AtomicU64::new(0)).collect(),
            s: s as u64,
        }
    }

    /// Minimum iteration over all unfinished workers (or `None` when all
    /// finished).
    pub fn frontier(&self) -> Option<u64> {
        self.iters
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .filter(|&v| v != FINISHED)
            .min()
    }

    /// Marks worker `w` as having completed one more local iteration.
    pub fn advance(&self, w: usize) {
        let cur = self.iters[w].load(Ordering::Relaxed);
        debug_assert_ne!(cur, FINISHED, "advance after finish without rejoin");
        self.iters[w].store(cur + 1, Ordering::Release);
    }

    /// Marks worker `w` as locally finished (empty delta); it no longer
    /// constrains the frontier.
    pub fn finish(&self, w: usize) {
        self.iters[w].store(FINISHED, Ordering::Release);
    }

    /// Reactivates worker `w` at the current frontier after new tuples
    /// arrived for it.
    pub fn rejoin(&self, w: usize) {
        let frontier = self.frontier().unwrap_or(0);
        self.iters[w].store(frontier, Ordering::Release);
    }

    /// Whether `w` is more than `s` iterations ahead of the frontier, so
    /// it must wait before its next iteration. A finished worker is never
    /// ahead. The worker polls this from its own wait loop.
    pub fn ahead(&self, w: usize) -> bool {
        let mine = self.iters[w].load(Ordering::Acquire);
        mine != FINISHED && self.frontier().is_some_and(|f| mine > f + self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_tracks_minimum() {
        let c = SspClock::new(3, 1);
        assert_eq!(c.frontier(), Some(0));
        c.advance(0);
        c.advance(0);
        c.advance(1);
        assert_eq!(c.frontier(), Some(0));
        c.advance(2);
        assert_eq!(c.frontier(), Some(1));
    }

    #[test]
    fn finished_workers_do_not_constrain() {
        let c = SspClock::new(2, 0);
        c.finish(1);
        c.advance(0);
        c.advance(0);
        assert_eq!(c.frontier(), Some(2));
        assert!(!c.ahead(0));
        assert!(!c.ahead(1), "a finished worker is never ahead");
    }

    #[test]
    fn all_finished_frontier_is_none() {
        let c = SspClock::new(2, 1);
        c.finish(0);
        c.finish(1);
        assert_eq!(c.frontier(), None);
        assert!(!c.ahead(0));
    }

    #[test]
    fn rejoin_lands_on_frontier() {
        let c = SspClock::new(3, 1);
        c.advance(0);
        c.advance(0);
        c.advance(1);
        c.finish(2);
        c.rejoin(2);
        // At 0, worker 2 would hold the frontier back; at 1, two more
        // iterations put it 2 ahead of worker 1.
        assert_eq!(c.frontier(), Some(1));
        c.advance(2);
        assert!(!c.ahead(2));
        c.advance(2);
        assert!(c.ahead(2));
    }

    #[test]
    fn ahead_until_the_frontier_moves() {
        let c = SspClock::new(2, 1);
        // Worker 0 is 3 ahead of worker 1 (s = 1): must wait.
        c.advance(0);
        c.advance(0);
        c.advance(0);
        assert!(c.ahead(0));
        assert!(!c.ahead(1), "the slowest worker is never ahead");
        c.advance(1);
        assert!(c.ahead(0), "2 ahead is still more than s");
        c.advance(1);
        assert!(!c.ahead(0));
    }
}
