//! The global-iteration barrier used by the `Global` baseline strategy
//! (Algorithm 1, line 13).
//!
//! A reusable generation barrier with a twist: each arriving worker
//! reports how many new tuples it derived in the round, and the last
//! arriver declares the global fixpoint when a full round produced
//! nothing anywhere.

use std::sync::{Condvar, Mutex};

struct BarrierState {
    arrived: usize,
    generation: u64,
    round_total: u64,
    done: bool,
}

/// A reusable barrier over `n` workers with fixpoint detection.
pub struct RoundBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

impl RoundBarrier {
    /// Creates a barrier for `n` workers.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        RoundBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                round_total: 0,
                done: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    /// Arrives at the barrier reporting `new_tuples` derived this round.
    /// Blocks until all `n` workers arrive. Returns `true` to continue
    /// with the next global iteration, `false` when the global fixpoint
    /// (an all-zero round) was reached.
    pub fn arrive(&self, new_tuples: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.done {
            return false;
        }
        st.round_total += new_tuples;
        st.arrived += 1;
        if st.arrived == self.n {
            // Leader: decide and open the next generation.
            if st.round_total == 0 {
                st.done = true;
            }
            st.arrived = 0;
            st.round_total = 0;
            st.generation += 1;
            self.cv.notify_all();
            return !st.done;
        }
        let gen = st.generation;
        while st.generation == gen && !st.done {
            st = self.cv.wait(st).unwrap();
        }
        !st.done
    }

    /// A plain barrier wait: blocks until all `n` workers arrive. Returns
    /// `false` when the barrier was cancelled instead.
    pub fn wait(&self) -> bool {
        self.arrive(1)
    }

    /// Marks the barrier as finished, releasing all waiters (cancellation).
    pub fn cancel(&self) {
        let mut st = self.state.lock().unwrap();
        st.done = true;
        st.generation += 1;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_worker_runs_until_zero_round() {
        let b = RoundBarrier::new(1);
        assert!(b.arrive(5));
        assert!(b.arrive(1));
        assert!(!b.arrive(0));
        // Subsequent arrivals keep reporting done.
        assert!(!b.arrive(10));
    }

    #[test]
    fn rounds_synchronize_workers() {
        let n = 4;
        let b = Arc::new(RoundBarrier::new(n));
        let round_counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for w in 0..n {
            let b = Arc::clone(&b);
            let rc = Arc::clone(&round_counter);
            handles.push(std::thread::spawn(move || {
                let mut rounds = 0u64;
                // Worker w produces tuples for w+1 rounds, then zeros.
                loop {
                    let produce = if rounds <= w as u64 { 1 } else { 0 };
                    rc.fetch_add(produce, Ordering::Relaxed);
                    if !b.arrive(produce) {
                        return rounds;
                    }
                    rounds += 1;
                }
            }));
        }
        let rounds: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All workers exit after the same number of rounds: the first
        // all-zero round is round n (0-indexed), since worker n-1 produces
        // through round n-1.
        assert!(rounds.iter().all(|&r| r == n as u64));
    }

    #[test]
    fn fixpoint_requires_all_zero() {
        let b = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            // This worker always produces 0; the other side decides.
            let mut cont = true;
            let mut rounds = 0;
            while cont {
                cont = b2.arrive(0);
                rounds += 1;
            }
            rounds
        });
        assert!(b.arrive(3)); // round 1: total 3 ⇒ continue
        assert!(!b.arrive(0)); // round 2: total 0 ⇒ done
        assert_eq!(h.join().unwrap(), 2);
    }

    #[test]
    fn plain_wait_passes_until_cancelled() {
        let b = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait());
        assert!(b.wait());
        assert!(h.join().unwrap());
        // A worker that never arrives cannot strand the others once the
        // barrier is cancelled, whether it was already waiting or not.
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait());
        b.cancel();
        assert!(!h.join().unwrap());
    }

    #[test]
    fn cancel_releases_waiters() {
        let b = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.arrive(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        b.cancel();
        assert!(!h.join().unwrap());
    }
}
