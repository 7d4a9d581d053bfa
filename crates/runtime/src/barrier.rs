//! The global-iteration barrier used by the `Global` baseline strategy
//! (Algorithm 1, line 13).
//!
//! A reusable generation barrier with a twist: each arriving worker
//! reports how many new tuples it derived in the round, and the last
//! arriver declares the global fixpoint when a full round produced
//! nothing anywhere. It never blocks: a worker polls its [`Ticket`]
//! from its own wait loop, which drains its inbox and watches the
//! deadline between polls.

use std::sync::Mutex;

struct BarrierState {
    arrived: usize,
    generation: u64,
    round_total: u64,
    done: bool,
}

/// A worker's arrival at one generation of a [`RoundBarrier`].
#[derive(Clone, Copy, Debug)]
pub struct Ticket(u64);

/// A reusable barrier over `n` workers with fixpoint detection.
pub struct RoundBarrier {
    state: Mutex<BarrierState>,
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
            n,
        }
    }

    /// Arrives at the barrier reporting `new_tuples` derived this round;
    /// the last of the `n` arrivals opens the next generation, or declares
    /// the global fixpoint when the round's total is zero.
    pub fn arrive(&self, new_tuples: u64) -> Ticket {
        let mut st = self.state.lock().expect("no worker panics holding it");
        let ticket = Ticket(st.generation);
        if st.done {
            return ticket;
        }
        st.round_total += new_tuples;
        st.arrived += 1;
        if st.arrived == self.n {
            st.done = st.round_total == 0;
            st.arrived = 0;
            st.round_total = 0;
            st.generation += 1;
        }
        ticket
    }

    /// `None` while `ticket`'s generation still waits for arrivals;
    /// otherwise `Some(true)` to continue with the next global iteration,
    /// `Some(false)` once the global fixpoint (an all-zero round) was
    /// reached.
    pub fn passed(&self, ticket: Ticket) -> Option<bool> {
        let st = self.state.lock().expect("no worker panics holding it");
        if st.done {
            Some(false)
        } else {
            (st.generation != ticket.0).then_some(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Arrives and polls until the generation is passed.
    fn arrive_and_wait(b: &RoundBarrier, new_tuples: u64) -> bool {
        let ticket = b.arrive(new_tuples);
        loop {
            if let Some(cont) = b.passed(ticket) {
                return cont;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn single_worker_runs_until_zero_round() {
        let b = RoundBarrier::new(1);
        assert_eq!(b.passed(b.arrive(5)), Some(true));
        assert_eq!(b.passed(b.arrive(1)), Some(true));
        assert_eq!(b.passed(b.arrive(0)), Some(false));
        // Subsequent arrivals keep reporting done.
        assert_eq!(b.passed(b.arrive(10)), Some(false));
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
                    if !arrive_and_wait(&b, produce) {
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
                cont = arrive_and_wait(&b2, 0);
                rounds += 1;
            }
            rounds
        });
        assert!(arrive_and_wait(&b, 3)); // round 1: total 3 ⇒ continue
        assert!(!arrive_and_wait(&b, 0)); // round 2: total 0 ⇒ done
        assert_eq!(h.join().unwrap(), 2);
    }

    #[test]
    fn a_ticket_waits_for_every_arrival() {
        // A plain barrier (every arrival reports a row, as the run-wide
        // sync barrier does) passes only once all n workers arrived, and a
        // worker that never arrives leaves the others' tickets waiting:
        // only their own wait loop, which sees the abort flag, ends the
        // wait.
        let b = RoundBarrier::new(2);
        let first = b.arrive(1);
        assert_eq!(b.passed(first), None, "one of two arrived");
        let second = b.arrive(1);
        assert_eq!(b.passed(first), Some(true));
        assert_eq!(b.passed(second), Some(true));
        let stranded = b.arrive(1);
        for _ in 0..3 {
            assert_eq!(b.passed(stranded), None);
        }
    }

    #[test]
    fn tickets_pass_across_threads() {
        let b = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || arrive_and_wait(&b2, 1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(arrive_and_wait(&b, 1));
        assert!(h.join().unwrap());
    }
}
