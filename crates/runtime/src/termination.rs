//! Global-fixpoint (termination) detection (§6.1).
//!
//! The paper detects the global fixpoint by checking that (i) all workers
//! are inactive and (ii) all buffers are empty, the latter via one global
//! counter of produced tuples and per-worker counters of consumed tuples.
//!
//! The hot path here is exactly those counters (relaxed atomic adds). The
//! *decision* is made under a small mutex that only idle workers touch: a
//! worker registers idle while its inbox is empty, and while the registry
//! shows `idle == n`, every worker is provably inside the idle protocol
//! (registered workers cannot produce or consume without first
//! deregistering, which requires the mutex), so reading
//! `produced == consumed` under the lock is a sound, race-free fixpoint
//! test — the double-check epoch trick of DESIGN.md.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long an idle worker sleeps between inbox checks: a missed
/// notification costs at most one interval.
const IDLE_POLL: Duration = Duration::from_micros(100);

/// Outcome of [`Termination::idle_wait`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum IdleOutcome {
    /// Work arrived — the worker must reactivate and drain its inbox.
    Work,
    /// The global fixpoint was reached; all workers should exit.
    Done,
}

/// Shared termination detector for `n` workers.
pub struct Termination {
    produced: AtomicU64,
    consumed: AtomicU64,
    done: AtomicBool,
    idle: Mutex<usize>,
    cv: Condvar,
    n: usize,
}

impl Termination {
    /// Creates a detector for `n` workers.
    pub fn new(n: usize) -> Self {
        Termination {
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            idle: Mutex::new(0),
            cv: Condvar::new(),
            n,
        }
    }

    /// Record `k` tuples produced. MUST be called *before* the tuples are
    /// pushed into any buffer (so `consumed` can never overtake).
    #[inline]
    pub fn note_produced(&self, k: u64) {
        self.produced.fetch_add(k, Ordering::SeqCst);
    }

    /// Record `k` tuples consumed. MUST be called *after* the tuples were
    /// popped.
    #[inline]
    pub fn note_consumed(&self, k: u64) {
        self.consumed.fetch_add(k, Ordering::SeqCst);
    }

    /// Whether the global fixpoint has been declared.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Force termination (used for error propagation / cancellation).
    pub fn cancel(&self) {
        self.done.store(true, Ordering::SeqCst);
        let _guard = self.idle.lock().unwrap();
        self.cv.notify_all();
    }

    /// Counters snapshot `(produced, consumed)` — diagnostic only.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.produced.load(Ordering::SeqCst),
            self.consumed.load(Ordering::SeqCst),
        )
    }

    /// Parks the calling worker as idle until either work arrives
    /// (`has_work` returns true) or the global fixpoint is detected.
    ///
    /// Contract: the caller has fully drained its inbox and recorded every
    /// consumption before calling; `has_work` must be a cheap, lock-free
    /// inbox check.
    pub fn idle_wait(&self, mut has_work: impl FnMut() -> bool) -> IdleOutcome {
        let mut idle = self.idle.lock().unwrap();
        *idle += 1;
        loop {
            if self.done.load(Ordering::SeqCst) {
                *idle -= 1;
                self.cv.notify_all();
                return IdleOutcome::Done;
            }
            // Sound fixpoint test: all n workers are inside this protocol
            // (they hold or wait on `self.idle`), so the counters are
            // quiescent while we observe them.
            if *idle == self.n
                && self.produced.load(Ordering::SeqCst) == self.consumed.load(Ordering::SeqCst)
            {
                self.done.store(true, Ordering::SeqCst);
                *idle -= 1;
                self.cv.notify_all();
                return IdleOutcome::Done;
            }
            if has_work() {
                *idle -= 1;
                return IdleOutcome::Work;
            }
            idle = self.cv.wait_timeout(idle, IDLE_POLL).unwrap().0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_worker_terminates_immediately_when_quiescent() {
        let t = Termination::new(1);
        assert_eq!(t.idle_wait(|| false), IdleOutcome::Done);
        assert!(t.is_done());
    }

    #[test]
    fn unbalanced_counters_block_termination() {
        let t = Termination::new(1);
        t.note_produced(3);
        t.note_consumed(2);
        // Work appears (simulating the in-flight tuple) so we return Work.
        let mut polls = 0;
        let out = t.idle_wait(|| {
            polls += 1;
            polls > 2
        });
        assert_eq!(out, IdleOutcome::Work);
        t.note_consumed(1);
        assert_eq!(t.idle_wait(|| false), IdleOutcome::Done);
    }

    #[test]
    fn cancel_wakes_idlers() {
        let t = Arc::new(Termination::new(2));
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.idle_wait(|| false));
        std::thread::sleep(Duration::from_millis(5));
        t.cancel();
        assert_eq!(h.join().unwrap(), IdleOutcome::Done);
    }

    #[test]
    fn n_workers_all_quiescent_terminate() {
        let t = Arc::new(Termination::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || t.idle_wait(|| false)));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), IdleOutcome::Done);
        }
    }

    #[test]
    fn producer_consumer_ping_pong_then_terminate() {
        // Worker 0 produces 100 tuples into a small SPSC ring; worker 1
        // consumes them while repeatedly going idle; both must terminate
        // exactly once all tuples are consumed.
        let t = Termination::new(2);
        let queue = crate::SpscQueue::new(8);
        let (mut tx, mut rx) = queue.split();
        let mut consumed_total = 0;
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                for i in 0..100u64 {
                    t.note_produced(1);
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                    if i % 10 == 0 {
                        std::thread::yield_now();
                    }
                }
                t.idle_wait(|| false)
            });
            let consumer = s.spawn(|| loop {
                while rx.pop().is_some() {
                    t.note_consumed(1);
                    consumed_total += 1;
                }
                match t.idle_wait(|| !rx.is_empty()) {
                    IdleOutcome::Work => continue,
                    IdleOutcome::Done => return IdleOutcome::Done,
                }
            });
            assert_eq!(producer.join().unwrap(), IdleOutcome::Done);
            assert_eq!(consumer.join().unwrap(), IdleOutcome::Done);
        });
        assert_eq!(consumed_total, 100);
    }

    #[test]
    fn counters_snapshot() {
        let t = Termination::new(1);
        t.note_produced(5);
        t.note_consumed(3);
        assert_eq!(t.counters(), (5, 3));
    }
}
