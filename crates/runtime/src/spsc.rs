//! Single-Producer Single-Consumer ring queue (§6.1, Figure 6).
//!
//! DWS lets worker `W_j` append delta batches to the memory space `M_i^j`
//! owned by consumer `W_i`; because exactly one producer and one consumer
//! touch each buffer, the race condition reduces to a pair of atomic
//! head/tail counters on a ring array — no locks, no syscalls.
//!
//! This is the only module in the workspace using `unsafe`: slots are
//! `UnsafeCell`s published with release stores of the tail and acquired by
//! loads of the consumer.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads a counter to a cache line so producer and consumer indices do not
/// false-share.
#[repr(align(64))]
struct CachePadded(AtomicUsize);

/// A bounded lock-free SPSC ring queue.
///
/// `push` fails (returning the value) when the ring is full; callers decide
/// whether to spin, yield, or grow batches. The queue is safe to share via
/// `&SpscQueue` between exactly one producing thread and one consuming
/// thread; the [`split`](SpscQueue::split) handles enforce that statically.
pub struct SpscQueue<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to write; only the producer advances it.
    tail: CachePadded,
    /// Next slot to read; only the consumer advances it.
    head: CachePadded,
}

// SAFETY: the producer/consumer protocol ensures a slot is accessed by at
// most one thread at a time: the producer writes slot `t` before the
// release-store of `tail = t+1`, and the consumer reads it only after an
// acquire-load observes `tail > t`; symmetrically for `head` on reuse.
unsafe impl<T: Send> Sync for SpscQueue<T> {}
unsafe impl<T: Send> Send for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    /// Creates a queue with capacity `cap` (rounded up to a power of two).
    pub fn new(cap: usize) -> Self {
        let n = cap.next_power_of_two().max(2);
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..n)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        SpscQueue {
            buf,
            mask: n - 1,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Splits into producer and consumer handles.
    pub fn split(&self) -> (Producer<'_, T>, Consumer<'_, T>) {
        (Producer { q: self }, Consumer { q: self })
    }

    /// Number of elements currently queued (approximate under concurrency).
    ///
    /// `head` is loaded *before* `tail`: both counters only advance and
    /// `tail >= head` always holds, so the later `tail` load can never
    /// land behind the earlier `head` load. The reverse order (tail first)
    /// let a concurrent pop slip in between and drive `head` past the
    /// stale `tail`, wrapping `t - h` to ~2^64 — which made
    /// `is_empty()`/`has_inbound()` spuriously report work. The distance
    /// is additionally saturated at capacity: pops after the `head` load
    /// can free slots the producer refills before the `tail` load, so the
    /// raw distance may overshoot by the amount consumed in between.
    pub fn len(&self) -> usize {
        let h = self.head.0.load(Ordering::Acquire);
        let t = self.tail.0.load(Ordering::Acquire);
        t.wrapping_sub(h).min(self.mask + 1)
    }

    /// Whether the queue is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push_inner(&self, value: T) -> Result<(), T> {
        let t = self.tail.0.load(Ordering::Relaxed);
        let h = self.head.0.load(Ordering::Acquire);
        if t.wrapping_sub(h) > self.mask {
            return Err(value); // full
        }
        // SAFETY: slot `t & mask` is past the consumer's head, so the
        // consumer will not touch it until tail is published below.
        unsafe {
            (*self.buf[t & self.mask].get()).write(value);
        }
        self.tail.0.store(t.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    fn pop_inner(&self) -> Option<T> {
        let h = self.head.0.load(Ordering::Relaxed);
        let t = self.tail.0.load(Ordering::Acquire);
        if h == t {
            return None; // empty
        }
        // SAFETY: the acquire-load of `tail` above synchronizes with the
        // producer's release-store, so slot `h & mask` is initialized and
        // the producer will not rewrite it until head is published below.
        let value = unsafe { (*self.buf[h & self.mask].get()).assume_init_read() };
        self.head.0.store(h.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Drain remaining initialized slots.
        while self.pop_inner().is_some() {}
    }
}

/// Producer handle: `push` only.
pub struct Producer<'a, T> {
    q: &'a SpscQueue<T>,
}

impl<T> Producer<'_, T> {
    /// Attempts to enqueue; returns the value back when the ring is full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.q.push_inner(value)
    }
}

/// Consumer handle: `pop` only.
pub struct Consumer<'a, T> {
    q: &'a SpscQueue<T>,
}

impl<T> Consumer<'_, T> {
    /// Dequeues the oldest element, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.q.pop_inner()
    }

    /// Number of queued elements (approximate).
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether nothing is queued (approximate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn fifo_single_thread() {
        let q = SpscQueue::new(8);
        let (mut p, mut c) = q.split();
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let q = SpscQueue::new(4);
        let (mut p, mut c) = q.split();
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!(p.push(99), Err(99));
        assert_eq!(c.pop(), Some(0));
        p.push(99).unwrap();
    }

    #[test]
    fn wraparound_many_times() {
        let q = SpscQueue::new(4);
        let (mut p, mut c) = q.split();
        for round in 0..1000 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_rounds_up() {
        let q: SpscQueue<u8> = SpscQueue::new(5);
        assert_eq!(q.mask + 1, 8);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Box values would leak if Drop didn't drain; run under Miri or
        // with a leak checker to be strict — here we assert via Arc counts.
        use std::sync::Arc;
        let sentinel = Arc::new(());
        {
            let q = SpscQueue::new(8);
            let (mut p, _c) = q.split();
            for _ in 0..5 {
                p.push(Arc::clone(&sentinel)).unwrap();
            }
            assert_eq!(Arc::strong_count(&sentinel), 6);
        }
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn two_thread_stress_preserves_order_and_values() {
        const N: u64 = 200_000;
        let q = SpscQueue::new(1024);
        let (mut p, mut c) = q.split();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    while p.push(i).is_err() {
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(move || {
                let mut expected = 0;
                while expected < N {
                    if let Some(v) = c.pop() {
                        assert_eq!(v, expected);
                        expected += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
    }

    #[test]
    fn len_never_exceeds_capacity_under_concurrency() {
        // Regression test for the tail-before-head load order: a pop
        // between the two loads could wrap `t - h` to ~2^64. An observer
        // thread hammers len()/is_empty() while producer and consumer run;
        // every observation must stay within [0, capacity].
        const N: u64 = 100_000;
        let q = SpscQueue::new(64);
        let cap = q.mask + 1;
        let stop = AtomicBool::new(false);
        let (mut p, mut c) = q.split();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let l = q.len();
                    assert!(l <= cap, "len {l} exceeds capacity {cap}");
                }
            });
            s.spawn(move || {
                for i in 0..N {
                    while p.push(i).is_err() {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut seen = 0;
            while seen < N {
                if c.pop().is_some() {
                    seen += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
