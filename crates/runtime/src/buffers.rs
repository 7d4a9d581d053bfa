//! The per-worker message buffer matrix `M_i^j` (§4.1–4.2).
//!
//! Worker `W_j` sends the slice of its freshly derived delta that hashes to
//! worker `W_i` by appending a [`Batch`] to `M_i^j`. Each `(i, j)` cell is a
//! dedicated [`SpscQueue`], so races stay pairwise and lock-free (§6.1).
//!
//! Batches carry their rows as a flat [`Frame`] — one contiguous `Vec` of
//! `u64` lanes with a fixed arity stride — instead of a `Vec<Tuple>`, so the
//! exchange path moves one allocation per batch rather than one per row.
//! Exchanged bytes are counted by each worker's `Recorder`, not here.

use crate::spsc::{Consumer, Producer, SpscQueue};
use dcd_common::{Frame, WorkerId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A batch of derived rows for one recursive relation, stamped with its
/// send time (for DWS's arrival statistics) and its sender's round.
pub struct Batch {
    /// Which recursive relation the rows belong to (catalog id).
    pub rel: u32,
    /// The rows, flat and arity-strided.
    pub frame: Frame,
    /// When the producer finished the iteration that derived these rows.
    pub sent_at: Instant,
    /// Producer worker.
    pub from: WorkerId,
    /// The producer's fixpoint round (0 for a stratum's init rows).
    pub round: u64,
}

impl Batch {
    /// Number of rows in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.frame.len()
    }

    /// Whether the batch carries no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Payload bytes that cross the exchange.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        self.frame.payload_bytes()
    }
}

/// The full `n × n` matrix of SPSC queues.
///
/// `queues[i][j]` carries batches from producer `j` to consumer `i`.
pub struct BufferMatrix {
    queues: Vec<Vec<SpscQueue<Batch>>>,
    claimed: Vec<AtomicBool>,
    n: usize,
}

/// Worker-local endpoints: producers towards every peer plus consumers for
/// the worker's own row of the matrix.
pub struct WorkerEndpoints<'a> {
    /// `to_peer[k]` sends to worker `k` (slot `me` unused but present so
    /// indexing matches worker ids; self-sends are legal and cheap).
    pub to_peer: Vec<Producer<'a, Batch>>,
    /// `from_peer[k]` receives batches produced by worker `k`.
    pub from_peer: Vec<Consumer<'a, Batch>>,
    /// This worker's id.
    pub me: WorkerId,
}

impl BufferMatrix {
    /// Builds the matrix for `n` workers with per-queue capacity
    /// `cap` batches.
    pub fn new(n: usize, cap: usize) -> Self {
        assert!(n >= 1);
        let queues = (0..n)
            .map(|_| (0..n).map(|_| SpscQueue::new(cap)).collect())
            .collect();
        BufferMatrix {
            queues,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            n,
        }
    }

    /// Claims the endpoints for worker `me`. Panics on double-claim — each
    /// worker thread must claim exactly once (that is what makes the SPSC
    /// queues single-producer/single-consumer).
    pub fn claim(&self, me: WorkerId) -> WorkerEndpoints<'_> {
        assert!(me < self.n, "worker id out of range");
        assert!(
            !self.claimed[me].swap(true, Ordering::SeqCst),
            "worker {me} endpoints already claimed"
        );
        let to_peer = (0..self.n)
            .map(|k| {
                // Producer side of queue (consumer = k, producer = me).
                let (p, _c) = self.queues[k][me].split();
                p
            })
            .collect();
        let from_peer = (0..self.n)
            .map(|j| {
                let (_p, c) = self.queues[me][j].split();
                c
            })
            .collect();
        WorkerEndpoints {
            to_peer,
            from_peer,
            me,
        }
    }

    /// Total queued batches destined for worker `i` (approximate).
    pub fn inbound_len(&self, i: WorkerId) -> usize {
        self.queues[i].iter().map(|q| q.len()).sum()
    }
}

impl WorkerEndpoints<'_> {
    /// True if any inbound queue has a batch ready.
    pub fn has_inbound(&self) -> bool {
        self.from_peer.iter().any(|c| !c.is_empty())
    }

    /// Pushes `batch` towards `dest`. On a full queue the batch is handed
    /// back, exactly like [`Producer::push`].
    pub fn send(&mut self, dest: WorkerId, batch: Batch) -> Result<(), Batch> {
        self.to_peer[dest].push(batch)
    }

    /// Pops the next batch produced by worker `from`.
    pub fn recv(&mut self, from: WorkerId) -> Option<Batch> {
        self.from_peer[from].pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Value;

    fn batch(rel: u32, from: WorkerId, vals: &[i64]) -> Batch {
        let mut frame = Frame::new(1);
        for &v in vals {
            frame.push_values([Value::Int(v)].into_iter());
        }
        Batch {
            rel,
            frame,
            sent_at: Instant::now(),
            from,
            round: 0,
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let m = BufferMatrix::new(2, 16);
        let mut e0 = m.claim(0);
        let mut e1 = m.claim(1);
        e0.send(1, batch(0, 0, &[1, 2])).ok().unwrap();
        let got = e1.recv(0).unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(got.len(), 2);
        assert!(e1.recv(1).is_none());
        assert!(e0.recv(1).is_none());
    }

    #[test]
    fn self_send_works() {
        let m = BufferMatrix::new(1, 4);
        let mut e = m.claim(0);
        e.send(0, batch(7, 0, &[9])).ok().unwrap();
        assert!(e.has_inbound());
        let got = e.recv(0).unwrap();
        assert_eq!(got.rel, 7);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let m = BufferMatrix::new(2, 4);
        let _a = m.claim(1);
        let _b = m.claim(1);
    }

    #[test]
    fn inbound_accounting() {
        let m = BufferMatrix::new(3, 8);
        let mut e2 = m.claim(2);
        assert_eq!(m.inbound_len(0), 0);
        e2.send(0, batch(0, 2, &[1])).ok().unwrap();
        assert_eq!(m.inbound_len(0), 1);
        assert_eq!(m.inbound_len(1), 0);
    }

    #[test]
    fn cross_thread_exchange() {
        let m = BufferMatrix::new(2, 64);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut e0 = m.claim(0);
                for i in 0..100 {
                    let mut b = batch(0, 0, &[i]);
                    while let Err(back) = e0.send(1, b) {
                        b = back;
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                let mut e1 = m.claim(1);
                let mut seen = 0;
                while seen < 100 {
                    if let Some(b) = e1.recv(0) {
                        assert_eq!(b.frame.row(0).get(0), Value::Int(seen));
                        seen += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }
}
