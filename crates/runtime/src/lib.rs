#![warn(missing_docs)]
//! Parallel execution substrate for DCDatalog (paper §4 and §6.1).
//!
//! This crate provides the coordination machinery the engine runs on:
//!
//! * [`spsc`] — the lock-free Single-Producer Single-Consumer ring queue
//!   (Figure 6) that carries delta batches between workers.
//! * [`buffers`] — the `n × n` message-buffer matrix `M_i^j`.
//! * [`termination`] — counter-based global-fixpoint detection.
//! * [`barrier`] — the per-global-iteration barrier of the `Global`
//!   baseline (Algorithm 1).
//! * [`ssp`] — the bounded-staleness clock of the SSP baseline.
//! * [`dws`] — the Dynamic Weight-based Strategy controller: G/G/1
//!   arrival/service tracking, Equation (1) aggregation and Kingman's
//!   formula (Equation 2) for `ω_i`/`τ_i`.
//! * [`metrics`] — the per-worker observability layer: one worker-owned
//!   [`Recorder`] times each phase of the Gather/Iterate/Distribute loop
//!   once, feeding both its counter and its trace span.
//! * [`strategy`] — strategy selection shared by the engine and benches.
//! * [`simulator`] — a deterministic discrete-event replay of the three
//!   coordination schedules (reproduces Figure 3 in abstract time units).
//! * [`trace`] — the per-worker event schema: phase spans and instant
//!   marks on a run-relative clock, exported as Chrome/Perfetto trace
//!   JSON; the simulator emits the same schema in abstract ticks.

pub mod barrier;
pub mod buffers;
pub mod dws;
pub mod metrics;
pub mod simulator;
pub mod spsc;
pub mod ssp;
pub mod strategy;
pub mod termination;
pub mod trace;

pub use barrier::RoundBarrier;
pub use buffers::{Batch, BufferMatrix, WorkerEndpoints};
pub use dws::{DwsController, DwsModel, OmegaGate};
pub use metrics::{MetricsSnapshot, Recorder};
pub use spsc::SpscQueue;
pub use ssp::SspClock;
pub use strategy::Strategy;
pub use termination::{IdleOutcome, Termination};
pub use trace::{chrome_trace_json, IterationPoint, TraceEvent, TraceMeta, WorkerTrace};
