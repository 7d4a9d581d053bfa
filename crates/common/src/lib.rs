#![warn(missing_docs)]
//! Common foundations for the DCDatalog workspace.
//!
//! This crate defines the data model shared by every other crate:
//!
//! * [`Value`] — a compact, copyable, totally-ordered scalar (integer or
//!   float) used for every term in a Datalog fact.
//! * [`AggFunc`] — the aggregate functions of rule heads (`min`, `max`,
//!   `sum`, `count`), one type from the parser to the storage layer.
//! * [`Tuple`] — a small fixed-arity row in the lane layout of a [`Frame`]
//!   row, stored inline (40 bytes) for the arities that dominate Datalog
//!   workloads: the row type of the engine's API edge.
//! * [`Frame`] — a flat, arity-strided block of rows: the allocation-free
//!   wire format of the delta exchange between workers.
//! * [`hash`] — the multiply-shift / Fx-style 64-bit hash used everywhere a
//!   hash of a value or key is needed (indexes, caches, partitioning).
//! * [`Partitioner`] — the hash-based discriminating function `H` of the
//!   paper's Algorithm 1, mapping join keys to workers.
//! * [`DcdError`] — the workspace-wide error type.
//! * [`stats`] — streaming mean/variance and EWMA estimators used by the DWS
//!   coordination strategy to track arrival and service rates.
//! * [`rng`] — first-party seedable PRNGs (SplitMix64, xoshiro256++) so the
//!   workspace needs no external `rand`: every dataset and test input is
//!   bit-for-bit reproducible from a seed.
//! * [`proptest`](mod@proptest) — a first-party property-testing harness (generators,
//!   runner, counterexample shrinking) replacing the external `proptest`
//!   crate; see DESIGN.md §"Hermetic build".
//! * [`json`] — a minimal first-party JSON parser, the read side of the
//!   workspace's hand-rolled emitters (stats reports, trace exports);
//!   used by tests and tooling to validate those documents.

pub mod agg;
pub mod error;
pub mod frame;
pub mod hash;
pub mod json;
pub mod partition;
pub mod proptest;
pub mod rng;
pub mod stats;
pub mod tuple;
pub mod value;

pub use agg::AggFunc;
pub use error::{DcdError, Result};
pub use frame::{Frame, Row};
pub use json::Json;
pub use partition::Partitioner;
pub use tuple::Tuple;
pub use value::Value;

/// Identifier of a worker (thread) in the parallel runtime.
pub type WorkerId = usize;

/// Identifier of a predicate (relation) assigned by the frontend catalog.
pub type PredicateId = usize;
