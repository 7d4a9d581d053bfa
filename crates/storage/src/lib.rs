#![warn(missing_docs)]
//! Storage layer for DCDatalog (paper §3 "Storage Layer", §6.2).
//!
//! Every relation, base or derived, has one layout:
//!
//! * [`rows::RowStore`] — each row stored once as `u64` lanes in one
//!   arity-strided [`Frame`](dcd_common::Frame) (an `Int` is its `i64`
//!   bits, a `Float` its `f64` bits, with per-cell float tags only once the
//!   relation has stored a float), plus per-column hash indexes whose
//!   buckets hold `u32` row ids, read through `probe_ids(col, key)`.
//! * [`sealed::SealedRelation`] — immutable, index-complete EDB relations
//!   built exactly once (Algorithm 1, line 3) and shared across workers,
//!   stored clustered on one index column with CSR indexes (a flat id
//!   array plus a map of `(start, end)` runs per column).
//! * [`derived::DerivedRelation`] — recursive relations. Set relations
//!   (`tc`, `sg`) add a dedup table from row to row id, an open-addressing
//!   array that holds each key's bits inline; aggregate relations
//!   (`min`/`max`/`sum`/`count` heads) key that table by the group prefix
//!   and update the aggregate in the stored row (§6.2.1), with a
//!   per-contributor side table for `sum`/`count`. This is the one
//!   implementation of the aggregates ([`AggFunc`], defined in
//!   `dcd-common`): the engine also uses a `min`/`max` relation as its
//!   pre-Distribute partial-aggregation accumulator, and takes the final
//!   rows out with `into_rows` when it collects the result.
//! * [`cache`] — the constant-time existence-check cache (§6.2.2). The
//!   dedup table needs none in front of it; the engine's router uses one
//!   as its sent-filter, so a row already sent is not queued again.
//!
//! Rows come in and go out as [`Row`](dcd_common::Row) views of lanes;
//! no `Tuple` is built between a rule head and the store.

pub mod cache;
pub mod derived;
pub mod rows;
pub mod sealed;

pub use cache::TupleCache;
pub use dcd_common::AggFunc;
pub use derived::{BitMatrix, DerivedRelation, Merged};
pub use rows::RowStore;
pub use sealed::SealedRelation;
