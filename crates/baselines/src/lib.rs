#![warn(missing_docs)]
//! Comparison baselines for the DCDatalog benchmarks.
//!
//! * [`reference::Reference`] — an independent single-threaded naive
//!   interpreter used as the correctness oracle throughout the test suite
//!   and as the "single-node engine" row in the benchmark tables.

pub mod reference;

pub use reference::Reference;
