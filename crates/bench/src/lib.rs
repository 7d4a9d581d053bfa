//! Reproduction harness for the DCDatalog paper's evaluation (§7).
//!
//! [`harness`] times engine runs with timeout handling (the paper's `TO`
//! entries); [`datasets`] builds the workload for every experiment;
//! [`paper`] records the paper-reported numbers so the `repro` binary can
//! print measured-vs-paper tables; [`experiments`] implements one
//! function per table/figure of §7. End-to-end timing of the engine
//! lives in the separate `perfbench` package.

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod paper;
