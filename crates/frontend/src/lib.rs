#![warn(missing_docs)]
//! Query Processor for DCDatalog (paper §3 and §5).
//!
//! The frontend turns Datalog source text into an executable parallel plan
//! in three stages:
//!
//! 1. [`lexer`] / [`parser`] — source → [`ast::ProgramAst`].
//! 2. [`analysis`] — catalog, Predicate Connection Graph, Tarjan SCCs,
//!    recursion classification (simple / non-linear / mutual),
//!    stratification and safety checks.
//! 3. [`physical`] — the parallel physical plan. Each rule variant
//!    compiles in one walk into a register program, applying the paper's
//!    rewrites on the way: recursive-table-first join reordering and
//!    selection pushdown (§5.1), join-method selection (hash / index /
//!    nested-loop), then Distribute routing columns and Gather storage
//!    specs (§5.2), including two-partition replication for non-linear
//!    recursion (§4.3).

pub mod analysis;
pub mod ast;
pub mod lexer;
pub mod parser;
pub mod physical;

pub use analysis::{analyze, AnalyzedProgram, Catalog, PredInfo};
pub use ast::{AggFunc, ProgramAst};
pub use parser::parse_program;
pub use physical::{plan, PhysicalPlan};
