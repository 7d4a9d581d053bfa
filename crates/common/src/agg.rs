//! The aggregate functions allowed in recursive rule heads.

use std::fmt;

/// An aggregate function in a rule head. The frontend parses it, the
/// planner records it in a relation's storage spec, and the storage layer
/// implements its merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `min<V>`: a monotonically decreasing extremum.
    Min,
    /// `max<V>`: a monotonically increasing extremum.
    Max,
    /// `sum<(Contributor, V)>`: a sum over distinct contributors (a
    /// contribution may be revised; the total converges under damping).
    Sum,
    /// `count<Contributor>`: the number of distinct contributors.
    Count,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
        };
        f.write_str(s)
    }
}
