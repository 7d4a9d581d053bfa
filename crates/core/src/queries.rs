//! The paper's eight benchmark programs (Queries 1–8), as ready-to-use
//! Datalog sources, plus constructors that bind their parameters. Six are
//! the files under `programs/`, included as they are; `ATTEND` and
//! `PAGERANK` have no file.

use crate::engine::Program;
use dcd_common::Result;

/// Query 1 — Transitive Closure.
pub const TC: &str = include_str!("../../../programs/tc.dl");

/// Query 2 — Connected Components (min label propagation).
pub const CC: &str = include_str!("../../../programs/cc.dl");

/// Query 3 — All Pairs Shortest Path (non-linear recursion).
pub const APSP: &str = include_str!("../../../programs/apsp.dl");

/// Query 4 — Who will attend the party (mutual recursion with count).
/// The threshold (paper: 3) is the `threshold` parameter.
pub const ATTEND: &str = "
attend(X) <- organizer(X).
cnt(Y, count<X>) <- attend(X), friend(Y, X).
attend(X) <- cnt(X, N), N >= threshold.
";

/// Query 5 — Same Generation.
pub const SG: &str = include_str!("../../../programs/sg.dl");

/// Query 6 — PageRank (sum in recursion). Parameters: `alpha` (damping),
/// `vnum` (vertex count). `matrix(Y, X, D)` is an edge Y→X with D =
/// out-degree(Y).
pub const PAGERANK: &str = "
rank(X, sum<(X, I)>) <- matrix(X, _, _), I = (1 - alpha) / vnum.
rank(X, sum<(Y, K)>) <- rank(Y, C), matrix(Y, X, D), K = alpha * (C / D).
results(X, V) <- rank(X, V).
";

/// Query 7 — Single Source Shortest Path. Parameter: `start`.
pub const SSSP: &str = include_str!("../../../programs/sssp.dl");

/// Query 8 — Bill of Materials / Delivery (max in recursion).
pub const DELIVERY: &str = include_str!("../../../programs/delivery.dl");

/// Transitive closure program.
pub fn tc() -> Result<Program> {
    Program::parse(TC)
}

/// Connected components program.
pub fn cc() -> Result<Program> {
    Program::parse(CC)
}

/// All-pairs shortest path program.
pub fn apsp() -> Result<Program> {
    Program::parse(APSP)
}

/// Party-attendance program with the given count threshold.
pub fn attend(threshold: i64) -> Result<Program> {
    Ok(Program::parse(ATTEND)?.with_param("threshold", threshold))
}

/// Same-generation program.
pub fn sg() -> Result<Program> {
    Program::parse(SG)
}

/// PageRank with damping `alpha` over `vnum` vertices.
pub fn pagerank(alpha: f64, vnum: usize) -> Result<Program> {
    Ok(Program::parse(PAGERANK)?
        .with_param("alpha", alpha)
        .with_param("vnum", vnum as f64))
}

/// Single-source shortest path from `start`.
pub fn sssp(start: i64) -> Result<Program> {
    Ok(Program::parse(SSSP)?.with_param("start", start))
}

/// Delivery / bill-of-materials program.
pub fn delivery() -> Result<Program> {
    Program::parse(DELIVERY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_frontend::analysis::StratumInfo;

    #[test]
    fn all_eight_queries_parse_and_analyze() {
        tc().unwrap();
        cc().unwrap();
        apsp().unwrap();
        attend(3).unwrap();
        sg().unwrap();
        pagerank(0.85, 100).unwrap();
        sssp(1).unwrap();
        delivery().unwrap();
    }

    #[test]
    fn recursion_classification_matches_the_paper() {
        let nonlinear = |s: &StratumInfo| s.rules.iter().any(|r| r.recursive_atoms.len() > 1);
        let mutual = |s: &StratumInfo| s.preds.len() > 1;
        let a = apsp().unwrap();
        assert!(a.analyzed().strata.iter().any(nonlinear));
        let a = attend(3).unwrap();
        assert!(a.analyzed().strata.iter().any(mutual));
        let a = tc().unwrap();
        assert!(a
            .analyzed()
            .strata
            .iter()
            .all(|s| !nonlinear(s) && !mutual(s)));
    }
}
