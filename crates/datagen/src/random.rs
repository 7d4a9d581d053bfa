//! Uniform random digraphs (the paper's G-10K dataset).

use crate::Edges;
use dcd_common::rng::Rng;

/// Generates a G(n, p) random digraph: each ordered pair `(u, v)`,
/// `u != v`, is an edge with probability `p`.
///
/// For the sparse regime used here (`p ≤ 0.01`) the generator samples the
/// expected number of edges directly (geometric skipping would also work;
/// rejection keeps the code simple and is plenty fast at this scale).
pub fn gnp(n: usize, p: f64, seed: u64) -> Edges {
    assert!(n >= 2);
    assert!((0.0..=1.0).contains(&p));
    let mut rng = Rng::seed_from_u64(seed ^ 0x69b9);
    let target = ((n * (n - 1)) as f64 * p).round() as usize;
    let mut seen = std::collections::HashSet::with_capacity(target * 2);
    let mut out = Vec::with_capacity(target);
    while out.len() < target {
        let u = rng.gen_range(0..n) as i64;
        let v = rng.gen_range(0..n) as i64;
        if u == v {
            continue;
        }
        if seen.insert((u, v)) {
            out.push((u, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(gnp(100, 0.05, 1), gnp(100, 0.05, 1));
    }

    #[test]
    fn edge_count_matches_expectation() {
        let g = gnp(200, 0.01, 2);
        assert_eq!(g.len(), (200.0f64 * 199.0 * 0.01).round() as usize);
    }

    #[test]
    fn no_self_loops() {
        assert!(gnp(50, 0.1, 3).iter().all(|&(a, b)| a != b));
    }
}
