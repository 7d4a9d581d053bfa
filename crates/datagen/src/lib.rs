#![warn(missing_docs)]
//! Deterministic dataset generators for the DCDatalog benchmarks
//! (paper §7.1.1).
//!
//! Everything is seeded, so every experiment is exactly reproducible:
//!
//! * [`rmat()`] — RMAT graphs: `n` vertices, `10·n` directed edges, the
//!   paper's RMAT-*n* family (skewed degree distribution).
//! * [`random`] — G-*n* uniform random digraphs (the G-10K dataset:
//!   10 000 vertices, edge probability 0.001).
//! * [`trees`] — Tree-*h* (height *h*, fanout 2–6) used by SG, and the
//!   N-*n* trees (5–10 children, 20–60 % leaf probability) used by
//!   Delivery.
//! * [`webgraph`] — scaled-down power-law stand-ins for the paper's four
//!   real graphs (LiveJournal, Orkut, Arabic, Twitter). The *shape*
//!   (degree skew, one giant component) matches; the scale is a CLI knob.
//! * [`weighted`] / [`pagerank_matrix`] / [`symmetrize`] — adapters that
//!   turn an edge list into SSSP/APSP/PageRank inputs.

pub mod random;
pub mod rmat;
pub mod trees;
pub mod webgraph;

pub use random::gnp;
pub use rmat::{rmat, rmat_with};
pub use trees::{n_tree, tree};
pub use webgraph::{arabic_like, livejournal_like, orkut_like, twitter_like};

use dcd_common::hash::FastMap;
use dcd_common::rng::Rng;
use dcd_common::Tuple;

/// Directed edge list with integer vertex ids.
pub type Edges = Vec<(i64, i64)>;

/// Assigns uniform random weights in `1..=max_w` to an edge list.
pub fn weighted(edges: &[(i64, i64)], max_w: i64, seed: u64) -> Vec<(i64, i64, i64)> {
    assert!(max_w >= 1);
    let mut rng = Rng::seed_from_u64(seed ^ 0x77ed);
    edges
        .iter()
        .map(|&(a, b)| (a, b, rng.gen_range(1..=max_w)))
        .collect()
}

/// Adds the reverse of every edge (CC operates on undirected graphs).
pub fn symmetrize(edges: &[(i64, i64)]) -> Edges {
    let mut out = Vec::with_capacity(edges.len() * 2);
    for &(a, b) in edges {
        out.push((a, b));
        out.push((b, a));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds the PageRank `matrix(Y, X, D)` rows: one row per edge `Y→X`
/// with `D = out-degree(Y)`.
pub fn pagerank_matrix(edges: &[(i64, i64)]) -> Vec<Tuple> {
    let mut deg: FastMap<i64, i64> = FastMap::default();
    for &(y, _) in edges {
        *deg.entry(y).or_insert(0) += 1;
    }
    edges
        .iter()
        .map(|&(y, x)| Tuple::from_ints(&[y, x, deg[&y]]))
        .collect()
}

/// Number of distinct vertices in an edge list.
pub fn vertex_count(edges: &[(i64, i64)]) -> usize {
    let mut vs: Vec<i64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    vs.sort_unstable();
    vs.dedup();
    vs.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_is_deterministic_and_in_range() {
        let edges = vec![(1, 2), (2, 3), (3, 4)];
        let a = weighted(&edges, 10, 42);
        let b = weighted(&edges, 10, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(_, _, w)| (1..=10).contains(&w)));
        let c = weighted(&edges, 10, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn symmetrize_adds_reverses_and_dedups() {
        let s = symmetrize(&[(1, 2), (2, 1), (2, 3)]);
        assert_eq!(s, vec![(1, 2), (2, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn pagerank_matrix_degrees() {
        let m = pagerank_matrix(&[(1, 2), (1, 3), (2, 3)]);
        assert_eq!(m[0], Tuple::from_ints(&[1, 2, 2]));
        assert_eq!(m[2], Tuple::from_ints(&[2, 3, 1]));
    }

    #[test]
    fn vertex_count_counts_endpoints() {
        assert_eq!(vertex_count(&[(1, 2), (2, 3)]), 3);
        assert_eq!(vertex_count(&[]), 0);
    }
}
