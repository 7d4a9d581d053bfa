//! Seed determinism for every generator family.
//!
//! The datagen crate sits on `dcd_common::rng` (first-party
//! xoshiro256++), and the whole repro story depends on its output being
//! a pure function of the seed: datasets are regenerated per run, never
//! shipped, so a drifting generator silently changes every experiment.
//!
//! Two layers of protection:
//!
//! 1. *Self-consistency* — generating twice from the same seed yields
//!    identical edge lists (and different seeds yield different ones).
//! 2. *Pinned checksums* — an FNV-1a digest of each family's output for
//!    a fixed seed is hardcoded here. These fail if the RNG stream, the
//!    sampling algorithms, or the generator call order ever change —
//!    that may be intentional, but it must be a conscious decision
//!    (update the constants and note it in the PR).

use dcd_datagen as gen;

const SEED: u64 = 0xDC_DA7A;

/// FNV-1a over the little-endian bytes of each endpoint pair.
fn fnv1a(edges: &[(i64, i64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: i64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(a, b) in edges {
        mix(a);
        mix(b);
    }
    h
}

fn fnv1a_weighted(edges: &[(i64, i64, i64)]) -> u64 {
    let flat: Vec<(i64, i64)> = edges
        .iter()
        .flat_map(|&(a, b, w)| [(a, b), (w, 0)])
        .collect();
    fnv1a(&flat)
}

/// Each generator family, invoked twice with the same seed, must agree
/// bit-for-bit — and disagree once the seed changes.
#[test]
fn same_seed_same_tuples_different_seed_different_tuples() {
    type Family = (&'static str, Box<dyn Fn(u64) -> Vec<(i64, i64)>>);
    let families: Vec<Family> = vec![
        ("gnp", Box::new(|s| gen::gnp(500, 0.02, s))),
        ("rmat", Box::new(|s| gen::rmat(512, s))),
        ("tree", Box::new(|s| gen::tree(6, s))),
        ("n_tree", Box::new(|s| gen::n_tree(2_000, s))),
        (
            "livejournal",
            Box::new(|s| gen::livejournal_like(100_000, s)),
        ),
        ("orkut", Box::new(|s| gen::orkut_like(100_000, s))),
        ("arabic", Box::new(|s| gen::arabic_like(100_000, s))),
        ("twitter", Box::new(|s| gen::twitter_like(100_000, s))),
    ];
    for (name, f) in &families {
        let a = f(SEED);
        let b = f(SEED);
        assert_eq!(a, b, "{name}: same seed must reproduce identical edges");
        assert!(!a.is_empty(), "{name}: generator produced nothing");
        let c = f(SEED ^ 1);
        assert_ne!(a, c, "{name}: different seed should perturb the output");
    }
}

/// Weighted edges and leaf-day attributes are deterministic too (they
/// draw from their own seeded streams on top of the base edges).
#[test]
fn derived_attributes_are_seed_deterministic() {
    let base = gen::rmat(256, SEED);
    assert_eq!(
        gen::weighted(&base, 100, SEED),
        gen::weighted(&base, 100, SEED)
    );
    assert_ne!(
        gen::weighted(&base, 100, SEED),
        gen::weighted(&base, 100, SEED ^ 1)
    );

    let assbl = gen::n_tree(1_000, SEED);
    assert_eq!(
        gen::trees::leaf_days(&assbl, 30, SEED),
        gen::trees::leaf_days(&assbl, 30, SEED)
    );
}

/// Pinned FNV-1a digests of every family for `SEED`. A failure here
/// means the generated datasets changed relative to what previous runs
/// (and the committed `BENCH_*.json` files) were measured on.
#[test]
fn generator_checksums_are_pinned() {
    let checks: Vec<(&str, u64, u64)> = vec![
        ("gnp-500", fnv1a(&gen::gnp(500, 0.02, SEED)), CK_GNP_500),
        ("rmat-512", fnv1a(&gen::rmat(512, SEED)), CK_RMAT_512),
        ("tree-6", fnv1a(&gen::tree(6, SEED)), CK_TREE_6),
        (
            "n_tree-2000",
            fnv1a(&gen::n_tree(2_000, SEED)),
            CK_NTREE_2000,
        ),
        (
            "livejournal-100k",
            fnv1a(&gen::livejournal_like(100_000, SEED)),
            CK_LJ_100K,
        ),
        (
            "orkut-100k",
            fnv1a(&gen::orkut_like(100_000, SEED)),
            CK_ORKUT_100K,
        ),
        (
            "arabic-100k",
            fnv1a(&gen::arabic_like(100_000, SEED)),
            CK_ARABIC_100K,
        ),
        (
            "twitter-100k",
            fnv1a(&gen::twitter_like(100_000, SEED)),
            CK_TWITTER_100K,
        ),
        (
            "weighted-rmat-256",
            fnv1a_weighted(&gen::weighted(&gen::rmat(256, SEED), 100, SEED)),
            CK_WEIGHTED_RMAT_256,
        ),
    ];
    let drifted: Vec<String> = checks
        .iter()
        .filter(|&&(_, got, want)| got != want)
        .map(|&(name, got, _)| format!("  {name}: {got:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "dataset checksums drifted; current values:\n{}",
        drifted.join("\n")
    );
}

// Recorded from the first run of the first-party RNG port; see module
// docs for when (and how) to update.
const CK_GNP_500: u64 = 0x282d_6419_3e2c_980c;
const CK_RMAT_512: u64 = 0x672a_0423_01f8_d12e;
const CK_TREE_6: u64 = 0x45a4_0f50_5438_7d0f;
const CK_NTREE_2000: u64 = 0xe8bb_3734_36d6_7cbc;
const CK_LJ_100K: u64 = 0x5bcb_c5a3_9955_ab18;
const CK_ORKUT_100K: u64 = 0x616d_a6d9_4c5b_ab9f;
const CK_ARABIC_100K: u64 = 0xcb4b_d31e_6092_059f;
const CK_TWITTER_100K: u64 = 0x7791_560b_7a9d_94b1;
const CK_WEIGHTED_RMAT_256: u64 = 0xea32_e186_0f20_b6a0;
