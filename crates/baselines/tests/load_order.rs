//! Load-order independence: the engine's answer must not depend on the
//! order in which EDB rows are loaded. Sealing stores base rows sorted by
//! a clustering key, so this pins that the sort never changes a result.
//!
//! Each paper query runs on one fixed dataset loaded as given, reversed
//! and shuffled (every relation permuted on its own), at 1 and 4 workers,
//! and every relation must equal the reference interpreter's.

use dcd_baselines::Reference;
use dcd_common::rng::Rng;
use dcd_datagen::trees::leaf_days;
use dcd_datagen::{n_tree, rmat_with, symmetrize, tree, weighted};
use dcdatalog::{queries, Engine, EngineConfig, Program, Tuple};

/// The load orders tried, by name.
const ORDERS: [&str; 4] = ["as given", "reversed", "shuffled(1)", "shuffled(2)"];

fn arrange(rows: &[Tuple], order: usize) -> Vec<Tuple> {
    let mut out = rows.to_vec();
    match order {
        0 => {}
        1 => out.reverse(),
        seed => Rng::seed_from_u64(seed as u64 - 1).shuffle(&mut out),
    }
    out
}

fn pairs(edges: &[(i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect()
}

fn triples(edges: &[(i64, i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b, c)| Tuple::from_ints(&[a, b, c]))
        .collect()
}

/// Runs `program` on `edb` in every load order at 1 and 4 workers and
/// compares each relation with `reference` run on `edb` as given.
fn check(mut reference: Reference, program: &dyn Fn() -> Program, edb: &[(&str, Vec<Tuple>)]) {
    for (name, rows) in edb {
        reference.load(name, rows.clone());
    }
    let expected = reference.run().unwrap();
    let derived: usize = expected.values().map(Vec::len).sum();
    assert!(derived > 0, "the dataset must derive something");
    for (order, order_name) in ORDERS.iter().enumerate() {
        for workers in [1, 4] {
            let mut e = Engine::new(program(), EngineConfig::with_workers(workers)).unwrap();
            for (name, rows) in edb {
                e.load_edb(name, arrange(rows, order)).unwrap();
            }
            let r = e.run().unwrap();
            for name in r.relation_names() {
                assert_eq!(
                    r.sorted(name),
                    expected[name],
                    "{name}: loaded {order_name} at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn tc_ignores_load_order() {
    check(
        Reference::new(queries::TC).unwrap(),
        &|| queries::tc().unwrap(),
        &[("arc", pairs(&rmat_with(48, 120, 3)))],
    );
}

#[test]
fn cc_ignores_load_order() {
    check(
        Reference::new(queries::CC).unwrap(),
        &|| queries::cc().unwrap(),
        &[("arc", pairs(&symmetrize(&rmat_with(40, 70, 5))))],
    );
}

#[test]
fn sssp_ignores_load_order() {
    let warc = weighted(&rmat_with(48, 150, 7), 20, 7);
    check(
        Reference::new(queries::SSSP)
            .unwrap()
            .with_param("start", 0i64),
        &|| queries::sssp(0).unwrap(),
        &[("warc", triples(&warc))],
    );
}

#[test]
fn sg_ignores_load_order() {
    check(
        Reference::new(queries::SG).unwrap(),
        &|| queries::sg().unwrap(),
        &[("arc", pairs(&tree(3, 11)))],
    );
}

#[test]
fn apsp_ignores_load_order() {
    let warc = weighted(&rmat_with(16, 40, 9), 10, 9);
    check(
        Reference::new(queries::APSP).unwrap(),
        &|| queries::apsp().unwrap(),
        &[("warc", triples(&warc))],
    );
}

#[test]
fn delivery_ignores_load_order() {
    let assbl = n_tree(60, 13);
    let basic = leaf_days(&assbl, 30, 13);
    check(
        Reference::new(queries::DELIVERY).unwrap(),
        &|| queries::delivery().unwrap(),
        &[("assbl", pairs(&assbl)), ("basic", pairs(&basic))],
    );
}
