//! Differential testing: the parallel engine vs the independent
//! single-threaded reference interpreter on randomized inputs.
//!
//! The two implementations share no planner or evaluator code, so
//! agreement across random graphs, strategies and worker counts is the
//! strongest correctness evidence in this repository.

use dcd_baselines::Reference;
use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcdatalog::{queries, Engine, EngineConfig, Strategy, Tuple};

fn edges_strategy(
    max_v: i64,
    max_e: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

fn run_engine(
    program: dcdatalog::Program,
    loads: &[(&str, Vec<Tuple>)],
    workers: usize,
    strategy: Strategy,
) -> Vec<(String, Vec<Tuple>)> {
    let cfg = EngineConfig::with_workers(workers).strategy(strategy);
    let mut e = Engine::new(program, cfg).unwrap();
    for (name, rows) in loads {
        e.load_edb(name, rows.clone()).unwrap();
    }
    let r = e.run().unwrap();
    r.relation_names()
        .into_iter()
        .map(|n| (n.to_string(), r.sorted(n)))
        .collect()
}

fn to_tuples(edges: &[(i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tc_matches_reference(edges in edges_strategy(12, 40), workers in 1usize..4) {
        let mut reference = Reference::new(queries::TC).unwrap();
        reference.load_edges("arc", &edges);
        let expected = reference.run().unwrap();
        for strat in [Strategy::Global, Strategy::Dws] {
            let got = run_engine(
                queries::tc().unwrap(),
                &[("arc", to_tuples(&edges))],
                workers,
                strat,
            );
            prop_assert_eq!(&got[0].1, &expected["tc"], "workers={}", workers);
        }
    }

    #[test]
    fn cc_matches_reference(edges in edges_strategy(10, 30), workers in 1usize..4) {
        let sym = dcd_datagen::symmetrize(&edges);
        let mut reference = Reference::new(queries::CC).unwrap();
        reference.load_edges("arc", &sym);
        let expected = reference.run().unwrap();
        for strat in [Strategy::Global, Strategy::Ssp { s: 1 }, Strategy::Dws] {
            let got = run_engine(
                queries::cc().unwrap(),
                &[("arc", to_tuples(&sym))],
                workers,
                strat,
            );
            let cc = got.iter().find(|(n, _)| n == "cc").unwrap();
            prop_assert_eq!(&cc.1, &expected["cc"]);
        }
    }

    #[test]
    fn sssp_matches_reference(
        edges in proptest::collection::vec((0..10i64, 0..10i64, 1..20i64), 0..30),
        workers in 1usize..4,
    ) {
        let rows: Vec<Tuple> = edges.iter().map(|&(a, b, w)| Tuple::from_ints(&[a, b, w])).collect();
        let mut reference = Reference::new(queries::SSSP).unwrap().with_param("start", 0i64);
        reference.load("warc", rows.clone());
        let expected = reference.run().unwrap();
        let got = run_engine(
            queries::sssp(0).unwrap(),
            &[("warc", rows)],
            workers,
            Strategy::Dws,
        );
        let results = got.iter().find(|(n, _)| n == "results").unwrap();
        prop_assert_eq!(&results.1, &expected["results"]);
    }

    #[test]
    fn apsp_matches_reference(
        edges in proptest::collection::vec((0..7i64, 0..7i64, 1..10i64), 0..15),
        workers in 1usize..4,
    ) {
        let rows: Vec<Tuple> = edges.iter().map(|&(a, b, w)| Tuple::from_ints(&[a, b, w])).collect();
        let mut reference = Reference::new(queries::APSP).unwrap();
        reference.load("warc", rows.clone());
        let expected = reference.run().unwrap();
        for broadcast in [false, true] {
            let mut cfg = EngineConfig::with_workers(workers);
            cfg.broadcast_routing = broadcast;
            let mut e = Engine::new(queries::apsp().unwrap(), cfg).unwrap();
            e.load_edb("warc", rows.clone()).unwrap();
            let r = e.run().unwrap();
            prop_assert_eq!(&r.sorted("apsp"), &expected["apsp"], "broadcast={}", broadcast);
        }
    }

    #[test]
    fn sg_matches_reference(edges in edges_strategy(9, 16), workers in 1usize..4) {
        let mut reference = Reference::new(queries::SG).unwrap();
        reference.load_edges("arc", &edges);
        let expected = reference.run().unwrap();
        let got = run_engine(
            queries::sg().unwrap(),
            &[("arc", to_tuples(&edges))],
            workers,
            Strategy::Dws,
        );
        prop_assert_eq!(&got[0].1, &expected["sg"]);
    }

    #[test]
    fn delivery_matches_reference(
        assbl in edges_strategy(8, 12),
        basic in proptest::collection::vec((0..8i64, 1..30i64), 1..8),
        workers in 1usize..4,
    ) {
        // `assbl` must be acyclic for Delivery to terminate: keep only
        // parent < child edges.
        let dag: Vec<(i64, i64)> = assbl.into_iter().filter(|&(p, s)| p < s).collect();
        let basic_rows: Vec<Tuple> = basic.iter().map(|&(p, d)| Tuple::from_ints(&[p, d])).collect();
        let mut reference = Reference::new(queries::DELIVERY).unwrap();
        reference.load_edges("assbl", &dag);
        reference.load("basic", basic_rows.clone());
        let expected = reference.run().unwrap();
        let got = run_engine(
            queries::delivery().unwrap(),
            &[("assbl", to_tuples(&dag)), ("basic", basic_rows)],
            workers,
            Strategy::Dws,
        );
        let results = got.iter().find(|(n, _)| n == "results").unwrap();
        prop_assert_eq!(&results.1, &expected["results"]);
    }

    #[test]
    fn attend_matches_reference(
        organizers in proptest::collection::vec(0..6i64, 1..4),
        friends in edges_strategy(12, 25),
        workers in 1usize..4,
    ) {
        let orgs: Vec<Tuple> = {
            let mut o = organizers.clone();
            o.sort_unstable();
            o.dedup();
            o.iter().map(|&x| Tuple::from_ints(&[x])).collect()
        };
        let mut reference = Reference::new(queries::ATTEND).unwrap().with_param("threshold", 2i64);
        reference.load("organizer", orgs.clone());
        reference.load_edges("friend", &friends);
        let expected = reference.run().unwrap();
        let got = run_engine(
            queries::attend(2).unwrap(),
            &[("organizer", orgs), ("friend", to_tuples(&friends))],
            workers,
            Strategy::Dws,
        );
        let attend = got.iter().find(|(n, _)| n == "attend").unwrap();
        prop_assert_eq!(&attend.1, &expected["attend"]);
    }
}

/// A deterministic, larger differential check (not proptest-sized) so CI
/// exercises a non-trivial fixpoint depth.
#[test]
fn tc_on_rmat_graph_matches_reference() {
    let edges = dcd_datagen::rmat_with(64, 150, 99);
    let mut reference = Reference::new(queries::TC).unwrap();
    reference.load_edges("arc", &edges);
    let expected = reference.run().unwrap();
    for workers in [1, 3, 8] {
        for strat in [Strategy::Global, Strategy::Ssp { s: 3 }, Strategy::Dws] {
            let got = run_engine(
                queries::tc().unwrap(),
                &[("arc", to_tuples(&edges))],
                workers,
                strat,
            );
            assert_eq!(got[0].1, expected["tc"], "workers={workers}");
        }
    }
}

/// Runs `program` under Global, SSP and DWS at 1, 2 and 4 workers and
/// checks relation `name` against `expected`.
fn assert_matches_everywhere(
    program: impl Fn() -> dcdatalog::Program,
    loads: &[(&str, Vec<Tuple>)],
    name: &str,
    expected: &[Tuple],
) {
    for workers in [1, 2, 4] {
        for strat in [Strategy::Global, Strategy::Ssp { s: 2 }, Strategy::Dws] {
            let label = format!("{name} {} x{workers}", strat.name());
            let got = run_engine(program(), loads, workers, strat);
            let rel = got.iter().find(|(n, _)| n == name).unwrap();
            assert_eq!(rel.1, expected, "{label}");
        }
    }
}

/// The best-first `min`/`max` groups at multi-slice scale: each result
/// below has more than four slices (4 × 256 rows) of pending rows, so
/// slice boundaries and in-loop requeueing are exercised, not just one
/// slice holding the whole delta.
#[test]
fn sssp_on_web_graph_matches_reference() {
    let edges = dcd_datagen::livejournal_like(3500, 7);
    let rows: Vec<Tuple> = dcd_datagen::weighted(&edges, 100, 7)
        .iter()
        .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
        .collect();
    let mut reference = Reference::new(queries::SSSP)
        .unwrap()
        .with_param("start", 0i64);
    reference.load("warc", rows.clone());
    let expected = reference.run().unwrap();
    assert!(expected["results"].len() > 4 * 256);
    let program = || queries::sssp(0).unwrap();
    assert_matches_everywhere(program, &[("warc", rows)], "results", &expected["results"]);
}

#[test]
fn cc_on_rmat_graph_matches_reference() {
    let sym = dcd_datagen::symmetrize(&dcd_datagen::rmat_with(8192, 2000, 5));
    let mut reference = Reference::new(queries::CC).unwrap();
    reference.load_edges("arc", &sym);
    let expected = reference.run().unwrap();
    assert!(expected["cc"].len() > 4 * 256);
    let program = || queries::cc().unwrap();
    assert_matches_everywhere(program, &[("arc", to_tuples(&sym))], "cc", &expected["cc"]);
}

#[test]
fn delivery_on_n_tree_matches_reference() {
    let assbl = dcd_datagen::n_tree(2000, 3);
    let basic: Vec<Tuple> = dcd_datagen::trees::leaf_days(&assbl, 30, 3)
        .iter()
        .map(|&(p, d)| Tuple::from_ints(&[p, d]))
        .collect();
    let mut reference = Reference::new(queries::DELIVERY).unwrap();
    reference.load_edges("assbl", &assbl);
    reference.load("basic", basic.clone());
    let expected = reference.run().unwrap();
    assert!(expected["results"].len() > 4 * 256);
    let loads = [("assbl", to_tuples(&assbl)), ("basic", basic)];
    let program = || queries::delivery().unwrap();
    assert_matches_everywhere(program, &loads, "results", &expected["results"]);
}

/// Sum coalescing (§5.2.2) under maximal interleaving: a star graph routes
/// every leaf's contribution into the hub's single group, and
/// `batch_size = 1` ships each contribution in its own batch, so several
/// contributors update the group within one gather window. Coalescing
/// keeps only the newest logical row per group — sound only because
/// sum-relation delta rows are full `(group, total)` snapshots; this test
/// would catch a regression to per-contribution increments.
#[test]
fn sum_coalescing_star_graph_matches_reference() {
    let mut edges: Vec<(i64, i64)> = Vec::new();
    for leaf in 1..=8 {
        edges.push((leaf, 0));
        edges.push((0, leaf));
    }
    let n = dcd_datagen::vertex_count(&edges);
    let matrix = dcd_datagen::pagerank_matrix(&edges);
    let mut reference = Reference::new(queries::PAGERANK)
        .unwrap()
        .with_param("alpha", 0.85)
        .with_param("vnum", n as f64);
    reference.sum_epsilon = 1e-10;
    reference.load("matrix", matrix.clone());
    let expected = reference.run().unwrap();
    for strat in [Strategy::Global, Strategy::Ssp { s: 1 }, Strategy::Dws] {
        let name = strat.name();
        let mut cfg = EngineConfig::with_workers(4).strategy(strat);
        cfg.sum_epsilon = 1e-10;
        cfg.batch_size = 1;
        let mut e = Engine::new(queries::pagerank(0.85, n).unwrap(), cfg).unwrap();
        e.load_edb("matrix", matrix.clone()).unwrap();
        let r = e.run().unwrap();
        let got = r.sorted("results");
        let want = &expected["results"];
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.values()[0], w.values()[0], "{name}");
            let dv = (g.values()[1].as_f64() - w.values()[1].as_f64()).abs();
            assert!(dv < 1e-6, "{name}: {g:?} vs {w:?}");
        }
    }
}

/// Count coalescing, same shape: person 20's `count<Y>` group receives
/// one contribution per organizer friend, each in its own batch across 4
/// workers, and 21 attends only once 20's count crosses the threshold —
/// so a lost or double-applied contribution changes the answer.
#[test]
fn count_coalescing_multiworker_matches_reference() {
    let orgs: Vec<Tuple> = (0..4).map(|x| Tuple::from_ints(&[x])).collect();
    let mut friends: Vec<(i64, i64)> = (0..4).map(|o| (20, o)).collect();
    friends.extend([(21, 0), (21, 1), (21, 20)]);
    let mut reference = Reference::new(queries::ATTEND)
        .unwrap()
        .with_param("threshold", 3i64);
    reference.load("organizer", orgs.clone());
    reference.load_edges("friend", &friends);
    let expected = reference.run().unwrap();
    for strat in [Strategy::Global, Strategy::Ssp { s: 1 }, Strategy::Dws] {
        let name = strat.name();
        let mut cfg = EngineConfig::with_workers(4).strategy(strat);
        cfg.batch_size = 1;
        let mut e = Engine::new(queries::attend(3).unwrap(), cfg).unwrap();
        e.load_edb("organizer", orgs.clone()).unwrap();
        e.load_edb("friend", to_tuples(&friends)).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.sorted("attend"), expected["attend"], "{name}");
    }
}

#[test]
fn pagerank_totals_match_reference_within_epsilon() {
    let edges = dcd_datagen::rmat_with(32, 100, 5);
    let n = dcd_datagen::vertex_count(&edges);
    let matrix = dcd_datagen::pagerank_matrix(&edges);
    let mut reference = Reference::new(queries::PAGERANK)
        .unwrap()
        .with_param("alpha", 0.85)
        .with_param("vnum", n as f64);
    reference.sum_epsilon = 1e-10;
    reference.load("matrix", matrix.clone());
    let expected = reference.run().unwrap();
    let mut cfg = EngineConfig::with_workers(4);
    cfg.sum_epsilon = 1e-10;
    let mut e = Engine::new(queries::pagerank(0.85, n).unwrap(), cfg).unwrap();
    e.load_edb("matrix", matrix).unwrap();
    let r = e.run().unwrap();
    let got = r.sorted("results");
    let want = &expected["results"];
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.values()[0], w.values()[0]);
        let dv = (g.values()[1].as_f64() - w.values()[1].as_f64()).abs();
        assert!(dv < 1e-6, "rank mismatch: {g:?} vs {w:?}");
    }
}

/// A rule that probes an aggregate relation on its aggregate column
/// (`cc2(Y, Z)` with `Z` bound by `root`). When a group's minimum
/// improves, its row must leave the old value's index bucket and join the
/// new one. With `root = {2}`, a stale entry would keep answering the
/// probe with the superseded minimum, deriving `lead(2)` and `lead(3)`
/// from their first label 2 although every label converges to 1; with
/// `root = {1}`, a row missing from its new bucket would drop them.
#[test]
fn probe_on_aggregate_column_sees_only_current_values() {
    const SRC: &str = "cc2(Y, min<Y>) <- arc(Y, _).
         cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).
         lead(Y) <- root(Z), cc2(Y, Z).";
    let arcs = [(1, 2), (2, 1), (2, 3), (3, 2)];
    for root in [2, 1] {
        let roots = vec![Tuple::from_ints(&[root])];
        let mut reference = Reference::new(SRC).unwrap();
        reference.load_edges("arc", &arcs);
        reference.load("root", roots.clone());
        let expected = reference.run().unwrap();
        assert_eq!(expected["lead"].len(), if root == 1 { 3 } else { 0 });
        for workers in [1, 2, 4] {
            for strat in [Strategy::Global, Strategy::Dws] {
                let got = run_engine(
                    dcdatalog::Program::parse(SRC).unwrap(),
                    &[("arc", to_tuples(&arcs)), ("root", roots.clone())],
                    workers,
                    strat,
                );
                for (name, rows) in &got {
                    assert_eq!(
                        rows, &expected[name],
                        "{name}: root={root} workers={workers}"
                    );
                }
            }
        }
    }
}

/// A predicate that has only inline facts is a base relation: its rows
/// are its loaded rows, if any, and its facts, so it needs no load.
#[test]
fn inline_facts_of_a_base_relation_join_its_loaded_rows() {
    const SRC: &str = "start(1). reach(X) <- start(X). reach(Y) <- reach(X), e(X, Y).";
    let e = to_tuples(&[(1, 2), (2, 3)]);
    for start in [Some(vec![]), None, Some(vec![Tuple::from_ints(&[5])])] {
        let mut reference = Reference::new(SRC).unwrap();
        let mut loads = vec![("e", e.clone())];
        reference.load("e", e.clone());
        if let Some(rows) = start.clone() {
            reference.load("start", rows.clone());
            loads.push(("start", rows));
        }
        let expected = reference.run().unwrap();
        let reach = if start.is_some_and(|s| !s.is_empty()) {
            4
        } else {
            3
        };
        assert_eq!(expected["reach"].len(), reach);
        for workers in [1, 2] {
            for strat in [Strategy::Global, Strategy::Dws] {
                let label = format!("{} x{workers}, {} loaded", strat.name(), loads.len());
                let program = dcdatalog::Program::parse(SRC).unwrap();
                let got = run_engine(program, &loads, workers, strat);
                assert_eq!(
                    got,
                    [("reach".to_string(), expected["reach"].clone())],
                    "{label}"
                );
            }
        }
    }
}

/// A weighted relation given only as inline facts feeds SSSP's `min`
/// recursion.
#[test]
fn inline_weighted_facts_feed_a_min_rule() {
    let src = format!(
        "warc(1, 2, 7). warc(1, 3, 2). warc(3, 2, 1). warc(2, 4, 5). warc(4, 1, 1).\n{}",
        queries::SSSP
    );
    let expected = Reference::new(&src)
        .unwrap()
        .with_param("start", 1i64)
        .run()
        .unwrap();
    assert_eq!(expected["results"].len(), 4);
    for workers in [1, 2] {
        for strat in [Strategy::Global, Strategy::Dws] {
            let program = dcdatalog::Program::parse(&src)
                .unwrap()
                .with_param("start", 1i64);
            for (name, rows) in run_engine(program, &[], workers, strat.clone()) {
                assert_eq!(rows, expected[&name], "{name}: {} x{workers}", strat.name());
            }
        }
    }
}
