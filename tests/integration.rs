//! Cross-crate integration tests: datagen → frontend → engine → baselines,
//! exercised through the workspace umbrella crate exactly the way a
//! downstream user would.

use dcdatalog_repro::baselines::Reference;
use dcdatalog_repro::datagen;
use dcdatalog_repro::engine::{
    queries, DcdError, Engine, EngineConfig, EvalResult, Program, Strategy, Tuple,
};
use dcdatalog_repro::runtime::simulator::{simulate, SimConfig, SimStrategy, SimWorkload};

#[test]
fn generated_graph_through_engine_matches_reference() {
    let edges = datagen::rmat_with(48, 120, 17);
    let mut reference = Reference::new(queries::TC).unwrap();
    reference.load_edges("arc", &edges);
    let expected = reference.run().unwrap();

    let mut engine = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(3)).unwrap();
    engine.load_edges("arc", &edges).unwrap();
    let got = engine.run().unwrap();
    assert_eq!(got.sorted("tc"), expected["tc"]);
}

#[test]
fn engine_and_simulator_agree_on_components() {
    // The DES and the real engine implement the same CC semantics; their
    // final labelings must agree on a generated graph.
    let edges = datagen::gnp(60, 0.06, 3);
    let sym = datagen::symmetrize(&edges);

    let mut engine = Engine::new(queries::cc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    engine.load_edges("arc", &sym).unwrap();
    let result = engine.run().unwrap();

    let sim_edges: Vec<(u64, u64)> = edges.iter().map(|&(a, b)| (a as u64, b as u64)).collect();
    let sim = simulate(
        &SimWorkload::cc_partitioned(&sim_edges, 4),
        &SimConfig::default(),
        SimStrategy::DwsAuto,
    );

    for row in result.relation("cc") {
        let v = row.values()[0].expect_int() as u64;
        let label = row.values()[1].expect_int() as u64;
        assert_eq!(sim.labels[&v], label, "vertex {v}");
    }
}

#[test]
fn broadcast_and_routed_runs_agree() {
    let edges = datagen::weighted(&datagen::rmat_with(32, 90, 9), 50, 9);
    let rows: Vec<Tuple> = edges
        .iter()
        .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
        .collect();
    let mut routed = Engine::new(queries::apsp().unwrap(), EngineConfig::with_workers(3)).unwrap();
    routed.load_edb("warc", rows.clone()).unwrap();
    let mut cfg = EngineConfig::with_workers(3);
    cfg.broadcast_routing = true;
    let mut broadcast = Engine::new(queries::apsp().unwrap(), cfg).unwrap();
    broadcast.load_edb("warc", rows).unwrap();
    let a = routed.run().unwrap();
    let b = broadcast.run().unwrap();
    assert_eq!(a.sorted("apsp"), b.sorted("apsp"));
    // Broadcast must exchange at least as many tuples.
    let sent = |r: &EvalResult| r.stats.report.total(|w| w.tuples_sent);
    assert!(sent(&b) >= sent(&a));
}

#[test]
fn strategies_agree_on_a_custom_program() {
    // A program not among the paper's eight: weighted reachability with a
    // cost cap (constraint in recursion).
    let src = "cheap(Y, min<C>) <- Y = start, C = 0.
               cheap(Y, min<C>) <- cheap(X, C0), warc(X, Y, W), C = C0 + W, C <= 40.";
    let edges = datagen::weighted(&datagen::rmat_with(64, 200, 5), 15, 5);
    let mut results = Vec::new();
    for strat in [Strategy::Global, Strategy::Ssp { s: 2 }, Strategy::Dws] {
        let program = Program::parse(src).unwrap().with_param("start", 0i64);
        let mut e = Engine::new(program, EngineConfig::with_workers(3).strategy(strat)).unwrap();
        e.load_weighted_edges("warc", &edges).unwrap();
        results.push(e.run().unwrap().sorted("cheap"));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    // The cap must hold.
    assert!(results[0].iter().all(|r| r.values()[1].expect_int() <= 40));
}

#[test]
fn timeout_aborts_cleanly_and_engine_remains_usable() {
    let edges: Vec<(i64, i64)> = (0..300).map(|i| (i, (i + 1) % 300)).collect();
    let mut cfg = EngineConfig::with_workers(2);
    cfg.timeout = Some(std::time::Duration::from_nanos(1));
    let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
    e.load_edges("arc", &edges).unwrap();
    let err = e.run().unwrap_err();
    assert_eq!(err, DcdError::Timeout, "{err}");
    assert!(err.to_string().contains("timed out"), "{err}");
    // A fresh engine over the same data still works.
    let mut e2 = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    e2.load_edges("arc", &[(1, 2)]).unwrap();
    assert_eq!(e2.run().unwrap().relation("tc").len(), 1);
}

#[test]
fn optimizations_do_not_change_results() {
    let edges = datagen::symmetrize(&datagen::livejournal_like(100_000, 11));
    let mut on = Engine::new(queries::cc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    on.load_edges("arc", &edges).unwrap();
    let mut off = Engine::new(
        queries::cc().unwrap(),
        EngineConfig::with_workers(2).optimizations(false),
    )
    .unwrap();
    off.load_edges("arc", &edges).unwrap();
    assert_eq!(
        on.run().unwrap().sorted("cc"),
        off.run().unwrap().sorted("cc")
    );
}

#[test]
fn delivery_on_generated_bom_matches_reference() {
    let assbl = datagen::n_tree(400, 23);
    let basic = datagen::trees::leaf_days(&assbl, 30, 23);
    let mut reference = Reference::new(queries::DELIVERY).unwrap();
    reference.load_edges("assbl", &assbl);
    reference.load_edges("basic", &basic);
    let expected = reference.run().unwrap();

    let mut engine =
        Engine::new(queries::delivery().unwrap(), EngineConfig::with_workers(4)).unwrap();
    engine.load_edges("assbl", &assbl).unwrap();
    engine.load_edges("basic", &basic).unwrap();
    let got = engine.run().unwrap();
    assert_eq!(got.sorted("results"), expected["results"]);
}

#[test]
fn frontend_explain_is_exposed_end_to_end() {
    let e = Engine::new(queries::apsp().unwrap(), EngineConfig::with_workers(2)).unwrap();
    let text = e.explain();
    assert!(text.contains("routes=[0, 1]"), "{text}");
    assert!(text.contains("⋈index path"), "{text}");
}
