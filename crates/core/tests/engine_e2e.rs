//! End-to-end evaluation tests: every paper query, small graphs with
//! hand-computable answers, all three coordination strategies, and 1, 2
//! and 4 workers.

use dcd_baselines::Reference;
use dcd_common::Json;
use dcd_runtime::trace::{EventKind, Mark, Phase};
use dcdatalog::{queries, Engine, EngineConfig, Program, Strategy, Tuple, Value};

fn strategies() -> Vec<Strategy> {
    vec![Strategy::Global, Strategy::Ssp { s: 2 }, Strategy::Dws]
}

fn configs() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for w in [1, 2, 4] {
        for s in strategies() {
            out.push(EngineConfig::with_workers(w).strategy(s));
        }
    }
    out
}

#[test]
fn tc_on_a_chain() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &[(1, 2), (2, 3), (3, 4)]).unwrap();
        let r = e.run().unwrap();
        let mut tc = r.sorted("tc");
        tc.dedup();
        assert_eq!(
            tc,
            vec![
                Tuple::from_ints(&[1, 2]),
                Tuple::from_ints(&[1, 3]),
                Tuple::from_ints(&[1, 4]),
                Tuple::from_ints(&[2, 3]),
                Tuple::from_ints(&[2, 4]),
                Tuple::from_ints(&[3, 4]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn tc_on_a_cycle_terminates() {
    for cfg in configs() {
        let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &[(1, 2), (2, 3), (3, 1)]).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.relation("tc").len(), 9, "3-cycle closure is complete");
    }
}

#[test]
fn cc_two_components() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::cc().unwrap(), cfg).unwrap();
        // Component {1,2,3} and {10,11}; CC needs symmetric edges.
        let edges = [(1, 2), (2, 1), (2, 3), (3, 2), (10, 11), (11, 10)];
        e.load_edges("arc", &edges).unwrap();
        let r = e.run().unwrap();
        let cc = r.sorted("cc");
        assert_eq!(
            cc,
            vec![
                Tuple::from_ints(&[1, 1]),
                Tuple::from_ints(&[2, 1]),
                Tuple::from_ints(&[3, 1]),
                Tuple::from_ints(&[10, 10]),
                Tuple::from_ints(&[11, 10]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn sssp_shortest_paths() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::sssp(1).unwrap(), cfg).unwrap();
        // 1→2 (10), 1→3 (2), 3→2 (3): shortest 1→2 is 5.
        e.load_weighted_edges("warc", &[(1, 2, 10), (1, 3, 2), (3, 2, 3), (2, 4, 1)])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(
            r.sorted("results"),
            vec![
                Tuple::from_ints(&[1, 0]),
                Tuple::from_ints(&[2, 5]),
                Tuple::from_ints(&[3, 2]),
                Tuple::from_ints(&[4, 6]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn apsp_nonlinear() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::apsp().unwrap(), cfg).unwrap();
        e.load_weighted_edges("warc", &[(1, 2, 4), (2, 3, 1), (1, 3, 10), (3, 1, 2)])
            .unwrap();
        let r = e.run().unwrap();
        let apsp = r.sorted("apsp");
        // Distances: 1→2=4, 1→3=5, 2→3=1, 2→1=3, 3→1=2, 3→2=6,
        // self-loops via cycles: 1→1=7, 2→2=4... compute: 2→1=1+2=3,
        // 3→2=2+4=6, 1→1=4+1+2=7, 2→2=3+4? 2→1=3 then 1→2=4 ⇒ 7? No:
        // 2→3→1→2 = 1+2+4 = 7; 3→3 = 2+4+1 = 7; 1→1 = 7.
        assert_eq!(
            apsp,
            vec![
                Tuple::from_ints(&[1, 1, 7]),
                Tuple::from_ints(&[1, 2, 4]),
                Tuple::from_ints(&[1, 3, 5]),
                Tuple::from_ints(&[2, 1, 3]),
                Tuple::from_ints(&[2, 2, 7]),
                Tuple::from_ints(&[2, 3, 1]),
                Tuple::from_ints(&[3, 1, 2]),
                Tuple::from_ints(&[3, 2, 6]),
                Tuple::from_ints(&[3, 3, 7]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn sg_same_generation() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::sg().unwrap(), cfg).unwrap();
        // Perfect binary tree: 1 → {2,3}; 2 → {4,5}; 3 → {6,7}.
        e.load_edges("arc", &[(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
            .unwrap();
        let r = e.run().unwrap();
        let sg = r.sorted("sg");
        // Generation 1: (2,3),(3,2). Generation 2: all ordered pairs of
        // {4,5,6,7} minus identities = 12.
        assert_eq!(sg.len(), 14, "strategy {name}: {sg:?}");
        assert!(sg.contains(&Tuple::from_ints(&[2, 3])));
        assert!(sg.contains(&Tuple::from_ints(&[4, 7])));
        assert!(!sg.contains(&Tuple::from_ints(&[4, 4])));
    }
}

#[test]
fn delivery_max_levels() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::delivery().unwrap(), cfg).unwrap();
        // Part 1 is assembled from 2 and 3; 2 from 4. Basic delivery days:
        // 3 → 7, 4 → 2.
        e.load_edb(
            "basic",
            vec![Tuple::from_ints(&[3, 7]), Tuple::from_ints(&[4, 2])],
        )
        .unwrap();
        e.load_edges("assbl", &[(1, 2), (1, 3), (2, 4)]).unwrap();
        let r = e.run().unwrap();
        assert_eq!(
            r.sorted("results"),
            vec![
                Tuple::from_ints(&[1, 7]),
                Tuple::from_ints(&[2, 2]),
                Tuple::from_ints(&[3, 7]),
                Tuple::from_ints(&[4, 2]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn attend_mutual_recursion() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::attend(3).unwrap(), cfg).unwrap();
        e.load_edb(
            "organizer",
            vec![
                Tuple::from_ints(&[1]),
                Tuple::from_ints(&[2]),
                Tuple::from_ints(&[3]),
            ],
        )
        .unwrap();
        // 10 is friends with 1,2,3 (≥3 ⇒ attends); 11 with 1,2 and 10
        // (attends once 10 does); 12 with 11 only (never reaches 3).
        e.load_edges(
            "friend",
            &[
                (10, 1),
                (10, 2),
                (10, 3),
                (11, 1),
                (11, 2),
                (11, 10),
                (12, 11),
            ],
        )
        .unwrap();
        let r = e.run().unwrap();
        let attend = r.sorted("attend");
        assert_eq!(
            attend,
            vec![
                Tuple::from_ints(&[1]),
                Tuple::from_ints(&[2]),
                Tuple::from_ints(&[3]),
                Tuple::from_ints(&[10]),
                Tuple::from_ints(&[11]),
            ],
            "strategy {name}"
        );
    }
}

#[test]
fn pagerank_converges_to_uniform_on_a_cycle() {
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut cfg = cfg;
        cfg.sum_epsilon = 1e-10;
        let n = 4usize;
        let mut e = Engine::new(queries::pagerank(0.85, n).unwrap(), cfg).unwrap();
        // 4-cycle: every vertex has out-degree 1 ⇒ uniform PR = 1/4.
        let rows = (0..n as i64)
            .map(|i| Tuple::from_ints(&[i, (i + 1) % n as i64, 1]))
            .collect();
        e.load_edb("matrix", rows).unwrap();
        let r = e.run().unwrap();
        let ranks = r.sorted("results");
        assert_eq!(ranks.len(), n, "strategy {name}");
        for row in &ranks {
            let v = row.values()[1].as_f64();
            assert!(
                (v - 0.25).abs() < 1e-6,
                "strategy {name}: rank {row:?} should be 0.25"
            );
        }
    }
}

#[test]
fn empty_edb_yields_empty_results() {
    let mut e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[]).unwrap();
    let r = e.run().unwrap();
    assert!(r.relation("tc").is_empty());
}

#[test]
fn a_row_of_the_wrong_arity_fails_the_run_with_a_typed_error() {
    // `load_edb` does not read the rows; the seal checks each row's arity
    // as it copies it, on every placement and worker count.
    for (program, rel, workers) in [(queries::tc(), "arc", 1), (queries::sg(), "arc", 3)] {
        let mut e = Engine::new(program.unwrap(), EngineConfig::with_workers(workers)).unwrap();
        let rows = vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[2, 3, 4])];
        e.load_edb(rel, rows).unwrap();
        let err = e.run().unwrap_err();
        assert!(
            err.to_string().contains("has arity 3 but 'arc' expects 2"),
            "{err}"
        );
        e.load_edges(rel, &[(1, 2), (2, 3)]).unwrap();
        assert!(e.run().is_ok(), "the engine stays usable");
    }
}

#[test]
fn missing_edb_is_reported() {
    let e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(1)).unwrap();
    let err = e.run().unwrap_err();
    assert!(err.to_string().contains("arc"));
}

#[test]
fn inline_facts_seed_derived_relations() {
    let program = Program::parse(
        "tc(0, 99).
         tc(X, Y) <- arc(X, Y).
         tc(X, Y) <- tc(X, Z), arc(Z, Y).",
    )
    .unwrap();
    let mut e = Engine::new(program, EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(99, 100)]).unwrap();
    let r = e.run().unwrap();
    let tc = r.sorted("tc");
    assert!(tc.contains(&Tuple::from_ints(&[0, 99])));
    assert!(tc.contains(&Tuple::from_ints(&[0, 100])), "{tc:?}");
}

#[test]
fn run_is_repeatable() {
    let mut e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let a = e.run().unwrap().sorted("tc");
    let b = e.run().unwrap().sorted("tc");
    assert_eq!(a, b);
}

#[test]
fn stats_are_populated() {
    let mut e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 2), (2, 3), (3, 4)]).unwrap();
    let r = e.run().unwrap();
    assert_eq!(r.stats.report.per_worker.len(), 2);
    assert!(r.stats.report.total(|w| w.iterations) > 0);
    let names = r.relation_names();
    assert_eq!(names, vec!["tc"]);
}

#[test]
fn seal_fixpoint_and_collect_clocks_fit_inside_the_run() {
    let mut e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 2), (2, 3), (3, 4)]).unwrap();
    let wall = std::time::Instant::now();
    let r = e.run().unwrap();
    let wall = wall.elapsed().as_nanos() as u64;
    let rep = &r.stats.report;
    assert!(rep.seal_ns > 0 && rep.collect_ns > 0, "{rep:?}");
    assert_eq!(rep.elapsed_ns, r.stats.elapsed.as_nanos() as u64);
    // The three clocks are disjoint, so they cannot add up to more than
    // the call they sit in.
    assert!(rep.seal_ns + rep.elapsed_ns + rep.collect_ns <= wall);
}

#[test]
fn float_values_survive_round_trip() {
    let program = Program::parse(
        "halved(X, V) <- weight(X, W), V = W / 2.
         halved(X, V) <- halved(X, V), weight(X, V).",
    )
    .unwrap();
    let mut e = Engine::new(program, EngineConfig::with_workers(2)).unwrap();
    e.load_edb(
        "weight",
        vec![Tuple::new(&[Value::Int(1), Value::Float(3.0)])],
    )
    .unwrap();
    let r = e.run().unwrap();
    assert_eq!(
        r.relation("halved"),
        &[Tuple::new(&[Value::Int(1), Value::Float(1.5)])]
    );
}

#[test]
fn nested_loop_over_derived_relation() {
    // `pairs` cross-joins two derived relations: the second is a
    // nested-loop scan of an IDB (broadcast routing fallback).
    let program = Program::parse(
        "odd(X) <- src(X), Y = X / 2, X != Y + Y.
         even(X) <- src(X), Y = X / 2, X = Y + Y.
         pairs(X, Y) <- odd(X), even(Y).",
    )
    .unwrap();
    for workers in [1, 3] {
        let mut e = Engine::new(program.clone(), EngineConfig::with_workers(workers)).unwrap();
        e.load_edb("src", (1..=6).map(|i| Tuple::from_ints(&[i])).collect())
            .unwrap();
        let r = e.run().unwrap();
        // odds {1,3,5} × evens {2,4,6} = 9 pairs.
        assert_eq!(r.relation("pairs").len(), 9, "workers={workers}");
    }
}

#[test]
fn multi_stratum_chain_of_recursions() {
    // Stratum 1: reachability; stratum 2: reachability over the reverse
    // of the derived relation — exercises IDB-as-EDB probing across
    // strata.
    let program = Program::parse(
        "fwd(X, Y) <- arc(X, Y).
         fwd(X, Y) <- fwd(X, Z), arc(Z, Y).
         back(X, Y) <- fwd(Y, X).
         back2(X, Y) <- back(X, Y).
         back2(X, Y) <- back2(X, Z), back(Z, Y).",
    )
    .unwrap();
    let mut e = Engine::new(program, EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let r = e.run().unwrap();
    let back2 = r.sorted("back2");
    assert_eq!(
        back2,
        vec![
            Tuple::from_ints(&[2, 1]),
            Tuple::from_ints(&[3, 1]),
            Tuple::from_ints(&[3, 2]),
        ]
    );
}

#[test]
fn constants_in_body_atoms_filter() {
    let program = Program::parse(
        "from_two(Y) <- arc(2, Y).
         from_two(Y) <- from_two(X), arc(X, Y).",
    )
    .unwrap();
    let mut e = Engine::new(program, EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 5), (2, 6), (6, 7)]).unwrap();
    let r = e.run().unwrap();
    assert_eq!(
        r.sorted("from_two"),
        vec![Tuple::from_ints(&[6]), Tuple::from_ints(&[7])]
    );
}

#[test]
fn integer_division_overflow_wraps_instead_of_failing_the_run() {
    // M = 0 - i64::MAX - 1 = i64::MIN, and i64::MIN / -1 overflows.
    let src = "p(Z) <- q(X, Y), M = 0 - X - 1, Z = M / Y.";
    let rows = || vec![Tuple::from_ints(&[i64::MAX, -1])];
    let mut reference = Reference::new(src).unwrap();
    reference.load("q", rows());
    let want = reference.run().unwrap().remove("p").unwrap();
    assert_eq!(want, [Tuple::from_ints(&[i64::MIN])]);
    for workers in [1, 2] {
        let cfg = EngineConfig::with_workers(workers);
        let mut e = Engine::new(Program::parse(src).unwrap(), cfg).unwrap();
        e.load_edb("q", rows()).unwrap();
        assert_eq!(e.run().unwrap().sorted("p"), want, "{workers} workers");
    }
}

#[test]
fn wildcards_in_recursive_rules() {
    let program = Program::parse(
        "seen(X) <- arc(X, _).
         seen(Y) <- seen(X), arc(X, Y).",
    )
    .unwrap();
    let mut e = Engine::new(program, EngineConfig::with_workers(2)).unwrap();
    e.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
    let r = e.run().unwrap();
    assert_eq!(r.relation("seen").len(), 3);
}

#[test]
fn report_reconciles_with_termination_counters() {
    // The tentpole invariant of the observability layer: the per-worker
    // recorders and the termination protocol describe the same exchange.
    let edges: Vec<(i64, i64)> = (0..200).map(|i| (i % 50, (i * 3 + 1) % 50)).collect();
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let cfg_workers = cfg.workers;
        let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &edges).unwrap();
        let r = e.run().unwrap();
        let rep = &r.stats.report;
        assert_eq!(rep.per_worker.len(), cfg_workers, "{name}");
        assert!(
            rep.reconciles(),
            "{name}: produced {} consumed {} sent {} received {}",
            rep.produced,
            rep.consumed,
            rep.total(|w| w.tuples_sent),
            rep.total(|w| w.tuples_in),
        );
        assert!(rep.total(|w| w.iterations) > 0, "{name}");
    }
}

#[test]
fn every_worker_leaves_every_stratum_once() {
    // However the threads interleave, each worker's fixpoint loop exits
    // each stratum exactly once: Global after its all-zero round, SSP and
    // DWS when the termination protocol declares the fixpoint. That exit
    // is the stratum's one `TerminationRound` mark with `a == 0`.
    let chain = Program::parse(
        "fwd(X, Y) <- arc(X, Y).
         fwd(X, Y) <- fwd(X, Z), arc(Z, Y).
         back(X, Y) <- fwd(Y, X).
         back2(X, Y) <- back(X, Y).
         back2(X, Y) <- back2(X, Z), back(Z, Y).",
    )
    .unwrap();
    let edges: Vec<(i64, i64)> = (0..60).map(|i| (i % 20, (i * 7 + 1) % 20)).collect();
    let weighted: Vec<(i64, i64, i64)> = edges.iter().map(|&(a, b)| (a, b, a % 5 + 1)).collect();
    let programs = [
        ("TC", queries::tc().unwrap(), "arc"),
        ("SSSP", queries::sssp(1).unwrap(), "warc"),
        ("APSP", queries::apsp().unwrap(), "warc"),
        ("chain", chain, "arc"),
    ];
    for (query, program, edb) in programs {
        let strata = program.analyzed().strata.len();
        for workers in [2, 4] {
            for strategy in strategies() {
                let name = format!("{query} {} x{workers}", strategy.name());
                let global = matches!(strategy, Strategy::Global);
                let cfg = EngineConfig::with_workers(workers)
                    .strategy(strategy)
                    .tracing(true);
                let mut e = Engine::new(program.clone(), cfg).unwrap();
                if edb == "arc" {
                    e.load_edges(edb, &edges).unwrap();
                } else {
                    e.load_weighted_edges(edb, &weighted).unwrap();
                }
                let r = e.run().unwrap();
                let rep = &r.stats.report;
                assert_eq!(rep.traces.len(), workers, "{name}");
                for t in &rep.traces {
                    assert_eq!(t.dropped, 0, "{name}: worker {} dropped events", t.worker);
                    let exits = t
                        .events
                        .iter()
                        .filter(|e| e.kind == EventKind::Instant(Mark::TerminationRound))
                        .filter(|e| e.a == 0)
                        .count();
                    assert_eq!(exits, strata, "{name}: worker {} exits", t.worker);
                }
                if global {
                    let iterations = rep.per_worker[0].iterations;
                    assert!(
                        rep.per_worker.iter().all(|w| w.iterations == iterations),
                        "{name}: Global workers ran different rounds"
                    );
                }
                assert!(rep.reconciles(), "{name}");
            }
        }
    }
}

#[test]
fn dws_report_carries_omega_tau_samples() {
    // The ω/τ trajectory lives in the trace: one DwsDecision instant per
    // controller update, folded into the report's iteration series.
    let edges: Vec<(i64, i64)> = (0..300).map(|i| (i % 60, (i * 7 + 1) % 60)).collect();
    let cfg = EngineConfig::with_workers(4)
        .strategy(Strategy::Dws)
        .tracing(true);
    let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
    e.load_edges("arc", &edges).unwrap();
    let r = e.run().unwrap();
    let rep = &r.stats.report;
    assert_eq!(rep.strategy, "DWS");
    let decisions = rep
        .traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::Instant(Mark::DwsDecision)))
        .count();
    assert!(decisions > 0, "DWS must record ω/τ decisions");
    assert!(!rep.iteration_series().is_empty());
    let json = rep.to_json();
    assert!(json.contains("\"schema\": 7"));
    assert!(!json.contains("dws_samples"));
    assert!(json.contains("\"omega\":"));
}

#[test]
fn queue_backpressure_with_tiny_capacity() {
    // A 2-slot SPSC queue forces constant backpressure. Every wait, the
    // barriers included, drains the waiting worker's inbox, so a peer
    // blocked on its full queue is freed and each strategy finishes with
    // the 1-worker rows. Distribute cuts a batch as soon as it holds
    // `batch_size` rows, so no batch is larger and none is empty; the
    // second, denser graph (four out-edges a node) gives a relation more
    // rows for one peer than one batch holds. The runs happen on a
    // watchdog thread, so a run that deadlocks fails the test instead of
    // hanging it.
    let sparse: Vec<(i64, i64)> = (0..400).map(|i| (i % 100, (i * 7 + 1) % 100)).collect();
    let dense: Vec<(i64, i64)> = (0..400)
        .map(|i| (i % 100, (i * 7 + i / 100 + 1) % 100))
        .collect();
    let legs = 2 * 2 * 3;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for (graph, edges) in [("sparse", sparse), ("dense", dense)] {
            let mut e = Engine::new(queries::tc().unwrap(), EngineConfig::with_workers(1)).unwrap();
            e.load_edges("arc", &edges).unwrap();
            let want = e.run().unwrap().sorted("tc");
            for workers in [2, 4] {
                for strategy in [Strategy::Global, Strategy::Ssp { s: 1 }, Strategy::Dws] {
                    let name = format!("{graph} {} x{workers}", strategy.name());
                    let mut cfg = EngineConfig::with_workers(workers).strategy(strategy);
                    cfg.queue_capacity = 2;
                    cfg.batch_size = 8;
                    let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
                    e.load_edges("arc", &edges).unwrap();
                    let r = e.run().unwrap();
                    let got = r.sorted("tc");
                    done.send((name, got == want, r.stats.report.per_worker))
                        .unwrap();
                }
            }
        }
    });
    for _ in 0..legs {
        let (name, same_rows, workers) = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a run with 2-slot queues did not finish in 10 s");
        assert!(same_rows, "{name}: rows differ from 1 worker");
        assert!(
            workers.iter().any(|w| w.batches_out > 0),
            "{name}: rows were sent"
        );
        for (me, w) in workers.iter().enumerate() {
            let (sent, batches) = (w.tuples_sent, w.batches_out);
            assert!(
                sent <= 8 * batches,
                "{name} worker {me}: {sent} rows in {batches} batches"
            );
            assert!(batches <= sent, "{name} worker {me}: an empty batch");
        }
    }
}

#[test]
fn global_runs_repeat() {
    // A Global round merges exactly the rows its peers sent in earlier
    // rounds, however the threads interleave, so every run does the same
    // work: the same per-iteration rows in and out and the same
    // per-worker counters, except the phase clocks (`*_ns`) and the
    // backpressure retries, which count timing.
    let edges = dcd_datagen::gnp(2000, 0.005, 11);
    let warc = dcd_datagen::weighted(&edges, 100, 11);
    for workers in [2, 4] {
        let run = || {
            let cfg = EngineConfig::with_workers(workers)
                .strategy(Strategy::Global)
                .tracing(true);
            let mut e = Engine::new(queries::sssp(0).unwrap(), cfg).unwrap();
            e.load_weighted_edges("warc", &warc).unwrap();
            let rep = e.run().unwrap().stats.report;
            let mut series: Vec<_> = rep
                .iteration_series()
                .iter()
                .map(|p| (p.worker, p.iteration, p.rows_in, p.rows_out))
                .collect();
            series.sort();
            let doc = Json::parse(&rep.to_json()).unwrap();
            let counters: Vec<Json> = doc
                .get("per_worker")
                .and_then(Json::items)
                .unwrap()
                .iter()
                .map(|w| match w.clone() {
                    Json::Obj(mut fields) => {
                        fields.retain(|k, _| !k.ends_with("_ns") && k != "backpressure_retries");
                        Json::Obj(fields)
                    }
                    other => panic!("a worker's counters are not an object: {other:?}"),
                })
                .collect();
            (series, counters)
        };
        let first = run();
        assert!(!first.0.is_empty(), "x{workers}: no iteration series");
        for i in 1..10 {
            let again = run();
            assert_eq!(again.0, first.0, "x{workers} run {i}: iteration series");
            assert_eq!(again.1, first.1, "x{workers} run {i}: counters");
        }
    }
}

#[test]
fn sent_filter_suppresses_duplicate_sends() {
    // TC on a cyclic graph derives the same closure row from many delta
    // rows. With the §6.2 optimizations on, Distribute's sent-filter must
    // drop exact repeats before they are serialized, so the optimized run
    // exchanges strictly fewer tuples than the ablation — with an
    // identical fixpoint.
    let edges: Vec<(i64, i64)> = (0..240).map(|i| (i % 48, (i * 7 + 1) % 48)).collect();
    let run = |optimized: bool| {
        let cfg = EngineConfig::with_workers(4).optimizations(optimized);
        let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &edges).unwrap();
        e.run().unwrap()
    };
    let opt = run(true);
    let abl = run(false);
    assert_eq!(opt.sorted("tc"), abl.sorted("tc"));
    let (p_opt, p_abl) = (opt.stats.report.produced, abl.stats.report.produced);
    assert!(
        p_opt < p_abl,
        "optimized run must exchange fewer tuples: {p_opt} vs {p_abl}"
    );

    // On one worker every row merges locally and the dedup table is the
    // only existence check: no cache is consulted, for sets (TC) or
    // min aggregates (CC), under any strategy.
    for s in strategies() {
        for program in [queries::tc().unwrap(), queries::cc().unwrap()] {
            let cfg = EngineConfig::with_workers(1).strategy(s.clone());
            let mut e = Engine::new(program, cfg).unwrap();
            e.load_edges("arc", &edges).unwrap();
            let report = e.run().unwrap().stats.report;
            let (hits, misses) = (
                report.total(|w| w.cache_hits),
                report.total(|w| w.cache_misses),
            );
            assert_eq!((hits, misses), (0, 0), "{} x1", s.name());
        }
    }
}

#[test]
fn each_set_head_row_meets_exactly_one_existence_check() {
    // The kernel's sink routes each head row once. A row this worker owns
    // meets the stored-row check there; a row bound for a peer meets only
    // Distribute's sent-filter. TC and SG route their one set relation by
    // one column, so every head row meets exactly one of the two, and at
    // more than one worker some rows are a peer's.
    let tc_arcs = dcd_datagen::gnp(150, 0.02, 5);
    let sg_arcs = dcd_datagen::tree(3, 5);
    for (query, program, arcs) in [
        ("TC", queries::tc().unwrap(), &tc_arcs),
        ("SG", queries::sg().unwrap(), &sg_arcs),
    ] {
        let mut want = None;
        for cfg in configs() {
            let (workers, name) = (
                cfg.workers,
                format!("{query} {} x{}", cfg.strategy.name(), cfg.workers),
            );
            let mut e = Engine::new(program.clone(), cfg).unwrap();
            e.load_edges("arc", arcs).unwrap();
            let r = e.run().unwrap();
            let rows = r.sorted(&query.to_lowercase());
            assert_eq!(want.get_or_insert_with(|| rows.clone()), &rows, "{name}");
            let rep = &r.stats.report;
            let head_rows = rep.total(|w| w.head_rows);
            let checks = rep.total(|w| w.stored_checks);
            let filtered = rep.total(|w| w.cache_hits + w.cache_misses);
            assert!(head_rows > 0, "{name}");
            assert_eq!(checks + filtered, head_rows, "{name}");
            if workers == 1 {
                assert_eq!((checks, filtered), (head_rows, 0), "{name}");
            } else {
                assert!(checks < head_rows, "{name}: no row was a peer's");
            }
        }
    }
}

#[test]
fn without_a_sent_filter_the_stored_row_check_still_runs() {
    // `cache_slots: 0` sizes the sent-filter to nothing; the head's
    // stored-row check does not depend on it.
    let edges: Vec<(i64, i64)> = (0..240).map(|i| (i % 48, (i * 7 + 1) % 48)).collect();
    let run = |cache_slots: usize| {
        let mut cfg = EngineConfig::with_workers(1);
        cfg.cache_slots = cache_slots;
        let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
        e.load_edges("arc", &edges).unwrap();
        e.run().unwrap()
    };
    let (with, without) = (run(1 << 17), run(0));
    assert_eq!(without.sorted("tc"), with.sorted("tc"));
    let rep = &without.stats.report;
    let head_rows = rep.total(|w| w.head_rows);
    assert!(head_rows > 0);
    assert_eq!(rep.total(|w| w.stored_checks), head_rows);
}

/// A three-layer complete DAG on `3n` nodes: every node of layer 0 points
/// to every node of layer 1, and every node of layer 1 to every node of
/// layer 2.
fn layered_dag(n: i64) -> Vec<(i64, i64)> {
    let (l0, l1, l2) = (0..n, n..2 * n, 2 * n..3 * n);
    let first = l0.flat_map(|a| l1.clone().map(move |b| (a, b)));
    let second = l1.clone().flat_map(|b| l2.clone().map(move |c| (b, c)));
    first.chain(second).collect()
}

/// The transitive closure of [`layered_dag`]: its arcs plus every
/// layer-0 → layer-2 pair, sorted.
fn layered_closure(n: i64) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = layered_dag(n)
        .into_iter()
        .chain((0..n).flat_map(|a| (2 * n..3 * n).map(move |c| (a, c))))
        .map(|(a, b)| Tuple::from_ints(&[a, b]))
        .collect();
    rows.sort();
    rows
}

#[test]
fn set_rows_flush_in_the_middle_of_an_iteration() {
    // One iteration derives tc(a, c) once per middle node: n³ = 64 000 set
    // rows for linear TC and twice that for nonlinear TC, more than twice
    // Iterate's flush budget (2^14 rows). Distribute therefore runs before
    // the iteration ends, and nonlinear TC, which probes its own head,
    // reads a relation that those flushes grew.
    let n = 40;
    let edges = layered_dag(n);
    let linear = "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).";
    let nonlinear = "tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), tc(Z, Y).";
    for (qname, src) in [("linear", linear), ("nonlinear", nonlinear)] {
        // The nested-loop `Reference` takes tens of seconds at n = 40 in a
        // debug build, so it pins the closed form on a small instance and
        // the closed form is the oracle at full size.
        let mut reference = Reference::new(src).unwrap();
        reference.load_edges("arc", &layered_dag(4));
        let mut small = reference.run().unwrap().remove("tc").unwrap();
        small.sort();
        assert_eq!(small, layered_closure(4), "{qname}: Reference");
        let want = layered_closure(n);
        for cfg in configs() {
            let name = format!("{qname} {} x{}", cfg.strategy.name(), cfg.workers);
            let mut e = Engine::new(Program::parse(src).unwrap(), cfg).unwrap();
            e.load_edges("arc", &edges).unwrap();
            let r = e.run().unwrap();
            assert_eq!(r.sorted("tc"), want, "{name}");
            assert!(r.stats.report.reconciles(), "{name}: report must reconcile");
        }

        // On one worker every Distribute is local and runs once after the
        // init rules and once at the end of each iteration — unless
        // Iterate flushed in between, which these counts prove
        // independently of the thread schedule.
        let cfg = EngineConfig::with_workers(1)
            .strategy(Strategy::Global)
            .tracing(true);
        let mut e = Engine::new(Program::parse(src).unwrap(), cfg).unwrap();
        e.load_edges("arc", &edges).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.sorted("tc"), want, "{qname} traced");
        let events = &r.stats.report.traces[0].events;
        let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
        let distributes = count(EventKind::Span(Phase::Distribute));
        let iterations = count(EventKind::Instant(Mark::Iteration));
        assert!(
            distributes > iterations + 1,
            "{qname}: {distributes} Distribute spans for {iterations} iterations"
        );
    }
}

/// PageRank's `matrix(X, Y, D)` for a graph on `n` nodes without self-loops
/// or parallel edges: node `x` has out-degree `min + x % spread` and points
/// to `(x + 1 + 17j) % n` for each `j` below it, so in-degrees, and hence
/// ranks, differ between nodes.
fn pagerank_matrix(n: i64, min: i64, spread: i64) -> Vec<Tuple> {
    // The largest offset, 1 + 17 * (max degree - 1), stays below n.
    assert!(
        1 + 17 * (min + spread - 2) < n,
        "targets must be distinct and not the source"
    );
    (0..n)
        .flat_map(|x| {
            let d = min + x % spread;
            (0..d).map(move |j| Tuple::from_ints(&[x, (x + 1 + 17 * j) % n, d]))
        })
        .collect()
}

/// The fixpoint of `queries::pagerank` over `matrix`, by power iteration in
/// plain `f64`: `r(x) = (1 - alpha) / n + alpha * Σ r(y) / d(y)` over the
/// edges `y → x`.
fn pagerank_by_power_iteration(n: usize, matrix: &[Tuple], alpha: f64) -> Vec<f64> {
    let base = (1.0 - alpha) / n as f64;
    let mut rank = vec![base; n];
    for _ in 0..10_000 {
        let mut next = vec![base; n];
        for e in matrix {
            let v = e.values();
            let (y, x) = (v[0].as_f64() as usize, v[1].as_f64() as usize);
            next[x] += alpha * rank[y] / v[2].as_f64();
        }
        let moved = next
            .iter()
            .zip(&rank)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        rank = next;
        if moved < 1e-15 {
            return rank;
        }
    }
    panic!("power iteration did not converge");
}

fn assert_ranks(name: &str, rows: &[Tuple], want: &[f64]) {
    assert_eq!(rows.len(), want.len(), "{name}: rank rows");
    for row in rows {
        let v = row.values();
        let (x, r) = (v[0].as_f64() as usize, v[1].as_f64());
        assert!(
            (r - want[x]).abs() < 1e-6,
            "{name}: rank({x}) = {r}, want {}",
            want[x]
        );
    }
}

#[test]
fn sum_rows_flush_in_the_middle_of_an_iteration() {
    // `rank` is both PageRank's `sum` head and its delta relation. The
    // first iteration derives one contribution per edge — 39 500 rows,
    // more than twice Iterate's flush budget (2^14 rows) — so Distribute
    // merges into `rank` while delta rows of that iteration still wait for
    // pass 2, which then reads them at their newest value.
    let alpha = 0.5;
    let n = 1000;
    let matrix = pagerank_matrix(n, 20, 40);
    assert!(matrix.len() > 2 << 14, "{} edges", matrix.len());
    let want = pagerank_by_power_iteration(n as usize, &matrix, alpha);

    // The interpreted `Reference` is too slow at this size in a debug
    // build, so it pins the power iteration on a small instance and the
    // power iteration is the oracle at full size.
    let small = pagerank_matrix(100, 2, 3);
    let mut reference = Reference::new(queries::PAGERANK)
        .unwrap()
        .with_param("alpha", alpha)
        .with_param("vnum", 100.0);
    reference.load("matrix", small.clone());
    let got = reference.run().unwrap().remove("rank").unwrap();
    assert_ranks(
        "Reference",
        &got,
        &pagerank_by_power_iteration(100, &small, alpha),
    );

    // Each run takes ~20 iterations of ~40 k rows, so this test skips
    // the 2-worker configurations that the set-row flush test covers.
    for cfg in configs().into_iter().filter(|c| c.workers != 2) {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let mut e = Engine::new(queries::pagerank(alpha, n as usize).unwrap(), cfg).unwrap();
        e.load_edb("matrix", matrix.clone()).unwrap();
        let r = e.run().unwrap();
        assert_ranks(&name, &r.sorted("rank"), &want);
        assert!(r.stats.report.reconciles(), "{name}: report must reconcile");
    }

    // As in the set-row flush test: more Distribute spans than iterations
    // + 1 on one worker prove that Iterate flushed mid-iteration.
    let cfg = EngineConfig::with_workers(1)
        .strategy(Strategy::Global)
        .tracing(true);
    let mut e = Engine::new(queries::pagerank(alpha, n as usize).unwrap(), cfg).unwrap();
    e.load_edb("matrix", matrix).unwrap();
    let r = e.run().unwrap();
    assert_ranks("traced", &r.sorted("rank"), &want);
    let events = &r.stats.report.traces[0].events;
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    let distributes = count(EventKind::Span(Phase::Distribute));
    let iterations = count(EventKind::Instant(Mark::Iteration));
    assert!(
        distributes > iterations + 1,
        "{distributes} Distribute spans for {iterations} iterations"
    );
}

#[test]
fn diverging_min_program_times_out() {
    // `C1 - 1` around the cycle 0 → 1 → 2 → 0 improves every group
    // forever. A best-first order never empties here, so only a deadline
    // check inside it can stop the run. The runs happen on a watchdog
    // thread, so a run that ignores the timeout fails the test instead of
    // hanging it.
    let src = "d(X, min<C>) <- src(X), C = 0.
               d(Y, min<C>) <- d(X, C1), arc(X, Y), C = C1 - 1.";
    //
    // The runs with 2-slot queues and 1-row batches spend much of their
    // time in backpressure, so the wait for a full peer queue must check
    // the deadline too.
    let legs: Vec<EngineConfig> = configs()
        .into_iter()
        .filter(|c| c.workers < 4)
        .flat_map(|cfg| {
            let mut tiny = cfg.clone();
            tiny.queue_capacity = 2;
            tiny.batch_size = 1;
            [cfg, tiny]
        })
        .collect();
    let runs = legs.len();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for mut cfg in legs {
            let name = format!(
                "{} x{} queue {}",
                cfg.strategy.name(),
                cfg.workers,
                cfg.queue_capacity
            );
            cfg.timeout = Some(std::time::Duration::from_millis(300));
            let mut e = Engine::new(Program::parse(src).unwrap(), cfg).unwrap();
            e.load_edb("src", vec![Tuple::from_ints(&[0])]).unwrap();
            e.load_edges("arc", &[(0, 1), (1, 2), (2, 0)]).unwrap();
            let started = std::time::Instant::now();
            let err = e.run().unwrap_err();
            done.send((name, err, started.elapsed())).unwrap();
        }
    });
    for _ in 0..runs {
        let (name, err, took) = finished
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a diverging run ignored its 300 ms timeout for 5 s");
        assert_eq!(err, dcdatalog::DcdError::Timeout, "{name}");
        assert!(took < std::time::Duration::from_secs(5), "{name}: {took:?}");
    }
}

#[test]
fn a_timeout_the_clock_cannot_reach_is_no_deadline() {
    // `Instant::now() + Duration::MAX` overflows; such a timeout must run
    // as if there were none.
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let run = |timeout| {
            let mut cfg = cfg.clone();
            cfg.timeout = timeout;
            let mut e = Engine::new(queries::tc().unwrap(), cfg).unwrap();
            e.load_edges("arc", &[(1, 2), (2, 3), (3, 1), (3, 4)])
                .unwrap();
            e.run().unwrap().sorted("tc")
        };
        let got = run(Some(std::time::Duration::MAX));
        assert_eq!(got.len(), 12, "{name}");
        assert_eq!(got, run(None), "{name}");
    }
}

#[test]
fn best_first_sssp_evaluates_few_delta_rows() {
    // At one worker nothing arrives from outside, so the kernel's row
    // count depends only on the evaluation order. Evaluated best-first,
    // this graph's 1 998 results take 2 466 kernel rows; semi-naive
    // rounds took 5 623. The bound is the best-first count plus 10%.
    let edges = dcd_datagen::livejournal_like(2000, 7);
    let warc = dcd_datagen::weighted(&edges, 100, 7);
    for strategy in strategies() {
        let cfg = EngineConfig::with_workers(1).strategy(strategy);
        let name = cfg.strategy.name();
        let mut e = Engine::new(queries::sssp(0).unwrap(), cfg).unwrap();
        e.load_weighted_edges("warc", &warc).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.relation("results").len(), 1998, "{name}");
        let kernel_rows = r.stats.report.total(|w| w.kernel_rows);
        assert!(kernel_rows <= 2713, "{name}: {kernel_rows} kernel rows");
        assert!(r.stats.report.reconciles(), "{name}");
    }
}
