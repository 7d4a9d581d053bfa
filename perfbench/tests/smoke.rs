//! Tiny-size runs of every workload: the oracle agrees with the reference
//! interpreter, both passes report every metric, and every answer check
//! passes.

use dcd_bench::datasets::SEED;
use dcd_common::json::Json;
use perfbench::measure::{config, end_to_end, layers, Tally};
use perfbench::workload::{Answer, Workload, NAMES};
use perfbench::{END_TO_END, PER_LAYER, PRINTED_ONLY};

/// Worker count of the multi-worker runs, as the benchmark chooses it.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Each workload at a size the reference interpreter finishes quickly.
fn tiny(name: &str, seed: u64) -> Workload {
    let w = Workload::by_name(name, seed).expect("known workload");
    let size = match name {
        "tc-rmat" => 32,
        "sssp-web" => 20_000,
        _ => 16,
    };
    w.sized(size)
}

#[test]
fn one_worker_oracle_matches_the_reference_interpreter() {
    for name in NAMES {
        for seed in [SEED, 7] {
            let w = tiny(name, seed);
            let inputs = w.inputs();
            let reference = w.reference_answer(inputs.clone()).unwrap();
            assert!(reference.rows > 0, "{name}: empty answer");
            assert_eq!(
                w.engine_answer(inputs).unwrap(),
                reference,
                "{name} seed {seed}"
            );
        }
    }
}

#[test]
fn both_passes_report_every_metric_with_no_failure() {
    for name in NAMES {
        let w = tiny(name, SEED);
        let inputs = w.inputs();
        let want = w.engine_answer(inputs.clone()).unwrap();
        let e2e = end_to_end(&w, &inputs, want, 0.05, nproc()).unwrap();
        assert_eq!(e2e.tally.failed, 0, "{name}: {:?}", e2e.tally.first_failure);
        for d in END_TO_END {
            let v = e2e.metrics[d.name];
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", d.name);
        }
        let traced = layers(&w, &inputs, want, 0.05, nproc()).unwrap();
        assert_eq!(
            traced.tally.failed, 0,
            "{name}: {:?}",
            traced.tally.first_failure
        );
        for d in PER_LAYER.iter().chain(PRINTED_ONLY) {
            let v = traced.metrics[d.name];
            assert!(v.is_finite(), "{name}: {} = {v}", d.name);
        }
        assert_eq!(traced.metrics["trace.dropped_events"], 0.0);
        assert!(traced.metrics["trace.coverage"] > 0.0);
        assert!(traced.traced_report.is_some());
    }
}

#[test]
fn a_wrong_answer_counts_as_failed_and_does_not_abort() {
    let w = tiny("tc-rmat", SEED);
    let mut engine = dcdatalog::Engine::new(w.program().unwrap(), config(nproc(), false)).unwrap();
    engine.load_edb(w.edb(), w.inputs()).unwrap();
    let right = w.engine_answer(w.inputs()).unwrap();
    let wrong = Answer {
        rows: right.rows + 1,
        ..right
    };
    let mut tally = Tally::default();
    assert!(tally.run(&engine, &w, wrong).is_none());
    assert!(tally.run(&engine, &w, right).is_some());
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.first_failure.unwrap().starts_with("Wrong"));
}

#[test]
fn benchmark_json_lists_the_metrics_this_crate_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(Json::items).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (j, d) in listed.iter().zip(defs) {
            let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap();
            assert_eq!(
                (field("name"), field("unit"), field("better")),
                (d.name, d.unit, d.better)
            );
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::items)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    // apsp-rmat stays runnable but is left out: its seed-to-seed spread
    // exceeds the bound (see README.md).
    assert_eq!(workloads, ["tc-rmat", "sssp-web"]);
}
