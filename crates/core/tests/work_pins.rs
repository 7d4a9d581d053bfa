//! Pinned work counters for the paper's eight queries under Global.
//!
//! A Global round merges exactly the rows its peers sent in earlier
//! rounds, however the threads interleave, so every counter except the
//! phase clocks (`*_ns`) and the backpressure retries is exact at any
//! worker count. This test runs each of
//! the eight `queries::*` programs on a fixed generated input at 1, 2 and
//! 4 workers and pins the run totals of the kernel, merge and exchange
//! counters, the kernel sink's head rows and stored-row checks, and each
//! worker's iteration count.
//!
//! A timing check on a shared host allows ±25%; these pins allow no
//! change at all. A refactor that keeps the engine's work must keep them.
//! A change that means to alter the work (fewer kernel rows, fewer
//! emitted Δ×Δ pairs, fewer tuples sent) updates the table below and says
//! so in CHANGES.md, as a plan change does for `plan_pins.rs`.

use dcd_common::Tuple;
use dcd_runtime::MetricsSnapshot;
use dcdatalog::{queries, Engine, EngineConfig, Program, Strategy};

/// Reads one counter of a worker's snapshot.
type Counter = fn(&MetricsSnapshot) -> u64;

/// The pinned run totals, in this order.
const COUNTERS: [(&str, Counter); 12] = [
    ("kernel_rows", |m| m.kernel_rows),
    ("kernel_batches", |m| m.kernel_batches),
    ("tuples_processed", |m| m.tuples_processed),
    ("probe_hits", |m| m.probe_hits),
    ("probe_reuse", |m| m.probe_reuse),
    ("local_new", |m| m.local_new),
    ("tuples_sent", |m| m.tuples_sent),
    ("batches_out", |m| m.batches_out),
    ("cache_hits", |m| m.cache_hits),
    ("cache_misses", |m| m.cache_misses),
    ("head_rows", |m| m.head_rows),
    ("stored_checks", |m| m.stored_checks),
];

fn edges(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect()
}

fn weighted(rows: &[(i64, i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
        .collect()
}

/// Query `name`'s program and its fixed input, `(base relation, rows)`.
fn workload(name: &str) -> (Program, Vec<(&'static str, Vec<Tuple>)>) {
    use dcd_datagen as gen;
    match name {
        "tc" => (
            queries::tc().unwrap(),
            vec![("arc", edges(&gen::gnp(300, 0.005, 1)))],
        ),
        "cc" => (
            queries::cc().unwrap(),
            vec![("arc", edges(&gen::symmetrize(&gen::gnp(2000, 0.0006, 2))))],
        ),
        "apsp" => (
            queries::apsp().unwrap(),
            vec![(
                "warc",
                weighted(&gen::weighted(&gen::gnp(60, 0.05, 3), 20, 3)),
            )],
        ),
        "attend" => {
            let organizer = (0..60).map(|v| Tuple::from_ints(&[v])).collect();
            (
                queries::attend(3).unwrap(),
                vec![
                    ("organizer", organizer),
                    ("friend", edges(&gen::gnp(1000, 0.008, 4))),
                ],
            )
        }
        "sg" => (
            queries::sg().unwrap(),
            vec![("arc", edges(&gen::tree(4, 5)))],
        ),
        "pagerank" => {
            let arcs = gen::gnp(500, 0.006, 6);
            let n = gen::vertex_count(&arcs);
            (
                queries::pagerank(0.85, n).unwrap(),
                vec![("matrix", gen::pagerank_matrix(&arcs))],
            )
        }
        "sssp" => (
            queries::sssp(0).unwrap(),
            vec![(
                "warc",
                weighted(&gen::weighted(&gen::gnp(2000, 0.002, 7), 100, 7)),
            )],
        ),
        "delivery" => {
            let assbl = gen::n_tree(1500, 8);
            let basic = gen::trees::leaf_days(&assbl, 30, 8);
            (
                queries::delivery().unwrap(),
                vec![("assbl", edges(&assbl)), ("basic", edges(&basic))],
            )
        }
        other => panic!("no workload for {other}"),
    }
}

/// The pinned totals and per-worker iterations of `name` on `workers`.
fn work(name: &str, workers: usize) -> ([u64; 12], Vec<u64>) {
    let (program, inputs) = workload(name);
    let cfg = EngineConfig::with_workers(workers).strategy(Strategy::Global);
    let mut e = Engine::new(program, cfg).unwrap();
    for (rel, rows) in inputs {
        e.load_edb(rel, rows).unwrap();
    }
    let report = e.run().unwrap().stats.report;
    let totals = COUNTERS.map(|(_, f)| report.total(f));
    let iterations = report.per_worker.iter().map(|m| m.iterations).collect();
    (totals, iterations)
}

#[test]
fn global_work_is_pinned() {
    let mut drifted = Vec::new();
    let mut current = Vec::new();
    for name in [
        "tc", "cc", "apsp", "attend", "sg", "pagerank", "sssp", "delivery",
    ] {
        for workers in [1, 2, 4] {
            let (got, iters) = work(name, workers);
            current.push(format!("    (\"{name}\", {workers}, {got:?}, &{iters:?}),"));
            let pin = PINS.iter().find(|p| p.0 == name && p.1 == workers);
            let Some(&(_, _, want, want_iters)) = pin else {
                drifted.push(format!("  {name} x{workers}: no pin"));
                continue;
            };
            if got == want && iters == want_iters {
                continue;
            }
            let mut diff: Vec<String> = COUNTERS
                .iter()
                .zip(got.iter().zip(want))
                .filter(|(_, (g, w))| *g != w)
                .map(|((c, _), (g, w))| format!("{c} {w} -> {g}"))
                .collect();
            if iters != want_iters {
                diff.push(format!("iterations {want_iters:?} -> {iters:?}"));
            }
            drifted.push(format!("  {name} x{workers}: {}", diff.join(", ")));
        }
    }
    assert!(
        drifted.is_empty(),
        "work pins drifted:\n{}\ncurrent table:\n{}",
        drifted.join("\n"),
        current.join("\n")
    );
    assert_eq!(PINS.len(), current.len(), "a pinned run is gone");
}

/// `(query, workers, run totals in `COUNTERS` order, iterations per
/// worker)`, each on its `workload` under Global.
#[rustfmt::skip]
const PINS: &[(&str, usize, [u64; 12], &[u64])] = &[
    ("tc", 1, [34512, 28, 34512, 3358, 31154, 34512, 0, 0, 0, 0, 51536, 51536], &[28]),
    ("tc", 2, [34512, 52, 34512, 3355, 31157, 34512, 21627, 49, 5058, 21627, 51536, 24851], &[28, 28]),
    ("tc", 4, [34512, 101, 34512, 3335, 31177, 34512, 34104, 283, 4320, 34104, 51536, 13112], &[28, 28, 28, 28]),
    ("cc", 1, [3257, 17, 5059, 3257, 0, 7945, 0, 0, 0, 0, 15890, 0], &[3]),
    ("cc", 2, [6473, 94, 8275, 6473, 0, 10362, 7277, 85, 0, 0, 24534, 0], &[9, 9]),
    ("cc", 4, [9883, 182, 11685, 9883, 0, 13475, 17021, 471, 0, 0, 33635, 0], &[12, 12, 12, 12]),
    ("apsp", 1, [7148, 10, 10232, 493, 6655, 6658, 0, 0, 0, 0, 272215, 0], &[6]),
    ("apsp", 2, [7148, 20, 10232, 489, 6659, 8837, 14749, 14, 0, 0, 273666, 0], &[7, 7]),
    ("apsp", 4, [7148, 39, 10232, 480, 6668, 10485, 43336, 84, 0, 0, 274445, 0], &[7, 7, 7, 7]),
    ("attend", 1, [5726, 36, 5726, 982, 0, 8840, 0, 0, 0, 0, 11135, 3277], &[36]),
    ("attend", 2, [5726, 72, 5726, 982, 0, 8840, 3980, 36, 0, 0, 11135, 3277], &[36, 36]),
    ("attend", 4, [5726, 138, 5726, 982, 0, 8840, 5921, 191, 0, 0, 11135, 3277], &[36, 36, 36, 36]),
    ("sg", 1, [17288, 4, 17288, 696, 16592, 17288, 0, 0, 0, 0, 17288, 17288], &[4]),
    ("sg", 2, [17288, 8, 17288, 695, 16593, 17288, 7658, 8, 0, 7658, 17288, 9630], &[4, 4]),
    ("sg", 4, [17288, 16, 17288, 692, 16596, 17288, 12351, 48, 0, 12351, 17288, 4937], &[4, 4, 4, 4]),
    ("pagerank", 1, [29061, 78, 29559, 29061, 0, 78312, 0, 0, 0, 0, 89432, 498], &[79]),
    ("pagerank", 2, [29089, 160, 29587, 29089, 0, 78313, 41606, 160, 0, 0, 89526, 498], &[83, 83]),
    ("pagerank", 4, [29076, 302, 29574, 29076, 0, 78306, 64250, 890, 0, 0, 89502, 498], &[79, 79, 79, 79]),
    ("sssp", 1, [2667, 18, 4630, 2667, 0, 5796, 0, 0, 0, 0, 12624, 0], &[3]),
    ("sssp", 2, [5797, 81, 7760, 5797, 0, 9829, 9792, 81, 0, 0, 25103, 0], &[15, 15]),
    ("sssp", 4, [7357, 239, 9320, 7357, 0, 10739, 19832, 671, 0, 0, 31479, 0], &[18, 18, 18, 18]),
    ("delivery", 1, [1512, 6, 3012, 1512, 0, 3012, 0, 0, 0, 0, 4310, 0], &[3]),
    ("delivery", 2, [1612, 13, 3112, 1612, 0, 3114, 447, 12, 0, 0, 4409, 0], &[5, 5]),
    ("delivery", 4, [1655, 25, 3155, 1655, 0, 3227, 803, 59, 0, 0, 4453, 0], &[5, 5, 5, 5]),
];
