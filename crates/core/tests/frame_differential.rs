//! Differential tests for the frame-based data plane: every paper query,
//! across Global/SSP/DWS × 1/2/3/4 workers, must produce exactly the rows of
//! the single-worker reference run — and every result relation must
//! survive a round-trip through a `Frame`'s lanes (encoded with
//! `Tuple::row`, decoded with `Row::to_tuple`) unchanged.
//! The first check pins the flat-frame exchange against the Tuple
//! semantics it replaced; the second pins the wire encoding itself.

use dcd_common::Frame;
use dcdatalog::{queries, Engine, EngineConfig, Program, Strategy, Tuple};

fn configs() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for w in [1usize, 2, 3, 4] {
        for s in [Strategy::Global, Strategy::Ssp { s: 2 }, Strategy::Dws] {
            out.push(EngineConfig::with_workers(w).strategy(s));
        }
    }
    out
}

/// Runs `program` under `cfg` after `load`, returning the sorted rows of
/// each relation in `rels`.
fn run_once(
    program: Program,
    cfg: EngineConfig,
    load: &dyn Fn(&mut Engine),
    rels: &[&str],
) -> Vec<Vec<Tuple>> {
    let mut e = Engine::new(program, cfg).unwrap();
    load(&mut e);
    let r = e.run().unwrap();
    // Byte-accounting invariant: at the fixpoint every queue is drained,
    // so the bytes producers pushed equal the bytes consumers drained.
    let rep = &r.stats.report;
    assert_eq!(
        rep.exchanged_bytes(),
        rep.total(|w| w.bytes_in),
        "sent/received byte totals must reconcile"
    );
    rels.iter().map(|n| r.sorted(n)).collect()
}

/// The differential harness: single-worker Global is the reference; every
/// other (strategy, workers) combination must match it, and each result
/// relation must round-trip through a `Frame` unchanged.
fn differential(
    make: &dyn Fn() -> Program,
    load: &dyn Fn(&mut Engine),
    rels: &[&str],
    exact: bool,
) {
    let reference = run_once(
        make(),
        EngineConfig::with_workers(1).strategy(Strategy::Global),
        load,
        rels,
    );
    for (rel, rows) in rels.iter().zip(&reference) {
        let arity = rows.first().map(|t| t.arity()).unwrap_or(0);
        let mut frame = Frame::new(arity);
        for t in rows {
            frame.push(t.row());
        }
        let round: Vec<Tuple> = frame.iter().map(|r| r.to_tuple()).collect();
        assert_eq!(&round, rows, "frame round-trip of '{rel}'");
    }
    for cfg in configs() {
        let name = format!("{} x{}", cfg.strategy.name(), cfg.workers);
        let got = run_once(make(), cfg, load, rels);
        compare(&name, rels, &reference, &got, exact);
    }
    // Table-4 ablation path: with the §6.2 optimizations off there is no
    // sent-filter, so every duplicate derivation travels the
    // exchange and must be rejected by the idempotent merge alone.
    let cfg = EngineConfig::with_workers(4).optimizations(false);
    let got = run_once(make(), cfg, load, rels);
    compare("unoptimized x4", rels, &reference, &got, exact);
    // Broadcast routing: every worker holds every row, so collect keeps
    // only the home copy of each and skips the most replicas.
    let mut cfg = EngineConfig::with_workers(3);
    cfg.broadcast_routing = true;
    let got = run_once(make(), cfg, load, rels);
    compare("broadcast_routing x3", rels, &reference, &got, exact);
}

/// Asserts `got` matches `want` relation by relation — bit-exact, or
/// within a float tolerance for order-sensitive sum aggregates.
fn compare(name: &str, rels: &[&str], want: &[Vec<Tuple>], got: &[Vec<Tuple>], exact: bool) {
    for ((rel, want), have) in rels.iter().zip(want).zip(got) {
        if exact {
            assert_eq!(have, want, "{name}: relation '{rel}' diverged");
        } else {
            // Float aggregates (pagerank's sums) are order-sensitive;
            // compare groups with a tolerance instead of bit equality.
            assert_eq!(have.len(), want.len(), "{name}: '{rel}' row count");
            for (a, b) in have.iter().zip(want) {
                assert_eq!(a.arity(), b.arity(), "{name}: '{rel}' arity");
                for (va, vb) in a.values().iter().zip(b.values().iter()) {
                    let (fa, fb) = (va.as_f64(), vb.as_f64());
                    assert!((fa - fb).abs() < 1e-6, "{name}: '{rel}' {a:?} vs {b:?}");
                }
            }
        }
    }
}

#[test]
fn tc_differential() {
    let edges: Vec<(i64, i64)> = (0..60).map(|i| (i % 20, (i * 7 + 1) % 20)).collect();
    differential(
        &|| queries::tc().unwrap(),
        &|e| e.load_edges("arc", &edges).unwrap(),
        &["tc"],
        true,
    );
}

#[test]
fn cc_differential() {
    // Two components with symmetric edges.
    let mut edges = Vec::new();
    for i in 0..10i64 {
        edges.push((i, (i + 1) % 10));
        edges.push(((i + 1) % 10, i));
    }
    for i in 20..26i64 {
        edges.push((i, i + 1));
        edges.push((i + 1, i));
    }
    differential(
        &|| queries::cc().unwrap(),
        &|e| e.load_edges("arc", &edges).unwrap(),
        &["cc"],
        true,
    );
}

#[test]
fn sssp_differential() {
    let warc: Vec<(i64, i64, i64)> = (0..40)
        .map(|i| (i % 12, (i * 5 + 2) % 12, (i % 7) + 1))
        .collect();
    differential(
        &|| queries::sssp(0).unwrap(),
        &|e| e.load_weighted_edges("warc", &warc).unwrap(),
        &["results"],
        true,
    );
}

#[test]
fn apsp_differential() {
    let warc: Vec<(i64, i64, i64)> = (0..30)
        .map(|i| (i % 8, (i * 3 + 1) % 8, (i % 5) + 1))
        .collect();
    differential(
        &|| queries::apsp().unwrap(),
        &|e| e.load_weighted_edges("warc", &warc).unwrap(),
        &["path", "apsp"],
        true,
    );
}

#[test]
fn sg_differential() {
    // Two perfect binary trees sharing no vertices.
    let mut edges = Vec::new();
    for root in [1i64, 100] {
        for p in 0..7 {
            edges.push((root + p, root + 2 * p + 1));
            edges.push((root + p, root + 2 * p + 2));
        }
    }
    differential(
        &|| queries::sg().unwrap(),
        &|e| e.load_edges("arc", &edges).unwrap(),
        &["sg"],
        true,
    );
}

#[test]
fn attend_differential() {
    let mut friend = Vec::new();
    for p in 10..30i64 {
        friend.push((p, 1));
        friend.push((p, 2));
        if p % 2 == 0 {
            friend.push((p, 3));
        }
        friend.push((p + 1, p));
    }
    differential(
        &|| queries::attend(3).unwrap(),
        &|e| {
            e.load_edb(
                "organizer",
                vec![
                    Tuple::from_ints(&[1]),
                    Tuple::from_ints(&[2]),
                    Tuple::from_ints(&[3]),
                ],
            )
            .unwrap();
            e.load_edges("friend", &friend).unwrap();
        },
        &["attend", "cnt"],
        true,
    );
}

#[test]
fn delivery_differential() {
    // A part tree: part p is assembled from 2p+1 and 2p+2; leaves have
    // basic delivery days.
    let mut assbl = Vec::new();
    let mut basic = Vec::new();
    for p in 1..8i64 {
        assbl.push((p, 2 * p + 1));
        assbl.push((p, 2 * p + 2));
    }
    for leaf in 8..16i64 {
        basic.push(Tuple::from_ints(&[leaf, leaf % 5 + 1]));
    }
    differential(
        &|| queries::delivery().unwrap(),
        &|e| {
            e.load_edb("basic", basic.clone()).unwrap();
            e.load_edges("assbl", &assbl).unwrap();
        },
        &["results"],
        true,
    );
}

#[test]
fn pagerank_differential() {
    let n = 8usize;
    let rows: Vec<Tuple> = (0..n as i64)
        .flat_map(|i| {
            [
                Tuple::from_ints(&[i, (i + 1) % n as i64, 2]),
                Tuple::from_ints(&[i, (i + 3) % n as i64, 2]),
            ]
        })
        .collect();
    // Under broadcast routing every worker keeps its own `rank` replica,
    // summed in its own arrival order, so replicas can differ in
    // rounding. `results(X, V) <- rank(X, V)` scans `rank` only where
    // each row is owned, so it derives one row per `X`, from the replica
    // collect also takes `rank` from; the broadcast leg checks both.
    differential(
        &|| queries::pagerank(0.85, n).unwrap(),
        &|e| e.load_edb("matrix", rows.clone()).unwrap(),
        &["rank", "results"],
        false, // float sums: tolerance compare
    );
}
