//! Differential property tests for the batched delta-join kernel.
//!
//! The batched kernel (`Evaluator::sort_batch`, then
//! `Evaluator::eval_sorted`) must emit *exactly* the rows the
//! tuple-at-a-time reference `eval_delta` emits for the same delta and
//! store state. Both run the same walk over the join chain; the kernel
//! adds only mechanics, not semantics: batching, shared registers, the
//! first-probe sort and the first probe's bucket memo. This harness
//! drives both paths round-by-round through a full semi-naive
//! evaluation on a single worker (which sees every route of every
//! relation), comparing the sorted `(head_rel, row)` emissions after
//! each round, on randomized EDBs over the paper's query pool: linear
//! recursion (TC), non-linear with two routes (APSP, SG), `min` inside
//! recursion (CC, SSSP with arithmetic) and `count` with a threshold
//! filter (Attend). Running `eval_sorted` over small slices of the
//! sorted order instead of all of it must emit the same rows in the
//! same order.
//! Delta entries name stored rows by id, as in `Worker::iterate`, so each
//! round's delta is sorted and deduplicated before either path reads it.
//!
//! Init rules run in slices too: `Evaluator::eval_init` over consecutive
//! ranges of a rule's rows (`Evaluator::init_rows`) must emit what one
//! call over all of them emits, in the same order, on every worker of 1
//! to 4, for every init rule of the eight paper queries, as planned and
//! with every derived relation broadcast.

use dcd_common::proptest;
use dcd_common::proptest::prelude::*;
use dcd_common::{Frame, Partitioner, Tuple, Value};
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig, RelId};
use dcd_frontend::{analyze, parse_program};
use dcdatalog::catalog::EdbCatalog;
use dcdatalog::eval::{DeltaRow, EvalScratch, Evaluator};
use dcdatalog::queries;
use dcdatalog::store::{Merged, WorkerStore};

/// Builds a single-worker plan + store for `src` with `params` bound and
/// the given EDB rows loaded.
fn build(
    src: &str,
    params: &[(&str, i64)],
    edb: &[(&str, Vec<Tuple>)],
) -> (PhysicalPlan, WorkerStore) {
    let analyzed = analyze(parse_program(src).unwrap()).unwrap();
    let mut cfg = PlannerConfig::default();
    for (name, v) in params {
        cfg.params.insert(name.to_string(), Value::Int(*v));
    }
    let p = plan(&analyzed, &cfg).unwrap();
    let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
    for (name, rows) in edb {
        let id = p.rel_by_name(name).unwrap();
        data[id] = Some(rows.clone());
    }
    let catalog = EdbCatalog::build(&p, &data, &Partitioner::new(1));
    let store = WorkerStore::build(&p, &catalog, 0, true, 64);
    (p, store)
}

/// Merges pending `(rel, row)` emissions into the store; the ids of new
/// or improved rows become delta entries for every route of their
/// relation (a single worker owns every partition, mirroring
/// `Worker::merge_local`).
fn merge_pending(
    p: &PhysicalPlan,
    store: &mut WorkerStore,
    pending: Vec<(RelId, Tuple)>,
    delta: &mut Vec<DeltaRow>,
) {
    for (rel, row) in pending {
        if let Merged::New(id) = store.rec_mut(rel).merge(&row) {
            let decl = p.idb[rel].as_ref().expect("IDB");
            for route in 0..decl.partition_cols.len().max(1) {
                delta.push((rel, route as u8, id));
            }
        }
    }
}

/// Runs the full semi-naive evaluation on one worker, evaluating every
/// round through **both** kernels and asserting their emissions agree
/// before advancing the store. Returns the number of delta rounds run —
/// callers can sanity-check the recursion actually fired.
fn differential_fixpoint(p: &PhysicalPlan, store: &mut WorkerStore) -> usize {
    let ev = Evaluator {
        plan: p,
        me: 0,
        workers: 1,
    };
    let mut scratch = EvalScratch::default();
    let mut rounds = 0usize;
    for stratum in &p.strata {
        let mut delta: Vec<DeltaRow> = Vec::new();
        let mut pending: Vec<(RelId, Tuple)> = Vec::new();
        for rule in &stratum.init_rules {
            let head = rule.head_rel;
            let rows = 0..ev.init_rows(rule, store);
            ev.eval_init(rule, store, rows, &mut |r| {
                pending.push((head, r.to_tuple()))
            });
        }
        merge_pending(p, store, pending, &mut delta);

        while !delta.is_empty() {
            rounds += 1;
            assert!(rounds < 10_000, "runaway fixpoint");
            let mut rows = std::mem::take(&mut delta);
            rows.sort_unstable();
            rows.dedup();

            // Reference: every row through `eval_delta`, one at a time.
            let mut reference: Vec<(RelId, Tuple)> = Vec::new();
            for &(rel, route, id) in &rows {
                for rule in &stratum.delta_rules {
                    let spec = rule.delta.as_ref().expect("delta rule");
                    if spec.rel != rel || spec.route != route as usize {
                        continue;
                    }
                    let mut out = Frame::default();
                    let row = store.rec(rel).rows().row(id as usize);
                    ev.eval_delta(rule, store, row, &mut out);
                    reference.extend(out.iter().map(|r| (rule.head_rel, r.to_tuple())));
                }
            }

            // Batched: cluster by (rel, route), one kernel call per rule,
            // exactly as `Worker::iterate` does.
            let mut batched: Vec<(RelId, Tuple)> = Vec::new();
            let mut sliced: Vec<(RelId, Tuple)> = Vec::new();
            let mut start = 0;
            while start < rows.len() {
                let (rel, route) = (rows[start].0, rows[start].1);
                let mut end = start + 1;
                while end < rows.len() && rows[end].0 == rel && rows[end].1 == route {
                    end += 1;
                }
                for rule in &stratum.delta_rules {
                    let spec = rule.delta.as_ref().expect("delta rule");
                    if spec.rel != rel || spec.route != route as usize {
                        continue;
                    }
                    let head = rule.head_rel;
                    let group = &rows[start..end];
                    let n = ev.sort_batch(rule, store, group, &mut scratch);
                    ev.eval_sorted(rule, store, group, 0..n, &mut scratch, &mut |r| {
                        batched.push((head, r.to_tuple()))
                    });

                    // Sliced: pass 1 once, then pass 2 over ranges of 3
                    // sorted rows, as `Worker::iterate` runs it around
                    // flushes; same rows, same order.
                    let n = ev.sort_batch(rule, store, group, &mut scratch);
                    for lo in (0..n).step_by(3) {
                        let slice = lo..n.min(lo + 3);
                        ev.eval_sorted(rule, store, group, slice, &mut scratch, &mut |r| {
                            sliced.push((head, r.to_tuple()))
                        });
                    }
                }
                start = end;
            }
            assert_eq!(sliced, batched, "sliced kernel diverged");

            let mut want = reference.clone();
            want.sort();
            let mut got = batched;
            got.sort();
            assert_eq!(
                got, want,
                "batched kernel diverged from tuple-at-a-time reference"
            );

            merge_pending(p, store, reference, &mut delta);
        }
    }
    rounds
}

fn to_tuples(edges: &[(i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b)| Tuple::from_ints(&[a, b]))
        .collect()
}

fn to_tuples3(edges: &[(i64, i64, i64)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|&(a, b, c)| Tuple::from_ints(&[a, b, c]))
        .collect()
}

fn edges_strategy(
    max_v: i64,
    max_e: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

fn weighted_strategy(
    max_v: i64,
    max_e: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0..max_v, 0..max_v, 1..8i64), 0..max_e)
}

/// `src` planned with `params` bound; with `broadcast`, every derived
/// relation is broadcast, as `EngineConfig::broadcast_routing` makes it.
fn plan_with(src: &str, params: &[(&str, Value)], broadcast: bool) -> PhysicalPlan {
    let analyzed = analyze(parse_program(src).unwrap()).unwrap();
    let mut cfg = PlannerConfig::default();
    for (name, v) in params {
        cfg.params.insert(name.to_string(), *v);
    }
    let mut p = plan(&analyzed, &cfg).unwrap();
    for decl in p.idb.iter_mut().flatten() {
        decl.broadcast |= broadcast;
    }
    p
}

/// Runs every init rule of `p` on each of `workers` workers, whose stores
/// hold `edb` as the engine partitions it: once over all of a rule's rows,
/// and over consecutive ranges of 1, 7 and 256 of them, which must emit the
/// same rows in the same order. After each stratum every row any worker
/// derived is merged into every worker's store, so the next stratum's
/// init rules scan a derived relation, a broadcast one only where each row
/// is owned. Returns the distinct `(head, row)`s derived, sorted.
fn init_rows_by_slices(
    p: &PhysicalPlan,
    edb: &[(&str, Vec<Tuple>)],
    workers: usize,
) -> Vec<(RelId, Tuple)> {
    let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
    for (name, rows) in edb {
        data[p.rel_by_name(name).unwrap()] = Some(rows.clone());
    }
    let catalog = EdbCatalog::build(p, &data, &Partitioner::new(workers));
    let mut stores: Vec<WorkerStore> = (0..workers)
        .map(|me| WorkerStore::build(p, &catalog, me, true, 64))
        .collect();
    let mut all = Vec::new();
    for stratum in &p.strata {
        let mut derived = Vec::new();
        for (me, store) in stores.iter().enumerate() {
            let ev = Evaluator {
                plan: p,
                me,
                workers,
            };
            for rule in &stratum.init_rules {
                let head = rule.head_rel;
                let n = ev.init_rows(rule, store);
                let mut whole = Vec::new();
                ev.eval_init(rule, store, 0..n, &mut |r| whole.push((head, r.to_tuple())));
                for size in [1, 7, 256] {
                    let mut sliced = Vec::new();
                    for lo in (0..n).step_by(size) {
                        ev.eval_init(rule, store, lo..n.min(lo + size), &mut |r| {
                            sliced.push((head, r.to_tuple()))
                        });
                    }
                    assert_eq!(sliced, whole, "worker {me} of {workers}, slices of {size}");
                }
                derived.extend(whole);
            }
        }
        for store in &mut stores {
            for (rel, row) in &derived {
                store.rec_mut(*rel).merge(row);
            }
        }
        all.extend(derived);
    }
    all.sort();
    all.dedup();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn init_slices_emit_what_one_call_emits(
        edges in edges_strategy(20, 300),
        weight in 1..8i64,
    ) {
        let arc = to_tuples(&edges);
        let weighted: Vec<(i64, i64, i64)> = edges
            .iter()
            .zip(0..)
            .map(|(&(a, b), i)| (a, b, 1 + i * weight % 7))
            .collect();
        let warc = to_tuples3(&weighted);
        let mut links = edges.clone();
        links.retain(|(a, b)| a != b);
        links.sort_unstable();
        links.dedup();
        let degree = |y: i64| links.iter().filter(|(a, _)| *a == y).count() as i64;
        let matrix: Vec<Tuple> = links
            .iter()
            .map(|&(y, x)| Tuple::from_ints(&[y, x, degree(y)]))
            .collect();
        let basic: Vec<Tuple> = weighted
            .iter()
            .map(|&(a, _, w)| Tuple::from_ints(&[a, w]))
            .collect();
        let organizers = vec![Tuple::from_ints(&[0]), Tuple::from_ints(&[1])];
        let int = |v: i64| Value::Int(v);
        let queries = [
            (queries::TC, vec![], vec![("arc", arc.clone())]),
            (queries::CC, vec![], vec![("arc", to_tuples(&dcd_datagen::symmetrize(&edges)))]),
            (queries::APSP, vec![], vec![("warc", warc.clone())]),
            (
                queries::ATTEND,
                vec![("threshold", int(2))],
                vec![("organizer", organizers), ("friend", arc.clone())],
            ),
            (queries::SG, vec![], vec![("arc", arc.clone())]),
            (
                queries::PAGERANK,
                vec![("alpha", Value::Float(0.5)), ("vnum", Value::Float(20.0))],
                vec![("matrix", matrix)],
            ),
            (queries::SSSP, vec![("start", int(0))], vec![("warc", warc)]),
            (queries::DELIVERY, vec![], vec![("basic", basic), ("assbl", arc)]),
        ];
        for (src, params, edb) in &queries {
            for broadcast in [false, true] {
                let p = plan_with(src, params, broadcast);
                let one = init_rows_by_slices(&p, edb, 1);
                for workers in 2..=4 {
                    let many = init_rows_by_slices(&p, edb, workers);
                    assert_eq!(many, one, "{workers} workers, broadcast {broadcast}:{src}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tc_batch_matches_reference(edges in edges_strategy(16, 60)) {
        let (p, mut store) = build(queries::TC, &[], &[("arc", to_tuples(&edges))]);
        differential_fixpoint(&p, &mut store);
    }

    #[test]
    fn sg_batch_matches_reference(edges in edges_strategy(12, 36)) {
        let (p, mut store) = build(queries::SG, &[], &[("arc", to_tuples(&edges))]);
        differential_fixpoint(&p, &mut store);
    }

    #[test]
    fn cc_batch_matches_reference(edges in edges_strategy(12, 36)) {
        let sym = dcd_datagen::symmetrize(&edges);
        let (p, mut store) = build(queries::CC, &[], &[("arc", to_tuples(&sym))]);
        differential_fixpoint(&p, &mut store);
    }

    #[test]
    fn sssp_batch_matches_reference(warc in weighted_strategy(10, 40)) {
        let (p, mut store) =
            build(queries::SSSP, &[("start", 0)], &[("warc", to_tuples3(&warc))]);
        differential_fixpoint(&p, &mut store);
    }

    #[test]
    fn apsp_batch_matches_reference(warc in weighted_strategy(7, 24)) {
        let (p, mut store) = build(queries::APSP, &[], &[("warc", to_tuples3(&warc))]);
        differential_fixpoint(&p, &mut store);
    }

    #[test]
    fn attend_batch_matches_reference(
        friend in edges_strategy(14, 50),
        organizers in 1..4i64,
    ) {
        let orgs: Vec<Tuple> = (1..=organizers).map(|i| Tuple::from_ints(&[i])).collect();
        let (p, mut store) = build(
            queries::ATTEND,
            &[("threshold", 2)],
            &[("organizer", orgs), ("friend", to_tuples(&friend))],
        );
        differential_fixpoint(&p, &mut store);
    }
}

/// The deterministic anchor: a graph where the kernel's probe clustering
/// demonstrably fires (several delta rows share a join key per round).
#[test]
fn tc_skewed_hub_runs_to_fixpoint() {
    let mut edges = Vec::new();
    for i in 0..12i64 {
        edges.push((i, 12)); // every vertex points at the hub
    }
    edges.push((12, 13));
    edges.push((13, 14));
    let (p, mut store) = build(queries::TC, &[], &[("arc", to_tuples(&edges))]);
    let rounds = differential_fixpoint(&p, &mut store);
    assert!(rounds >= 2, "hub graph must recurse, got {rounds} rounds");
    // 14 arcs + {i→13, i→14 : i < 12} + 12→14 = 14 + 24 + 1.
    assert_eq!(store.rec(p.rel_by_name("tc").unwrap()).len(), 39);
}

/// A skewed delta, the shape probe memoization is for: 2 000 distinct
/// `tc` rows whose join keys land 80% in an 8-key hot set over a
/// 256-vertex graph with four out-edges per vertex. The kernel must
/// emit what the row-at-a-time reference emits, and reuse a probe more
/// often than it descends the index.
#[test]
fn skewed_delta_matches_reference_and_reuses_probes() {
    use dcd_common::rng::Rng;
    const VERTICES: i64 = 256;
    let arcs: Vec<(i64, i64)> = (0..VERTICES)
        .flat_map(|z| (0..4).map(move |k| (z, (z * 7 + k + 1) % VERTICES)))
        .collect();
    let (p, mut store) = build(queries::TC, &[], &[("arc", to_tuples(&arcs))]);
    let tc = p.rel_by_name("tc").unwrap();
    let mut rng = Rng::seed_from_u64(0xD1CE);
    let mut delta: Vec<DeltaRow> = Vec::new();
    for i in 0..2_000i64 {
        let z = if rng.gen_bool(0.8) {
            rng.gen_below(8) as i64
        } else {
            rng.gen_below(VERTICES as u64) as i64
        };
        let Merged::New(id) = store.rec_mut(tc).merge(&Tuple::from_ints(&[i, z])) else {
            unreachable!("delta rows are distinct");
        };
        delta.push((tc, 0, id));
    }
    let ev = Evaluator {
        plan: &p,
        me: 0,
        workers: 1,
    };
    let rule = &p.strata[0].delta_rules[0];
    let mut scratch = EvalScratch::default();
    let mut got = Vec::new();
    let n = ev.sort_batch(rule, &store, &delta, &mut scratch);
    ev.eval_sorted(rule, &store, &delta, 0..n, &mut scratch, &mut |r| {
        got.push(r.to_tuple())
    });
    let mut want = Vec::new();
    for &(_, _, id) in &delta {
        let mut out = Frame::default();
        ev.eval_delta(
            rule,
            &store,
            store.rec(tc).rows().row(id as usize),
            &mut out,
        );
        want.extend(out.iter().map(|r| r.to_tuple()));
    }
    got.sort();
    want.sort();
    assert_eq!(got, want);
    assert_eq!(
        got.len(),
        4 * delta.len(),
        "every delta row joins four arcs"
    );
    assert!(
        scratch.probe_reuse > scratch.probe_hits,
        "hits={}, reuse={}",
        scratch.probe_hits,
        scratch.probe_reuse
    );
}
