//! Microbenchmark: the batched delta-join kernel against the
//! tuple-at-a-time reference on the Iterate hot path.
//!
//! Workload: one TC delta group of 10 000 rows whose join keys are
//! skewed (~80% land in an 8-key hot set), the shape where the kernel's
//! key-sorted probe memoization pays — runs of equal keys descend the
//! arc index once instead of once per row. The delta rows are merged into
//! the store's `tc` relation first, since a delta entry is a stored row's
//! id. Both paths evaluate the same delta against the same immutable
//! store, and their emission counts are asserted equal before anything is
//! timed.
//!
//! Run with `cargo bench -p dcd-bench --bench iterate_kernel`; pass
//! `--json PATH` for machine-readable results.

use dcd_bench::microbench::Harness;
use dcd_common::rng::Rng;
use dcd_common::{Frame, Partitioner, Tuple};
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig};
use dcd_frontend::{analyze, parse_program};
use dcdatalog::catalog::EdbCatalog;
use dcdatalog::eval::{DeltaRow, EvalScratch, Evaluator};
use dcdatalog::queries;
use dcdatalog::store::{Merged, WorkerStore};

const VERTICES: i64 = 256;
const DELTA_ROWS: usize = 10_000;
const HOT_KEYS: i64 = 8;

/// Single-worker TC plan + store with a synthetic `arc` EDB: four
/// out-edges per vertex so every probe that hits finds real join work.
fn build_tc() -> (PhysicalPlan, WorkerStore) {
    let analyzed = analyze(parse_program(queries::TC).expect("parse")).expect("analyze");
    let p = plan(&analyzed, &PlannerConfig::default()).expect("plan");
    let arc = p.rel_by_name("arc").expect("arc");
    let mut rows = Vec::new();
    for z in 0..VERTICES {
        for k in 0..4 {
            rows.push(Tuple::from_ints(&[z, (z * 7 + k + 1) % VERTICES]));
        }
    }
    let mut data: Vec<Option<Vec<Tuple>>> = vec![None; p.edb.len()];
    data[arc] = Some(rows);
    let catalog = EdbCatalog::build(&p, &data, &Partitioner::new(1));
    let store = WorkerStore::build(&p, &catalog, 0, true, 64);
    (p, store)
}

/// A 10k-row tc delta with a skewed join column: 80% of rows carry one
/// of `HOT_KEYS` keys, the rest spread over the whole vertex domain. The
/// first column is the row number, so every row is distinct; each is
/// merged into `store` and the delta holds their ids.
fn skewed_delta(p: &PhysicalPlan, store: &mut WorkerStore) -> Vec<DeltaRow> {
    let tc = p.rel_by_name("tc").expect("tc");
    let mut rng = Rng::seed_from_u64(0xD1CE);
    let mut delta = Vec::with_capacity(DELTA_ROWS);
    for i in 0..DELTA_ROWS {
        let z = if rng.gen_bool(0.8) {
            rng.gen_below(HOT_KEYS as u64) as i64
        } else {
            rng.gen_below(VERTICES as u64) as i64
        };
        let row = Tuple::from_ints(&[i as i64, z]);
        let Merged::New(id) = store.rec_mut(tc).merge(&row) else {
            unreachable!("delta rows are distinct");
        };
        delta.push((tc, 0u8, id));
    }
    delta
}

fn main() {
    let mut h = Harness::from_args();
    let (p, mut store) = build_tc();
    let delta = skewed_delta(&p, &mut store);
    let ev = Evaluator {
        plan: &p,
        me: 0,
        workers: 1,
    };
    let tc = p.rel_by_name("tc").expect("tc");
    let rules: Vec<_> = p.strata[0]
        .delta_rules
        .iter()
        .filter(|r| {
            let spec = r.delta.as_ref().expect("delta rule");
            spec.rel == tc && spec.route == 0
        })
        .collect();
    assert!(!rules.is_empty(), "TC must have a tc-delta rule");

    // Both paths must do identical join work before either is timed.
    let mut scratch = EvalScratch::new();
    let mut batched = 0u64;
    for rule in &rules {
        batched += ev.eval_delta_batch(rule, &store, &delta, &mut scratch, &mut |t| {
            std::hint::black_box(&t);
        });
    }
    let tc_rows = store.rec(tc).rows();
    let mut reference = Frame::default();
    for &(_, _, id) in &delta {
        for rule in &rules {
            ev.eval_delta(rule, &store, tc_rows.row(id as usize), &mut reference);
        }
    }
    assert_eq!(
        batched,
        reference.len() as u64,
        "kernel diverged from reference on the bench workload"
    );
    assert!(
        scratch.probe_reuse > scratch.probe_hits,
        "skewed keys must make probe reuse dominate (hits={}, reuse={})",
        scratch.probe_hits,
        scratch.probe_reuse
    );

    h.bench("iterate_kernel", "batched_10k_skew", || {
        let mut n = 0u64;
        for rule in &rules {
            n += ev.eval_delta_batch(rule, &store, &delta, &mut scratch, &mut |t| {
                std::hint::black_box(&t);
            });
        }
        std::hint::black_box(n);
    });

    h.bench("iterate_kernel", "tuple_at_a_time_10k_skew", || {
        let mut out = Frame::default();
        for &(_, _, id) in &delta {
            for rule in &rules {
                ev.eval_delta(rule, &store, tc_rows.row(id as usize), &mut out);
            }
        }
        std::hint::black_box(out.len());
    });

    h.finish();
}
