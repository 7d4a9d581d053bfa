//! The two passes of one benchmark run: untraced end-to-end timing, and a
//! traced pass that calls each layer's public entry points on its own.

use crate::ledger::{counter_metrics, span_metrics, SpanTotals};
use crate::stats::median;
use crate::workload::{Answer, Workload};
use dcd_common::Partitioner;
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig};
use dcd_runtime::trace::Phase;
use dcdatalog::store::{RecStore, WorkerStore};
use dcdatalog::{DcdError, EdbCatalog, Engine, EngineConfig, EvalResult, Result, Tuple};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Per-run engine deadline: a run that exceeds it counts as failed.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(30);

/// Trace ring capacity per worker, large enough that no workload drops
/// events (`trace.dropped_events` reports it if one does).
pub const TRACE_CAPACITY: usize = 1 << 18;

/// Fewest timed samples per configuration: sampling goes on past
/// `--seconds` until each has this many, for at most one more
/// `RUN_TIMEOUT`, so a benchmark whose runs fail still ends in bounded time.
pub const MIN_SAMPLES: usize = 5;

/// Whether to take another round of samples.
fn keep_sampling(start: Instant, budget: Duration, fewest: usize) -> bool {
    let elapsed = start.elapsed();
    elapsed < budget || (fewest < MIN_SAMPLES && elapsed < budget + RUN_TIMEOUT)
}

/// Engine configuration of every benchmark run: DWS (the default
/// strategy), `workers` threads, a deadline, and optional tracing.
pub fn config(workers: usize, trace: bool) -> EngineConfig {
    EngineConfig {
        timeout: Some(RUN_TIMEOUT),
        trace,
        trace_capacity: TRACE_CAPACITY,
        ..EngineConfig::with_workers(workers)
    }
}

/// Why a run did not count.
#[derive(Debug)]
pub enum Failure {
    /// The engine returned an error other than a timeout.
    Error(DcdError),
    /// `RUN_TIMEOUT` expired.
    Timeout,
    /// The run panicked.
    Panic,
    /// The answer differed from the oracle's.
    Wrong { got: Answer, want: Answer },
}

/// Attempted and failed run counts, plus the first failure seen.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs started.
    pub attempted: u64,
    /// Runs that failed for any reason.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Runs `engine` once and checks its answer; `None` on failure.
    pub fn run(
        &mut self,
        engine: &Engine,
        w: &Workload,
        want: Answer,
    ) -> Option<(Duration, EvalResult)> {
        self.attempted += 1;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| engine.run()));
        let wall = t.elapsed();
        let failure = match out {
            Ok(Ok(res)) => {
                let got = Answer::of(res.relation(w.result_rel()));
                if got == want {
                    return Some((wall, res));
                }
                Failure::Wrong { got, want }
            }
            Ok(Err(e)) if e.to_string().contains("timed out") => Failure::Timeout,
            Ok(Err(e)) => Failure::Error(e),
            Err(_) => Failure::Panic,
        };
        self.failed += 1;
        self.first_failure
            .get_or_insert_with(|| format!("{failure:?}"));
        None
    }
}

/// Seconds each set-up step took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `Program::parse` (plus parameter binding).
    pub parse: f64,
    /// `Engine::new`, i.e. physical planning.
    pub plan: f64,
    /// `Engine::load_edb`.
    pub load: f64,
}

/// Parses, plans and loads one engine, timing each step.
pub fn set_up(w: &Workload, cfg: EngineConfig, rows: Vec<Tuple>) -> Result<(Engine, Setup)> {
    let t = Instant::now();
    let program = w.program()?;
    let parse = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut engine = Engine::new(program, cfg)?;
    let plan = t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.load_edb(w.edb(), rows)?;
    let load = t.elapsed().as_secs_f64();
    Ok((engine, Setup { parse, plan, load }))
}

/// Repeats `f` at least `min` times and until `budget` is spent (at most
/// `max` times), returning every result.
fn repeat<T>(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<T>,
) -> Result<Vec<T>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        out.push(f()?);
    }
    Ok(out)
}

/// Repeated set-ups (at least `min`, then until `budget` is spent); the
/// input clone stays outside the timed steps.
fn set_ups(w: &Workload, inputs: &[Tuple], min: usize, budget: Duration) -> Result<Vec<Setup>> {
    repeat(min, 1001, budget, || {
        let rows = inputs.to_vec();
        let (engine, s) = set_up(w, config(1, false), rows)?;
        drop(engine);
        Ok(s)
    })
}

/// The outcome of one benchmark pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value, units as the metric tables give them.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run counts.
    pub tally: Tally,
    /// The last traced `nproc`-worker run's report (traced pass only).
    pub traced_report: Option<dcdatalog::EvalReport>,
}

/// Untraced pass: the end-to-end metrics at `nproc` and 1 worker. Set-up
/// samples are taken between the run pairs (about 5% of the time), so they
/// see the same machine conditions as the runs. Peak RSS is read after a
/// fixed number of pairs: a maximum over however many runs fit in the time
/// would grow with machine speed.
pub fn end_to_end(
    w: &Workload,
    inputs: &[Tuple],
    want: Answer,
    seconds: f64,
    nproc: usize,
) -> Result<Outcome> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (multi, _) = set_up(w, config(nproc, false), inputs.to_vec())?;
    let (one, _) = set_up(w, config(1, false), inputs.to_vec())?;

    let mut tally = Tally::default();
    // Warm-up: let allocator pools and caches settle; still checked.
    tally.run(&multi, w, want);
    tally.run(&one, w, want);
    let (mut run_s, mut run_1w, mut fixpoint_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_s, mut peak_rss_mb) = (Vec::new(), None);
    while keep_sampling(start, budget, run_s.len().min(run_1w.len())) {
        let pair = Instant::now();
        if let Some((wall, res)) = tally.run(&multi, w, want) {
            run_s.push(wall.as_secs_f64());
            fixpoint_s.push(res.stats.elapsed.as_secs_f64());
        }
        if let Some((wall, _)) = tally.run(&one, w, want) {
            run_1w.push(wall.as_secs_f64());
        }
        for s in set_ups(w, inputs, 1, pair.elapsed() / 20)? {
            setup_s.push(s.parse + s.plan + s.load);
        }
        if tally.attempted == 2 * (MIN_SAMPLES as u64 + 1) {
            peak_rss_mb = Some(crate::peak_rss_mb());
        }
    }
    let run = median(&run_s);
    let metrics = BTreeMap::from([
        ("run_s", run),
        ("run_s.1w", median(&run_1w)),
        ("fixpoint_s", median(&fixpoint_s)),
        ("setup_s", median(&setup_s)),
        ("rows_per_s", crate::ledger::ratio(want.rows as f64, run)),
        (
            "peak_rss_mb",
            peak_rss_mb.unwrap_or_else(crate::peak_rss_mb),
        ),
    ]);
    Ok(Outcome {
        metrics,
        tally,
        traced_report: None,
    })
}

/// The workload's physical plan, planned the way `Engine::new` plans it.
fn physical_plan(w: &Workload, cfg: &EngineConfig) -> Result<PhysicalPlan> {
    let program = w.program()?;
    let mut planner = PlannerConfig {
        sum_epsilon: cfg.sum_epsilon,
        ..PlannerConfig::default()
    };
    for &(name, v) in w.params() {
        planner.params.insert(name.to_string(), v.into());
    }
    plan(program.analyzed(), &planner)
}

/// Median of each named value across runs.
fn medians(runs: &[Vec<(&'static str, f64)>]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for &(name, v) in run {
            by_name.entry(name).or_default().push(v);
        }
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Traced pass: every per-layer metric. Layer entry points are timed from
/// here; spans and counters come from the runs' `EvalReport`s.
pub fn layers(
    w: &Workload,
    inputs: &[Tuple],
    want: Answer,
    seconds: f64,
    nproc: usize,
) -> Result<Outcome> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let cfg = config(nproc, false);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // frontend + load
    let setups = set_ups(w, inputs, 5, budget / 20)?;
    let ms = |f: fn(&Setup) -> f64| median(&setups.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>());
    m.insert("frontend.parse_ms", ms(|s| s.parse));
    m.insert("frontend.plan_ms", ms(|s| s.plan));
    m.insert("load.ms", ms(|s| s.load));
    m.insert("load.rows", inputs.len() as f64);

    // catalog: sealed on its own for `nproc` partitions.
    let plan = physical_plan(w, &cfg)?;
    let rel = plan
        .rel_by_name(w.edb())
        .ok_or_else(|| DcdError::MissingRelation(w.edb().to_string()))?;
    let mut edb_data: Vec<Option<Vec<Tuple>>> = vec![None; plan.edb.len()];
    edb_data[rel] = Some(inputs.to_vec());
    let part = Partitioner::new(nproc);
    let seals = repeat(3, 51, budget / 20, || {
        let t = Instant::now();
        let catalog = EdbCatalog::build(&plan, &edb_data, &part);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(catalog);
        Ok(ms)
    })?;
    let seal_ms = median(&seals);
    let catalog = EdbCatalog::build(&plan, &edb_data, &part);
    m.insert("catalog.seal_ms", seal_ms);
    m.insert(
        "catalog.replicated_bytes",
        catalog.replicated_bytes() as f64,
    );
    m.insert(
        "catalog.partitioned_bytes",
        (0..nproc)
            .map(|me| catalog.partitioned_bytes(me))
            .sum::<u64>() as f64,
    );

    // store: per-worker store construction.
    let builds = repeat(3, 51, budget / 40, || {
        let t = Instant::now();
        let stores: Vec<WorkerStore> = (0..nproc)
            .map(|me| WorkerStore::build(&plan, &catalog, me, cfg.optimized, cfg.cache_slots))
            .collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(stores);
        Ok(ms)
    })?;
    m.insert("store.build_ms", median(&builds));
    drop(catalog);

    let (untraced, _) = set_up(w, cfg.clone(), inputs.to_vec())?;
    let (traced, _) = set_up(w, config(nproc, true), inputs.to_vec())?;
    let (traced_1w, _) = set_up(w, config(1, true), inputs.to_vec())?;
    let mut tally = Tally::default();

    // store: replay the recursive relation's final rows into a fresh store,
    // all-new then all-duplicate.
    let rec_rows = match tally.run(&untraced, w, want) {
        Some((_, res)) => res.relation(w.recursive_rel()).to_vec(),
        None => Vec::new(),
    };
    let rec = plan
        .rel_by_name(w.recursive_rel())
        .ok_or_else(|| DcdError::MissingRelation(w.recursive_rel().to_string()))?;
    let replays = repeat(3, 21, budget / 10, || {
        let mut store = RecStore::new(&plan, rec, cfg.optimized, cfg.cache_slots);
        let t = Instant::now();
        for row in &rec_rows {
            std::hint::black_box(store.merge(row));
        }
        let new = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for row in &rec_rows {
            std::hint::black_box(store.merge(row));
        }
        let dup = t.elapsed().as_nanos() as f64;
        let n = rec_rows.len().max(1) as f64;
        Ok((new / n, dup / n))
    })?;
    m.insert(
        "store.merge_new_ns_per_row",
        median(&replays.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    m.insert(
        "store.merge_dup_ns_per_row",
        median(&replays.iter().map(|r| r.1).collect::<Vec<_>>()),
    );

    // Runs: untraced (counters, collect), traced (spans) and traced at one
    // worker (local merge), interleaved so drift hits all three alike.
    tally.run(&traced, w, want);
    tally.run(&traced_1w, w, want);
    let (mut counters, mut spans, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let (mut walls, mut traced_walls, mut collect) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dropped, mut traced_report) = (0u64, None);
    while keep_sampling(start, budget, spans.len().min(counters.len())) {
        if let Some((wall, res)) = tally.run(&untraced, w, want) {
            let wall = wall.as_secs_f64();
            walls.push(wall);
            collect.push((wall - res.stats.elapsed.as_secs_f64()) * 1e3 - seal_ms);
            counters.push(counter_metrics(&res.stats.report, want.rows));
        }
        if let Some((wall, res)) = tally.run(&traced, w, want) {
            traced_walls.push(wall.as_secs_f64());
            spans.push(span_metrics(&res.stats.report));
            let rep = res.stats.report;
            dropped = dropped.max(rep.traces.iter().map(|t| t.dropped).sum());
            traced_report = Some(rep);
        }
        if let Some((_, res)) = tally.run(&traced_1w, w, want) {
            local.push(SpanTotals::of(&res.stats.report.traces).self_ms(Phase::Distribute));
        }
    }
    m.extend(medians(&counters));
    m.extend(medians(&spans));
    m.insert("merge.local_ms", median(&local));
    m.insert("collect.ms", median(&collect));
    // The worst run, not the median: any drop makes the ledger incomplete.
    m.insert("trace.dropped_events", dropped as f64);
    m.insert(
        "trace.overhead_frac",
        crate::ledger::ratio(median(&traced_walls), median(&walls)) - 1.0,
    );
    Ok(Outcome {
        metrics: m,
        tally,
        traced_report,
    })
}
