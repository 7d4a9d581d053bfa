//! The public DCDatalog API: [`Program`] → [`Engine`] → [`EvalResult`].

use crate::catalog::EdbCatalog;
use crate::config::EngineConfig;
use crate::report::EvalReport;
use crate::store::WorkerStore;
use crate::worker::{Coordination, Worker};
use dcd_common::hash::FastMap;
use dcd_common::{AggFunc, DcdError, Partitioner, Result, Tuple, Value};
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig, StorageKind};
use dcd_frontend::{analyze, parse_program, AnalyzedProgram};
use dcd_runtime::Recorder;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A parsed and analyzed Datalog program plus its parameters.
#[derive(Clone, Debug)]
pub struct Program {
    analyzed: AnalyzedProgram,
    params: FastMap<String, Value>,
}

impl Program {
    /// Parses and analyzes Datalog source text.
    pub fn parse(src: &str) -> Result<Program> {
        Ok(Program {
            analyzed: analyze(parse_program(src)?)?,
            params: FastMap::default(),
        })
    }

    /// Binds a named parameter (`start`, `alpha`, …).
    pub fn with_param(mut self, name: &str, value: impl Into<Value>) -> Program {
        self.params.insert(name.to_string(), value.into());
        self
    }

    /// The analyzed form (for inspection).
    pub fn analyzed(&self) -> &AnalyzedProgram {
        &self.analyzed
    }
}

/// Evaluation statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// The fixpoint clock: wall time from the workers' start to their
    /// last finish. It excludes loading, the EDB seal before it and the
    /// result collection after it.
    pub elapsed: Duration,
    /// The full observability report (per-worker counters, time splits,
    /// traces, termination totals).
    pub report: EvalReport,
}

/// The result of an evaluation: every derived relation, fully merged.
#[derive(Clone, Debug)]
pub struct EvalResult {
    relations: FastMap<String, Vec<Tuple>>,
    /// Statistics of the run.
    pub stats: RunStats,
}

impl EvalResult {
    /// Rows of derived relation `name` (empty slice when absent).
    pub fn relation(&self, name: &str) -> &[Tuple] {
        self.relations
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Sorted rows of `name` (convenience for tests/doctests).
    pub fn sorted(&self, name: &str) -> Vec<Tuple> {
        let mut rows = self.relation(name).to_vec();
        rows.sort();
        rows
    }

    /// Names of all derived relations.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }
}

/// The DCDatalog engine: a planned program plus loaded base data.
pub struct Engine {
    plan: PhysicalPlan,
    cfg: EngineConfig,
    edb_data: Vec<Option<Vec<Tuple>>>,
}

impl Engine {
    /// Plans `program` for execution under `cfg`.
    pub fn new(program: Program, cfg: EngineConfig) -> Result<Engine> {
        let planner_cfg = PlannerConfig {
            params: program.params.clone(),
            sum_epsilon: cfg.sum_epsilon,
        };
        let mut plan = plan(&program.analyzed, &planner_cfg)?;
        if cfg.broadcast_routing {
            for decl in plan.idb.iter_mut().flatten() {
                decl.broadcast = true;
            }
        }
        // Inline facts for sum/count relations would need contributor
        // columns; reject them early with a clear message.
        for (rel, _) in &plan.facts {
            if let Some(decl) = plan.idb[*rel].as_ref() {
                if let StorageKind::Agg {
                    func: AggFunc::Sum | AggFunc::Count,
                    ..
                } = decl.kind
                {
                    return Err(DcdError::Planning(format!(
                        "inline facts for sum/count relation '{}' are not supported",
                        decl.name
                    )));
                }
            }
        }
        let edb_data = vec![None; plan.edb.len()];
        Ok(Engine {
            plan,
            cfg,
            edb_data,
        })
    }

    /// The physical plan (EXPLAIN).
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// Loads rows for base relation `name`, replacing any previous load.
    /// The rows are not read here: [`Engine::run`] reports a row whose
    /// arity is not the relation's, from the seal, which reads every row
    /// once anyway. The relation's inline facts, if the program has any,
    /// are kept next to the loaded rows.
    pub fn load_edb(&mut self, name: &str, rows: Vec<Tuple>) -> Result<()> {
        let rel = self
            .plan
            .rel_by_name(name)
            .ok_or_else(|| DcdError::MissingRelation(name.to_string()))?;
        if self.plan.edb[rel].is_none() {
            return Err(DcdError::Planning(format!(
                "'{name}' is a derived relation"
            )));
        }
        self.edb_data[rel] = Some(rows);
        Ok(())
    }

    /// Convenience: loads `(src, dst)` integer edges.
    pub fn load_edges(&mut self, name: &str, edges: &[(i64, i64)]) -> Result<()> {
        self.load_edb(
            name,
            edges
                .iter()
                .map(|&(a, b)| Tuple::from_ints(&[a, b]))
                .collect(),
        )
    }

    /// Convenience: loads `(src, dst, weight)` integer edges.
    pub fn load_weighted_edges(&mut self, name: &str, edges: &[(i64, i64, i64)]) -> Result<()> {
        self.load_edb(
            name,
            edges
                .iter()
                .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
                .collect(),
        )
    }

    /// Runs the parallel evaluation to the global fixpoint.
    pub fn run(&self) -> Result<EvalResult> {
        // Every EDB referenced by a rule must be loaded (empty is legal but
        // must be explicit, guarding against typos in relation names),
        // unless the program gives it inline facts.
        for decl in self.plan.edb.iter().flatten() {
            let has_facts = self.plan.facts.iter().any(|(rel, _)| *rel == decl.id);
            if self.edb_data[decl.id].is_none() && !has_facts {
                return Err(DcdError::MissingRelation(decl.name.clone()));
            }
        }
        let coord = Coordination::new(&self.plan, &self.cfg);
        // Seal the EDB once, before any worker spawns, like the paper's load
        // phase: on `Engine::run`'s clock (`seal_ns`), not the fixpoint's.
        let seal = Instant::now();
        let catalog = EdbCatalog::try_build(&self.plan, &self.edb_data, &coord.part)?;
        let start = Instant::now();
        let n = self.cfg.workers;

        let results: Vec<Result<(WorkerStore, Recorder)>> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for me in 0..n {
                let coord = &coord;
                let plan = &self.plan;
                let cfg = &self.cfg;
                let catalog = &catalog;
                handles.push(s.spawn(move || {
                    // A panic is caught on the worker's own thread so the
                    // others are cancelled at once rather than left waiting
                    // on a peer that will never arrive.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let store =
                            WorkerStore::build(plan, catalog, me, cfg.optimized, cfg.cache_slots);
                        Worker::new(plan, cfg, coord, me, store).run()
                    }))
                    .unwrap_or_else(|payload| Err(panic_error(me, payload.as_ref())));
                    if out.is_err() {
                        coord.cancel();
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught on their thread"))
                .collect()
        });
        let elapsed = start.elapsed();

        let mut stores = Vec::with_capacity(n);
        let mut per_worker = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        let mut dws_models = Vec::with_capacity(n);
        let mut errors = Vec::new();
        for (me, r) in results.into_iter().enumerate() {
            match r {
                Ok((store, rec)) => {
                    let (mut counters, trace, models) = rec.finish(me);
                    counters.edb_resident_bytes = catalog.partitioned_bytes(me);
                    stores.push(store);
                    per_worker.push(counters);
                    traces.push(trace);
                    dws_models.push(models);
                }
                Err(e) => errors.push(e),
            }
        }
        if !errors.is_empty() {
            return Err(root_cause(errors));
        }
        let (produced, consumed) = coord.termination_totals();
        let mut report = EvalReport {
            strategy: self.cfg.strategy.name().to_string(),
            workers: n,
            seal_ns: (start - seal).as_nanos() as u64,
            elapsed_ns: elapsed.as_nanos() as u64,
            collect_ns: 0,
            produced,
            consumed,
            edb_replicated_bytes: catalog.replicated_bytes(),
            per_worker,
            traces,
            dws_models,
        };
        drop(catalog); // inside the collect clock, so the clocks cover the run
        let relations = self.collect(stores, &coord.part);
        report.collect_ns = (start.elapsed() - elapsed).as_nanos() as u64;
        Ok(EvalResult {
            relations,
            stats: RunStats { elapsed, report },
        })
    }

    /// Copies the lanes of every derived row out of the worker stores into
    /// the result's `Tuple`s, one copy per row, taken from the worker that
    /// owns it: worker `me` keeps a row of relation `r` only if
    /// `H(row[partition_cols[0]])` is `me`. Each store is freed once its
    /// rows are copied. That worker holds the row's final value, because
    /// Distribute sends every row, and every aggregate improvement, to
    /// the owner of each of the relation's routes, and a route column is a
    /// group column, so an aggregate row's owner never changes. (The
    /// planner always gives a relation at least one route, defaulting to
    /// column 0.) A single-route relation stores each row at its owner
    /// only, so every row passes; the other replicas of a multi-route
    /// relation (APSP's `path`) or a broadcast one (every row on every
    /// worker) are dropped, not reconciled.
    fn collect(&self, stores: Vec<WorkerStore>, part: &Partitioner) -> FastMap<String, Vec<Tuple>> {
        let mut rels: Vec<Vec<Tuple>> = vec![Vec::new(); self.plan.idb.len()];
        for (me, store) in stores.into_iter().enumerate() {
            for (decl, rec) in self.plan.idb.iter().zip(store.idb) {
                let (Some(decl), Some(rec)) = (decl, rec) else {
                    continue;
                };
                let home = decl.partition_cols[0];
                let rows = rec.into_rows();
                let owned = rows.iter().filter(|row| part.of_key(row.key(home)) == me);
                rels[decl.id].extend(owned.map(Tuple::from_row));
            }
        }
        self.plan
            .idb
            .iter()
            .zip(rels)
            .filter_map(|(decl, rows)| Some((decl.as_ref()?.name.clone(), rows)))
            .collect()
    }
}

/// The error a failed run reports. A timeout or a panic is the cause; the
/// peers it cancelled then fail with a generic abort, which is only its
/// consequence. Without a cause, the first worker's error is reported.
fn root_cause(mut errors: Vec<DcdError>) -> DcdError {
    let cause = errors
        .iter()
        .position(|e| matches!(e, DcdError::Timeout | DcdError::WorkerPanic { .. }))
        .unwrap_or(0);
    errors.swap_remove(cause)
}

/// Turns worker `worker`'s panic payload into an error that keeps the
/// panic message.
fn panic_error(worker: usize, payload: &(dyn Any + Send)) -> DcdError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    DcdError::WorkerPanic { worker, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cause_prefers_timeout_and_panic_over_aborts() {
        let aborted = || DcdError::Execution("evaluation aborted".into());
        assert_eq!(
            root_cause(vec![aborted(), DcdError::Timeout, aborted()]),
            DcdError::Timeout
        );
        let panic = DcdError::WorkerPanic {
            worker: 1,
            message: "boom".into(),
        };
        assert_eq!(root_cause(vec![aborted(), panic.clone()]), panic);
        assert_eq!(root_cause(vec![aborted()]), aborted());
    }

    #[test]
    fn panic_error_keeps_the_payload_message() {
        let payload = catch_unwind(|| panic!("index {} out of range", 7)).unwrap_err();
        assert_eq!(
            panic_error(3, payload.as_ref()),
            DcdError::WorkerPanic {
                worker: 3,
                message: "index 7 out of range".into()
            }
        );
        let payload = catch_unwind(|| panic!("static message")).unwrap_err();
        assert!(panic_error(0, payload.as_ref())
            .to_string()
            .contains("worker 0 panicked: static message"));
        let payload = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert!(panic_error(0, payload.as_ref())
            .to_string()
            .contains("non-string panic payload"));
    }
}
