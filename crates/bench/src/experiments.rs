//! One function per table/figure of the paper's evaluation (§7).
//!
//! Baseline mapping (DESIGN.md §2): `Global` reproduces DeALS-MC's
//! coordination (the paper says so explicitly in §7.3), `SSP(5)` is the
//! bounded-staleness baseline, broadcast routing emulates the
//! SociaLite/DDlog behaviour on non-linear queries, and the 1-thread run
//! stands in for single-node engines. Foreign systems themselves are not
//! reimplemented.

use crate::datasets::{self, Dataset};
use crate::harness::{Outcome, Run};
use crate::paper;
use dcd_runtime::simulator::{figure3_workload, simulate, SimConfig, SimStrategy};
use dcdatalog::{queries, EngineConfig, Program, Strategy};
use std::fmt;
use std::time::Duration;

/// Harness options (CLI-controlled).
#[derive(Clone, Debug)]
pub struct Opts {
    /// Dataset scale divisor (1 = paper size).
    pub scale: usize,
    /// Worker threads for the main engine runs.
    pub workers: usize,
    /// Per-run timeout.
    pub timeout: Duration,
    /// Repetitions per cell (best-of).
    pub reps: usize,
    /// Largest APSP RMAT size to attempt.
    pub apsp_max: usize,
    /// Simulated worker count for the scheduler-simulator columns
    /// (fig1/fig8/fig9a); real threads cannot show parallel speedup on a
    /// single-core host, the deterministic simulator can.
    pub sim_workers: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 20_000,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            timeout: Duration::from_secs(120),
            reps: 1,
            apsp_max: 512,
            sim_workers: 32,
        }
    }
}

/// A rendered experiment: a titled table.
pub struct Report {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// `(row label, cells)`.
    pub rows: Vec<(String, Vec<String>)>,
    /// Free-form note (shape check vs the paper).
    pub note: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        write!(f, "{:<28}", "")?;
        for c in &self.columns {
            write!(f, " {c:>16}")?;
        }
        writeln!(f)?;
        for (label, cells) in &self.rows {
            write!(f, "{label:<28}")?;
            for c in cells {
                write!(f, " {c:>16}")?;
            }
            writeln!(f)?;
        }
        if !self.note.is_empty() {
            writeln!(f, "   note: {}", self.note)?;
        }
        Ok(())
    }
}

fn cfg(opts: &Opts, strategy: Strategy) -> EngineConfig {
    let mut c = EngineConfig::with_workers(opts.workers).strategy(strategy);
    c.timeout = Some(opts.timeout);
    c
}

fn run_cell(
    program: &Program,
    ds: &Dataset,
    probe: &str,
    config: EngineConfig,
    reps: usize,
) -> Outcome {
    Run {
        program: program.clone(),
        loads: ds.loads.clone(),
        config,
        probe: probe.into(),
    }
    .execute_best_of(reps)
}

/// The standard comparator column set for system-comparison tables.
fn system_columns(opts: &Opts) -> Vec<(String, EngineConfig)> {
    let mut broadcast = cfg(opts, Strategy::Dws);
    broadcast.broadcast_routing = true;
    let single = {
        let mut c = EngineConfig::with_workers(1).strategy(Strategy::Global);
        c.timeout = Some(opts.timeout);
        c
    };
    vec![
        ("DCD(DWS)".into(), cfg(opts, Strategy::Dws)),
        ("Global".into(), cfg(opts, Strategy::Global)),
        ("SSP(5)".into(), cfg(opts, Strategy::Ssp { s: 5 })),
        ("Bcast".into(), broadcast),
        ("1-thread".into(), single),
    ]
}

/// Figure 1 — SSSP on the LiveJournal stand-in, one bar per system.
pub fn fig1(opts: &Opts) -> Report {
    let ds = datasets::sssp_datasets(opts.scale)
        .into_iter()
        .next()
        .expect("LiveJournal dataset");
    let program = queries::sssp(0).expect("sssp parses");
    let systems = system_columns(opts);
    let cells: Vec<String> = systems
        .iter()
        .map(|(_, c)| run_cell(&program, &ds, "results", c.clone(), opts.reps).to_string())
        .collect();
    Report {
        title: "Figure 1: SSSP query time on LiveJournal-like (seconds)".into(),
        columns: systems.into_iter().map(|(n, _)| n).collect(),
        rows: vec![("SSSP/LiveJournal".into(), cells)],
        note: "paper (fig 8 text): Global 131.68s, SSP 34.45s, DWS 11.82s on the real graph".into(),
    }
}

/// Figure 3 — deterministic schedule replay of the worked CC example.
pub fn fig3(_opts: &Opts) -> Report {
    let w = figure3_workload();
    let cfg = SimConfig::default();
    let g = simulate(&w, &cfg, SimStrategy::Global).makespan;
    let s = simulate(&w, &cfg, SimStrategy::Ssp(1)).makespan;
    let d = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 }).makespan;
    let (pg, ps, pd) = paper::FIG3_UNITS;
    Report {
        title: "Figure 3: CC schedule lengths (abstract time units)".into(),
        columns: vec!["Global".into(), "SSP(1)".into(), "DWS".into()],
        rows: vec![
            (
                "simulated".into(),
                vec![g.to_string(), s.to_string(), d.to_string()],
            ),
            (
                "paper".into(),
                vec![pg.to_string(), ps.to_string(), pd.to_string()],
            ),
        ],
        note: format!(
            "shape check: DWS/Global simulated {:.2} vs paper {:.2}",
            d as f64 / g as f64,
            pd as f64 / pg as f64
        ),
    }
}

/// Table 2 — the five benchmark queries across their datasets.
pub fn tab2(opts: &Opts) -> Report {
    let systems = system_columns(opts);
    let mut columns: Vec<String> = systems.iter().map(|(n, _)| n.clone()).collect();
    columns.push("paper-DCD".into());
    let mut rows = Vec::new();

    let mut push_rows = |query: &str, program: &Program, probe: &str, dss: Vec<Dataset>| {
        for ds in dss {
            let mut cells: Vec<String> = systems
                .iter()
                .map(|(_, c)| run_cell(program, &ds, probe, c.clone(), opts.reps).to_string())
                .collect();
            let paper_secs = paper::TABLE2
                .iter()
                .find(|r| r.query == query && r.dataset == ds.name)
                .map(|r| format!("{:.2}", r.dcdatalog))
                .unwrap_or_else(|| "-".into());
            cells.push(paper_secs);
            rows.push((format!("{query}/{}", ds.name), cells));
        }
    };

    push_rows(
        "SG",
        &queries::sg().unwrap(),
        "sg",
        datasets::sg_datasets(opts.scale),
    );
    push_rows(
        "Delivery",
        &queries::delivery().unwrap(),
        "results",
        datasets::delivery_datasets(opts.scale),
    );
    push_rows(
        "CC",
        &queries::cc().unwrap(),
        "cc",
        datasets::cc_datasets(opts.scale),
    );
    push_rows(
        "SSSP",
        &queries::sssp(0).unwrap(),
        "results",
        datasets::sssp_datasets(opts.scale),
    );
    for (ds, n) in datasets::pagerank_datasets(opts.scale) {
        let program = queries::pagerank(0.85, n).unwrap();
        let mut cells: Vec<String> = systems
            .iter()
            .map(|(_, c)| {
                let mut c = c.clone();
                c.sum_epsilon = 1e-7;
                run_cell(&program, &ds, "results", c, opts.reps).to_string()
            })
            .collect();
        let paper_secs = paper::TABLE2
            .iter()
            .find(|r| r.query == "PageRank" && r.dataset == ds.name)
            .map(|r| format!("{:.2}", r.dcdatalog))
            .unwrap_or_else(|| "-".into());
        cells.push(paper_secs);
        rows.push((format!("PageRank/{}", ds.name), cells));
    }

    Report {
        title: format!(
            "Table 2: end-to-end query time, scale 1/{} (seconds)",
            opts.scale
        ),
        columns,
        rows,
        note: "paper-DCD is the paper's DCDatalog column (32-core server, full-size data)".into(),
    }
}

/// Table 3 — APSP: partition-pair routing vs broadcast.
pub fn tab3(opts: &Opts) -> Report {
    let program = queries::apsp().unwrap();
    let mut broadcast = cfg(opts, Strategy::Dws);
    broadcast.broadcast_routing = true;
    let mut rows = Vec::new();
    for ds in datasets::apsp_datasets(opts.apsp_max) {
        let dcd = run_cell(&program, &ds, "apsp", cfg(opts, Strategy::Dws), opts.reps);
        let bc = run_cell(&program, &ds, "apsp", broadcast.clone(), opts.reps);
        let paper_row = paper::TABLE3.iter().find(|(n, ..)| *n == ds.name);
        let paper_dcd = paper_row
            .map(|(_, d, ..)| format!("{d:.2}"))
            .unwrap_or("-".into());
        let paper_other = paper_row
            .and_then(|(_, _, s, d)| s.or(*d))
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "OOM".into());
        rows.push((
            ds.name.to_string(),
            vec![dcd.to_string(), bc.to_string(), paper_dcd, paper_other],
        ));
    }
    Report {
        title: "Table 3: APSP (non-linear), two-partition routing vs broadcast (seconds)".into(),
        columns: vec![
            "DCD(DWS)".into(),
            "Bcast".into(),
            "paper-DCD".into(),
            "paper-best-other".into(),
        ],
        rows,
        note: "shape: broadcast should lose by a growing factor and blow up first".into(),
    }
}

/// Table 4 — effect of the §6.2 optimizations on CC and SSSP.
pub fn tab4(opts: &Opts) -> Report {
    let mut rows = Vec::new();
    let cases: Vec<(&str, Program, &str, Vec<Dataset>)> = vec![
        (
            "CC",
            queries::cc().unwrap(),
            "cc",
            datasets::cc_datasets(opts.scale),
        ),
        (
            "SSSP",
            queries::sssp(0).unwrap(),
            "results",
            datasets::sssp_datasets(opts.scale),
        ),
    ];
    for (query, program, probe, dss) in cases {
        for ds in dss {
            let with = run_cell(&program, &ds, probe, cfg(opts, Strategy::Dws), opts.reps);
            let without = run_cell(
                &program,
                &ds,
                probe,
                cfg(opts, Strategy::Dws).optimizations(false),
                opts.reps,
            );
            let paper_row = paper::TABLE4
                .iter()
                .find(|(q, d, ..)| *q == query && *d == ds.name);
            let paper_ratio = paper_row
                .map(|(_, _, wo, w)| format!("{:.2}x", wo / w))
                .unwrap_or("-".into());
            let ratio = match (without.secs(), with.secs()) {
                (Some(a), Some(b)) if b > 0.0 => format!("{:.2}x", a / b),
                _ => "-".into(),
            };
            rows.push((
                format!("{query}/{}", ds.name),
                vec![without.to_string(), with.to_string(), ratio, paper_ratio],
            ));
        }
    }
    Report {
        title: "Table 4: effect of §6.2 optimizations (seconds)".into(),
        columns: vec![
            "w/o".into(),
            "w/".into(),
            "speedup".into(),
            "paper-speedup".into(),
        ],
        rows,
        note: "paper reports 1.86x–2.91x gains".into(),
    }
}

/// Figure 8 — coordination-strategy ablation on CC and SSSP.
///
/// Parallel coordination effects cannot be observed with real threads on
/// a single-core host, so the primary columns replay the schedules in the
/// deterministic scheduler simulator with `opts.sim_workers` workers; the
/// last three columns ground the table with the real engine's wall time
/// under each strategy at `opts.workers` threads.
pub fn fig8(opts: &Opts) -> Report {
    use dcd_runtime::simulator::SimWorkload;
    let sim_cfg = SimConfig::realistic();
    let strategies = [
        ("Global", SimStrategy::Global),
        ("SSP(5)", SimStrategy::Ssp(5)),
        ("DWS", SimStrategy::DwsAuto),
    ];
    let real = [Strategy::Global, Strategy::Ssp { s: 5 }, Strategy::Dws];
    let mut rows = Vec::new();
    for (name, edges) in datasets::webgraphs(opts.scale) {
        // CC row: simulated schedule lengths + real seconds.
        let sym: Vec<(u64, u64)> = dcd_datagen::symmetrize(&edges)
            .iter()
            .map(|&(a, b)| (a as u64, b as u64))
            .collect();
        let mut cells: Vec<String> = strategies
            .iter()
            .map(|(_, strat)| {
                // `cc_partitioned` resymmetrizes, so feed directed edges.
                let w = SimWorkload::cc_partitioned(&sym, opts.sim_workers);
                simulate(&w, &sim_cfg, *strat).makespan.to_string()
            })
            .collect();
        let ds = Dataset {
            name,
            loads: vec![(
                "arc".into(),
                sym.iter()
                    .map(|&(a, b)| dcd_common::Tuple::from_ints(&[a as i64, b as i64]))
                    .collect(),
            )],
        };
        let program = queries::cc().unwrap();
        cells.extend(real.iter().map(|strat| {
            run_cell(&program, &ds, "cc", cfg(opts, strat.clone()), opts.reps).to_string()
        }));
        rows.push((format!("CC/{name}"), cells));
    }
    for (name, edges) in datasets::webgraphs(opts.scale) {
        let wedges: Vec<(u64, u64, u64)> = dcd_datagen::weighted(&edges, 100, datasets::SEED)
            .iter()
            .map(|&(a, b, w)| (a as u64, b as u64, w as u64))
            .collect();
        let source = wedges.first().map(|&(a, _, _)| a).unwrap_or(0);
        let mut cells: Vec<String> = strategies
            .iter()
            .map(|(_, strat)| {
                let w = SimWorkload::sssp_partitioned(&wedges, source, opts.sim_workers);
                simulate(&w, &sim_cfg, *strat).makespan.to_string()
            })
            .collect();
        let ds = Dataset {
            name,
            loads: vec![(
                "warc".into(),
                wedges
                    .iter()
                    .map(|&(a, b, w)| dcd_common::Tuple::from_ints(&[a as i64, b as i64, w as i64]))
                    .collect(),
            )],
        };
        let program = queries::sssp(source as i64).unwrap();
        cells.extend(real.iter().map(|strat| {
            run_cell(
                &program,
                &ds,
                "results",
                cfg(opts, strat.clone()),
                opts.reps,
            )
            .to_string()
        }));
        rows.push((format!("SSSP/{name}"), cells));
    }
    let (g, s, d) = paper::FIG8_SSSP_LJ;
    Report {
        title: format!(
            "Figure 8: coordination strategies — simulated ticks ({} workers) + real seconds ({} threads)",
            opts.sim_workers, opts.workers
        ),
        columns: vec![
            "Global-sim".into(),
            "SSP-sim".into(),
            "DWS-sim".into(),
            "Global-real(s)".into(),
            "SSP-real(s)".into(),
            "DWS-real(s)".into(),
        ],
        rows,
        note: format!("paper SSSP/LiveJournal: Global {g}, SSP {s}, DWS {d} (seconds, 32 cores)"),
    }
}

/// Figure 9(a) — thread scaling.
///
/// Simulated makespans over a worker ladder (real threads cannot speed up
/// on a single-core host), plus the real single-host CC and Delivery
/// seconds for grounding.
pub fn fig9a(opts: &Opts) -> Report {
    use dcd_runtime::simulator::SimWorkload;
    let threads: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&t| t <= opts.sim_workers.max(8) * 4)
        .collect();
    let sim_cfg = SimConfig::default();
    // (The clean model keeps the scaling curve noise-free; fig8 uses the
    // realistic model to expose coordination costs.)
    let dws = SimStrategy::DwsAuto;
    let mut rows = Vec::new();

    let lj: Vec<(u64, u64)> = dcd_datagen::symmetrize(&datasets::webgraphs(opts.scale)[0].1)
        .iter()
        .map(|&(a, b)| (a as u64, b as u64))
        .collect();
    let mut base = None;
    let cc_cells: Vec<String> = threads
        .iter()
        .map(|&t| {
            let m = simulate(&SimWorkload::cc_partitioned(&lj, t), &sim_cfg, dws).makespan;
            let b = *base.get_or_insert(m);
            format!("{m} ({:.1}x)", b as f64 / m as f64)
        })
        .collect();
    rows.push(("CC/LiveJournal (sim)".into(), cc_cells));

    let arabic: Vec<(u64, u64, u64)> =
        dcd_datagen::weighted(&datasets::webgraphs(opts.scale)[2].1, 100, datasets::SEED)
            .iter()
            .map(|&(a, b, w)| (a as u64, b as u64, w as u64))
            .collect();
    let source = arabic.first().map(|&(a, _, _)| a).unwrap_or(0);
    let mut base = None;
    let sssp_cells: Vec<String> = threads
        .iter()
        .map(|&t| {
            let m = simulate(
                &SimWorkload::sssp_partitioned(&arabic, source, t),
                &sim_cfg,
                dws,
            )
            .makespan;
            let b = *base.get_or_insert(m);
            format!("{m} ({:.1}x)", b as f64 / m as f64)
        })
        .collect();
    rows.push(("SSSP/Arabic (sim)".into(), sssp_cells));

    // Real engine rows: CC on LiveJournal and Delivery on the largest
    // N-tree, across real thread counts (flat on a single-core host —
    // recorded for honesty).
    let real_cells = |program: &Program, ds: &Dataset, probe: &str| -> Vec<String> {
        threads
            .iter()
            .map(|&t| {
                let mut c = EngineConfig::with_workers(t).strategy(Strategy::Dws);
                c.timeout = Some(opts.timeout);
                run_cell(program, ds, probe, c, opts.reps).to_string()
            })
            .collect()
    };
    let cc = datasets::cc_datasets(opts.scale)
        .into_iter()
        .next()
        .expect("LiveJournal dataset");
    rows.push((
        "CC/LiveJournal (real s)".into(),
        real_cells(&queries::cc().unwrap(), &cc, "cc"),
    ));
    let delivery = datasets::delivery_datasets(opts.scale)
        .into_iter()
        .nth(3)
        .expect("N-300M dataset");
    rows.push((
        "Delivery/N-300M (real s)".into(),
        real_cells(&queries::delivery().unwrap(), &delivery, "results"),
    ));

    Report {
        title: "Figure 9(a): worker scaling — simulated makespan (speedup)".into(),
        columns: threads.iter().map(|t| format!("{t} thr")).collect(),
        rows,
        note: format!(
            "host has {} core(s): real rows stay flat, simulated rows carry the scaling shape",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ),
    }
}

/// Figure 9(b) — data scaling.
pub fn fig9b(opts: &Opts) -> Report {
    let ladder = datasets::scaling_datasets(opts.scale);
    let mut rows = Vec::new();
    let mut cc_cells = Vec::new();
    let mut sssp_cells = Vec::new();
    for (_, edges) in &ladder {
        let cc_ds = Dataset {
            name: "scaling",
            loads: vec![(
                "arc".into(),
                dcd_datagen::symmetrize(edges)
                    .iter()
                    .map(|&(a, b)| dcd_common::Tuple::from_ints(&[a, b]))
                    .collect(),
            )],
        };
        cc_cells.push(
            run_cell(
                &queries::cc().unwrap(),
                &cc_ds,
                "cc",
                cfg(opts, Strategy::Dws),
                opts.reps,
            )
            .to_string(),
        );
        let sssp_ds = Dataset {
            name: "scaling",
            loads: vec![(
                "warc".into(),
                dcd_datagen::weighted(edges, 100, datasets::SEED)
                    .iter()
                    .map(|&(a, b, w)| dcd_common::Tuple::from_ints(&[a, b, w]))
                    .collect(),
            )],
        };
        sssp_cells.push(
            run_cell(
                &queries::sssp(0).unwrap(),
                &sssp_ds,
                "results",
                cfg(opts, Strategy::Dws),
                opts.reps,
            )
            .to_string(),
        );
    }
    rows.push(("CC".into(), cc_cells));
    rows.push(("SSSP".into(), sssp_cells));
    // Delivery scales over N-trees of the same ladder sizes.
    let mut delivery_cells = Vec::new();
    for ds in datasets::delivery_datasets(opts.scale) {
        delivery_cells.push(
            run_cell(
                &queries::delivery().unwrap(),
                &ds,
                "results",
                cfg(opts, Strategy::Dws),
                opts.reps,
            )
            .to_string(),
        );
    }
    delivery_cells.push("-".into());
    rows.push(("Delivery (N-40M..300M)".into(), delivery_cells));
    Report {
        title: "Figure 9(b): data scaling (seconds)".into(),
        columns: ladder.iter().map(|(n, _)| n.clone()).collect(),
        rows,
        note: "paper: time grows proportionally with data (CC 12.4→158.8s over 16x)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 200_000,
            workers: 2,
            timeout: Duration::from_secs(30),
            reps: 1,
            apsp_max: 256,
            sim_workers: 4,
        }
    }

    #[test]
    fn fig3_report_is_deterministic_and_ordered() {
        let r = fig3(&tiny_opts());
        let sim: Vec<u64> = r.rows[0].1.iter().map(|c| c.parse().unwrap()).collect();
        assert!(sim[2] < sim[1] && sim[1] < sim[0], "{sim:?}");
    }

    #[test]
    fn fig1_runs_at_tiny_scale() {
        let r = fig1(&tiny_opts());
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].1.len(), 5);
        // All five systems should complete at this scale.
        for cell in &r.rows[0].1 {
            assert!(cell.parse::<f64>().is_ok(), "cell {cell}");
        }
    }

    #[test]
    fn tab3_runs_at_tiny_scale() {
        // Debug builds are ~50x slower than release; a short timeout keeps
        // the test fast and `TO` is then a legitimate cell value.
        let mut opts = tiny_opts();
        opts.timeout = Duration::from_secs(10);
        let r = tab3(&opts);
        assert_eq!(r.rows.len(), 1, "apsp_max=256 keeps one row");
        let cell = &r.rows[0].1[0];
        assert!(
            cell.parse::<f64>().is_ok() || cell == "TO",
            "unexpected cell {cell}"
        );
    }
}
