//! Orchestrates a CLI invocation: parse program, load data, run, print.

use crate::args::{Cli, Command};
use crate::loader::load_file;
use dcd_common::Result;
use dcd_runtime::simulator::{figure3_workload, simulate, SimConfig, SimStrategy};
use dcd_runtime::Strategy;
use dcdatalog::{Engine, EngineConfig, Program};
use std::io::Write;
use std::path::Path;

/// Writes a JSON document to `path` (`-` = the CLI's output stream).
fn write_json(out: &mut impl Write, path: &str, json: &str, what: &str) -> Result<()> {
    if path == "-" {
        let _ = out.write_all(json.as_bytes());
    } else {
        std::fs::write(path, json)
            .map_err(|e| dcd_common::DcdError::Execution(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "wrote {what} to {path}");
    }
    Ok(())
}

/// `simulate`: replay the Figure-3 workload through the deterministic
/// cost-model simulator under the selected strategy.
fn run_simulate(cli: &Cli, out: &mut impl Write) -> Result<()> {
    let strat = match cli.strategy {
        Strategy::Global => SimStrategy::Global,
        Strategy::Ssp { s } => SimStrategy::Ssp(s as u64),
        _ => SimStrategy::DwsAuto,
    };
    let rep = simulate(&figure3_workload(), &SimConfig::default(), strat);
    let _ = writeln!(
        out,
        "simulated {} schedule of the Figure-3 workload ({} workers):",
        rep.strategy,
        rep.iterations.len()
    );
    let _ = writeln!(out, "  makespan: {} ticks", rep.makespan);
    let _ = writeln!(out, "  local iterations per worker: {:?}", rep.iterations);
    let _ = writeln!(out, "  tuples exchanged: {}", rep.messages);
    if let Some(path) = &cli.trace_json {
        write_json(out, path, &rep.trace_json(), "simulated trace")?;
    }
    Ok(())
}

/// Executes the parsed CLI against `out` (stdout in `main`).
pub fn run_cli(cli: &Cli, out: &mut impl Write) -> Result<()> {
    if cli.command == Command::Simulate {
        return run_simulate(cli, out);
    }
    let src = std::fs::read_to_string(&cli.program).map_err(|e| {
        dcd_common::DcdError::Execution(format!("cannot read '{}': {e}", cli.program))
    })?;
    let mut program = Program::parse(&src)?;
    for (name, value) in &cli.params {
        program = program.with_param(name, *value);
    }
    let mut cfg = EngineConfig::default();
    if let Some(w) = cli.workers {
        cfg.workers = w.max(1);
    }
    cfg.strategy = cli.strategy.clone();
    cfg.timeout = cli.timeout;
    cfg.optimized = cli.optimized;
    cfg.trace = cli.trace_json.is_some();

    let mut engine = Engine::new(program, cfg)?;
    if cli.command == Command::Explain {
        let _ = writeln!(out, "{}", engine.explain());
        return Ok(());
    }
    for (name, path) in &cli.edb {
        let rows = load_file(Path::new(path))?;
        engine.load_edb(name, rows)?;
    }
    let result = engine.run()?;
    let names: Vec<String> = if cli.print.is_empty() {
        result
            .relation_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        cli.print.clone()
    };
    for name in names {
        let rows = result.sorted(&name);
        let _ = writeln!(out, "{name} ({} rows):", rows.len());
        let shown = if cli.limit == 0 {
            rows.len()
        } else {
            cli.limit
        };
        for row in rows.iter().take(shown) {
            let _ = writeln!(out, "  {name}{row}");
        }
        if rows.len() > shown {
            let _ = writeln!(out, "  … {} more", rows.len() - shown);
        }
    }
    let _ = writeln!(
        out,
        "done in {:?} ({} local iterations, {} tuples exchanged)",
        result.stats.elapsed,
        result.stats.report.total(|w| w.iterations),
        result.stats.report.total(|w| w.tuples_sent)
    );
    if let Some(path) = &cli.stats_json {
        write_json(out, path, &result.stats.report.to_json(), "stats")?;
    }
    if let Some(path) = &cli.trace_json {
        write_json(out, path, &result.stats.report.trace_json(), "trace")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dcd_cli_run_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write(dir: &Path, name: &str, content: &str) -> String {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p.display().to_string()
    }

    fn cli(words: Vec<String>) -> Cli {
        Cli::parse(&words).unwrap()
    }

    #[test]
    fn end_to_end_tc_run() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "tc.dl",
            "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y).\n",
        );
        let edges = write(&dir, "edges.csv", "1,2\n2,3\n");
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("arc={edges}"),
            "--workers".into(),
            "2".into(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tc (3 rows):"), "{text}");
        assert!(text.contains("tc(1, 3)"), "{text}");
        assert!(text.contains("done in"), "{text}");
    }

    #[test]
    fn timeout_beyond_the_clock_runs_without_a_deadline() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "tc_timeout.dl",
            "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y).\n",
        );
        let edges = write(&dir, "timeout_edges.csv", "1,2\n2,3\n");
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("arc={edges}"),
            "--timeout".into(),
            u64::MAX.to_string(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tc (3 rows):"), "{text}");
    }

    #[test]
    fn explain_prints_plan_without_data() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "tc2.dl",
            "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y).\n",
        );
        let c = cli(vec!["explain".into(), prog]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("stratum 0 (recursive)"), "{text}");
    }

    #[test]
    fn params_flow_through() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "sp.dl",
            "sp(To, min<C>) <- To = start, C = 0.
             sp(T2, min<C>) <- sp(T1, C1), warc(T1, T2, C2), C = C1 + C2.",
        );
        let w = write(&dir, "w.csv", "1 2 10\n2 3 4\n");
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("warc={w}"),
            "--param".into(),
            "start=1".into(),
            "--limit".into(),
            "0".into(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("sp(3, 14)"), "{text}");
    }

    #[test]
    fn inline_facts_need_no_edb_file() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "reach.dl",
            "start(1).\nreach(X) <- start(X).\nreach(Y) <- reach(X), e(X, Y).\n",
        );
        let edges = write(&dir, "reach_e.csv", "1,2\n2,3\n");
        for workers in ["1", "2"] {
            let c = cli(vec![
                "run".into(),
                prog.clone(),
                "--edb".into(),
                format!("e={edges}"),
                "--workers".into(),
                workers.into(),
            ]);
            let mut out = Vec::new();
            run_cli(&c, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("reach (3 rows):"), "{text}");
            for x in 1..=3 {
                assert!(text.contains(&format!("reach({x})")), "{text}");
            }
        }
    }

    #[test]
    fn limit_truncates_output() {
        let dir = tmpdir();
        let prog = write(&dir, "t.dl", "t(X, Y) <- e(X, Y).");
        let rows: String = (0..30).map(|i| format!("{i},{}\n", i + 1)).collect();
        let data = write(&dir, "e.csv", &rows);
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("e={data}"),
            "--limit".into(),
            "5".into(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("… 25 more"), "{text}");
    }

    #[test]
    fn stats_json_goes_to_stdout_and_file() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "tc3.dl",
            "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y).\n",
        );
        let edges = write(&dir, "edges3.csv", "1,2\n2,3\n3,4\n");
        // stdout variant
        let c = cli(vec![
            "run".into(),
            prog.clone(),
            "--edb".into(),
            format!("arc={edges}"),
            "--workers".into(),
            "2".into(),
            "--stats-json".into(),
            "-".into(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema\": 7"), "{text}");
        assert!(text.contains("\"per_worker\""), "{text}");
        assert!(text.contains("\"exchanged_bytes\""), "{text}");
        assert!(text.contains("\"edb_resident_bytes\""), "{text}");
        assert!(text.contains("\"probe_hits\""), "{text}");
        assert!(text.contains("\"head_rows\""), "{text}");
        assert!(text.contains("\"stored_checks\""), "{text}");
        assert!(text.contains("\"rows_per_batch\""), "{text}");
        assert!(text.contains("\"dropped_events\""), "{text}");
        assert!(text.contains("\"iteration_series\""), "{text}");
        // file variant
        let path = dir.join("stats.json").display().to_string();
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("arc={edges}"),
            "--stats-json".into(),
            path.clone(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"produced\""), "{json}");
    }

    #[test]
    fn trace_json_enables_tracing_and_writes_perfetto_doc() {
        let dir = tmpdir();
        let prog = write(
            &dir,
            "tc4.dl",
            "tc(X, Y) <- arc(X, Y).\ntc(X, Y) <- tc(X, Z), arc(Z, Y).\n",
        );
        let rows: String = (0..60)
            .map(|i| format!("{},{}\n", i % 20, (i * 3 + 1) % 20))
            .collect();
        let edges = write(&dir, "edges4.csv", &rows);
        let path = dir.join("trace.json").display().to_string();
        let c = cli(vec![
            "run".into(),
            prog,
            "--edb".into(),
            format!("arc={edges}"),
            "--workers".into(),
            "2".into(),
            "--trace-json".into(),
            path.clone(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrote trace to"), "{text}");
        let doc = dcd_common::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!doc.get("traceEvents").unwrap().items().unwrap().is_empty());
        assert_eq!(
            doc.get("otherData").unwrap().get("clock").unwrap().as_str(),
            Some("ns")
        );
    }

    #[test]
    fn simulate_prints_schedule_and_exports_trace() {
        let dir = tmpdir();
        let path = dir.join("sim.json").display().to_string();
        let c = cli(vec![
            "simulate".into(),
            "--strategy".into(),
            "global".into(),
            "--trace-json".into(),
            path.clone(),
        ]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("simulated Global schedule"), "{text}");
        assert!(text.contains("makespan:"), "{text}");
        let doc = dcd_common::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("clock").unwrap().as_str(),
            Some("ticks")
        );
        // stdout variant, DWS
        let c = cli(vec!["simulate".into(), "--trace-json".into(), "-".into()]);
        let mut out = Vec::new();
        run_cli(&c, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
    }

    #[test]
    fn missing_program_file_errors_cleanly() {
        let c = cli(vec!["run".into(), "/nonexistent.dl".into()]);
        let mut out = Vec::new();
        let e = run_cli(&c, &mut out).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }
}
