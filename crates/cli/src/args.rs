//! Hand-rolled argument parsing (the workspace stays dependency-light).

use dcd_common::{DcdError, Result, Value};
use dcd_runtime::Strategy;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Which subcommand to run.
    pub command: Command,
    /// Path to the Datalog program.
    pub program: String,
    /// `--edb name=path` loads.
    pub edb: Vec<(String, String)>,
    /// `--param name=value` bindings.
    pub params: Vec<(String, Value)>,
    /// `--workers N`.
    pub workers: Option<usize>,
    /// `--strategy global|ssp:N|dws`.
    pub strategy: Strategy,
    /// `--timeout SECS`.
    pub timeout: Option<Duration>,
    /// `--print rel` (default: every derived relation).
    pub print: Vec<String>,
    /// `--limit N` rows printed per relation (default 20; 0 = all).
    pub limit: usize,
    /// `--no-optimizations` (Table-4 ablation switch: aggregate index +
    /// sent-filter).
    pub optimized: bool,
    /// `--stats-json PATH` writes the per-worker observability report
    /// (`-` = stdout).
    pub stats_json: Option<String>,
    /// `--trace-json PATH` enables per-worker event tracing and writes
    /// the Chrome/Perfetto timeline (`-` = stdout).
    pub trace_json: Option<String>,
}

/// Subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Evaluate the program and print results.
    Run,
    /// Print the physical plan and exit.
    Explain,
    /// Replay the Figure-3 schedule simulator (no program needed).
    Simulate,
}

/// Usage text.
pub const USAGE: &str = "\
usage: dcdatalog <run|explain> <program.dl> [options]
       dcdatalog simulate [options]

options:
  --edb NAME=PATH       load a base relation from a delimited file
                        (whitespace/comma/tab separated; ints or floats);
                        repeatable
  --param NAME=VALUE    bind a program parameter (int or float); repeatable
  --workers N           worker threads (default: available parallelism)
  --strategy S          global | ssp:N | dws   (default dws)
  --timeout SECS        abort evaluation after SECS seconds
  --print REL           print only this relation (repeatable; default all)
  --limit N             max rows printed per relation (default 20; 0 = all)
  --no-optimizations    disable the aggregate index + sent-filter
                        (the paper's Table-4 ablation)
  --stats-json PATH     write the per-worker observability report (counters,
                        time splits, DWS ω/τ samples, per-iteration series)
                        as JSON; '-' = stdout
  --trace-json PATH     record per-worker phase spans and export a
                        Chrome/Perfetto timeline (one track per worker plus
                        the DWS controller); '-' = stdout. With 'simulate',
                        exports the abstract-tick schedule in the same
                        schema, so real and simulated runs open side by side

simulate replays the paper's Figure-3 workload through the deterministic
cost-model simulator under --strategy and prints the schedule summary.
";

fn err(msg: impl Into<String>) -> DcdError {
    DcdError::Execution(msg.into())
}

fn parse_value(s: &str) -> Result<Value> {
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    s.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| err(format!("'{s}' is neither an integer nor a float")))
}

fn split_kv(arg: &str, flag: &str) -> Result<(String, String)> {
    match arg.split_once('=') {
        Some((k, v)) if !k.is_empty() && !v.is_empty() => Ok((k.to_string(), v.to_string())),
        _ => Err(err(format!("{flag} expects NAME=VALUE, got '{arg}'"))),
    }
}

impl Cli {
    /// Parses `args` (without the executable name).
    pub fn parse(args: &[String]) -> Result<Cli> {
        let mut it = args.iter().peekable();
        let command = match it.next().map(|s| s.as_str()) {
            Some("run") => Command::Run,
            Some("explain") => Command::Explain,
            Some("simulate") => Command::Simulate,
            Some("--help") | Some("-h") | None => {
                return Err(err(USAGE));
            }
            Some(other) => return Err(err(format!("unknown command '{other}'\n{USAGE}"))),
        };
        let program = if command == Command::Simulate {
            String::new() // the simulator carries its own workload
        } else {
            it.next()
                .ok_or_else(|| err(format!("missing program path\n{USAGE}")))?
                .clone()
        };
        let mut cli = Cli {
            command,
            program,
            edb: Vec::new(),
            params: Vec::new(),
            workers: None,
            strategy: Strategy::Dws,
            timeout: None,
            print: Vec::new(),
            limit: 20,
            optimized: true,
            stats_json: None,
            trace_json: None,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| err(format!("{name} needs an argument")))
            };
            match flag.as_str() {
                "--edb" => {
                    let (k, v) = split_kv(&value("--edb")?, "--edb")?;
                    cli.edb.push((k, v));
                }
                "--param" => {
                    let (k, v) = split_kv(&value("--param")?, "--param")?;
                    cli.params.push((k, parse_value(&v)?));
                }
                "--workers" => {
                    cli.workers = Some(
                        value("--workers")?
                            .parse()
                            .map_err(|_| err("--workers expects a number"))?,
                    );
                }
                "--strategy" => {
                    let v = value("--strategy")?;
                    cli.strategy = match v.as_str() {
                        "global" => Strategy::Global,
                        "dws" => Strategy::Dws,
                        other => match other.strip_prefix("ssp:") {
                            Some(n) => Strategy::Ssp {
                                s: n.parse().map_err(|_| {
                                    err("--strategy ssp:N expects a number after ':'")
                                })?,
                            },
                            None => {
                                return Err(err(format!(
                                    "unknown strategy '{other}' (global | ssp:N | dws)"
                                )))
                            }
                        },
                    };
                }
                "--timeout" => {
                    cli.timeout = Some(Duration::from_secs(
                        value("--timeout")?
                            .parse()
                            .map_err(|_| err("--timeout expects seconds"))?,
                    ));
                }
                "--print" => cli.print.push(value("--print")?),
                "--limit" => {
                    cli.limit = value("--limit")?
                        .parse()
                        .map_err(|_| err("--limit expects a number"))?;
                }
                "--no-optimizations" => cli.optimized = false,
                "--stats-json" => cli.stats_json = Some(value("--stats-json")?),
                "--trace-json" => cli.trace_json = Some(value("--trace-json")?),
                other => return Err(err(format!("unknown option '{other}'\n{USAGE}"))),
            }
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Cli> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Cli::parse(&v)
    }

    #[test]
    fn minimal_run() {
        let c = parse(&["run", "p.dl"]).unwrap();
        assert_eq!(c.command, Command::Run);
        assert_eq!(c.program, "p.dl");
        assert_eq!(c.strategy.name(), "DWS");
        assert!(c.optimized);
    }

    #[test]
    fn full_flag_set() {
        let c = parse(&[
            "run",
            "p.dl",
            "--edb",
            "arc=edges.csv",
            "--edb",
            "warc=w.tsv",
            "--param",
            "start=5",
            "--param",
            "alpha=0.85",
            "--workers",
            "8",
            "--strategy",
            "ssp:3",
            "--timeout",
            "60",
            "--print",
            "tc",
            "--limit",
            "0",
            "--no-optimizations",
            "--stats-json",
            "stats.json",
            "--trace-json",
            "trace.json",
        ])
        .unwrap();
        assert_eq!(c.edb.len(), 2);
        assert_eq!(c.params[0], ("start".into(), Value::Int(5)));
        assert_eq!(c.params[1], ("alpha".into(), Value::Float(0.85)));
        assert_eq!(c.workers, Some(8));
        assert_eq!(c.strategy.name(), "SSP");
        assert_eq!(c.timeout, Some(Duration::from_secs(60)));
        assert_eq!(c.print, vec!["tc"]);
        assert_eq!(c.limit, 0);
        assert!(!c.optimized);
        assert_eq!(c.stats_json.as_deref(), Some("stats.json"));
        assert_eq!(c.trace_json.as_deref(), Some("trace.json"));
    }

    #[test]
    fn simulate_needs_no_program() {
        let c = parse(&["simulate", "--strategy", "global"]).unwrap();
        assert_eq!(c.command, Command::Simulate);
        assert!(c.program.is_empty());
        assert_eq!(c.strategy.name(), "Global");
        let c = parse(&["simulate", "--trace-json", "sim.json"]).unwrap();
        assert_eq!(c.trace_json.as_deref(), Some("sim.json"));
    }

    #[test]
    fn explain_command() {
        assert_eq!(
            parse(&["explain", "p.dl"]).unwrap().command,
            Command::Explain
        );
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&[]).unwrap_err().to_string().contains("usage"));
        assert!(parse(&["frobnicate", "p.dl"])
            .unwrap_err()
            .to_string()
            .contains("unknown command"));
        assert!(parse(&["run"])
            .unwrap_err()
            .to_string()
            .contains("missing program"));
        assert!(parse(&["run", "p.dl", "--edb", "nope"])
            .unwrap_err()
            .to_string()
            .contains("NAME=VALUE"));
        assert!(parse(&["run", "p.dl", "--strategy", "magic"])
            .unwrap_err()
            .to_string()
            .contains("unknown strategy"));
        assert!(parse(&["run", "p.dl", "--param", "x=abc"])
            .unwrap_err()
            .to_string()
            .contains("neither an integer"));
    }
}
