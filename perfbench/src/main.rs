//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <tc-rmat|sssp-web|apsp-rmat> [--seed N] [--seconds S]
//!           [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger. Standard output ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
//! The expected answer is computed once, in a child process (so its memory
//! stays out of `peak_rss_mb`), before anything is timed.

use dcd_bench::datasets::SEED;
use perfbench::measure::{end_to_end, layers, Outcome};
use perfbench::stats::failed_frac;
use perfbench::workload::{Answer, Workload, NAMES};
use perfbench::{git_commit, MetricDef, END_TO_END, PER_LAYER, PRINTED_ONLY};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    answer: bool,
    trace_out: Option<String>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: SEED,
        seconds: 10.0,
        trace: false,
        answer: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--answer" {
            args.answer = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = parse_u64(&val)?,
            "--seconds" => args.seconds = val.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => args.trace = val == "1",
            "--trace-out" => args.trace_out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Computes the expected answer in a child process and parses its
/// `rows hash` line.
fn expected_in_child(args: &Args) -> Result<Answer, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--answer", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()]);
    let out = cmd.output().map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "oracle process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut parts = text.split_whitespace().map(parse_u64);
    match (parts.next(), parts.next()) {
        (Some(Ok(rows)), Some(Ok(hash))) => Ok(Answer {
            rows: rows as usize,
            hash,
        }),
        _ => Err(format!("oracle process printed {text:?}")),
    }
}

/// A finite JSON number with every digit Rust keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(defs: &[MetricDef], o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = o
            .metrics
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(*v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = Workload::by_name(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "--workload must be one of {NAMES:?}, got {:?}",
            args.workload
        )
    })?;
    let inputs = w.inputs();
    if args.answer {
        let a = w.engine_answer(inputs).map_err(|e| e.to_string())?;
        println!("{} {}", a.rows, a.hash);
        return Ok(());
    }
    let want = expected_in_child(&args)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (defs, outcome) = if args.trace {
        (PER_LAYER, layers(&w, &inputs, want, args.seconds, nproc))
    } else {
        (
            END_TO_END,
            end_to_end(&w, &inputs, want, args.seconds, nproc),
        )
    };
    let outcome = outcome.map_err(|e| e.to_string())?;

    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"size\": {}, \"nproc\": {nproc}, \
         \"workers\": [{nproc}, 1], \"strategy\": \"DWS\", \"input_rows\": {}, \
         \"result_rows\": {}, \"oracle\": \"1-worker engine\", \"commit\": \"{}\", \"trace\": {}}}",
        w.name(),
        w.seed,
        w.size,
        inputs.len(),
        want.rows,
        git_commit(),
        u8::from(args.trace)
    );
    let printed_only = if args.trace { PRINTED_ONLY } else { &[] };
    for d in defs.iter().chain(printed_only) {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(f64::NAN);
        println!("  {:<32} {:>16.6} {}", d.name, v, d.unit);
    }
    let t = &outcome.tally;
    println!(
        "  {:<32} {:>16.6} ratio ({} of {} runs)",
        "failed_frac",
        failed_frac(t.failed, t.attempted),
        t.failed,
        t.attempted
    );
    if let Some(f) = &t.first_failure {
        println!("  first failure: {f}");
    }
    if let (Some(path), Some(rep)) = (&args.trace_out, &outcome.traced_report) {
        std::fs::write(path, rep.trace_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result_line(defs, &outcome)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
