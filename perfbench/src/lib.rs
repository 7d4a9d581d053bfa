//! The repository benchmark for DCDatalog: end-to-end query time on TC,
//! SSSP and APSP through the public API (`Program::parse` →
//! `Engine::new` → `Engine::load_edb` → `Engine::run`), and a traced
//! per-layer ledger. See `README.md` beside this crate.

pub mod ledger;
pub mod measure;
pub mod stats;
pub mod workload;

/// A reported metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced pass (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("run_s", "s", "lower"),
    def("run_s.1w", "s", "lower"),
    def("fixpoint_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("rows_per_s", "1/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Metrics of the traced pass (`--trace 1`), grouped by layer.
pub const PER_LAYER: &[MetricDef] = &[
    def("frontend.parse_ms", "ms", "lower"),
    def("frontend.plan_ms", "ms", "lower"),
    def("load.ms", "ms", "lower"),
    def("load.rows", "count", "lower"),
    def("catalog.seal_ms", "ms", "lower"),
    def("catalog.replicated_bytes", "bytes", "lower"),
    def("catalog.partitioned_bytes", "bytes", "lower"),
    def("store.build_ms", "ms", "lower"),
    def("store.merge_new_ns_per_row", "ns/row", "lower"),
    def("store.merge_dup_ns_per_row", "ns/row", "lower"),
    def("merge.inbound_ms", "ms", "lower"),
    def("merge.local_ms", "ms", "lower"),
    def("merge.local_new", "count", "lower"),
    def("merge.inbound_new_ratio", "ratio", "higher"),
    def("merge.stored_per_result_row", "ratio", "lower"),
    def("merge.cache_hit_rate", "ratio", "higher"),
    def("eval.busy_ms", "ms", "lower"),
    def("eval.kernel_rows", "count", "lower"),
    def("eval.kernel_batches", "count", "lower"),
    def("eval.ns_per_row", "ns/row", "lower"),
    def("eval.probe_reuse_ratio", "ratio", "higher"),
    def("exchange.distribute_ms", "ms", "lower"),
    def("exchange.backpressure_retries", "count", "lower"),
    def("exchange.tuples_sent", "count", "lower"),
    def("exchange.bytes_sent", "bytes", "lower"),
    def("exchange.batches_out", "count", "lower"),
    def("exchange.tuples_per_batch", "count", "higher"),
    def("exchange.sent_per_result_row", "ratio", "lower"),
    def("coord.gather_ms", "ms", "lower"),
    def("coord.idle_ms", "ms", "lower"),
    def("coord.iterations", "count", "lower"),
    def("coord.termination_rounds", "count", "lower"),
    def("coord.imbalance", "ratio", "lower"),
    def("coord.idle_fraction", "ratio", "lower"),
    def("dws.decisions", "count", "lower"),
    def("dws.omega_nonzero_frac", "ratio", "higher"),
    def("collect.ms", "ms", "lower"),
    def("trace.coverage", "ratio", "higher"),
    def("trace.overhead_frac", "ratio", "lower"),
    def("trace.dropped_events", "count", "lower"),
];

/// Per-layer times printed in the table but kept out of the JSON result:
/// on the benchmark workloads no queue fills and DWS never waits, so they
/// read 0 on every run, and a time that never changes is not a
/// measurement. `exchange.backpressure_retries` and
/// `dws.omega_nonzero_frac` carry the same signal as counts.
pub const PRINTED_ONLY: &[MetricDef] = &[
    def("exchange.backpressure_ms", "ms", "lower"),
    def("coord.omega_wait_ms", "ms", "lower"),
];

/// Process high-water resident set size in MB (`VmHWM`; 0.0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(refname)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
