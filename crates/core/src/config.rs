//! Engine configuration.

use dcd_runtime::Strategy;
use std::time::Duration;

/// Configuration for a DCDatalog evaluation.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of workers (threads). Defaults to available parallelism.
    pub workers: usize,
    /// Coordination strategy (§4): Global, SSP(s) or DWS.
    pub strategy: Strategy,
    /// Enable the §6.2 optimizations: aggregate index + sent-filter.
    /// Disabled for the Table-4 ablation.
    pub optimized: bool,
    /// Slots of the lossy sent-filter a worker's router holds per set head
    /// relation: it filters the rows outside the relation's bit matrix.
    pub cache_slots: usize,
    /// ε for `sum` aggregate convergence (PageRank).
    pub sum_epsilon: f64,
    /// Capacity (batches) of each SPSC queue.
    pub queue_capacity: usize,
    /// Max tuples per outgoing batch.
    pub batch_size: usize,
    /// Wall-clock evaluation timeout (`None` = unbounded). On expiry the
    /// run aborts with `DcdError::Timeout`, mirroring the paper's 10-hour
    /// cap (`TO` entries).
    pub timeout: Option<Duration>,
    /// Route every derived tuple to *all* workers instead of its hash
    /// partition(s). This emulates the broadcast behaviour the paper
    /// attributes to SociaLite/DDlog on non-linear queries (Table 3) and
    /// exists only as a comparison baseline.
    pub broadcast_routing: bool,
    /// Record per-worker phase spans and instant marks into bounded
    /// buffers (`dcd_runtime::Recorder`). Off by default: recording then
    /// costs one branch on a `false` flag per phase.
    pub trace: bool,
    /// Events retained per worker when tracing; overflow increments
    /// the worker's `dropped_events` counter instead of reallocating.
    pub trace_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            strategy: Strategy::Dws,
            optimized: true,
            cache_slots: 1 << 17,
            sum_epsilon: 1e-9,
            queue_capacity: 1 << 10,
            batch_size: 4096,
            timeout: None,
            broadcast_routing: false,
            trace: false,
            trace_capacity: dcd_runtime::trace::DEFAULT_TRACE_CAP,
        }
    }
}

impl EngineConfig {
    /// Convenience: config with `n` workers, defaults otherwise.
    pub fn with_workers(n: usize) -> Self {
        EngineConfig {
            workers: n.max(1),
            ..Default::default()
        }
    }

    /// Convenience: set the coordination strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Convenience: toggle the §6.2 optimizations.
    pub fn optimizations(mut self, on: bool) -> Self {
        self.optimized = on;
        self
    }

    /// Convenience: toggle per-worker event tracing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.workers >= 1);
        assert!(c.optimized);
        assert!(c.timeout.is_none());
        assert!(!c.trace, "tracing is opt-in");
        assert!(c.trace_capacity > 0);
        assert!(EngineConfig::default().tracing(true).trace);
    }

    #[test]
    fn builders() {
        let c = EngineConfig::with_workers(0);
        assert_eq!(c.workers, 1, "clamped to one worker");
        let c = EngineConfig::with_workers(3)
            .strategy(Strategy::Ssp { s: 5 })
            .optimizations(false);
        assert_eq!(c.workers, 3);
        assert_eq!(c.strategy.name(), "SSP");
        assert!(!c.optimized);
    }
}
