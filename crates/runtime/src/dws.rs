//! The Dynamic Weight-based Strategy controller (§4.2).
//!
//! Each worker owns a [`DwsController`] that models itself as a G/G/1
//! queue. Producers stamp batches with their send time; the consumer folds
//! per-source inter-arrival statistics `(λ_j, σ_a,j)`, aggregates them with
//! Equation (1), combines with its own service statistics `(μ, σ_s)`, and
//! sets
//!
//! * `ω_i = L_q` — Kingman's estimate of the mean queue length (Eq. 2),
//! * `τ_i = L_q / λ = ω_i / λ` — the mean waiting time,
//!
//! so the worker waits for tuples only when the queueing model predicts a
//! meaningful batch will form (Algorithm 2, lines 5–8), with a hard
//! timeout as deadlock avoidance.

use dcd_common::stats::Ewma;
use std::time::{Duration, Instant};

/// EWMA weight for arrival/service samples (non-stationary workload ⇒
/// favour recent samples).
const EWMA_ALPHA: f64 = 0.25;
/// Hard cap on `τ_i` — the deadlock-avoidance timeout of Alg. 2 l.7.
const MAX_WAIT: Duration = Duration::from_millis(2);
/// Cap on `ω_i` so a near-saturated queue (ρ → 1) cannot demand an
/// unbounded batch.
const MAX_OMEGA: usize = 1 << 16;
/// Minimum EWMA samples before an arrival track or the service estimator
/// is trusted. A single sample carries variance 0, which lets Kingman's
/// formula compute ρ and L_q from one observation — wildly unstable at
/// the start of a stratum.
const MIN_SAMPLES: u64 = 8;

/// Which gate, if any, held `ω` at 0 in the controller's last update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OmegaGate {
    /// No gate: `ω` is Kingman's `L_q`, rounded (which may be 0).
    #[default]
    None,
    /// No arrival track or the service estimator had `MIN_SAMPLES`
    /// samples yet (or nothing arrived since the last update).
    MinSamples,
    /// `ρ ≥ 1`: the queue is saturated, so waiting cannot pay off.
    Saturated,
}

impl OmegaGate {
    /// Label for the trace export.
    pub fn name(self) -> &'static str {
        match self {
            OmegaGate::None => "none",
            OmegaGate::MinSamples => "min_samples",
            OmegaGate::Saturated => "rho>=1",
        }
    }
}

/// What the controller saw at its last update: the queueing model behind
/// `ω` and `τ`. A rate the samples could not yet estimate is 0, and so
/// are `ρ` and `L_q` when either rate is.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DwsModel {
    /// Utilization `ρ = λ / μ`.
    pub rho: f64,
    /// Aggregate arrival rate `λ` (Eq. 1), tuples per second.
    pub lambda: f64,
    /// Service rate `μ`, tuples per second.
    pub mu: f64,
    /// Kingman's mean queue length `L_q` (Eq. 2), before rounding and
    /// the `MAX_OMEGA` cap.
    pub lq: f64,
    /// The gate that held `ω` at 0, if any.
    pub gate: OmegaGate,
}

/// Per-source arrival tracker: `λ_j` and `σ_a,j` from batch timestamps.
struct ArrivalTrack {
    /// EWMA of per-tuple inter-arrival time (seconds).
    inter: Ewma,
    last: Option<Instant>,
    /// Tuples received from this source since the last parameter update
    /// (the `|M_i^j|` weight of Eq. 1).
    recent: u64,
}

impl ArrivalTrack {
    fn new() -> Self {
        ArrivalTrack {
            inter: Ewma::new(EWMA_ALPHA),
            last: None,
            recent: 0,
        }
    }
}

/// The per-worker DWS parameter estimator.
pub struct DwsController {
    arrivals: Vec<ArrivalTrack>,
    /// EWMA of per-tuple service time (seconds).
    service: Ewma,
    omega: usize,
    tau: Duration,
    model: DwsModel,
}

impl DwsController {
    /// Creates a controller for a worker receiving from `sources` peers.
    pub fn new(sources: usize) -> Self {
        DwsController {
            arrivals: (0..sources).map(|_| ArrivalTrack::new()).collect(),
            service: Ewma::new(EWMA_ALPHA),
            omega: 0,
            tau: Duration::ZERO,
            model: DwsModel::default(),
        }
    }

    /// Records the arrival of `ntuples` from source `from`, stamped
    /// `sent_at` by the producer.
    pub fn on_batch(&mut self, from: usize, ntuples: usize, sent_at: Instant) {
        if ntuples == 0 {
            return;
        }
        let track = &mut self.arrivals[from];
        if let Some(prev) = track.last {
            let gap = sent_at.saturating_duration_since(prev).as_secs_f64();
            track.inter.push(gap / ntuples as f64);
        }
        track.last = Some(sent_at);
        track.recent += ntuples as u64;
    }

    /// Records one completed local iteration that processed
    /// `tuples_processed` delta tuples in `elapsed`.
    pub fn on_iteration(&mut self, tuples_processed: usize, elapsed: Duration) {
        if tuples_processed == 0 {
            return;
        }
        self.service
            .push(elapsed.as_secs_f64() / tuples_processed as f64);
    }

    /// Recomputes `ω_i` and `τ_i` (Algorithm 2, line 12).
    pub fn update_params(&mut self) {
        // Equation (1): weighted harmonic mean of per-source rates and the
        // matching pooled variance, weighted by |M_i^j| (recent counts).
        let mut weight_sum = 0.0;
        let mut inv_rate_weighted = 0.0;
        let mut var_weighted = 0.0;
        for t in &mut self.arrivals {
            if t.recent == 0 || t.inter.count() < MIN_SAMPLES || t.inter.mean() <= 0.0 {
                t.recent = 0;
                continue;
            }
            let w = t.recent as f64;
            let inter_mean = t.inter.mean(); // = 1/λ_j
            weight_sum += w;
            inv_rate_weighted += w * inter_mean;
            var_weighted += w * (t.inter.variance() + inter_mean * inter_mean);
            // Exponential decay of window counts between updates.
            t.recent /= 2;
        }
        let served = self.service.count() >= MIN_SAMPLES && self.service.mean() > 0.0;
        let inv_lambda = inv_rate_weighted / weight_sum; // 1/λ
        let lambda = if weight_sum > 0.0 {
            1.0 / inv_lambda
        } else {
            0.0
        };
        let mu = if served {
            1.0 / self.service.mean()
        } else {
            0.0
        };
        let rho = if lambda > 0.0 && mu > 0.0 {
            lambda / mu
        } else {
            0.0
        };
        self.model = DwsModel {
            rho,
            lambda,
            mu,
            lq: 0.0,
            gate: OmegaGate::MinSamples,
        };
        if weight_sum == 0.0 || !served {
            self.omega = 0;
            self.tau = Duration::ZERO;
            return;
        }
        let sigma_a2 = (var_weighted / weight_sum - inv_lambda * inv_lambda).max(0.0);
        let sigma_s2 = self.service.variance();

        if rho >= 1.0 {
            // Saturated queue: waiting cannot pay off — proceed immediately.
            self.model.gate = OmegaGate::Saturated;
            self.omega = 0;
            self.tau = Duration::ZERO;
            return;
        }
        // Equation (2): Kingman.
        let ca2 = lambda * lambda * sigma_a2;
        let cs2 = mu * mu * sigma_s2;
        let lq = rho * rho * (ca2 + cs2) / (2.0 * (1.0 - rho));
        self.model.lq = lq;
        self.model.gate = OmegaGate::None;
        let omega = lq.round().max(0.0) as usize;
        self.omega = omega.min(MAX_OMEGA);
        let tau = Duration::from_secs_f64((self.omega as f64 * inv_lambda).max(0.0));
        self.tau = tau.min(MAX_WAIT);
    }

    /// Current threshold `ω_i`: proceed when the delta holds at least this
    /// many tuples.
    #[inline]
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Current wait budget `τ_i`.
    #[inline]
    pub fn tau(&self) -> Duration {
        self.tau
    }

    /// The model behind the current `ω_i` and `τ_i`.
    pub fn model(&self) -> DwsModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn cold_controller_never_waits() {
        let mut c = DwsController::new(3);
        c.update_params();
        assert_eq!(c.omega(), 0);
        assert_eq!(c.tau(), Duration::ZERO);
    }

    #[test]
    fn saturated_queue_disables_waiting() {
        let mut c = DwsController::new(1);
        let base = t0();
        // Arrivals every 1 µs per tuple, service 1 ms per tuple ⇒ ρ ≫ 1.
        for i in 1..20 {
            c.on_batch(0, 1, base + Duration::from_micros(i));
        }
        for _ in 0..10 {
            c.on_iteration(10, Duration::from_millis(10));
        }
        c.update_params();
        assert_eq!(c.omega(), 0, "ρ ≥ 1 must disable waiting");
        let m = c.model();
        assert_eq!(m.gate, OmegaGate::Saturated);
        assert!(m.rho >= 1.0 && (m.rho - m.lambda / m.mu).abs() < 1e-9 * m.rho);
    }

    #[test]
    fn stable_queue_yields_positive_params() {
        let mut c = DwsController::new(1);
        let base = t0();
        // Bursty arrivals (alternating 100 µs / 1900 µs gaps ⇒ mean 1 ms,
        // high C_a²) with service at 0.9 ms/tuple ⇒ ρ = 0.9: Kingman
        // predicts a queue of a few tuples.
        let mut ts = base;
        for i in 0..200 {
            ts += Duration::from_micros(if i % 2 == 0 { 100 } else { 1900 });
            c.on_batch(0, 1, ts);
            if i % 5 == 0 {
                c.on_iteration(5, Duration::from_micros(4500));
            }
        }
        c.update_params();
        // With ρ near 1 and high arrival variability, Kingman predicts a
        // positive queue.
        assert!(c.omega() >= 1, "omega = {}", c.omega());
        let m = c.model();
        assert_eq!(m.gate, OmegaGate::None);
        assert!(m.rho > 0.0 && m.rho < 1.0, "rho = {}", m.rho);
        assert_eq!(c.omega(), m.lq.round() as usize);
        assert!(c.tau() > Duration::ZERO);
        assert!(c.tau() <= MAX_WAIT);
    }

    #[test]
    fn low_utilization_queue_predicts_no_waiting() {
        let mut c = DwsController::new(1);
        let base = t0();
        // Steady arrivals every 1 ms, service 0.4 ms ⇒ ρ = 0.4, low
        // variability: L_q ≈ 0 ⇒ proceed immediately.
        let mut ts = base;
        for i in 0..100 {
            ts += Duration::from_millis(1);
            c.on_batch(0, 1, ts);
            if i % 5 == 0 {
                c.on_iteration(5, Duration::from_micros(2000));
            }
        }
        c.update_params();
        assert_eq!(c.omega(), 0);
    }

    #[test]
    fn tau_capped_by_max_wait() {
        let mut c = DwsController::new(1);
        let base = t0();
        // Bursty arrivals (alternating 1 ms / 19 ms gaps, high C_a²; the
        // EWMA, ending on a long gap, reads a mean of ~11.3 ms) with
        // service at 10 ms/tuple ⇒ ρ ≈ 0.9: Kingman predicts a queue of a
        // few tuples, and waiting for them at ~11 ms each would take far
        // longer than `MAX_WAIT`.
        let mut ts = base;
        for i in 0..200 {
            ts += Duration::from_millis(if i % 2 == 0 { 1 } else { 19 });
            c.on_batch(0, 1, ts);
            if i % 5 == 0 {
                c.on_iteration(5, Duration::from_millis(50));
            }
        }
        c.update_params();
        let m = c.model();
        assert_eq!(m.gate, OmegaGate::None);
        assert!(m.rho > 0.8 && m.rho < 1.0, "rho = {}", m.rho);
        assert!(c.omega() >= 1, "omega = {}", c.omega());
        let uncapped = c.omega() as f64 / m.lambda;
        assert!(
            uncapped > MAX_WAIT.as_secs_f64(),
            "uncapped tau = {uncapped}"
        );
        assert_eq!(c.tau(), MAX_WAIT);
    }

    #[test]
    fn single_sample_does_not_prime_the_estimator() {
        // Regression: one sample has variance 0, which used to let
        // Kingman's formula compute ρ and L_q from a single observation. The controller must not trust
        // λ/μ until `MIN_SAMPLES` observations exist on both sides.
        let mut c = DwsController::new(1);
        let base = t0();
        // Two batches ⇒ one inter-arrival sample; one service sample.
        c.on_batch(0, 1, base + Duration::from_micros(100));
        c.on_batch(0, 1, base + Duration::from_micros(2000));
        c.on_iteration(1, Duration::from_micros(1800));
        c.update_params();
        assert_eq!(c.omega(), 0, "one sample per estimator must not prime");
        assert_eq!(c.tau(), Duration::ZERO);
        assert_eq!(c.model().gate, OmegaGate::MinSamples);

        // Once both estimators cross `MIN_SAMPLES` with a stable-but-bursty
        // pattern, the controller may produce parameters again.
        let mut ts = base + Duration::from_micros(2000);
        for i in 0..200 {
            ts += Duration::from_micros(if i % 2 == 0 { 100 } else { 1900 });
            c.on_batch(0, 1, ts);
            if i % 5 == 0 {
                c.on_iteration(5, Duration::from_micros(4500));
            }
        }
        c.update_params();
        assert!(c.omega() >= 1, "primed controller should wait again");
    }

    #[test]
    fn empty_batches_ignored() {
        let mut c = DwsController::new(2);
        c.on_batch(0, 0, t0());
        c.on_iteration(0, Duration::from_millis(1));
        c.update_params();
        assert_eq!(c.omega(), 0);
    }

    #[test]
    fn multi_source_weights_by_volume() {
        let mut c = DwsController::new(2);
        let base = t0();
        let mut ts = base;
        // Source 0: high volume, steady. Source 1: trickle.
        for i in 0..100 {
            ts += Duration::from_micros(100);
            c.on_batch(0, 10, ts);
            if i % 20 == 0 {
                c.on_batch(1, 1, ts);
            }
        }
        c.on_iteration(1000, Duration::from_micros(500));
        c.update_params();
        // Should produce a finite, bounded configuration.
        assert!(c.omega() <= MAX_OMEGA);
    }
}
