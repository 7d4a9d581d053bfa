//! Streaming statistics used by the DWS coordination strategy.
//!
//! DWS (paper §4.2) models each worker as a G/G/1 queue. Producers and
//! consumers need cheap online estimates of the mean and variance of
//! inter-arrival and service times; [`Ewma`] provides recency-weighted
//! ones (the evaluation is non-stationary: deltas shrink as the fixpoint
//! nears, so recent samples matter more than an all-history mean).

/// Exponentially-weighted moving average of a signal and of its squared
/// deviation, giving a recency-weighted mean/variance pair.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    mean: Option<f64>,
    var: f64,
    n: u64,
}

impl Ewma {
    /// `alpha ∈ (0, 1]` is the weight of the newest sample.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            alpha,
            mean: None,
            var: 0.0,
            n: 0,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        match self.mean {
            None => {
                self.mean = Some(x);
                self.var = 0.0;
            }
            Some(m) => {
                let d = x - m;
                let inc = self.alpha * d;
                self.mean = Some(m + inc);
                // West's EWMA variance update.
                self.var = (1.0 - self.alpha) * (self.var + d * inc);
            }
        }
    }

    /// Number of samples observed.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Recency-weighted mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean.unwrap_or(0.0)
    }

    /// Recency-weighted variance.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.3);
        for _ in 0..100 {
            e.push(5.0);
        }
        assert!((e.mean() - 5.0).abs() < 1e-9);
        assert!(e.variance() < 1e-9);
    }

    #[test]
    fn ewma_tracks_level_shift_faster_than_plain_mean() {
        let mut e = Ewma::new(0.5);
        for _ in 0..50 {
            e.push(1.0);
        }
        for _ in 0..10 {
            e.push(10.0);
        }
        let plain_mean = (50.0 * 1.0 + 10.0 * 10.0) / 60.0;
        assert!(e.mean() > plain_mean, "EWMA should adapt faster");
        assert!(e.mean() > 9.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn ewma_counts_samples() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.count(), 0);
        e.push(1.0);
        assert_eq!(e.count(), 1);
        assert_eq!(e.variance(), 0.0, "one sample carries no variance");
        for _ in 0..9 {
            e.push(2.0);
        }
        assert_eq!(e.count(), 10);
    }
}
