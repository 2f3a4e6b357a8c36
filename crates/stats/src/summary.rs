//! Online summary statistics.
//!
//! The cluster and node simulators report means, standard deviations and
//! coefficients of variation (the paper's "Variation" metric in Fig 7 is
//! the std-dev of job execution time expressed as a percentage of the
//! mean). Welford's algorithm keeps those numerically stable without
//! storing samples; [`TimeWeighted`] accumulates time-weighted averages
//! such as CPU utilization.

use serde::{Deserialize, Serialize};

/// Error returned when a confidence level has no z-score in the table.
///
/// Only 0.90, 0.95 and 0.99 are supported; anything else used to panic
/// deep inside the accumulators. Callers (e.g. a CLI `--ci` flag) can now
/// surface this as a normal argument error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnsupportedConfidence(pub f64);

impl std::fmt::Display for UnsupportedConfidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported confidence level {} (use 0.90/0.95/0.99)", self.0)
    }
}

impl std::error::Error for UnsupportedConfidence {}

/// Normal z-score for a supported two-sided confidence `level`.
pub fn z_score(level: f64) -> Result<f64, UnsupportedConfidence> {
    match level {
        l if (l - 0.90).abs() < 1e-9 => Ok(1.6449),
        l if (l - 0.95).abs() < 1e-9 => Ok(1.9600),
        l if (l - 0.99).abs() < 1e-9 => Ok(2.5758),
        other => Err(UnsupportedConfidence(other)),
    }
}

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Online {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Online {
    /// An empty accumulator.
    pub fn new() -> Self {
        Online {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Merge another accumulator into this one (Chan et al. parallel form).
    pub fn merge(&mut self, other: &Online) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 1 observation).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean), the paper's "Variation".
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation half-width of the `level` confidence interval
    /// for the mean, e.g. `level = 0.95`.
    ///
    /// Returns [`UnsupportedConfidence`] for levels outside the z-table
    /// (0.90/0.95/0.99); with fewer than two observations the half-width
    /// is `∞` (the level is still validated first).
    pub fn ci_half_width(&self, level: f64) -> Result<f64, UnsupportedConfidence> {
        let z = z_score(level)?;
        if self.n < 2 {
            return Ok(f64::INFINITY);
        }
        Ok(z * self.std_dev() / (self.n as f64).sqrt())
    }
}

/// Time-weighted average accumulator.
///
/// Feed `(value, duration)` segments; reports the duration-weighted mean.
/// Used for utilization ("fraction of time the CPU was busy") and for the
/// memory-availability distribution, where each 2-second trace sample
/// carries equal weight.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TimeWeighted {
    weighted_sum: f64,
    total_weight: f64,
}

impl TimeWeighted {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `value` holding for `weight` units of time (weight ≥ 0).
    pub fn add(&mut self, value: f64, weight: f64) {
        debug_assert!(weight >= 0.0, "negative weight {weight}");
        self.weighted_sum += value * weight;
        self.total_weight += weight;
    }

    /// The duration-weighted mean (0 if no weight recorded).
    pub fn mean(&self) -> f64 {
        if self.total_weight == 0.0 {
            0.0
        } else {
            self.weighted_sum / self.total_weight
        }
    }

    /// Total weight recorded.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &TimeWeighted) {
        self.weighted_sum += other.weighted_sum;
        self.total_weight += other.total_weight;
    }
}

/// Batch-means confidence intervals for steady-state simulation output.
///
/// Correlated observations (e.g. per-window throughput from one long run)
/// violate the independence assumption behind [`Online::ci_half_width`];
/// the classical remedy is to average consecutive observations into
/// batches and treat the batch means as approximately independent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: usize,
    current_sum: f64,
    current_count: usize,
    batches: Online,
}

impl BatchMeans {
    /// Accumulate batches of `batch_size` observations (≥ 1).
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batches: Online::new(),
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batches.add(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Number of completed batches.
    pub fn batches(&self) -> u64 {
        self.batches.count()
    }

    /// Mean over completed batches (the steady-state estimate).
    pub fn mean(&self) -> f64 {
        self.batches.mean()
    }

    /// Confidence-interval half-width over batch means.
    pub fn ci_half_width(&self, level: f64) -> Result<f64, UnsupportedConfidence> {
        self.batches.ci_half_width(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut o = Online::new();
        o.extend(xs.iter().copied());
        assert_eq!(o.count(), 8);
        assert!((o.mean() - 5.0).abs() < 1e-12);
        assert!((o.variance_population() - 4.0).abs() < 1e-12);
        assert!((o.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(o.min(), 2.0);
        assert_eq!(o.max(), 9.0);
    }

    #[test]
    fn online_empty_and_single() {
        let o = Online::new();
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.variance(), 0.0);
        let mut o = Online::new();
        o.add(3.0);
        assert_eq!(o.mean(), 3.0);
        assert_eq!(o.variance(), 0.0);
        assert_eq!(o.ci_half_width(0.95).unwrap(), f64::INFINITY);
    }

    #[test]
    fn unsupported_confidence_is_a_typed_error() {
        let mut o = Online::new();
        o.extend([1.0, 2.0, 3.0]);
        let err = o.ci_half_width(0.42).unwrap_err();
        assert_eq!(err, UnsupportedConfidence(0.42));
        assert!(err.to_string().contains("0.42"));
        // The level is validated even when n < 2 would short-circuit.
        assert!(Online::new().ci_half_width(0.5).is_err());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Online::new();
        whole.extend(xs.iter().copied());
        let mut a = Online::new();
        let mut b = Online::new();
        a.extend(xs[..37].iter().copied());
        b.extend(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Online::new();
        a.add(1.0);
        let b = Online::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Online::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn cv_is_variation_metric() {
        let mut o = Online::new();
        o.extend([90.0, 100.0, 110.0]);
        assert!((o.cv() - 10.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let mut small = Online::new();
        let mut large = Online::new();
        for i in 0..10 {
            small.add(i as f64);
        }
        for i in 0..1000 {
            large.add((i % 10) as f64);
        }
        assert!(large.ci_half_width(0.95).unwrap() < small.ci_half_width(0.95).unwrap());
        assert!(small.ci_half_width(0.99).unwrap() > small.ci_half_width(0.90).unwrap());
    }

    #[test]
    fn time_weighted_mean() {
        let mut t = TimeWeighted::new();
        t.add(1.0, 3.0); // busy for 3 s
        t.add(0.0, 7.0); // idle for 7 s
        assert!((t.mean() - 0.3).abs() < 1e-12);
        assert_eq!(t.total_weight(), 10.0);
    }

    #[test]
    fn time_weighted_merge_and_empty() {
        let mut a = TimeWeighted::new();
        assert_eq!(a.mean(), 0.0);
        a.add(2.0, 1.0);
        let mut b = TimeWeighted::new();
        b.add(4.0, 1.0);
        a.merge(&b);
        assert!((a.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn batches_form_at_the_right_cadence() {
        let mut b = BatchMeans::new(4);
        for i in 0..10 {
            b.add(i as f64);
        }
        // Two complete batches: (0+1+2+3)/4 = 1.5 and (4..8)/4 = 5.5.
        assert_eq!(b.batches(), 2);
        assert!((b.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn partial_batch_is_excluded() {
        let mut b = BatchMeans::new(100);
        for _ in 0..99 {
            b.add(1.0);
        }
        assert_eq!(b.batches(), 0);
        assert_eq!(b.mean(), 0.0);
        b.add(1.0);
        assert_eq!(b.batches(), 1);
        assert_eq!(b.mean(), 1.0);
    }

    #[test]
    fn batching_widens_ci_for_correlated_data() {
        // A slowly-drifting series: raw observations look precise,
        // batch means expose the drift.
        let xs: Vec<f64> = (0..4000).map(|i| (i / 500) as f64).collect();
        let mut raw = Online::new();
        raw.extend(xs.iter().copied());
        let mut batched = BatchMeans::new(250);
        for &x in &xs {
            batched.add(x);
        }
        // Same point estimate…
        assert!((raw.mean() - batched.mean()).abs() < 0.3);
        // …but the per-observation CI is misleadingly narrow relative to
        // the batch-mean CI scaled for sample counts.
        let raw_ci = raw.ci_half_width(0.95).unwrap();
        let batch_ci = batched.ci_half_width(0.95).unwrap();
        assert!(batch_ci > raw_ci, "batched {batch_ci} vs raw {raw_ci}");
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_rejected() {
        let _ = BatchMeans::new(0);
    }
}
