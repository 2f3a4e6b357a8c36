//! Fixed-bin histograms and empirical CDFs.
//!
//! Used to reproduce the paper's burst-duration histograms (Fig 2) and the
//! available-memory CDF (Fig 4), and to validate fitted distributions
//! against the populations they were fitted to.

use serde::{Deserialize, Serialize};

/// A histogram with uniform bins over `[lo, hi)` plus an overflow bin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with `bins` uniform bins covering `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let i = ((x - self.lo) / w) as usize;
            // Floating-point edge: x just below hi can index == len.
            let i = i.min(self.counts.len() - 1);
            self.counts[i] += 1;
        }
    }

    /// Record many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of bins (excluding under/overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// The count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }
}

/// An exact empirical CDF built from a stored, sorted sample.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (copied and sorted).
    pub fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ecdf { sorted: xs }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` = fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile, `q` in [0, 1], by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Kolmogorov–Smirnov distance against a reference CDF.
    ///
    /// `sup_x |F_n(x) − F(x)|`, evaluated at the sample points (where the
    /// supremum of the one-sample statistic is attained).
    pub fn ks_distance<F: Fn(f64) -> f64>(&self, cdf: F) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let mut d = 0.0f64;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((f - lo).abs()).max((hi - f).abs());
        }
        d
    }

    /// Iterate the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.add(0.05); // bin 0
        h.add(0.15); // bin 1
        h.add(0.95); // bin 9
        h.add(-0.1); // underflow
        h.add(1.0); // overflow (hi is exclusive)
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn ecdf_eval_and_quantiles() {
        let e = Ecdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.quantile(0.0), 1.0);
    }

    #[test]
    fn ecdf_ks_distance_zero_against_itself() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let e = Ecdf::from_samples(xs);
        // Against the true uniform CDF the distance is at most 1/n.
        let d = e.ks_distance(|x| x.clamp(0.0, 1.0));
        assert!(d <= 0.011, "ks distance {d}");
    }

    #[test]
    fn ecdf_ks_distance_detects_mismatch() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let e = Ecdf::from_samples(xs);
        // Against Exp(1) the uniform sample is far.
        let d = e.ks_distance(|x| 1.0 - (-x).exp());
        assert!(d > 0.2, "ks distance {d}");
    }

    #[test]
    fn ecdf_ignores_non_finite() {
        let e = Ecdf::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn histogram_near_upper_edge_does_not_panic() {
        let mut h = Histogram::new(0.0, 0.1, 7);
        h.add(0.1 - 1e-15);
        assert_eq!(h.overflow() + h.count(6), 1);
    }
}
