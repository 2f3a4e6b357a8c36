//! Method-of-moments fitting of burst distributions.
//!
//! Section 3.1 of the paper: *"we generate a 2-stage hyper-exponential
//! distribution from the mean and variance using a method-of-moment
//! estimate \[Trivedi p. 479\]"*. The balanced-means H2 fit used here is
//! exactly that textbook construction. It requires a squared coefficient of
//! variation (CV²) ≥ 1; for CV² < 1 — which can occur in some utilization
//! buckets — we fall back to the standard two-moment Erlang-mixture fit so
//! that *every* (mean, variance) pair the workload tables produce has an
//! exact two-moment representation.

use crate::distr::{Deterministic, Distribution, Erlang, Exponential, HyperExp2};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution produced by two-moment fitting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fitted {
    /// Degenerate fit (variance ≈ 0).
    Point(Deterministic),
    /// CV² ≈ 1.
    Exp(Exponential),
    /// CV² > 1 — the paper's case.
    Hyper(HyperExp2),
    /// CV² < 1: mixture of Erlang(k) and Erlang(k+1) with common rate.
    ErlangMix {
        /// Probability of drawing from the k-stage branch.
        p: f64,
        /// The k-stage branch.
        a: Erlang,
        /// The (k+1)-stage branch.
        b: Erlang,
    },
}

impl Fitted {
    /// Short label for reports.
    pub fn family(&self) -> &'static str {
        match self {
            Fitted::Point(_) => "deterministic",
            Fitted::Exp(_) => "exponential",
            Fitted::Hyper(_) => "hyperexp2",
            Fitted::ErlangMix { .. } => "erlang-mix",
        }
    }

    /// How many uniform draws one [`Distribution::sample`] call consumes,
    /// when that count does not depend on the draws themselves.
    ///
    /// `Point` consumes none, `Exp` one, `Hyper` two (branch + stage).
    /// `ErlangMix` consumes a data-dependent count (the branch draw picks
    /// between a k-stage and a (k+1)-stage Erlang), so it returns `None`
    /// and callers must fall back to per-sample dispatch.
    pub fn fixed_draw_count(&self) -> Option<usize> {
        match self {
            Fitted::Point(_) => Some(0),
            Fitted::Exp(_) => Some(1),
            Fitted::Hyper(_) => Some(2),
            Fitted::ErlangMix { .. } => None,
        }
    }

    /// Transform pre-drawn uniforms into one sample, consuming exactly
    /// [`Self::fixed_draw_count`] values from `us` in the order
    /// [`Distribution::sample`] would draw them — so a slab filled from an
    /// RNG and fed through this function reproduces the sequential samples
    /// bit-for-bit and leaves the RNG in the identical state.
    ///
    /// # Panics
    /// If the fit has no fixed draw count (`ErlangMix`) or `us` is shorter
    /// than required.
    pub fn sample_from_uniforms(&self, us: &[f64]) -> f64 {
        match self {
            Fitted::Point(d) => d.mean(),
            Fitted::Exp(d) => -(1.0 - us[0]).ln() / d.rate(),
            Fitted::Hyper(d) => {
                let rate = if us[0] < d.p1() { d.rate1() } else { d.rate2() };
                -(1.0 - us[1]).ln() / rate
            }
            Fitted::ErlangMix { .. } => {
                panic!("ErlangMix has no fixed draw count; sample it directly")
            }
        }
    }
}

impl Distribution for Fitted {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Fitted::Point(d) => d.sample(rng),
            Fitted::Exp(d) => d.sample(rng),
            Fitted::Hyper(d) => d.sample(rng),
            Fitted::ErlangMix { p, a, b } => {
                let u: f64 = rng.random();
                if u < *p {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Fitted::Point(d) => d.mean(),
            Fitted::Exp(d) => d.mean(),
            Fitted::Hyper(d) => d.mean(),
            Fitted::ErlangMix { p, a, b } => p * a.mean() + (1.0 - p) * b.mean(),
        }
    }

    fn variance(&self) -> f64 {
        match self {
            Fitted::Point(d) => d.variance(),
            Fitted::Exp(d) => d.variance(),
            Fitted::Hyper(d) => d.variance(),
            Fitted::ErlangMix { p, a, b } => {
                let ex2_a = a.variance() + a.mean() * a.mean();
                let ex2_b = b.variance() + b.mean() * b.mean();
                let ex2 = p * ex2_a + (1.0 - p) * ex2_b;
                let m = self.mean();
                ex2 - m * m
            }
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        match self {
            Fitted::Point(d) => d.cdf(x),
            Fitted::Exp(d) => d.cdf(x),
            Fitted::Hyper(d) => d.cdf(x),
            Fitted::ErlangMix { p, a, b } => p * a.cdf(x) + (1.0 - p) * b.cdf(x),
        }
    }
}

/// Relative CV² half-width inside which a fit is treated as exponential.
const EXP_BAND: f64 = 1e-9;

/// Fit a non-negative distribution matching `mean` and `variance` exactly.
///
/// * CV² > 1 → balanced-means 2-stage hyper-exponential (Trivedi):
///   `p₁ = ½(1 + √((CV²−1)/(CV²+1)))`, `λ₁ = 2p₁/m`, `λ₂ = 2(1−p₁)/m`.
/// * CV² = 1 → exponential.
/// * 0 < CV² < 1 → mixture of Erlang(k) and Erlang(k+1) with common rate,
///   where `1/(k+1) ≤ CV² ≤ 1/k` (two-moment exact).
/// * variance = 0 → point mass.
///
/// # Panics
/// If `mean` is not positive-finite or `variance` is negative.
pub fn fit_two_moments(mean: f64, variance: f64) -> Fitted {
    assert!(mean > 0.0 && mean.is_finite(), "mean must be positive: {mean}");
    assert!(
        variance >= 0.0 && variance.is_finite(),
        "variance must be non-negative: {variance}"
    );

    if variance == 0.0 {
        return Fitted::Point(Deterministic::new(mean));
    }
    let cv2 = variance / (mean * mean);

    if (cv2 - 1.0).abs() <= EXP_BAND {
        return Fitted::Exp(Exponential::with_mean(mean));
    }

    if cv2 > 1.0 {
        // Balanced-means hyper-exponential.
        let p1 = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
        let rate1 = 2.0 * p1 / mean;
        let rate2 = 2.0 * (1.0 - p1) / mean;
        return Fitted::Hyper(HyperExp2::new(p1, rate1, rate2));
    }

    // CV² < 1: mixture of Erlang(k, μ) w.p. p and Erlang(k+1, μ) w.p. 1−p,
    // with k chosen so 1/(k+1) ≤ cv2 ≤ 1/k (two-moment exact; cf. Tijms,
    // "Stochastic Models", Sec. 7.2). The mixing probability is found by
    // bisection on the closed-form CV²(p) rather than by juggling the many
    // published algebraic variants.
    let k = (1.0 / cv2).floor().max(1.0) as u32;
    let kf = k as f64;
    let p = solve_erlang_mix_p(kf, cv2);
    let mu = (kf + 1.0 - p) / mean;
    Fitted::ErlangMix { p, a: Erlang::new(k, mu), b: Erlang::new(k + 1, mu) }
}

/// Solve for the mixing probability `p` of the Erlang(k)/Erlang(k+1)
/// mixture with common rate so that CV² matches.
///
/// With mean fixed by `μ = (k+1−p)/m`, the CV² of the mixture is
/// `cv2(p) = [p k + (1−p)(k+1) + p(1−p)] / (k+1−p)²` — monotone in `p` on
/// [0,1] between `1/(k+1)` (p=0) and `1/k` (p=1)… except for the `p(1−p)`
/// bump, so we bisect rather than assume monotonicity shape.
fn solve_erlang_mix_p(k: f64, cv2_target: f64) -> f64 {
    let cv2_of = |p: f64| {
        let m1 = k + 1.0 - p; // mean in units of 1/μ
                              // second moment in units of 1/μ²:
                              //   E[X²] = p·k(k+1) + (1−p)(k+1)(k+2)
        let ex2 = p * k * (k + 1.0) + (1.0 - p) * (k + 1.0) * (k + 2.0);
        (ex2 - m1 * m1) / (m1 * m1)
    };
    // cv2_of(0) = 1/(k+1), cv2_of(1) = 1/k; bisect on [0,1].
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let decreasing = cv2_of(0.0) > cv2_of(1.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let v = cv2_of(mid);
        let go_right = if decreasing { v > cv2_target } else { v < cv2_target };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_moments(f: &Fitted, mean: f64, var: f64) {
        assert!(
            (f.mean() - mean).abs() / mean < 1e-6,
            "{}: mean {} != {mean}",
            f.family(),
            f.mean()
        );
        if var > 0.0 {
            assert!(
                (f.variance() - var).abs() / var < 1e-6,
                "{}: var {} != {var}",
                f.family(),
                f.variance()
            );
        }
    }

    #[test]
    fn hyperexp_fit_matches_moments() {
        // CV² = 4
        let f = fit_two_moments(0.05, 0.01);
        assert_eq!(f.family(), "hyperexp2");
        assert_moments(&f, 0.05, 0.01);
    }

    #[test]
    fn exponential_fit_when_cv2_is_one() {
        let f = fit_two_moments(2.0, 4.0);
        assert_eq!(f.family(), "exponential");
        assert_moments(&f, 2.0, 4.0);
    }

    #[test]
    fn erlang_mix_fit_matches_moments() {
        // CV² = 0.4 → k = 2
        let f = fit_two_moments(1.0, 0.4);
        assert_eq!(f.family(), "erlang-mix");
        assert_moments(&f, 1.0, 0.4);
        if let Fitted::ErlangMix { p, a, b } = f {
            assert!((0.0..=1.0).contains(&p));
            assert_eq!(a.stages() + 1, b.stages());
        }
    }

    #[test]
    fn point_fit_for_zero_variance() {
        let f = fit_two_moments(3.0, 0.0);
        assert_eq!(f.family(), "deterministic");
        assert_moments(&f, 3.0, 0.0);
    }

    #[test]
    fn extreme_cv2_values() {
        // Very bursty: CV² = 100
        let f = fit_two_moments(0.01, 0.01);
        assert_moments(&f, 0.01, 0.01);
        // Very regular: CV² = 0.05 → k = 20
        let f = fit_two_moments(1.0, 0.05);
        assert_moments(&f, 1.0, 0.05);
    }

    #[test]
    fn sampling_reproduces_fit_moments() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for (mean, var) in [(0.05, 0.02), (0.1, 0.005), (1.0, 1.0), (0.02, 0.0008)] {
            let f = fit_two_moments(mean, var);
            let n = 400_000;
            let mut s = 0.0;
            let mut s2 = 0.0;
            for _ in 0..n {
                let x = f.sample(&mut rng);
                s += x;
                s2 += x * x;
            }
            let m = s / n as f64;
            let v = s2 / n as f64 - m * m;
            assert!((m - mean).abs() / mean < 0.02, "mean {m} vs {mean}");
            assert!((v - var).abs() / var < 0.1, "var {v} vs {var} ({})", f.family());
        }
    }

    #[test]
    fn cdf_is_proper() {
        for (mean, var) in [(0.05, 0.02), (1.0, 0.4), (2.0, 4.0)] {
            let f = fit_two_moments(mean, var);
            assert_eq!(f.cdf(0.0), 0.0);
            let mut prev = 0.0;
            // Scan far into the tail: high-CV² hyper-exponentials have a
            // slow branch whose mass only drains after many means.
            for i in 1..=400 {
                let x = mean * 50.0 * i as f64 / 400.0;
                let c = f.cdf(x);
                assert!(c >= prev - 1e-12, "non-monotone cdf");
                assert!((0.0..=1.0 + 1e-12).contains(&c));
                prev = c;
            }
            assert!(prev > 0.99, "cdf should approach 1, got {prev}");
        }
    }

    #[test]
    fn sample_from_uniforms_matches_sequential_sampling() {
        use rand::SeedableRng;
        // Point (0 draws), hyper-exponential (2 draws), exponential (1 draw).
        for (mean, var) in [(3.0, 0.0), (0.05, 0.02), (2.0, 4.0)] {
            let f = fit_two_moments(mean, var);
            let n = f.fixed_draw_count().expect("fixed-count family");
            let mut seq = rand_chacha::ChaCha8Rng::seed_from_u64(11);
            let mut slab = rand_chacha::ChaCha8Rng::seed_from_u64(11);
            for _ in 0..256 {
                let want = f.sample(&mut seq);
                let us: Vec<f64> = (0..n).map(|_| slab.random()).collect();
                let got = f.sample_from_uniforms(&us);
                assert_eq!(want.to_bits(), got.to_bits(), "{want} vs {got}");
            }
            // Both paths must leave the stream in the identical state.
            assert_eq!(seq.random::<u64>(), slab.random::<u64>());
        }
        assert!(
            fit_two_moments(1.0, 0.4).fixed_draw_count().is_none(),
            "ErlangMix draw count is data-dependent"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_non_positive_mean() {
        let _ = fit_two_moments(0.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_variance() {
        let _ = fit_two_moments(1.0, -0.5);
    }
}
