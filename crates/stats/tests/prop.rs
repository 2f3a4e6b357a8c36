//! Property tests of the statistics substrate.

use linger_stats::{fit_two_moments, Distribution, Ecdf, Histogram, Online, TimeWeighted};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #[test]
    fn online_matches_naive_two_pass(
        xs in prop::collection::vec(-1e6f64..1e6, 2..200),
    ) {
        let mut o = Online::new();
        o.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((o.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((o.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(o.count() as usize, xs.len());
    }

    #[test]
    fn online_merge_any_split(
        xs in prop::collection::vec(-1e4f64..1e4, 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Online::new();
        whole.extend(xs.iter().copied());
        let mut a = Online::new();
        let mut b = Online::new();
        a.extend(xs[..split].iter().copied());
        b.extend(xs[split..].iter().copied());
        a.merge(&b);
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance()));
    }

    #[test]
    fn ecdf_is_a_distribution_function(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        probe in -2e3f64..2e3,
    ) {
        let e = Ecdf::from_samples(xs.clone());
        let f = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        // Below the min it is 0, at or above the max it is 1.
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.eval(lo - 1.0), 0.0);
        prop_assert_eq!(e.eval(hi), 1.0);
        // Monotone.
        prop_assert!(e.eval(probe) <= e.eval(probe + 1.0) + 1e-12);
    }

    #[test]
    fn ecdf_quantile_inverts_eval(
        xs in prop::collection::vec(0.0f64..1e3, 1..100),
        q in 0.01f64..1.0,
    ) {
        let e = Ecdf::from_samples(xs);
        let x = e.quantile(q);
        // At least q of the mass is ≤ x.
        prop_assert!(e.eval(x) >= q - 1e-9);
    }

    #[test]
    fn histogram_conserves_mass(
        xs in prop::collection::vec(-10.0f64..10.0, 0..300),
        bins in 1usize..50,
    ) {
        let mut h = Histogram::new(-5.0, 5.0, bins);
        h.extend(xs.iter().copied());
        let in_bins: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(in_bins + h.underflow() + h.overflow(), xs.len() as u64);
    }

    #[test]
    fn time_weighted_is_convex_combination(
        segments in prop::collection::vec((0.0f64..100.0, 0.0f64..10.0), 1..50),
    ) {
        let mut t = TimeWeighted::new();
        for &(v, w) in &segments {
            t.add(v, w);
        }
        let lo = segments.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let hi = segments.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
        let m = t.mean();
        if t.total_weight() > 0.0 {
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        } else {
            prop_assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn fitted_samples_are_nonnegative_and_finite(
        mean in 1e-4f64..10.0,
        cv2 in 0.05f64..40.0,
        seed in any::<u64>(),
    ) {
        let f = fit_two_moments(mean, cv2 * mean * mean);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = f.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0, "{} produced {x}", f.family());
        }
    }

    #[test]
    fn ks_distance_is_a_metric_against_self(
        xs in prop::collection::vec(0.0f64..100.0, 2..100),
    ) {
        let e = Ecdf::from_samples(xs);
        // Against its own step function the distance is at most 1/n (the
        // half-open evaluation gap).
        let d = e.ks_distance(|x| e.eval(x));
        prop_assert!(d <= 1.0 / e.len() as f64 + 1e-12, "d = {d}");
    }
}
