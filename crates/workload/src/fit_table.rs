//! Precomputed two-moment fits for the burst parameter table.
//!
//! [`crate::burst::BurstGenerator`] historically refit its run/idle
//! distributions via [`fit_two_moments`] every time the coarse trace moved
//! a node's utilization — once per node per 2-second window across every
//! cluster simulator. The fits are pure functions of the interpolated
//! bucket parameters, so [`BurstFitTable`] computes all 21 bucket-level
//! fits once at construction and memoizes fits for interpolated levels in
//! a bounded cache, turning the per-window cost into a table lookup. One
//! table is shared `Arc`'d across all nodes and replications.
//!
//! Because [`fit_two_moments`] is deterministic, a cached fit is exactly
//! the fit the old code produced for the same utilization — simulators
//! switching to the shared table emit byte-identical results.

use crate::params::{BucketParams, BurstParamTable, BUCKET_WIDTH, NUM_BUCKETS};
use linger_stats::{fit_two_moments, Fitted};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Fitted `(run, idle)` distribution pair for one utilization level.
/// `None` marks a degenerate phase with no bursts (mean 0).
pub type FitPair = (Option<Fitted>, Option<Fitted>);

/// Interpolated-level fits beyond this count are computed but not cached,
/// bounding memory for adversarially long unique-utilization traces.
const CACHE_CAP: usize = 4096;

/// A [`BurstParamTable`] with every bucket's two-moment fit precomputed
/// and a shared memo cache for interpolated utilization levels.
///
/// Cheap to clone a reference to (`Arc`), safe to share across the worker
/// threads of a replicated experiment.
#[derive(Debug)]
pub struct BurstFitTable {
    params: BurstParamTable,
    bucket_fits: [FitPair; NUM_BUCKETS],
    cache: RwLock<HashMap<u64, FitPair>>,
}

impl BurstFitTable {
    /// Precompute all 21 bucket fits for `params`.
    pub fn new(params: BurstParamTable) -> Self {
        let bucket_fits = std::array::from_fn(|i| fit_pair(&params.buckets()[i]));
        BurstFitTable { params, bucket_fits, cache: RwLock::new(HashMap::new()) }
    }

    /// The process-wide shared table for the paper-calibrated parameters.
    ///
    /// Every caller gets the same `Arc`, so the 21 bucket fits are
    /// computed exactly once per process and the interpolation cache is
    /// shared across all simulators and replications.
    pub fn paper_shared() -> Arc<BurstFitTable> {
        static SHARED: OnceLock<Arc<BurstFitTable>> = OnceLock::new();
        SHARED
            .get_or_init(|| Arc::new(BurstFitTable::new(BurstParamTable::paper_calibrated())))
            .clone()
    }

    /// The underlying parameter table.
    pub fn params(&self) -> &BurstParamTable {
        &self.params
    }

    /// The fitted run/idle distributions at utilization `u` ∈ [0, 1]
    /// (clamped), exactly equal to
    /// `fit_two_moments(params.interpolate(u))` on both phases.
    ///
    /// Exact bucket levels hit the precomputed array; other levels hit
    /// the memo cache (computing the fit on first sight).
    pub fn fits_for(&self, u: f64) -> FitPair {
        let u = u.clamp(0.0, 1.0);
        // Mirror `BurstParamTable::interpolate`'s grid snap so every
        // utilization that interpolation treats as a bucket level takes
        // the precomputed path.
        let pos = u / BUCKET_WIDTH;
        let nearest = pos.round();
        if (pos - nearest).abs() < 1e-9 {
            return self.bucket_fits[(nearest as usize).min(NUM_BUCKETS - 1)];
        }
        let key = u.to_bits();
        if let Some(hit) = self.cache.read().unwrap().get(&key) {
            return *hit;
        }
        let fits = fit_pair(&self.params.interpolate(u));
        let mut cache = self.cache.write().unwrap();
        if cache.len() < CACHE_CAP {
            cache.insert(key, fits);
        }
        fits
    }
}

/// Fit both phases of one parameter set; degenerate (zero-mean) phases
/// fit to `None`.
fn fit_pair(p: &BucketParams) -> FitPair {
    (fit_or_none(p.run_mean, p.run_var), fit_or_none(p.idle_mean, p.idle_var))
}

pub(crate) fn fit_or_none(mean: f64, var: f64) -> Option<Fitted> {
    if mean <= 0.0 {
        None
    } else {
        Some(fit_two_moments(mean, var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger_stats::Distribution;

    /// Two fits agree iff they produce the same samples from the same
    /// stream (Fitted has no PartialEq; sampling is the observable).
    fn same_fit(a: &FitPair, b: &FitPair) -> bool {
        use linger_sim_core::{domains, RngFactory};
        let sample = |f: &FitPair| -> Vec<(f64, f64)> {
            let fac = RngFactory::new(123);
            let mut r = fac.stream_for(domains::FINE_BURSTS, 7);
            (0..64)
                .map(|_| {
                    let run = f.0.as_ref().map_or(-1.0, |d| d.sample(&mut r));
                    let idle = f.1.as_ref().map_or(-1.0, |d| d.sample(&mut r));
                    (run, idle)
                })
                .collect()
        };
        sample(a) == sample(b)
    }

    #[test]
    fn bucket_fits_match_direct_fitting() {
        let table = BurstParamTable::paper_calibrated();
        let fits = BurstFitTable::new(table.clone());
        for i in 0..NUM_BUCKETS {
            let direct = fit_pair(&table.buckets()[i]);
            assert!(same_fit(&fits.bucket_fits[i], &direct), "bucket {i}");
        }
    }

    #[test]
    fn bucket_levels_bypass_the_cache() {
        let fits = BurstFitTable::new(BurstParamTable::paper_calibrated());
        for i in 0..NUM_BUCKETS {
            let u = i as f64 * BUCKET_WIDTH;
            let got = fits.fits_for(u);
            assert!(same_fit(&got, &fits.bucket_fits[i]), "level {u}");
        }
        assert_eq!(
            fits.cache.read().unwrap().len(),
            0,
            "bucket levels must not populate the cache"
        );
    }

    #[test]
    fn interpolated_levels_match_direct_fitting_and_memoize() {
        let table = BurstParamTable::paper_calibrated();
        let fits = BurstFitTable::new(table.clone());
        for &u in &[0.033, 0.127, 0.5001, 0.875, 0.9312] {
            let direct = fit_pair(&table.interpolate(u));
            assert!(same_fit(&fits.fits_for(u), &direct), "u = {u}");
            // Second lookup comes from the cache and must be identical.
            assert!(same_fit(&fits.fits_for(u), &direct), "cached u = {u}");
        }
        assert_eq!(fits.cache.read().unwrap().len(), 5);
    }

    #[test]
    fn out_of_range_clamps_to_end_buckets() {
        let fits = BurstFitTable::new(BurstParamTable::paper_calibrated());
        assert!(same_fit(&fits.fits_for(-3.0), &fits.bucket_fits[0]));
        assert!(same_fit(&fits.fits_for(7.0), &fits.bucket_fits[NUM_BUCKETS - 1]));
    }

    #[test]
    fn degenerate_buckets_fit_to_none() {
        let fits = BurstFitTable::new(BurstParamTable::paper_calibrated());
        assert!(fits.bucket_fits[0].0.is_none(), "0% has no run bursts");
        assert!(fits.bucket_fits[NUM_BUCKETS - 1].1.is_none(), "100% has no idle bursts");
    }

    #[test]
    fn paper_shared_returns_one_instance() {
        let a = BurstFitTable::paper_shared();
        let b = BurstFitTable::paper_shared();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
