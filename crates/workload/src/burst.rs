//! Fine-grain run/idle burst generation.
//!
//! A [`BurstGenerator`] models the workstation owner's processor demand as
//! an alternating renewal process of *run* bursts (some local process is
//! runnable) and *idle* bursts (all local processes are blocked), exactly
//! the model of paper Sec 3.1. Burst durations are drawn from the
//! two-moment fits of the interpolated bucket parameters.

use crate::fit_table::BurstFitTable;
use crate::params::BucketParams;
use linger_sim_core::{SimDuration, SimRng};
use linger_stats::{Distribution, Fitted};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Whether the workstation owner's processes are running or blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BurstKind {
    /// Local (owner) processes occupy the CPU.
    Run,
    /// The CPU is idle as far as local processes are concerned.
    Idle,
}

impl BurstKind {
    /// The other kind.
    pub fn flip(self) -> BurstKind {
        match self {
            BurstKind::Run => BurstKind::Idle,
            BurstKind::Idle => BurstKind::Run,
        }
    }
}

/// One burst of local CPU demand (or absence thereof).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Burst {
    /// Run or idle.
    pub kind: BurstKind,
    /// Length of the burst.
    pub duration: SimDuration,
}

/// Floor on generated burst durations.
///
/// The hyper-exponential fits put some mass arbitrarily close to zero;
/// real dispatch records cannot be shorter than a few scheduler ticks.
/// 10 µs keeps event counts bounded without visibly moving the moments.
pub const MIN_BURST: SimDuration = SimDuration::from_micros(10);

/// Generates the alternating run/idle burst sequence for one node.
///
/// The target utilization can be changed at any time (the two-level
/// generator of Fig 6 updates it from the coarse trace every 2 seconds);
/// the fitted distributions come from a shared precomputed
/// [`BurstFitTable`], so a retarget is a table lookup, not a refit.
#[derive(Debug, Clone)]
pub struct BurstGenerator {
    fits: Arc<BurstFitTable>,
    utilization: f64,
    /// Interpolated params the current distributions were fitted from;
    /// retargets that land on identical params skip the lookup entirely.
    last_params: Option<BucketParams>,
    run_dist: Option<Fitted>,
    idle_dist: Option<Fitted>,
    next_kind: BurstKind,
    rebuilds: u64,
    /// Reused uniform slab for [`Self::next_bursts_into`].
    slab: Vec<f64>,
}

impl BurstGenerator {
    /// A generator over a shared fit table, starting at the given
    /// utilization.
    ///
    /// The first burst produced is an idle burst (a fresh node is between
    /// owner demands); the sequence alternates thereafter.
    pub fn new(fits: Arc<BurstFitTable>, utilization: f64) -> Self {
        let mut g = BurstGenerator {
            fits,
            utilization: -1.0,
            last_params: None,
            run_dist: None,
            idle_dist: None,
            next_kind: BurstKind::Idle,
            rebuilds: 0,
            slab: Vec::new(),
        };
        g.set_utilization(utilization);
        g
    }

    /// Convenience: the process-wide shared paper-calibrated table.
    pub fn paper(utilization: f64) -> Self {
        Self::new(BurstFitTable::paper_shared(), utilization)
    }

    /// Current target utilization.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The shared fit table this generator draws from.
    pub fn fit_table(&self) -> &Arc<BurstFitTable> {
        &self.fits
    }

    /// How many times the fitted distributions were actually replaced
    /// (diagnostics; retargets skipped as no-ops don't count).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Retarget the generator to a new utilization level (Fig 6's
    /// "look up appropriate parameters based on the current coarse-grain
    /// resource data").
    ///
    /// The rebuild is skipped both when `u` is unchanged and when the new
    /// utilization interpolates to exactly the parameters already in
    /// effect (e.g. consecutive out-of-range values that clamp to the
    /// same end bucket, or a table with identical adjacent buckets).
    pub fn set_utilization(&mut self, u: f64) {
        let u = u.clamp(0.0, 1.0);
        if (u - self.utilization).abs() < 1e-12 {
            return;
        }
        self.utilization = u;
        let p: BucketParams = self.fits.params().interpolate(u);
        if self.last_params == Some(p) {
            return;
        }
        let (run, idle) = self.fits.fits_for(u);
        self.run_dist = run;
        self.idle_dist = idle;
        self.last_params = Some(p);
        self.rebuilds += 1;
    }

    fn effective_kind(&self) -> BurstKind {
        // Degenerate utilizations pin the process to one phase.
        if self.run_dist.is_none() {
            BurstKind::Idle
        } else if self.idle_dist.is_none() {
            BurstKind::Run
        } else {
            self.next_kind
        }
    }

    /// Draw the next burst.
    pub fn next_burst(&mut self, rng: &mut SimRng) -> Burst {
        let kind = self.effective_kind();
        let dist = match kind {
            BurstKind::Run => self.run_dist.as_ref(),
            BurstKind::Idle => self.idle_dist.as_ref(),
        };
        let secs = match dist {
            Some(d) => d.sample(rng),
            // Degenerate phase (u = 0 or u = 1): emit long fixed bursts so
            // the simulation still advances in bounded steps.
            None => 1.0,
        };
        self.next_kind = kind.flip();
        Burst {
            kind,
            duration: SimDuration::from_secs_f64(secs).max(MIN_BURST),
        }
    }

    /// Draw the next `n` bursts in one batch, replacing the contents of
    /// `out`.
    ///
    /// When both phase distributions are present and have fixed uniform
    /// draw counts ([`Fitted::fixed_draw_count`]), the generator pre-fills
    /// one slab with every uniform the `n` sequential [`Self::next_burst`]
    /// calls would have drawn — in the same order — and transforms the
    /// slab burst-by-burst. The bursts and the final RNG state are
    /// bit-identical to the sequential path; only the per-draw dispatch
    /// overhead is gone. Degenerate phases (utilization 0 or 1) and
    /// data-dependent fits (Erlang mixtures) fall back to per-burst draws.
    pub fn next_bursts_into(&mut self, rng: &mut SimRng, n: usize, out: &mut Vec<Burst>) {
        out.clear();
        if n == 0 {
            return;
        }
        let fixed = match (&self.run_dist, &self.idle_dist) {
            (Some(r), Some(i)) => r.fixed_draw_count().zip(i.fixed_draw_count()),
            _ => None,
        };
        let Some((run_n, idle_n)) = fixed else {
            for _ in 0..n {
                out.push(self.next_burst(rng));
            }
            return;
        };
        // Kinds alternate from `next_kind`; the first kind occurs
        // ceil(n/2) times and the other floor(n/2) times.
        let first = self.next_kind;
        let (first_n, second_n) = match first {
            BurstKind::Run => (run_n, idle_n),
            BurstKind::Idle => (idle_n, run_n),
        };
        let total = n.div_ceil(2) * first_n + (n / 2) * second_n;
        self.slab.clear();
        self.slab.reserve(total);
        for _ in 0..total {
            self.slab.push(rng.random());
        }
        out.reserve(n);
        let mut pos = 0;
        let mut kind = first;
        for _ in 0..n {
            let (dist, draws) = match kind {
                BurstKind::Run => (self.run_dist.as_ref().unwrap(), run_n),
                BurstKind::Idle => (self.idle_dist.as_ref().unwrap(), idle_n),
            };
            let secs = dist.sample_from_uniforms(&self.slab[pos..pos + draws]);
            pos += draws;
            out.push(Burst {
                kind,
                duration: SimDuration::from_secs_f64(secs).max(MIN_BURST),
            });
            kind = kind.flip();
        }
        self.next_kind = kind;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BurstParamTable;
    use linger_sim_core::{domains, RngFactory};

    fn rng() -> SimRng {
        RngFactory::new(99).stream_for(domains::FINE_BURSTS, 0)
    }

    fn measure_utilization(u: f64, n: usize) -> f64 {
        let mut g = BurstGenerator::paper(u);
        let mut r = rng();
        let mut run = 0.0;
        let mut idle = 0.0;
        for _ in 0..n {
            let b = g.next_burst(&mut r);
            match b.kind {
                BurstKind::Run => run += b.duration.as_secs_f64(),
                BurstKind::Idle => idle += b.duration.as_secs_f64(),
            }
        }
        run / (run + idle)
    }

    #[test]
    fn bursts_alternate() {
        let mut g = BurstGenerator::paper(0.5);
        let mut r = rng();
        let mut prev = g.next_burst(&mut r).kind;
        for _ in 0..100 {
            let b = g.next_burst(&mut r);
            assert_eq!(b.kind, prev.flip());
            prev = b.kind;
        }
    }

    #[test]
    fn first_burst_is_idle() {
        let mut g = BurstGenerator::paper(0.5);
        let b = g.next_burst(&mut rng());
        assert_eq!(b.kind, BurstKind::Idle);
    }

    #[test]
    fn long_run_utilization_matches_target() {
        for target in [0.1, 0.2, 0.5, 0.8] {
            let got = measure_utilization(target, 200_000);
            assert!((got - target).abs() < 0.02, "target {target}, measured {got}");
        }
    }

    #[test]
    fn zero_utilization_is_all_idle() {
        let mut g = BurstGenerator::paper(0.0);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(g.next_burst(&mut r).kind, BurstKind::Idle);
        }
    }

    #[test]
    fn full_utilization_is_all_run() {
        let mut g = BurstGenerator::paper(1.0);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(g.next_burst(&mut r).kind, BurstKind::Run);
        }
    }

    #[test]
    fn bursts_respect_minimum() {
        let mut g = BurstGenerator::paper(0.05);
        let mut r = rng();
        for _ in 0..10_000 {
            let b = g.next_burst(&mut r);
            assert!(b.duration >= MIN_BURST);
        }
    }

    #[test]
    fn retargeting_changes_burst_scale() {
        let mut r = rng();
        let mut g = BurstGenerator::paper(0.1);
        let mean_low: f64 = (0..20_000)
            .map(|_| g.next_burst(&mut r))
            .filter(|b| b.kind == BurstKind::Run)
            .map(|b| b.duration.as_secs_f64())
            .sum::<f64>()
            / 10_000.0;
        g.set_utilization(0.9);
        let mean_high: f64 = (0..20_000)
            .map(|_| g.next_burst(&mut r))
            .filter(|b| b.kind == BurstKind::Run)
            .map(|b| b.duration.as_secs_f64())
            .sum::<f64>()
            / 10_000.0;
        assert!(
            mean_high > 10.0 * mean_low,
            "run bursts should lengthen with utilization: {mean_low} vs {mean_high}"
        );
    }

    #[test]
    fn degenerate_to_normal_transition() {
        let mut g = BurstGenerator::paper(0.0);
        let mut r = rng();
        let _ = g.next_burst(&mut r);
        g.set_utilization(0.5);
        // Must now produce both kinds.
        let kinds: std::collections::HashSet<_> =
            (0..10).map(|_| g.next_burst(&mut r).kind).collect();
        assert_eq!(kinds.len(), 2);
    }

    #[test]
    fn deterministic_given_same_stream() {
        let mut g1 = BurstGenerator::paper(0.37);
        let mut g2 = BurstGenerator::paper(0.37);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..1000 {
            assert_eq!(g1.next_burst(&mut r1), g2.next_burst(&mut r2));
        }
    }

    #[test]
    fn shared_and_private_fit_tables_agree() {
        // The process-wide shared table and a freshly built private one
        // must generate identical bursts through retargets — including at
        // interpolated (cache-path) utilization levels.
        let mut g1 = BurstGenerator::paper(0.37);
        let mut g2 = BurstGenerator::new(
            Arc::new(BurstFitTable::new(BurstParamTable::paper_calibrated())),
            0.37,
        );
        let mut r1 = rng();
        let mut r2 = rng();
        for i in 0..1000 {
            if i % 100 == 0 {
                let u = [0.33, 0.871, 0.15, 0.5002][i / 100 % 4];
                g1.set_utilization(u);
                g2.set_utilization(u);
            }
            assert_eq!(g1.next_burst(&mut r1), g2.next_burst(&mut r2));
        }
    }

    #[test]
    fn batched_bursts_match_sequential_bit_for_bit() {
        let mut g1 = BurstGenerator::paper(0.37);
        let mut g2 = BurstGenerator::paper(0.37);
        let mut r1 = rng();
        let mut r2 = rng();
        let mut batch = Vec::new();
        // Odd batch size exercises the uneven run/idle draw split; repeated
        // batches exercise the carried-over alternation phase.
        for _ in 0..7 {
            g1.next_bursts_into(&mut r1, 33, &mut batch);
            let seq: Vec<Burst> = (0..33).map(|_| g2.next_burst(&mut r2)).collect();
            assert_eq!(batch, seq);
        }
        // Identical continuation: generator phase and RNG state both agree.
        assert_eq!(g1.next_burst(&mut r1), g2.next_burst(&mut r2));
    }

    #[test]
    fn batched_bursts_fall_back_for_degenerate_phases() {
        let mut g = BurstGenerator::paper(0.0);
        let mut out = Vec::new();
        g.next_bursts_into(&mut rng(), 5, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|b| b.kind == BurstKind::Idle));
    }

    #[test]
    fn batched_bursts_fall_back_for_erlang_mix_fits() {
        // Low-variance buckets fit to Erlang mixtures, which have no fixed
        // draw count; the fallback must still match sequential generation.
        let mut buckets = *BurstParamTable::paper_calibrated().buckets();
        for b in &mut buckets {
            b.run_var = (b.run_mean * b.run_mean * 0.4).max(1e-12);
            b.idle_var = (b.idle_mean * b.idle_mean * 0.4).max(1e-12);
        }
        let t = BurstParamTable::from_buckets(buckets);
        let (run, idle) = BurstFitTable::new(t.clone()).fits_for(0.42);
        assert_eq!(run.unwrap().family(), "erlang-mix");
        assert_eq!(idle.unwrap().family(), "erlang-mix");
        let mut g1 = BurstGenerator::new(Arc::new(BurstFitTable::new(t.clone())), 0.42);
        let mut g2 = BurstGenerator::new(Arc::new(BurstFitTable::new(t)), 0.42);
        let mut r1 = rng();
        let mut r2 = rng();
        let mut batch = Vec::new();
        g1.next_bursts_into(&mut r1, 50, &mut batch);
        let seq: Vec<Burst> = (0..50).map(|_| g2.next_burst(&mut r2)).collect();
        assert_eq!(batch, seq);
        assert_eq!(g1.next_burst(&mut r1), g2.next_burst(&mut r2));
    }

    #[test]
    fn identical_param_retargets_skip_rebuild() {
        // Custom table where buckets 4..=8 (20%–40%) are identical: any
        // utilization in that span interpolates to the same parameters,
        // so retargets within it must not replace the distributions.
        let mut buckets = *BurstParamTable::paper_calibrated().buckets();
        for i in 5..=8 {
            buckets[i] = buckets[4];
        }
        let t = BurstParamTable::from_buckets(buckets);
        let mut g = BurstGenerator::new(Arc::new(BurstFitTable::new(t)), 0.22);
        assert_eq!(g.rebuilds(), 1);
        g.set_utilization(0.31);
        g.set_utilization(0.37);
        assert_eq!(g.rebuilds(), 1, "identical interpolated params must skip the rebuild");
        g.set_utilization(0.9);
        assert_eq!(g.rebuilds(), 2, "leaving the flat span must rebuild");
    }

    #[test]
    fn clamped_retargets_skip_rebuild() {
        let mut g = BurstGenerator::paper(1.0);
        assert_eq!(g.rebuilds(), 1);
        g.set_utilization(1.7); // clamps to 1.0
        g.set_utilization(42.0);
        assert_eq!(g.rebuilds(), 1);
    }
}
