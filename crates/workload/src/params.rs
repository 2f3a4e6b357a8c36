//! The fine-grain burst parameter table (paper Fig 3).
//!
//! Section 3.1 reduces the measured AIX dispatch traces to, for each of 21
//! CPU-utilization buckets (0%, 5%, …, 100%), the mean and variance of the
//! run-burst and idle-burst durations observed in 2-second windows whose
//! average utilization falls in that bucket. Fine-grain workloads are then
//! generated by linear interpolation between the two closest buckets.
//!
//! The concrete numbers here are our digitization of the Fig 3 curves,
//! adjusted to be *self-consistent*: within a bucket at utilization `u`,
//! the expected busy fraction `run_mean / (run_mean + idle_mean)` equals
//! `u` exactly. (The paper's four panels cannot all hold simultaneously
//! under that identity — an artifact of how bursts spanning window
//! boundaries were aggregated.) We anchor on (a) the run-burst panel's
//! 0–0.3 s scale and monotone growth, and (b) the Sec 4.1 results the
//! moments must reproduce: a Local-job Delay Ratio near 1% at a 100 µs
//! context switch (peaking ~6–8% at 500 µs) and a cycle-stealing ratio
//! above 90% — which pins the low-utilization run-burst mean near 8 ms.
//! Idle-burst means then follow from consistency and exceed the paper's
//! 0–30 ms idle panel at very low utilization; the trade-off is recorded
//! in EXPERIMENTS.md. See DESIGN.md, substitution 1.

use linger_sim_core::round_half_away;
use serde::{Deserialize, Serialize};

/// Number of utilization buckets (0%, 5%, …, 100%).
pub const NUM_BUCKETS: usize = 21;

/// Width of one bucket as a fraction (5%).
pub const BUCKET_WIDTH: f64 = 0.05;

/// The 2-second averaging window the buckets are defined over (paper
/// Sec 3.1: "two-second intervals").
pub const WINDOW_SECS: f64 = 2.0;

/// Burst moments for one utilization bucket. Times in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketParams {
    /// Mean run-burst duration.
    pub run_mean: f64,
    /// Variance of run-burst duration.
    pub run_var: f64,
    /// Mean idle-burst duration.
    pub idle_mean: f64,
    /// Variance of idle-burst duration.
    pub idle_var: f64,
}

#[cfg(test)]
impl BucketParams {
    /// Expected CPU utilization implied by these moments
    /// (`run / (run + idle)`), or 0 when no run bursts occur.
    fn implied_utilization(&self) -> f64 {
        let total = self.run_mean + self.idle_mean;
        if total == 0.0 {
            0.0
        } else {
            self.run_mean / total
        }
    }
}

/// The 21-bucket parameter table with linear interpolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstParamTable {
    buckets: [BucketParams; NUM_BUCKETS],
}

/// Digitized Fig 3 table. Index `i` is the `5·i` percent bucket.
///
/// Construction: run-burst mean `R(u) = 8 ms + 272 ms·u³` (monotone,
/// convex, reaching the panel's 0.28 s at saturation), idle-burst mean
/// `I(u) = R(u)·(1−u)/u` (utilization consistency), run CV² falling from
/// 20.0 toward 4.0 with utilization (the heavy low-load tails that drive
/// the paper's barrier-max slowdowns in Sec 5), capped so the variance
/// stays on the Fig 3 panel's 0–0.1 s² scale; idle CV² 1.2. The
/// degenerate 0% bucket has no run bursts and long (300 ms) idle
/// stretches; the 100% bucket has no idle bursts.
const PAPER_TABLE: [BucketParams; NUM_BUCKETS] = [
    BucketParams {
        run_mean: 0.0,
        run_var: 0.000000e+00,
        idle_mean: 0.3,
        idle_var: 1.080000e-01,
    }, // 0%
    BucketParams {
        run_mean: 0.008034,
        run_var: 1.239267e-03,
        idle_mean: 0.152646,
        idle_var: 2.796096e-02,
    }, // 5%
    BucketParams {
        run_mean: 0.008272,
        run_var: 1.259038e-03,
        idle_mean: 0.074448,
        idle_var: 6.651006e-03,
    }, // 10%
    BucketParams {
        run_mean: 0.008918,
        run_var: 1.399741e-03,
        idle_mean: 0.0505353,
        idle_var: 3.064584e-03,
    }, // 15%
    BucketParams {
        run_mean: 0.010176,
        run_var: 1.739656e-03,
        idle_mean: 0.040704,
        idle_var: 1.988179e-03,
    }, // 20%
    BucketParams {
        run_mean: 0.01225,
        run_var: 2.401000e-03,
        idle_mean: 0.03675,
        idle_var: 1.620675e-03,
    }, // 25%
    BucketParams {
        run_mean: 0.015344,
        run_var: 3.578663e-03,
        idle_mean: 0.0358027,
        idle_var: 1.538197e-03,
    }, // 30%
    BucketParams {
        run_mean: 0.019662,
        run_var: 5.566957e-03,
        idle_mean: 0.0365151,
        idle_var: 1.600027e-03,
    }, // 35%
    BucketParams {
        run_mean: 0.025408,
        run_var: 8.779704e-03,
        idle_mean: 0.038112,
        idle_var: 1.743029e-03,
    }, // 40%
    BucketParams {
        run_mean: 0.032786,
        run_var: 1.375900e-02,
        idle_mean: 0.0400718,
        idle_var: 1.926897e-03,
    }, // 45%
    BucketParams {
        run_mean: 0.042,
        run_var: 2.116800e-02,
        idle_mean: 0.042,
        idle_var: 2.116800e-03,
    }, // 50%
    BucketParams {
        run_mean: 0.053254,
        run_var: 3.176307e-02,
        idle_mean: 0.0435715,
        idle_var: 2.278166e-03,
    }, // 55%
    BucketParams {
        run_mean: 0.066752,
        run_var: 4.634063e-02,
        idle_mean: 0.0445013,
        idle_var: 2.376442e-03,
    }, // 60%
    BucketParams {
        run_mean: 0.082698,
        run_var: 6.565401e-02,
        idle_mean: 0.0445297,
        idle_var: 2.379472e-03,
    }, // 65%
    BucketParams {
        run_mean: 0.101296,
        run_var: 9.029574e-02,
        idle_mean: 0.0434126,
        idle_var: 2.261582e-03,
    }, // 70%
    BucketParams {
        run_mean: 0.12275,
        run_var: 9.400000e-02,
        idle_mean: 0.0409167,
        idle_var: 2.009008e-03,
    }, // 75%
    BucketParams {
        run_mean: 0.147264,
        run_var: 9.400000e-02,
        idle_mean: 0.036816,
        idle_var: 1.626501e-03,
    }, // 80%
    BucketParams {
        run_mean: 0.175042,
        run_var: 9.400000e-02,
        idle_mean: 0.0308898,
        idle_var: 1.145013e-03,
    }, // 85%
    BucketParams {
        run_mean: 0.206288,
        run_var: 9.400000e-02,
        idle_mean: 0.0229209,
        idle_var: 6.304406e-04,
    }, // 90%
    BucketParams {
        run_mean: 0.241206,
        run_var: 9.400000e-02,
        idle_mean: 0.0126951,
        idle_var: 1.933972e-04,
    }, // 95%
    BucketParams {
        run_mean: 0.28,
        run_var: 9.400000e-02,
        idle_mean: 0.0,
        idle_var: 0.000000e+00,
    }, // 100%
];

impl BurstParamTable {
    /// The calibrated table digitized from the paper's Fig 3.
    pub fn paper_calibrated() -> Self {
        BurstParamTable { buckets: PAPER_TABLE }
    }

    /// Build a table from explicit bucket values (e.g. measured from a
    /// dispatch trace by [`crate::analysis::FineGrainAnalysis`]).
    pub fn from_buckets(buckets: [BucketParams; NUM_BUCKETS]) -> Self {
        BurstParamTable { buckets }
    }

    /// The raw bucket values.
    pub fn buckets(&self) -> &[BucketParams; NUM_BUCKETS] {
        &self.buckets
    }

    /// The bucket whose level is closest to utilization `u` ∈ [0, 1]
    /// (the paper's assignment rule for trace windows).
    pub fn nearest_bucket(u: f64) -> usize {
        let u = u.clamp(0.0, 1.0);
        (u / BUCKET_WIDTH).round() as usize
    }

    /// Interpolated burst parameters at utilization `u` ∈ [0, 1].
    ///
    /// "To generate fine-grained workloads, we use linear interpolation
    /// between the two closest of the 21 levels of utilization" (Sec 3.1).
    ///
    /// Called once per busy node-window by the cluster simulator, so it
    /// avoids libm: `pos ≥ 0` (or NaN), where rounding is exact through
    /// [`round_half_away`] and `floor` is the integer cast.
    #[inline]
    pub fn interpolate(&self, u: f64) -> BucketParams {
        let u = u.clamp(0.0, 1.0);
        let pos = u / BUCKET_WIDTH;
        // Snap to the grid when floating-point division lands a hair off a
        // bucket boundary (e.g. 0.15/0.05 = 2.9999…), so exact bucket
        // levels return exact bucket values.
        let nearest = round_half_away(pos);
        let pos = if (pos - nearest).abs() < 1e-9 { nearest } else { pos };
        let lo = pos as usize;
        if lo >= NUM_BUCKETS - 1 {
            return self.buckets[NUM_BUCKETS - 1];
        }
        let w = pos - lo as f64;
        let a = &self.buckets[lo];
        let b = &self.buckets[lo + 1];
        let lerp = |x: f64, y: f64| x + (y - x) * w;
        BucketParams {
            run_mean: lerp(a.run_mean, b.run_mean),
            run_var: lerp(a.run_var, b.run_var),
            idle_mean: lerp(a.idle_mean, b.idle_mean),
            idle_var: lerp(a.idle_var, b.idle_var),
        }
    }
}

impl Default for BurstParamTable {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `interpolate` as it was before the libm-free rounding: the oracle
    /// the fast version must match bit for bit.
    fn interpolate_with_libm(t: &BurstParamTable, u: f64) -> BucketParams {
        let u = u.clamp(0.0, 1.0);
        let pos = u / BUCKET_WIDTH;
        let nearest = pos.round();
        let pos = if (pos - nearest).abs() < 1e-9 { nearest } else { pos };
        let lo = pos.floor() as usize;
        if lo >= NUM_BUCKETS - 1 {
            return t.buckets[NUM_BUCKETS - 1];
        }
        let w = pos - lo as f64;
        let a = &t.buckets[lo];
        let b = &t.buckets[lo + 1];
        let lerp = |x: f64, y: f64| x + (y - x) * w;
        BucketParams {
            run_mean: lerp(a.run_mean, b.run_mean),
            run_var: lerp(a.run_var, b.run_var),
            idle_mean: lerp(a.idle_mean, b.idle_mean),
            idle_var: lerp(a.idle_var, b.idle_var),
        }
    }

    /// Utilizations that stress the interpolation: a dense grid over
    /// [-0.01, 1.01], every bucket level with its neighbours up to three
    /// ulps away, the edges of the 1e-9 grid snap, and NaN.
    fn interpolation_probes() -> Vec<f64> {
        let mut us: Vec<f64> = (0..=102_000).map(|i| -0.01 + i as f64 * 1e-5).collect();
        for i in 0..NUM_BUCKETS {
            for level in [i as f64 * BUCKET_WIDTH, i as f64 / 20.0] {
                let (mut up, mut down) = (level, level);
                us.push(level);
                for _ in 0..3 {
                    up = up.next_up();
                    down = down.next_down();
                    us.extend([up, down]);
                }
                for off in [0.9e-9, 1e-9, 1.1e-9] {
                    let level = i as f64;
                    us.extend([(level + off) * BUCKET_WIDTH, (level - off) * BUCKET_WIDTH]);
                }
            }
        }
        us.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        us
    }

    fn bits(p: &BucketParams) -> [u64; 4] {
        [p.run_mean, p.run_var, p.idle_mean, p.idle_var].map(f64::to_bits)
    }

    #[test]
    fn interpolate_matches_the_libm_version_bit_for_bit() {
        let t = BurstParamTable::paper_calibrated();
        for u in interpolation_probes() {
            assert_eq!(bits(&t.interpolate(u)), bits(&interpolate_with_libm(&t, u)), "u = {u:e}");
        }
    }

    #[test]
    fn table_has_consistent_utilization() {
        let t = BurstParamTable::paper_calibrated();
        for (i, b) in t.buckets().iter().enumerate() {
            let level = i as f64 * BUCKET_WIDTH;
            if i == 0 || i == NUM_BUCKETS - 1 {
                continue; // degenerate ends
            }
            let implied = b.implied_utilization();
            assert!(
                (implied - level).abs() < 0.005,
                "bucket {i}: implied {implied} vs level {level}"
            );
        }
    }

    #[test]
    fn run_mean_is_monotone_increasing() {
        let t = BurstParamTable::paper_calibrated();
        for w in t.buckets().windows(2) {
            assert!(w[1].run_mean >= w[0].run_mean);
        }
    }

    #[test]
    fn idle_mean_shape() {
        // Idle bursts shorten steeply as load appears, stay on a ~35–45 ms
        // plateau through the mid-range (the consistency constraint allows
        // a shallow bump there), and drain to zero at saturation.
        let t = BurstParamTable::paper_calibrated();
        let b = t.buckets();
        for w in b[..6].windows(2) {
            assert!(w[1].idle_mean <= w[0].idle_mean + 1e-12, "low range must decline");
        }
        for w in b[14..].windows(2) {
            assert!(w[1].idle_mean <= w[0].idle_mean + 1e-12, "high range must decline");
        }
        for x in &b[6..14] {
            assert!((0.03..0.05).contains(&x.idle_mean), "plateau: {}", x.idle_mean);
        }
        assert_eq!(b[NUM_BUCKETS - 1].idle_mean, 0.0);
    }

    #[test]
    fn scales_match_figure_axes_and_fig5_targets() {
        let t = BurstParamTable::paper_calibrated();
        for b in t.buckets() {
            // Fig 3 run panels: mean 0–0.3 s, variance ≲ 0.1 s².
            assert!(b.run_mean <= 0.3);
            assert!(b.run_var <= 0.1);
        }
        // The endpoints reach the paper's full scale.
        assert!(t.buckets()[NUM_BUCKETS - 1].run_mean >= 0.25);
        // Fig 5 pins the analytic LDR (context switch / run-burst mean)
        // near 1% at 100 µs and 5–8% peak at 500 µs, and FCSR above 90%
        // (idle bursts must dwarf the 500 µs switch).
        for (i, b) in t.buckets().iter().enumerate() {
            if i == 0 || i == NUM_BUCKETS - 1 {
                continue;
            }
            let ldr_100 = 100e-6 / b.run_mean;
            let ldr_500 = 500e-6 / b.run_mean;
            assert!(ldr_100 < 0.015, "bucket {i}: LDR@100µs {ldr_100}");
            assert!(ldr_500 < 0.08, "bucket {i}: LDR@500µs {ldr_500}");
            assert!(500e-6 / b.idle_mean < 0.10, "bucket {i}: FCSR@500µs too low");
        }
    }

    #[test]
    fn nearest_bucket_rounds() {
        assert_eq!(BurstParamTable::nearest_bucket(0.0), 0);
        assert_eq!(BurstParamTable::nearest_bucket(0.024), 0);
        assert_eq!(BurstParamTable::nearest_bucket(0.026), 1);
        assert_eq!(BurstParamTable::nearest_bucket(0.50), 10);
        assert_eq!(BurstParamTable::nearest_bucket(1.0), 20);
        assert_eq!(BurstParamTable::nearest_bucket(2.0), 20); // clamped
        assert_eq!(BurstParamTable::nearest_bucket(-0.3), 0); // clamped
    }

    #[test]
    fn interpolation_hits_bucket_values_exactly() {
        let t = BurstParamTable::paper_calibrated();
        for i in 0..NUM_BUCKETS {
            let u = i as f64 * BUCKET_WIDTH;
            let p = t.interpolate(u);
            assert_eq!(p, t.buckets()[i], "bucket {i}");
        }
    }

    #[test]
    fn interpolation_is_between_neighbors() {
        let t = BurstParamTable::paper_calibrated();
        let p = t.interpolate(0.875); // between 85% and 90%
        let a = t.buckets()[17];
        let b = t.buckets()[18];
        assert!(p.run_mean > a.run_mean && p.run_mean < b.run_mean);
        assert!((p.run_mean - 0.5 * (a.run_mean + b.run_mean)).abs() < 1e-9);
    }

    #[test]
    fn interpolation_clamps_out_of_range() {
        let t = BurstParamTable::paper_calibrated();
        assert_eq!(t.interpolate(-0.5), t.buckets()[0]);
        assert_eq!(t.interpolate(1.5), t.buckets()[20]);
    }

    #[test]
    fn implied_utilization_of_degenerate_buckets() {
        let t = BurstParamTable::paper_calibrated();
        assert_eq!(t.buckets()[0].implied_utilization(), 0.0);
        assert_eq!(t.buckets()[20].implied_utilization(), 1.0);
    }
}
