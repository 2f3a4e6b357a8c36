//! Trace analysis: re-deriving the paper's characterization figures.
//!
//! * [`FineGrainAnalysis`] reproduces Sec 3.1: dispatch traces are cut into
//!   2-second windows, each window is assigned to the nearest of 21
//!   utilization buckets, and per-bucket run/idle burst moments,
//!   histograms, and hyper-exponential fits are extracted (Figs 2 and 3).
//! * [`CoarseAggregates`] reproduces Sec 3.2: the idle/non-idle split, the
//!   low-CPU share of non-idle time, and the available-memory CDFs
//!   (Fig 4).

use crate::burst::BurstKind;
use crate::coarse::{CoarseTrace, IDLE_CPU_THRESHOLD, TOTAL_MEMORY_KB};
use crate::dispatch::DispatchTrace;
use crate::params::{BucketParams, BurstParamTable, NUM_BUCKETS, WINDOW_SECS};
use linger_stats::{fit_two_moments, Ecdf, Fitted, Histogram, Online};
use serde::{Deserialize, Serialize};

/// Accumulated burst populations for one utilization bucket.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BucketAccum {
    /// Online moments of run-burst durations (seconds).
    pub run: Online,
    /// Online moments of idle-burst durations (seconds).
    pub idle: Online,
    /// Raw run-burst samples (for histograms/CDF overlays).
    pub run_samples: Vec<f64>,
    /// Raw idle-burst samples.
    pub idle_samples: Vec<f64>,
    /// Number of 2-second windows assigned to this bucket.
    pub windows: u64,
}

/// Fine-grain characterization of one or more dispatch traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FineGrainAnalysis {
    buckets: Vec<BucketAccum>,
    keep_samples: bool,
}

impl Default for FineGrainAnalysis {
    fn default() -> Self {
        Self::new(true)
    }
}

impl FineGrainAnalysis {
    /// An empty analysis. `keep_samples` controls whether raw burst
    /// durations are retained for histograms (Fig 2) or only moments
    /// (Fig 3) are kept.
    pub fn new(keep_samples: bool) -> Self {
        FineGrainAnalysis {
            buckets: (0..NUM_BUCKETS).map(|_| BucketAccum::default()).collect(),
            keep_samples,
        }
    }

    /// Ingest a dispatch trace.
    ///
    /// Each trace is divided into 2-second windows; the mean utilization
    /// of a window selects its bucket, and every burst *starting* inside
    /// the window contributes to that bucket's run or idle population
    /// (Sec 3.1's aggregation, with burst-to-window assignment by start
    /// time).
    pub fn ingest(&mut self, trace: &DispatchTrace) {
        let window_ns = (WINDOW_SECS * 1e9) as u64;
        // Pass 1: utilization of each window.
        let total_ns = trace.total_duration().as_nanos();
        if total_ns == 0 {
            return;
        }
        let n_windows = total_ns.div_ceil(window_ns) as usize;
        let mut busy_ns = vec![0u64; n_windows];
        let mut span_ns = vec![0u64; n_windows];
        let mut t = 0u64;
        for b in trace.bursts() {
            // Distribute the burst across the windows it overlaps.
            let mut start = t;
            let end = t + b.duration.as_nanos();
            while start < end {
                let w = (start / window_ns) as usize;
                let w_end = (start / window_ns + 1) * window_ns;
                let seg = end.min(w_end) - start;
                span_ns[w] += seg;
                if b.kind == BurstKind::Run {
                    busy_ns[w] += seg;
                }
                start += seg;
            }
            t = end;
        }
        let bucket_of: Vec<usize> = busy_ns
            .iter()
            .zip(&span_ns)
            .map(|(&b, &s)| {
                let u = if s == 0 { 0.0 } else { b as f64 / s as f64 };
                BurstParamTable::nearest_bucket(u)
            })
            .collect();

        // Pass 2: assign bursts to their start window's bucket.
        let mut t = 0u64;
        for b in trace.bursts() {
            let w = ((t / window_ns) as usize).min(n_windows - 1);
            let acc = &mut self.buckets[bucket_of[w]];
            let secs = b.duration.as_secs_f64();
            match b.kind {
                BurstKind::Run => {
                    acc.run.add(secs);
                    if self.keep_samples {
                        acc.run_samples.push(secs);
                    }
                }
                BurstKind::Idle => {
                    acc.idle.add(secs);
                    if self.keep_samples {
                        acc.idle_samples.push(secs);
                    }
                }
            }
            t += b.duration.as_nanos();
        }
        for (w, &bk) in bucket_of.iter().enumerate() {
            if span_ns[w] > 0 {
                self.buckets[bk].windows += 1;
            }
        }
    }

    /// Per-bucket accumulators.
    pub fn buckets(&self) -> &[BucketAccum] {
        &self.buckets
    }

    /// Measured moments as a parameter table (the Fig 3 output). Buckets
    /// with no observations inherit zeros.
    pub fn to_param_table(&self) -> BurstParamTable {
        let mut out = [BucketParams {
            run_mean: 0.0,
            run_var: 0.0,
            idle_mean: 0.0,
            idle_var: 0.0,
        }; NUM_BUCKETS];
        for (i, acc) in self.buckets.iter().enumerate() {
            out[i] = BucketParams {
                run_mean: acc.run.mean(),
                run_var: acc.run.variance_population(),
                idle_mean: acc.idle.mean(),
                idle_var: acc.idle.variance_population(),
            };
        }
        BurstParamTable::from_buckets(out)
    }

    /// Method-of-moments fits for bucket `i`, `(run, idle)`; `None` where
    /// a population is empty or degenerate.
    pub fn fitted(&self, i: usize) -> (Option<Fitted>, Option<Fitted>) {
        let acc = &self.buckets[i];
        let fit = |o: &Online| {
            if o.count() < 2 || o.mean() <= 0.0 {
                None
            } else {
                Some(fit_two_moments(o.mean(), o.variance_population()))
            }
        };
        (fit(&acc.run), fit(&acc.idle))
    }

    /// Burst-duration histogram for bucket `i` over `[0, hi)` seconds with
    /// `bins` bins — the Fig 2 empirical curves.
    pub fn histogram(&self, i: usize, kind: BurstKind, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, hi, bins);
        let samples = match kind {
            BurstKind::Run => &self.buckets[i].run_samples,
            BurstKind::Idle => &self.buckets[i].idle_samples,
        };
        h.extend(samples.iter().copied());
        h
    }

    /// Empirical CDF of burst durations for bucket `i`.
    pub fn ecdf(&self, i: usize, kind: BurstKind) -> Ecdf {
        let samples = match kind {
            BurstKind::Run => &self.buckets[i].run_samples,
            BurstKind::Idle => &self.buckets[i].idle_samples,
        };
        Ecdf::from_samples(samples.clone())
    }
}

/// Section 3.2 aggregates of a coarse-trace library.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoarseAggregates {
    /// Fraction of samples in the non-idle state (paper: 0.46).
    pub non_idle_fraction: f64,
    /// Of non-idle samples, the fraction with CPU < 10% (paper: 0.76).
    pub non_idle_low_cpu_fraction: f64,
    /// Mean CPU utilization over all samples.
    pub overall_cpu: f64,
    /// Mean CPU during idle samples.
    pub idle_cpu: f64,
    /// Mean CPU during non-idle samples.
    pub non_idle_cpu: f64,
    /// Available memory (KB) distribution over all samples.
    pub mem_all: Ecdf,
    /// Available memory during idle samples.
    pub mem_idle: Ecdf,
    /// Available memory during non-idle samples.
    pub mem_non_idle: Ecdf,
}

impl CoarseAggregates {
    /// Analyze a library of coarse traces.
    pub fn analyze(traces: &[CoarseTrace]) -> Self {
        let mut non_idle = 0u64;
        let mut total = 0u64;
        let mut low = 0u64;
        let mut cpu_all = 0.0;
        let mut cpu_idle = 0.0;
        let mut cpu_non_idle = 0.0;
        let mut mem_all = Vec::new();
        let mut mem_idle = Vec::new();
        let mut mem_non_idle = Vec::new();
        for t in traces {
            for (s, &idle) in t.samples().iter().zip(t.idle_flags()) {
                total += 1;
                cpu_all += s.cpu;
                let free = (TOTAL_MEMORY_KB.saturating_sub(s.mem_used_kb)) as f64;
                mem_all.push(free);
                if idle {
                    cpu_idle += s.cpu;
                    mem_idle.push(free);
                } else {
                    non_idle += 1;
                    cpu_non_idle += s.cpu;
                    mem_non_idle.push(free);
                    if s.cpu < IDLE_CPU_THRESHOLD {
                        low += 1;
                    }
                }
            }
        }
        let idle_count = total - non_idle;
        CoarseAggregates {
            non_idle_fraction: ratio(non_idle, total),
            non_idle_low_cpu_fraction: ratio(low, non_idle),
            overall_cpu: if total == 0 { 0.0 } else { cpu_all / total as f64 },
            idle_cpu: if idle_count == 0 { 0.0 } else { cpu_idle / idle_count as f64 },
            non_idle_cpu: if non_idle == 0 { 0.0 } else { cpu_non_idle / non_idle as f64 },
            mem_all: Ecdf::from_samples(mem_all),
            mem_idle: Ecdf::from_samples(mem_idle),
            mem_non_idle: Ecdf::from_samples(mem_non_idle),
        }
    }

    /// "x KB available at least `q` of the time": the (1−q) quantile of
    /// the free-memory distribution (Fig 4 is plotted as fraction of time
    /// at least x KB are available).
    pub fn mem_available_at_least(&self, q: f64) -> f64 {
        self.mem_all.quantile(1.0 - q)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseTraceConfig;
    use linger_sim_core::{RngFactory, SimDuration};
    use linger_stats::Distribution;

    #[test]
    fn fixed_trace_lands_in_right_bucket() {
        let f = RngFactory::new(50);
        let trace = DispatchTrace::synthesize_fixed(&f, 0, 0.50, SimDuration::from_secs(1200));
        let mut an = FineGrainAnalysis::new(false);
        an.ingest(&trace);
        // Windows should concentrate around bucket 10 (50%). The heavy
        // run-burst tails (CV² ≈ 5 at mid-load) legitimately spread
        // 2-second window utilizations across neighbouring buckets.
        let windows: Vec<u64> = an.buckets().iter().map(|b| b.windows).collect();
        let total: u64 = windows.iter().sum();
        let near: u64 = windows[5..=15].iter().sum();
        assert!(
            near as f64 / total as f64 > 0.8,
            "windows not concentrated near 50%: {windows:?}"
        );
        // The heavy tail skews the per-window mode below the target, but
        // the window-count-weighted mean bucket must sit near 50%.
        let mean_bucket: f64 = windows
            .iter()
            .enumerate()
            .map(|(i, &c)| i as f64 * c as f64)
            .sum::<f64>()
            / total as f64;
        assert!((8.0..=12.0).contains(&mean_bucket), "mean bucket {mean_bucket}");
    }

    #[test]
    fn rederived_moments_match_ground_truth() {
        // The heart of the Fig 3 reproduction: analyze synthetic dispatch
        // traces and compare bucket moments to the generating table.
        let f = RngFactory::new(51);
        let mut an = FineGrainAnalysis::new(false);
        for (id, u) in [(0u64, 0.10f64), (1, 0.50)] {
            let trace = DispatchTrace::synthesize_fixed(&f, id, u, SimDuration::from_secs(2400));
            an.ingest(&trace);
        }
        let truth = BurstParamTable::paper_calibrated();
        for bucket in [2usize, 10] {
            let measured = an.to_param_table().buckets()[bucket];
            let expected = truth.buckets()[bucket];
            assert!(
                (measured.run_mean - expected.run_mean).abs() / expected.run_mean < 0.2,
                "bucket {bucket} run mean {} vs {}",
                measured.run_mean,
                expected.run_mean
            );
            assert!(
                (measured.idle_mean - expected.idle_mean).abs() / expected.idle_mean < 0.2,
                "bucket {bucket} idle mean {} vs {}",
                measured.idle_mean,
                expected.idle_mean
            );
        }
    }

    #[test]
    fn fitted_cdf_tracks_empirical_cdf() {
        // Fig 2's claim: "The curves almost exactly match in run and idle
        // burst distributions." KS distance between the empirical CDF and
        // the method-of-moments fit should be small.
        let f = RngFactory::new(52);
        let trace = DispatchTrace::synthesize_fixed(&f, 0, 0.10, SimDuration::from_secs(2400));
        let mut an = FineGrainAnalysis::new(true);
        an.ingest(&trace);
        let bucket = 2; // 10%
        let (run_fit, idle_fit) = an.fitted(bucket);
        let run_fit = run_fit.expect("run fit");
        let idle_fit = idle_fit.expect("idle fit");
        let d_run = an.ecdf(bucket, BurstKind::Run).ks_distance(|x| run_fit.cdf(x));
        let d_idle = an.ecdf(bucket, BurstKind::Idle).ks_distance(|x| idle_fit.cdf(x));
        assert!(d_run < 0.08, "run KS distance {d_run}");
        assert!(d_idle < 0.08, "idle KS distance {d_idle}");
    }

    #[test]
    fn histograms_cover_samples() {
        let f = RngFactory::new(53);
        let trace = DispatchTrace::synthesize_fixed(&f, 0, 0.5, SimDuration::from_secs(300));
        let mut an = FineGrainAnalysis::new(true);
        an.ingest(&trace);
        let h = an.histogram(10, BurstKind::Run, 0.1, 50);
        assert!(h.total() > 0);
        assert_eq!(h.total(), an.buckets()[10].run_samples.len() as u64);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let mut an = FineGrainAnalysis::new(true);
        an.ingest(&DispatchTrace::default());
        assert!(an.buckets().iter().all(|b| b.windows == 0));
    }

    #[test]
    fn coarse_aggregates_match_calibration() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(8 * 3600),
            ..Default::default()
        };
        let f = RngFactory::new(54);
        let traces = cfg.synthesize_library(&f, 10);
        let agg = CoarseAggregates::analyze(&traces);
        assert!((agg.non_idle_fraction - 0.46).abs() < 0.07, "{}", agg.non_idle_fraction);
        assert!(
            (agg.non_idle_low_cpu_fraction - 0.76).abs() < 0.08,
            "{}",
            agg.non_idle_low_cpu_fraction
        );
        // Non-idle intervals are busier than idle ones, but only somewhat
        // ("even non-idle intervals have very low usage").
        assert!(agg.non_idle_cpu > agg.idle_cpu);
        assert!(agg.non_idle_cpu < 0.35);
        // Fig 4 anchors.
        assert!(agg.mem_available_at_least(0.90) >= 13_000.0);
        assert!(agg.mem_available_at_least(0.95) >= 9_000.0);
        // Idle vs non-idle memory distributions are close (paper: "no
        // significant difference"): compare medians within 20%.
        let mi = agg.mem_idle.quantile(0.5);
        let mn = agg.mem_non_idle.quantile(0.5);
        assert!((mi - mn).abs() / mi < 0.25, "idle {mi} vs non-idle {mn}");
    }

    #[test]
    fn aggregates_of_empty_library() {
        let agg = CoarseAggregates::analyze(&[]);
        assert_eq!(agg.non_idle_fraction, 0.0);
        assert!(agg.mem_all.is_empty());
    }
}
