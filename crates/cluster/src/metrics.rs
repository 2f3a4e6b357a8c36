//! Cluster performance metrics and the Fig 7 / Fig 8 experiment drivers.
//!
//! Fig 7's four metrics, verbatim from the paper:
//! * **Average completion time** — "the average time to completion of a
//!   foreign job. This includes waiting time before initially being
//!   executed, paused time, and migration time."
//! * **Variation** — "the standard deviation of job execution time (time
//!   from first starting execution to completion)", reported relative to
//!   the mean.
//! * **Family Time** — "the completion time of the last job in the family".
//! * **Throughput** — "the average amount of processor time used by
//!   foreign jobs per second when the number of jobs in the system was
//!   held constant."

use crate::config::ClusterConfig;
use crate::sim::ClusterSim;
use crate::state::StateBreakdown;
use linger::{JobFamily, Policy};
use linger_sim_core::{par_map_indexed, replication_seed, SimTime};
use linger_stats::Online;
use linger_workload::WorkloadRealization;

use serde::{Deserialize, Serialize};

/// The Fig 7 row plus the Fig 8 bars for one policy on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyMetrics {
    /// The policy evaluated.
    pub policy: Policy,
    /// Mean job completion time, seconds.
    pub avg_completion_secs: f64,
    /// Std-dev of execution time relative to its mean (Fig 7 "Variation").
    pub variation: f64,
    /// Completion time of the last job, seconds.
    pub family_time_secs: f64,
    /// Foreign CPU-seconds delivered per second of constant-load run.
    pub throughput: f64,
    /// Cluster-wide foreground delay ratio (family run).
    pub foreground_delay: f64,
    /// Mean per-job state breakdown, seconds per state (Fig 8).
    pub avg_breakdown: BreakdownSecs,
    /// Mean migrations per job.
    pub avg_migrations: f64,
    /// Whether the family run finished before the safety horizon.
    pub finished: bool,
}

/// [`StateBreakdown`] in seconds, averaged per job (the Fig 8 bars).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BreakdownSecs {
    /// Mean queued time.
    pub queued: f64,
    /// Mean running-on-idle-node time.
    pub running: f64,
    /// Mean lingering time.
    pub lingering: f64,
    /// Mean paused time.
    pub paused: f64,
    /// Mean migrating time.
    pub migrating: f64,
}

impl BreakdownSecs {
    fn from_total(total: &StateBreakdown, jobs: f64) -> Self {
        BreakdownSecs {
            queued: total.queued.as_secs_f64() / jobs,
            running: total.running.as_secs_f64() / jobs,
            lingering: total.lingering.as_secs_f64() / jobs,
            paused: total.paused.as_secs_f64() / jobs,
            migrating: total.migrating.as_secs_f64() / jobs,
        }
    }

    /// Sum of all bars.
    pub fn total(&self) -> f64 {
        self.queued + self.running + self.lingering + self.paused + self.migrating
    }
}

/// The owner workload every [`ClusterConfig::paper`] run on `nodes`
/// machines at `seed` replays, whatever its policy or job family — the
/// realization [`evaluate_policy`] and [`policy_comparison`] expect.
pub fn paper_realization(nodes: usize, seed: u64) -> WorkloadRealization {
    let trace = ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty()).trace;
    WorkloadRealization::synthesize(&trace, seed, nodes)
}

/// Evaluate one policy on one workload: a family run (completion metrics)
/// plus a constant-load run (throughput), on `real.nodes()` machines.
///
/// Both runs replay `real`, which must be [`paper_realization`] at the
/// same node count and `seed`; a [`policy_comparison`] passes one
/// realization to all four policies.
pub fn evaluate_policy(
    policy: Policy,
    family: JobFamily,
    real: &WorkloadRealization,
    seed: u64,
) -> PolicyMetrics {
    let mut cfg = ClusterConfig::paper(policy, family);
    cfg.nodes = real.nodes();
    cfg.seed = seed;

    let mut fam_sim = ClusterSim::with_realization(cfg.clone(), real);
    let finished = fam_sim.run();

    let mut completion = Online::new();
    let mut execution = Online::new();
    let mut family_end = SimTime::ZERO;
    let mut total_breakdown = StateBreakdown::default();
    let mut migrations = 0u64;
    let mut done = 0usize;
    for j in fam_sim.jobs() {
        if let Some(c) = j.completion_time() {
            completion.add(c.as_secs_f64());
            done += 1;
        }
        if let Some(e) = j.execution_time() {
            execution.add(e.as_secs_f64());
        }
        if let Some(at) = j.completed_at {
            family_end = family_end.max(at);
        }
        total_breakdown.merge(&j.breakdown);
        migrations += j.migrations as u64;
    }

    // The throughput run varies only the termination mode — same trace
    // config, seed, and node count, hence the same realization.
    let tp_cfg = cfg.with_throughput_mode();
    let mut tp_sim = ClusterSim::with_realization(tp_cfg, real);
    tp_sim.run();
    let horizon = tp_sim.now().as_secs_f64();
    let throughput =
        if horizon > 0.0 { tp_sim.foreign_cpu_delivered().as_secs_f64() / horizon } else { 0.0 };

    PolicyMetrics {
        policy,
        avg_completion_secs: completion.mean(),
        variation: execution.cv(),
        family_time_secs: family_end.as_secs_f64(),
        throughput,
        foreground_delay: fam_sim.foreground_delay_ratio(),
        avg_breakdown: BreakdownSecs::from_total(&total_breakdown, done.max(1) as f64),
        avg_migrations: migrations as f64 / done.max(1) as f64,
        finished,
    }
}

/// The full Fig 7 table (and Fig 8 data) for one workload: all four
/// policies on one workload realization `real` (common random numbers —
/// every policy sees the same traces and offsets), which must be
/// [`paper_realization`] at `seed`.
///
/// The four policy runs are independent simulations and fan out across
/// worker threads; results come back in `Policy::ALL` order regardless
/// of thread count.
pub fn policy_comparison(
    family: JobFamily,
    real: &WorkloadRealization,
    seed: u64,
) -> Vec<PolicyMetrics> {
    par_map_indexed(Policy::ALL.len(), None, |i| {
        evaluate_policy(Policy::ALL[i], family.clone(), real, seed)
    })
}

/// Mean ± 95% confidence half-width over replicated runs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Estimate {
    /// Mean over replications.
    pub mean: f64,
    /// Normal-approximation 95% CI half-width.
    pub ci95: f64,
}

impl Estimate {
    fn from(o: &Online) -> Self {
        let ci95 = o.ci_half_width(0.95).expect("0.95 is a supported confidence level");
        Estimate { mean: o.mean(), ci95 }
    }
}

/// [`PolicyMetrics`] aggregated over independent replications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicatedMetrics {
    /// The policy evaluated.
    pub policy: Policy,
    /// Replications run.
    pub replications: u32,
    /// Average job completion time (s).
    pub avg_completion_secs: Estimate,
    /// Steady-state throughput (cpu-s/s).
    pub throughput: Estimate,
    /// Family completion time (s).
    pub family_time_secs: Estimate,
    /// Cluster-wide foreground delay ratio.
    pub foreground_delay: Estimate,
}

/// Replicate [`evaluate_policy`] over `reps` master seeds and report
/// means with confidence intervals — the missing error bars of Fig 7.
/// Replication `r` uses seed [`replication_seed`]`(base_seed, r)` (a
/// wrapping walk — see the seed-space contract in `sim-core::rng`),
/// identical across policies (common random numbers), so policy
/// *differences* are tighter than the marginal intervals suggest.
///
/// Replications are independent and fan out across worker threads; the
/// seed of replication `r` depends only on `r`, so the aggregate is
/// byte-identical at any thread count (accumulation happens afterwards,
/// in replication order).
pub fn evaluate_policy_replicated(
    policy: Policy,
    family: JobFamily,
    nodes: usize,
    base_seed: u64,
    reps: u32,
) -> ReplicatedMetrics {
    assert!(reps >= 2, "need at least two replications for an interval");
    let runs = par_map_indexed(reps as usize, None, |r| {
        let seed = replication_seed(base_seed, r as u64);
        evaluate_policy(policy, family.clone(), &paper_realization(nodes, seed), seed)
    });
    let mut avg = Online::new();
    let mut tput = Online::new();
    let mut fam = Online::new();
    let mut delay = Online::new();
    for m in &runs {
        avg.add(m.avg_completion_secs);
        tput.add(m.throughput);
        fam.add(m.family_time_secs);
        delay.add(m.foreground_delay);
    }
    ReplicatedMetrics {
        policy,
        replications: reps,
        avg_completion_secs: Estimate::from(&avg),
        throughput: Estimate::from(&tput),
        family_time_secs: Estimate::from(&fam),
        foreground_delay: Estimate::from(&delay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger_sim_core::SimDuration;

    /// A scaled-down workload-1: jobs ≈ 2× nodes, heavy contention.
    fn heavy() -> JobFamily {
        JobFamily::uniform(24, SimDuration::from_secs(300), 8 * 1024)
    }

    /// A scaled-down workload-2: jobs ≈ nodes/4, light load.
    fn light() -> JobFamily {
        JobFamily::uniform(3, SimDuration::from_secs(600), 8 * 1024)
    }

    const NODES: usize = 12;
    const SEED: u64 = 42;

    fn compare(family: JobFamily) -> Vec<PolicyMetrics> {
        policy_comparison(family, &paper_realization(NODES, SEED), SEED)
    }

    #[test]
    fn heavy_load_lingering_beats_eviction() {
        // The paper's central cluster result (Fig 7, workload-1): LL/LF
        // improve average completion time and throughput substantially
        // over IE/PM.
        let m = compare(heavy());
        let (ll, lf, ie, pm) = (&m[0], &m[1], &m[2], &m[3]);
        assert!(ll.finished && lf.finished && ie.finished && pm.finished);
        assert!(
            ll.avg_completion_secs < 0.85 * ie.avg_completion_secs,
            "LL {} vs IE {}",
            ll.avg_completion_secs,
            ie.avg_completion_secs
        );
        assert!(
            lf.avg_completion_secs < 0.85 * pm.avg_completion_secs,
            "LF {} vs PM {}",
            lf.avg_completion_secs,
            pm.avg_completion_secs
        );
        assert!(
            ll.throughput > 1.25 * ie.throughput,
            "LL throughput {} vs IE {}",
            ll.throughput,
            ie.throughput
        );
        assert!(ll.family_time_secs < ie.family_time_secs);
    }

    #[test]
    fn light_load_policies_are_similar() {
        // Fig 7, workload-2: "the average job completion time of all four
        // policies is almost identical" because idle capacity suffices.
        let m = compare(light());
        let base = m[0].avg_completion_secs;
        for pm in &m {
            assert!(
                (pm.avg_completion_secs - base).abs() / base < 0.25,
                "{}: {} vs {}",
                pm.policy,
                pm.avg_completion_secs,
                base
            );
        }
    }

    #[test]
    fn foreground_delay_stays_small() {
        // "For both workloads the delay … for local (foreground)
        // processes was less than 0.5%." This scaled-down test keeps
        // every node saturated with a lingering job (2 jobs per node,
        // denser than the paper's mix), so allow up to the single-node
        // ~1% bound; the full 64-node Fig 7 run checks the 0.5% headline.
        for m in compare(heavy()) {
            assert!(m.foreground_delay < 0.01, "{}: delay {}", m.policy, m.foreground_delay);
        }
    }

    #[test]
    fn queue_time_dominates_eviction_policies_under_load() {
        // Fig 8(a): "The major difference between the linger and
        // non-linger policies is due to the reduced queue time."
        let m = compare(heavy());
        let (ll, ie) = (&m[0], &m[2]);
        assert!(
            ie.avg_breakdown.queued > 1.5 * ll.avg_breakdown.queued,
            "IE queued {} vs LL queued {}",
            ie.avg_breakdown.queued,
            ll.avg_breakdown.queued
        );
        // Lingering policies spend some time lingering; IE none.
        assert!(ll.avg_breakdown.lingering > 0.0);
        assert_eq!(ie.avg_breakdown.lingering, 0.0);
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let b = BreakdownSecs {
            queued: 1.5,
            running: 2.25,
            lingering: 0.75,
            paused: 4.0,
            migrating: 0.5,
        };
        assert_eq!(b.total(), 1.5 + 2.25 + 0.75 + 4.0 + 0.5);
        assert_eq!(BreakdownSecs::default().total(), 0.0);
    }

    #[test]
    fn breakdown_from_total_divides_each_state_by_job_count() {
        let total = StateBreakdown {
            queued: SimDuration::from_secs(40),
            running: SimDuration::from_secs(100),
            lingering: SimDuration::from_secs(20),
            paused: SimDuration::from_secs(8),
            migrating: SimDuration::from_secs(4),
        };
        let b = BreakdownSecs::from_total(&total, 4.0);
        assert_eq!(b.queued, 10.0);
        assert_eq!(b.running, 25.0);
        assert_eq!(b.lingering, 5.0);
        assert_eq!(b.paused, 2.0);
        assert_eq!(b.migrating, 1.0);
        // Per-job mean of the sum equals the sum of per-job means.
        assert!((b.total() - 172.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_job_breakdown_reconciles_with_completion_time() {
        // For every completed job the per-state breakdown must account
        // for the arrival-to-completion interval to within one
        // scheduling window (state time is charged at 2-second window
        // boundaries, so the final partial window is not attributed).
        let mut cfg = ClusterConfig::paper(Policy::LingerLonger, heavy());
        cfg.nodes = NODES;
        cfg.seed = SEED;
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        let mut checked = 0;
        for j in sim.jobs() {
            let Some(c) = j.completion_time() else { continue };
            let b = &j.breakdown;
            let total = b.queued.as_secs_f64()
                + b.running.as_secs_f64()
                + b.lingering.as_secs_f64()
                + b.paused.as_secs_f64()
                + b.migrating.as_secs_f64();
            assert!(
                (total - c.as_secs_f64()).abs() <= 2.0 + 1e-6,
                "job {:?}: breakdown {} vs completion {}",
                j.spec.id,
                total,
                c.as_secs_f64()
            );
            checked += 1;
        }
        assert!(checked > 0, "no completed jobs to reconcile");
    }

    #[test]
    fn breakdown_totals_approximate_completion() {
        for m in compare(light()) {
            let total = m.avg_breakdown.total();
            assert!(
                (total - m.avg_completion_secs).abs() <= 10.0,
                "{}: breakdown {} vs completion {}",
                m.policy,
                total,
                m.avg_completion_secs
            );
        }
    }

    #[test]
    fn replication_produces_finite_intervals() {
        let fam = JobFamily::uniform(10, SimDuration::from_secs(120), 8 * 1024);
        let r = evaluate_policy_replicated(Policy::LingerLonger, fam, 8, 100, 4);
        assert_eq!(r.replications, 4);
        assert!(r.avg_completion_secs.mean > 120.0);
        assert!(r.avg_completion_secs.ci95.is_finite());
        assert!(r.throughput.ci95.is_finite());
    }

    #[test]
    fn policy_gap_exceeds_both_intervals() {
        // The LL/IE gap should be statistically solid even with few
        // replications (common random numbers).
        let fam = JobFamily::uniform(16, SimDuration::from_secs(180), 8 * 1024);
        let ll = evaluate_policy_replicated(Policy::LingerLonger, fam.clone(), 8, 50, 4);
        let ie = evaluate_policy_replicated(Policy::ImmediateEviction, fam, 8, 50, 4);
        let gap = ie.avg_completion_secs.mean - ll.avg_completion_secs.mean;
        assert!(
            gap > ll.avg_completion_secs.ci95 + ie.avg_completion_secs.ci95,
            "gap {gap} vs CIs {} + {}",
            ll.avg_completion_secs.ci95,
            ie.avg_completion_secs.ci95
        );
    }

    #[test]
    fn replication_seeds_wrap_near_the_top_of_the_seed_space() {
        // Before the explicit wrapping walk this overflowed (panicking in
        // debug builds) for base seeds near u64::MAX.
        let fam = JobFamily::uniform(2, SimDuration::from_secs(60), 8 * 1024);
        let r = evaluate_policy_replicated(Policy::LingerLonger, fam, 4, u64::MAX - 1, 3);
        assert_eq!(r.replications, 3);
        assert!(r.avg_completion_secs.mean.is_finite());
    }

    #[test]
    #[should_panic]
    fn single_replication_is_rejected() {
        let fam = JobFamily::uniform(2, SimDuration::from_secs(60), 8 * 1024);
        let _ = evaluate_policy_replicated(Policy::LingerLonger, fam, 4, 1, 1);
    }
}
