//! The hybrid strategy the paper proposes as future work (Sec 5.2):
//! "This indicates that a hybrid strategy of lingering and
//! reconfiguration may be the best approach."
//!
//! Given `idle` recruited nodes out of a cluster, the hybrid picks the
//! power-of-two process count `k` — possibly *larger* than `idle`,
//! lingering on the difference, or *smaller*, leaving idle nodes unused —
//! that minimizes predicted completion time. The predictor uses the same
//! machinery as the Linger-Longer cost model: per-phase compute scales
//! with `1/k` (work conservation) and a lingering process's compute rate
//! is the closed-form stealing rate of its host.
//!
//! Two variants:
//! * *prediction* ([`predict_best_k`]) — the decision an online
//!   scheduler could make from the model alone;
//! * an *oracle* ([`oracle_best_k`]) that simulates every candidate and
//!   picks the true optimum, bounding how much the predictor leaves on
//!   the table.

use crate::bsp::{run_bsp, BspConfig};
use crate::reconfig::{largest_pow2_at_most, MalleableJob, Strategy};
use linger_node::steal_rate;
use linger_sim_core::{par_map_indexed, SimDuration};
use linger_workload::BurstParamTable;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The paper-calibrated table, built once per process — the predictor
/// only reads interpolated moments from it.
fn paper_table() -> &'static BurstParamTable {
    static TABLE: OnceLock<BurstParamTable> = OnceLock::new();
    TABLE.get_or_init(BurstParamTable::paper_calibrated)
}

/// Candidate process counts for a cluster of `cluster` nodes: the powers
/// of two from 1 up to the cluster size.
pub fn candidate_widths(cluster: usize) -> Vec<usize> {
    let mut k = 1usize;
    let mut out = Vec::new();
    while k <= cluster {
        out.push(k);
        k <<= 1;
    }
    out
}

/// Predicted completion time of running the job `k`-wide with `idle` idle
/// nodes: the barrier waits for the slowest class of process. A lingering
/// process computes at the stealing rate of a `local_util` host, and the
/// per-phase barrier maximum over `m` lingering processes is estimated
/// with the Gaussian extreme-value approximation
/// `E[max] ≈ μ + σ·√(2 ln(1+m))`, where σ follows from the burst-table
/// variance — everything an online scheduler can know from the model.
pub fn predict_completion(job: &MalleableJob, k: usize, idle: usize) -> SimDuration {
    let grain = job.base_grain.mul_f64(job.cluster as f64 / k as f64);
    let lingering = k.saturating_sub(idle);
    let per_phase = if lingering == 0 {
        grain
    } else {
        let table = paper_table();
        let rate = steal_rate(table, job.local_util, SimDuration::from_micros(100));
        if rate <= 0.0 {
            return SimDuration::MAX;
        }
        let wall = grain.mul_f64(1.0 / rate);
        // Busy time inside the window is a sum of ~n run bursts; its
        // variance lifts the expected barrier maximum.
        let p = table.interpolate(job.local_util);
        let mean_wall = wall.as_secs_f64();
        let n_bursts = if p.run_mean > 0.0 { mean_wall * job.local_util / p.run_mean } else { 0.0 };
        let sigma = (n_bursts * p.run_var).sqrt();
        let amplification = sigma * (2.0 * (1.0 + lingering as f64).ln()).sqrt();
        SimDuration::from_secs_f64(mean_wall + amplification)
    };
    let comm = if k > 1 {
        (job.round_latency + job.per_message_cpu.mul_f64(job.pattern.messages_per_round(k) as f64))
            .mul_f64(job.pattern.rounds(k) as f64)
    } else {
        SimDuration::ZERO
    };
    (per_phase + comm).mul_f64(job.phases as f64)
}

/// The model-predicted best width for the given idle-node count.
pub fn predict_best_k(job: &MalleableJob, idle: usize) -> usize {
    candidate_widths(job.cluster)
        .into_iter()
        .min_by_key(|&k| predict_completion(job, k, idle))
        .expect("at least one candidate")
}

/// Simulate one candidate width and return its completion time.
pub fn simulate_width(job: &MalleableJob, k: usize, idle: usize, seed: u64) -> SimDuration {
    let grain = job.base_grain.mul_f64(job.cluster as f64 / k as f64);
    let cfg = BspConfig {
        processes: k,
        compute_per_phase: grain,
        phases: job.phases,
        pattern: job.pattern,
        round_latency: job.round_latency,
        per_message_cpu: job.per_message_cpu,
        context_switch: SimDuration::from_micros(100),
    };
    let mut utils = vec![0.0; k];
    for u in utils.iter_mut().take(k.saturating_sub(idle).min(k)) {
        *u = job.local_util;
    }
    run_bsp(&cfg, &utils, seed, (k as u64) << 40 | idle as u64).completion
}

/// The true best width found by simulating every candidate (an oracle an
/// online scheduler cannot be, used to bound the predictor's regret).
pub fn oracle_best_k(job: &MalleableJob, idle: usize, seed: u64) -> usize {
    candidate_widths(job.cluster)
        .into_iter()
        .min_by_key(|&k| simulate_width(job, k, idle, seed))
        .expect("at least one candidate")
}

/// One row of the hybrid-strategy experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridPoint {
    /// Idle nodes available.
    pub idle: usize,
    /// Completion time under pure reconfiguration (s).
    pub reconfig_secs: f64,
    /// Completion under full-width lingering (k = cluster) (s).
    pub linger_full_secs: f64,
    /// The width the predictor chose.
    pub hybrid_k: usize,
    /// Completion at the predicted width (s).
    pub hybrid_secs: f64,
    /// The oracle's width.
    pub oracle_k: usize,
    /// Completion at the oracle width (s).
    pub oracle_secs: f64,
}

/// The hybrid-strategy extension experiment: reconfiguration vs.
/// full-width lingering vs. the hybrid predictor vs. the oracle, across
/// idle-node counts.
///
/// Each candidate width is simulated once per idle point and the average
/// shared by the oracle argmin and every report column (the scan-based
/// version re-simulated inside each `min_by` comparison, roughly 2× the
/// sims for identical numbers). Idle points are independent, so they fan
/// out across worker threads deterministically — results land in idle
/// order and every simulation seed derives from `(k, idle, seed, rep)`
/// alone, making the output identical at any thread count.
pub fn hybrid_experiment(job: &MalleableJob, seed: u64, reps: u32) -> Vec<HybridPoint> {
    let candidates = candidate_widths(job.cluster);
    let sim_avg = |k: usize, idle: usize| {
        let total: f64 = (0..reps)
            .map(|r| {
                simulate_width(job, k, idle, seed.wrapping_add(r as u64 * 0x51D)).as_secs_f64()
            })
            .sum();
        total / reps as f64
    };
    par_map_indexed(job.cluster + 1, None, |i| {
        let idle = job.cluster - i; // same (0..=cluster).rev() row order
        let avg_by_k: Vec<f64> = candidates.iter().map(|&k| sim_avg(k, idle)).collect();
        let avg = |k: usize| match candidates.iter().position(|&c| c == k) {
            Some(ci) => avg_by_k[ci],
            None => sim_avg(k, idle), // non-power-of-two cluster width
        };
        let rc_k = if idle == 0 { 1 } else { largest_pow2_at_most(idle) };
        // Reconfiguration never lingers: busy procs only when idle=0.
        // (`rc_k ≤ idle`, so the lingering count `rc_k - idle` is zero.)
        let reconfig_secs = if idle == 0 {
            job.completion_avg(Strategy::Reconfiguration, 0, seed, reps)
                .as_secs_f64()
        } else {
            avg(rc_k)
        };
        let hybrid_k = predict_best_k(job, idle);
        let oracle_ci = (0..candidates.len())
            .min_by(|&a, &b| avg_by_k[a].partial_cmp(&avg_by_k[b]).unwrap())
            .expect("at least one candidate");
        HybridPoint {
            idle,
            reconfig_secs,
            linger_full_secs: avg(job.cluster),
            hybrid_k,
            hybrid_secs: avg(hybrid_k),
            oracle_k: candidates[oracle_ci],
            oracle_secs: avg_by_k[oracle_ci],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> MalleableJob {
        MalleableJob { phases: 3, ..MalleableJob::fig11() }
    }

    #[test]
    fn candidates_are_powers_of_two() {
        assert_eq!(candidate_widths(32), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(candidate_widths(1), vec![1]);
        assert_eq!(candidate_widths(20), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn predictor_uses_full_width_on_idle_cluster() {
        let j = job();
        assert_eq!(predict_best_k(&j, 32), 32);
    }

    #[test]
    fn predictor_narrows_when_hosts_are_heavily_loaded() {
        // At 20% local load, full-width lingering genuinely wins for most
        // idle counts (Fig 11); narrowing should kick in when the busy
        // hosts are heavily loaded instead.
        let j = MalleableJob { local_util: 0.7, ..job() };
        let k_busy = predict_best_k(&j, 16);
        assert!(
            k_busy <= 16,
            "with 16 idle nodes and 70%-busy hosts, lingering wide should lose: k={k_busy}"
        );
        assert!(k_busy >= 8, "should still use most idle nodes: k={k_busy}");
    }

    #[test]
    fn prediction_monotonicity_in_idle_nodes() {
        // The predicted best width never grows as idle nodes disappear.
        let j = job();
        let mut prev = usize::MAX;
        for idle in (0..=32).rev() {
            let k = predict_best_k(&j, idle);
            assert!(k <= prev.max(k), "width should not oscillate upward");
            prev = k;
        }
    }

    #[test]
    fn hybrid_never_loses_badly_to_either_pure_strategy() {
        let pts = hybrid_experiment(&job(), 3, 3);
        for p in pts.iter().filter(|p| p.idle % 4 == 0) {
            let best_pure = p.reconfig_secs.min(p.linger_full_secs);
            assert!(
                p.hybrid_secs <= best_pure * 1.15,
                "idle={}: hybrid {:.2}s vs best pure {:.2}s",
                p.idle,
                p.hybrid_secs,
                best_pure
            );
        }
    }

    #[test]
    fn hybrid_strictly_beats_reconfiguration_on_non_power_of_two() {
        // At 24 idle nodes reconfiguration wastes 8 of them; the hybrid
        // lingers (k=32) or uses them, and must win clearly.
        let pts = hybrid_experiment(&job(), 5, 3);
        let p = pts.iter().find(|p| p.idle == 24).unwrap();
        assert!(
            p.hybrid_secs < 0.97 * p.reconfig_secs,
            "idle=24: hybrid {:.2} vs reconfig {:.2}",
            p.hybrid_secs,
            p.reconfig_secs
        );
    }

    #[test]
    fn oracle_bounds_hybrid() {
        let pts = hybrid_experiment(&job(), 7, 3);
        for p in &pts {
            assert!(
                p.oracle_secs <= p.hybrid_secs + 1e-9,
                "idle={}: oracle {:.3} must not exceed hybrid {:.3}",
                p.idle,
                p.oracle_secs,
                p.hybrid_secs
            );
            // Predictor regret stays bounded.
            assert!(
                p.hybrid_secs <= p.oracle_secs * 1.5,
                "idle={}: regret too large ({:.2} vs {:.2})",
                p.idle,
                p.hybrid_secs,
                p.oracle_secs
            );
        }
    }
}
