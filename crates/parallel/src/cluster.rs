//! End-to-end cluster throughput for parallel jobs — the evaluation the
//! paper's conclusion lists as ongoing work: "The throughput improvement
//! that would be possible by making more nodes available to run parallel
//! jobs would likely offset some of this slowdown. An end-to-end
//! evaluation of cluster throughput for parallel jobs is currently being
//! investigated."
//!
//! A stream of fixed-width BSP jobs arrives at a cluster whose nodes'
//! idleness evolves with the coarse traces. Two admission/placement
//! policies are compared:
//!
//! * **RigidIdle** (the NOW-style social contract): a job may only occupy
//!   recruited idle nodes. When a member node turns non-idle, the process
//!   migrates to a spare idle node if one exists, otherwise the whole job
//!   stalls until one appears.
//! * **Linger**: a job claims any nodes (idle preferred) and its
//!   processes linger through non-idle episodes at the fine-grain
//!   stealing rate.
//!
//! Progress uses the fluid-phase approximation: within a 2-second window
//! a job completes phases at the rate implied by the slowest member's
//! stealing rate, including the extreme-value barrier amplification from
//! [`crate::hybrid::predict_completion`]'s estimator.

use linger_node::steal_rate;
use linger_sim_core::{NodeIndex, RngFactory, SimDuration, SimTime};
use linger_workload::{
    BurstParamTable, CoarseTraceConfig, WorkloadRealization, SAMPLE_PERIOD_SECS,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Placement/admission policy for parallel jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelPolicy {
    /// Jobs run on recruited idle nodes only.
    RigidIdle,
    /// Jobs linger through non-idle episodes.
    Linger,
}

/// Workload and cluster shape for the throughput experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelClusterConfig {
    /// Number of workstations.
    pub nodes: usize,
    /// Processes per job (fixed width).
    pub width: usize,
    /// Per-process compute per phase.
    pub grain: SimDuration,
    /// Phases per job.
    pub phases: u32,
    /// Per-phase communication wall time (latency + handlers).
    pub comm: SimDuration,
    /// Mean inter-arrival time of jobs (exponential).
    pub interarrival_mean: SimDuration,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Coarse-trace generator for the nodes.
    pub trace: CoarseTraceConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for ParallelClusterConfig {
    fn default() -> Self {
        ParallelClusterConfig {
            nodes: 32,
            width: 8,
            grain: SimDuration::from_millis(500),
            phases: 240,
            comm: SimDuration::from_millis(6),
            interarrival_mean: SimDuration::from_secs(90),
            horizon: SimTime::from_secs(4 * 3600),
            trace: CoarseTraceConfig {
                duration: SimDuration::from_secs(4 * 3600),
                ..Default::default()
            },
            seed: 0,
        }
    }
}

/// Outcome of one throughput run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelClusterReport {
    /// Jobs completed within the horizon.
    pub completed: u32,
    /// Jobs still queued or running at the horizon.
    pub backlog: u32,
    /// Completed jobs per hour.
    pub jobs_per_hour: f64,
    /// Mean response time (arrival → completion) of completed jobs, s.
    pub mean_response_secs: f64,
    /// Mean per-job slowdown versus a dedicated run.
    pub mean_slowdown: f64,
    /// Fraction of job-windows in which a RigidIdle job was stalled.
    pub stall_fraction: f64,
}

struct RunningJob {
    arrived: SimTime,
    members: Vec<usize>,
    phases_left: f64,
    total_windows: u64,
}

/// Run the experiment for one policy.
pub fn simulate_parallel_cluster(
    cfg: &ParallelClusterConfig,
    policy: ParallelPolicy,
) -> ParallelClusterReport {
    let real = WorkloadRealization::synthesize(&cfg.trace, cfg.seed, cfg.nodes);
    simulate_over(cfg, policy, &real)
}

/// The experiment over an explicit realization — monolithic or streamed,
/// which must not change the report.
fn simulate_over(
    cfg: &ParallelClusterConfig,
    policy: ParallelPolicy,
    real: &WorkloadRealization,
) -> ParallelClusterReport {
    assert_eq!(real.nodes(), cfg.nodes, "realization must cover cfg.nodes");
    let factory = RngFactory::new(cfg.seed);
    let table = BurstParamTable::paper_calibrated();
    let cs = SimDuration::from_micros(100);
    let window = SimDuration::from_secs(SAMPLE_PERIOD_SECS);
    let n_windows = (cfg.horizon.as_nanos() / window.as_nanos()) as usize;
    // The window loop below reads windows `0..n_windows`.
    let mut cursor = real.cursor(n_windows);

    // Pre-draw the arrival sequence.
    let mut arr_rng = factory.stream_for(linger_sim_core::domains::JOBS, 0);
    let arrivals: Vec<SimTime> = {
        use rand::Rng;
        let mut t = 0.0f64;
        let mut out = Vec::new();
        loop {
            let u: f64 = arr_rng.random();
            t += -(1.0 - u).ln() * cfg.interarrival_mean.as_secs_f64();
            if t >= cfg.horizon.as_secs_f64() {
                break;
            }
            out.push(SimTime::from_secs_f64(t));
        }
        out
    };

    let dedicated_phase = cfg.grain + cfg.comm;
    let dedicated_secs = dedicated_phase.as_secs_f64() * cfg.phases as f64;

    let mut queue: VecDeque<SimTime> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut running: Vec<RunningJob> = Vec::new();
    // Unclaimed nodes and this window's idle set, as incremental indices:
    // ascending iteration matches the old `(0..nodes).filter(...)` scans,
    // so every placement decision below is unchanged.
    let mut free = NodeIndex::full(cfg.nodes);
    let mut idle = NodeIndex::new(cfg.nodes);
    let every_node = NodeIndex::full(cfg.nodes);
    // Per-window scratch, hoisted out of the loop.
    let mut members_scratch: Vec<usize> = Vec::with_capacity(cfg.nodes);
    let mut busy_scratch: Vec<usize> = Vec::with_capacity(cfg.width);
    let mut finished: Vec<usize> = Vec::new();
    let mut completed = 0u32;
    let mut response_sum = 0.0f64;
    let mut slowdown_sum = 0.0f64;
    let mut stalled_windows = 0u64;
    let mut job_windows = 0u64;

    for w in 0..n_windows {
        let now = SimTime::ZERO + window.mul_f64(w as f64);
        // Admit arrivals.
        while next_arrival < arrivals.len() && arrivals[next_arrival] <= now {
            queue.push_back(arrivals[next_arrival]);
            next_arrival += 1;
        }

        // One window row per node per window, from the shared table or
        // the streamed chunk alike, read in place. The idle set takes the
        // row's idle words whole (bits past the last node are zero).
        let rows = cursor.rows(w);
        let cpu = rows.cpu;
        idle.assign_and_words(rows.idle, &every_node);

        // Placement.
        while let Some(&arrived) = queue.front() {
            members_scratch.clear();
            let placeable = match policy {
                ParallelPolicy::RigidIdle => {
                    members_scratch.extend(free.iter_and(&idle).take(cfg.width));
                    members_scratch.len() == cfg.width
                }
                ParallelPolicy::Linger => {
                    // Idle nodes first, then least-loaded non-idle ones.
                    members_scratch.extend(free.iter());
                    // The comparator is a total order (id tiebreak), so the
                    // unstable sort is deterministic and identical to the
                    // stable sort the scan-based code used.
                    members_scratch.sort_unstable_by(|&a, &b| {
                        idle.contains(b)
                            .cmp(&idle.contains(a))
                            .then(cpu[a].partial_cmp(&cpu[b]).expect("finite"))
                            .then(a.cmp(&b))
                    });
                    members_scratch.len() >= cfg.width
                }
            };
            if !placeable {
                break;
            }
            queue.pop_front();
            let members = members_scratch[..cfg.width].to_vec();
            for &m in &members {
                free.remove(m);
            }
            running.push(RunningJob {
                arrived,
                members,
                phases_left: cfg.phases as f64,
                total_windows: 0,
            });
        }

        // Progress.
        finished.clear();
        for (ji, job) in running.iter_mut().enumerate() {
            job.total_windows += 1;
            job_windows += 1;
            // RigidIdle: replace members on nodes that turned non-idle.
            if policy == ParallelPolicy::RigidIdle {
                busy_scratch.clear();
                busy_scratch.extend(job.members.iter().copied().filter(|&m| !idle.contains(m)));
                // Migrate to unclaimed idle nodes where possible. The old
                // code snapshotted the ascending free-idle list and popped
                // from its back; `last_and` returns the same node, and a
                // vacated member is non-idle so it can never re-qualify.
                for &b in &busy_scratch {
                    if let Some(spare) = free.last_and(&idle) {
                        let slot = job.members.iter().position(|&m| m == b).expect("member");
                        free.insert(b);
                        free.remove(spare);
                        job.members[slot] = spare;
                    } else {
                        break;
                    }
                }
                if job.members.iter().any(|&m| !idle.contains(m)) {
                    // Still holding a non-idle node with no spare: stall.
                    stalled_windows += 1;
                    continue;
                }
            }
            // Fluid phase rate for this window.
            let mut worst_wall = cfg.grain.as_secs_f64();
            let mut lingering = 0usize;
            for &m in &job.members {
                let u = cpu[m];
                let rate = steal_rate(&table, u, cs).max(1e-6);
                let wall = cfg.grain.as_secs_f64() / rate;
                if !idle.contains(m) {
                    lingering += 1;
                }
                worst_wall = worst_wall.max(wall);
            }
            if lingering > 0 {
                // Extreme-value barrier amplification (same estimator as
                // the hybrid predictor).
                let u_typ: f64 = job.members.iter().map(|&m| cpu[m]).fold(0.0f64, f64::max);
                let p = table.interpolate(u_typ);
                if p.run_mean > 0.0 {
                    let n_bursts = worst_wall * u_typ / p.run_mean;
                    let sigma = (n_bursts.max(0.0) * p.run_var).sqrt();
                    worst_wall += sigma * (2.0 * (1.0 + lingering as f64).ln()).sqrt();
                }
            }
            let phase_time = worst_wall + cfg.comm.as_secs_f64();
            job.phases_left -= window.as_secs_f64() / phase_time;
            if job.phases_left <= 0.0 {
                finished.push(ji);
            }
        }
        // Completions (iterate in reverse so swap_remove indices stay valid).
        for &ji in finished.iter().rev() {
            let job = running.swap_remove(ji);
            for &m in &job.members {
                free.insert(m);
            }
            completed += 1;
            let response = (now + window).saturating_since(job.arrived).as_secs_f64();
            response_sum += response;
            let exec_secs = job.total_windows as f64 * window.as_secs_f64();
            slowdown_sum += exec_secs / dedicated_secs;
        }
    }

    let backlog = (queue.len() + running.len()) as u32;
    ParallelClusterReport {
        completed,
        backlog,
        jobs_per_hour: completed as f64 / (cfg.horizon.as_secs_f64() / 3600.0),
        mean_response_secs: if completed > 0 { response_sum / completed as f64 } else { 0.0 },
        mean_slowdown: if completed > 0 { slowdown_sum / completed as f64 } else { 0.0 },
        stall_fraction: if job_windows > 0 {
            stalled_windows as f64 / job_windows as f64
        } else {
            0.0
        },
    }
}

/// One comparison row: the same arrival stream under both policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputComparison {
    /// Mean inter-arrival time used, s.
    pub interarrival_secs: f64,
    /// The RigidIdle report.
    pub rigid: ParallelClusterReport,
    /// The Linger report.
    pub linger: ParallelClusterReport,
}

/// Sweep offered load (via inter-arrival time) and compare the two
/// policies end-to-end — the extension experiment. Every point varies
/// only the arrivals, so all of them replay one realization of `base`'s
/// workload, synthesized once.
pub fn throughput_sweep(
    base: &ParallelClusterConfig,
    interarrivals_s: &[u64],
) -> Vec<ThroughputComparison> {
    let real = WorkloadRealization::synthesize(&base.trace, base.seed, base.nodes);
    interarrivals_s
        .iter()
        .map(|&ia| {
            let cfg = ParallelClusterConfig {
                interarrival_mean: SimDuration::from_secs(ia),
                ..base.clone()
            };
            let run = |policy| simulate_over(&cfg, policy, &real);
            ThroughputComparison {
                interarrival_secs: ia as f64,
                rigid: run(ParallelPolicy::RigidIdle),
                linger: run(ParallelPolicy::Linger),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ParallelClusterConfig {
        ParallelClusterConfig {
            nodes: 16,
            width: 4,
            phases: 120,
            interarrival_mean: SimDuration::from_secs(120),
            horizon: SimTime::from_secs(2 * 3600),
            trace: CoarseTraceConfig {
                duration: SimDuration::from_secs(2 * 3600),
                ..Default::default()
            },
            seed: 17,
            ..Default::default()
        }
    }

    #[test]
    fn both_policies_complete_jobs() {
        for policy in [ParallelPolicy::RigidIdle, ParallelPolicy::Linger] {
            let r = simulate_parallel_cluster(&cfg(), policy);
            assert!(r.completed > 5, "{policy:?}: only {} completed", r.completed);
            assert!(r.mean_slowdown >= 1.0, "{policy:?}: slowdown {}", r.mean_slowdown);
        }
    }

    #[test]
    fn lingering_improves_throughput_under_load() {
        // The extension's headline: with the cluster half non-idle,
        // lingering admits jobs the rigid policy must queue.
        // Offered concurrency ≈ 2.7 dedicated jobs; the rigid policy has
        // ~2 idle-node slots (55% of 16 nodes / width 4) while lingering
        // has all 4 — the cluster saturates only the former.
        let mut c = cfg();
        c.phases = 160;
        c.interarrival_mean = SimDuration::from_secs(30);
        let rigid = simulate_parallel_cluster(&c, ParallelPolicy::RigidIdle);
        let linger = simulate_parallel_cluster(&c, ParallelPolicy::Linger);
        assert!(
            linger.completed as f64 >= 1.15 * rigid.completed as f64,
            "linger {} vs rigid {}",
            linger.completed,
            rigid.completed
        );
        assert!(linger.mean_response_secs < rigid.mean_response_secs);
    }

    #[test]
    fn lingering_pays_per_job_slowdown() {
        // Throughput comes at the cost of per-job execution speed — the
        // paper's predicted trade-off.
        let mut c = cfg();
        c.phases = 160;
        c.interarrival_mean = SimDuration::from_secs(30);
        let rigid = simulate_parallel_cluster(&c, ParallelPolicy::RigidIdle);
        let linger = simulate_parallel_cluster(&c, ParallelPolicy::Linger);
        // A rigid job runs on idle nodes only (slowdown from stalls);
        // lingering jobs run slower but start sooner. Both ≥ 1.
        assert!(rigid.mean_slowdown >= 1.0);
        assert!(linger.mean_slowdown >= 1.0);
    }

    #[test]
    fn rigid_jobs_stall_linger_jobs_do_not() {
        let r = simulate_parallel_cluster(&cfg(), ParallelPolicy::RigidIdle);
        let l = simulate_parallel_cluster(&cfg(), ParallelPolicy::Linger);
        assert_eq!(l.stall_fraction, 0.0);
        assert!(r.stall_fraction >= 0.0); // may be zero on a quiet trace
    }

    #[test]
    fn light_load_policies_converge() {
        let mut c = cfg();
        c.interarrival_mean = SimDuration::from_secs(600);
        let rigid = simulate_parallel_cluster(&c, ParallelPolicy::RigidIdle);
        let linger = simulate_parallel_cluster(&c, ParallelPolicy::Linger);
        let diff = (linger.completed as f64 - rigid.completed as f64).abs();
        assert!(
            diff <= 0.3 * rigid.completed as f64 + 2.0,
            "light load should converge: {} vs {}",
            linger.completed,
            rigid.completed
        );
    }

    /// A streamed realization — at chunk sizes down to one window, with
    /// the horizon wrapping the trace — yields the monolithic report.
    #[test]
    fn streamed_realization_matches_monolithic() {
        let mut c = cfg();
        c.trace.duration = SimDuration::from_secs(1800);
        let period = c.trace.sample_count();
        let mono = WorkloadRealization::synthesize_monolithic(&c.trace, c.seed, c.nodes);
        for policy in [ParallelPolicy::RigidIdle, ParallelPolicy::Linger] {
            let want = simulate_over(&c, policy, &mono);
            assert!(want.completed > 0, "{policy:?} completed nothing");
            for chunk in [1, 7, period] {
                let streamed =
                    WorkloadRealization::synthesize_streamed(&c.trace, c.seed, c.nodes, chunk);
                let got = simulate_over(&c, policy, &streamed);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{policy:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn sweep_produces_rows_and_is_deterministic() {
        let rows = throughput_sweep(&cfg(), &[120, 300]);
        assert_eq!(rows.len(), 2);
        let again = throughput_sweep(&cfg(), &[120, 300]);
        assert_eq!(rows[0].linger.completed, again[0].linger.completed);
        assert_eq!(rows[1].rigid.completed, again[1].rigid.completed);
    }
}
