//! Slot-recycling determinism: a throughput run, where every completed
//! job's slab slot is recycled for its successor, must produce
//! byte-identical outcomes — every job record in id order, the
//! throughput/delay accumulators at full bit precision, the fault
//! counters, and the serialized telemetry journal — at any shard count
//! and worker width, with faults and migrations active. (Equivalence
//! with a layout that never reuses a slot is pinned by the turnover
//! digests in `fault_paths.rs`.)

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, FaultConfig, RunMode};
use linger_sim_core::{set_default_jobs, ShardPlan, SimDuration, SimTime};
use linger_telemetry::Recorder;
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn build(
    policy: Policy,
    nodes: usize,
    jobs: u32,
    demand_s: u64,
    horizon_s: u64,
    seed: u64,
    crash_rate: f64,
    fail_prob: f64,
) -> ClusterSim {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform(jobs, SimDuration::from_secs(demand_s), 8 * 1024),
    );
    cfg.nodes = nodes;
    cfg.trace.duration = SimDuration::from_secs(3600);
    cfg.seed = seed;
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(horizon_s) };
    cfg.faults = FaultConfig {
        crash_rate_per_hour: crash_rate,
        mean_reboot_secs: 120.0,
        migration_failure_prob: fail_prob,
    };
    ClusterSim::new(cfg)
}

/// The run's complete observable outcome as one string (same shape as
/// the sharding-equivalence signature), plus the live/archived row
/// split so a signature match also proves the population adds up.
fn run_signature(mut sim: ClusterSim, shards: usize, width: usize) -> String {
    set_default_jobs(width);
    sim.set_shards(shards);
    sim.set_recorder(Recorder::with_capacity(1 << 16));
    sim.run();
    let events = sim
        .recorder()
        .journal()
        .map(|j| serde_json::to_string(&j.snapshot()).unwrap())
        .unwrap_or_default();
    assert_eq!(
        sim.live_job_rows() + sim.archived_jobs(),
        sim.jobs().len(),
        "archive + live slots must cover the whole population"
    );
    format!(
        "{:?}|{}|{}|{:?}|{}",
        sim.jobs(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
        sim.fault_stats(),
        events,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recycled throughput runs are indistinguishable across execution
    /// plans: same records, same journal, same counters — across shard
    /// counts {1, 4} and worker widths {1, 4}.
    #[test]
    fn recycled_runs_are_byte_identical_across_execution_plans(
        policy_idx in 0usize..4,
        // 193–256 nodes (4 bitset words) is where 4 shards exist.
        nodes in 193usize..257,
        jobs in 4u32..16,
        demand_s in 60u64..240,
        seed in 0u64..10_000,
        crash_rate in 0.5f64..20.0,
        fail_prob in 0.05f64..0.5,
    ) {
        let policy = Policy::ALL[policy_idx];
        // A horizon several demand-lengths long so completed jobs
        // respawn repeatedly and recycled slots actually get reused.
        let horizon_s = demand_s * 8;
        let mk = || build(policy, nodes, jobs, demand_s, horizon_s, seed, crash_rate, fail_prob);
        let baseline = run_signature(mk(), 1, 1);
        for shards in [1usize, 4] {
            prop_assert_eq!(ShardPlan::new(nodes, shards).shard_count(), shards);
            for width in [1usize, 4] {
                if shards == 1 && width == 1 {
                    continue;
                }
                let other = run_signature(mk(), shards, width);
                prop_assert_eq!(
                    &baseline, &other,
                    "{} diverged at shards={} width={}",
                    policy, shards, width
                );
            }
        }
        set_default_jobs(0);
    }
}

/// Deterministic (non-proptest) turnover check: a long-horizon run
/// keeps the hot lanes pinned at the initial job count while the archive
/// absorbs every completion.
#[test]
fn recycling_pins_live_rows_under_turnover() {
    let mut sim = build(Policy::LingerLonger, 24, 12, 90, 1800, 7, 2.0, 0.1);
    sim.run();
    assert!(sim.completed() >= 24, "horizon must produce real turnover");
    assert_eq!(sim.live_job_rows(), 12, "live rows stay at the family size");
    assert_eq!(sim.archived_jobs(), sim.completed());
    assert_eq!(sim.jobs().len(), 12 + sim.completed(), "one record per job ever submitted");
}
