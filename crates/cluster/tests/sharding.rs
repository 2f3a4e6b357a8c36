//! Sharded-sweep equivalence: the shard count and the worker width are
//! execution knobs, never semantic ones. A run partitioned into any
//! number of shards, on any number of threads, with fault injection
//! active and telemetry journaling, must reproduce the unsharded serial
//! run exactly — job for job, counter for counter, event for event.

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, FaultConfig};
use linger_sim_core::{set_default_jobs, ShardPlan, SimDuration, SimTime};
use linger_telemetry::Recorder;
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn build(
    policy: Policy,
    nodes: usize,
    jobs: u32,
    demand_s: u64,
    seed: u64,
    crash_rate: f64,
    fail_prob: f64,
) -> ClusterSim {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform(jobs, SimDuration::from_secs(demand_s), 8 * 1024),
    );
    cfg.nodes = nodes;
    // A 10-minute trace (300 windows) keeps synthesis cheap at these
    // node counts, and runs longer than it replay the trace from the
    // start. The fault schedule is drawn up front for the whole horizon;
    // these families finish within minutes, so a 2-hour cap (the
    // default is a day) keeps construction cheap too.
    cfg.trace.duration = SimDuration::from_secs(600);
    cfg.max_time = SimTime::from_secs(2 * 3600);
    cfg.seed = seed;
    cfg.faults = FaultConfig {
        crash_rate_per_hour: crash_rate,
        mean_reboot_secs: 120.0,
        migration_failure_prob: fail_prob,
    };
    ClusterSim::new(cfg)
}

/// The run's complete observable outcome as one string: every job
/// record, the throughput/delay accumulators at full f64 bit precision,
/// the fault counters, and the serialized telemetry journal.
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

    #[test]
    fn any_shard_count_and_width_reproduces_the_serial_run(
        policy_idx in 0usize..4,
        // 1,921–2,048 nodes (31–32 bitset words) is where every
        // requested shard count below exists exactly.
        nodes in 1921usize..2049,
        jobs in 4u32..16,
        demand_s in 60u64..240,
        seed in 0u64..10_000,
        crash_rate in 0.5f64..20.0,
        fail_prob in 0.05f64..0.5,
    ) {
        let policy = Policy::ALL[policy_idx];
        let mk = || build(policy, nodes, jobs, demand_s, seed, crash_rate, fail_prob);
        let baseline = run_signature(mk(), 1, 1);
        for shards in [1usize, 2, 7, 16] {
            prop_assert_eq!(ShardPlan::new(nodes, shards).shard_count(), shards);
            for width in [1usize, 4] {
                let got = run_signature(mk(), shards, width);
                prop_assert_eq!(
                    &baseline, &got,
                    "{} diverged at shards={} width={}", policy, shards, width
                );
            }
        }
        set_default_jobs(0);
    }
}
