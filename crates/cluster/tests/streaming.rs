//! Streamed-window equivalence: the chunked window pipeline is an
//! execution knob, never a semantic one. A simulation fed by a
//! `WindowCursor` at any chunk size, on any worker width and shard
//! count, with fault injection active and telemetry journaling, must
//! reproduce the monolithic-table run exactly — job for job, counter
//! for counter, event for event — whether its jobs come from a family,
//! a constant-population throughput run or open arrivals, and whether
//! the central coordinator or work stealing places them.

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, RunMode, ServiceConfig, StealingConfig,
};
use linger_sim_core::{set_default_jobs, ShardPlan, SimDuration, SimTime};
use linger_telemetry::Recorder;
use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution, WorkloadRealization};
use proptest::prelude::*;

fn config(
    policy: Policy,
    nodes: usize,
    jobs: u32,
    demand_s: u64,
    seed: u64,
    crash_rate: f64,
    fail_prob: f64,
) -> ClusterConfig {
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
    cfg
}

/// The job source and scheduler combinations [`with_mode`] builds.
const MODES: usize = 4;

/// `cfg` under job source and scheduler `mode`: 0 keeps the family and
/// the central coordinator; 1 adds open arrivals at 0.9 of the cluster's
/// service capacity over a 640 s horizon, past the trace's 600 s period;
/// 2 places those arrivals by randomized work stealing instead; 3 holds
/// the family's job count constant over the same horizon (throughput
/// mode, as the scaling and throughput sweeps run it). Only stealing
/// reads the window's idle words for free nodes in its classify, and
/// only open and throughput runs keep placing on non-idle nodes late
/// into the run.
fn with_mode(mut cfg: ClusterConfig, mode: usize, demand_s: u64) -> ClusterConfig {
    match mode {
        0 => return cfg,
        3 => {
            cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(640) };
            return cfg;
        }
        _ => {}
    }
    let rate_per_hour = 0.9 * cfg.nodes as f64 * 3600.0 / demand_s as f64;
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour },
            mean_cpu_secs: demand_s as f64,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::Exponential,
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * cfg.nodes,
        deadline_secs: 300.0,
    };
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(640) };
    if mode == 2 {
        cfg.stealing = StealingConfig::randomized(3, 0.1);
    }
    cfg
}

/// The run's complete observable outcome as one string: every job
/// record, the throughput/delay accumulators at full f64 bit precision,
/// the fault, service and steal counters, and the serialized telemetry
/// journal.
fn run_signature(
    cfg: ClusterConfig,
    real: &WorkloadRealization,
    shards: usize,
    width: usize,
) -> String {
    set_default_jobs(width);
    let mut sim = ClusterSim::with_realization(cfg, real);
    sim.set_shards(shards);
    sim.set_recorder(Recorder::with_capacity(1 << 16));
    sim.run();
    let events = sim
        .recorder()
        .journal()
        .map(|j| serde_json::to_string(&j.snapshot()).unwrap())
        .unwrap_or_default();
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{}",
        sim.jobs(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
        sim.fault_stats(),
        sim.service_stats(),
        sim.steal_stats(),
        events,
    )
}

proptest! {
    // Every case runs every mode, each under a different policy, so each
    // mode and each policy is covered on every run whatever the draws.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn any_chunk_size_width_and_shards_reproduce_the_monolithic_run(
        policy_idx in 0usize..4,
        // 193–256 nodes (4 bitset words) is where 4 shards exist.
        nodes in 193usize..257,
        jobs in 4u32..16,
        demand_s in 60u64..240,
        seed in 0u64..10_000,
        crash_rate in 0.5f64..20.0,
        fail_prob in 0.05f64..0.5,
    ) {
        let cfg_for = |policy| config(policy, nodes, jobs, demand_s, seed, crash_rate, fail_prob);
        // The owner workload depends on neither the policy nor the mode.
        let trace = cfg_for(Policy::ALL[0]).trace;
        let period = trace.sample_count();
        let mono = WorkloadRealization::synthesize_monolithic(&trace, seed, nodes);
        let streams: Vec<(usize, WorkloadRealization)> = [1usize, 7, 64, period]
            .into_iter()
            .map(|chunk| {
                (chunk, WorkloadRealization::synthesize_streamed(&trace, seed, nodes, chunk))
            })
            .collect();
        for mode in 0..MODES {
            let policy = Policy::ALL[(policy_idx + mode) % Policy::ALL.len()];
            let cfg = with_mode(cfg_for(policy), mode, demand_s);
            let baseline = run_signature(cfg.clone(), &mono, 1, 1);
            for (chunk, streamed) in &streams {
                prop_assert!(streamed.table(usize::MAX).is_none());
                for shards in [1usize, 4] {
                    prop_assert_eq!(ShardPlan::new(nodes, shards).shard_count(), shards);
                    for width in [1usize, 4] {
                        let got = run_signature(cfg.clone(), streamed, shards, width);
                        prop_assert_eq!(
                            &baseline, &got,
                            "{} mode {} diverged at chunk={} shards={} width={}",
                            policy, mode, chunk, shards, width
                        );
                    }
                }
            }
        }
        set_default_jobs(0);
    }
}
