//! Open-arrivals service-mode equivalence: the serving loop must keep
//! every determinism contract the closed modes honor. An open run with
//! faults, migrations, and telemetry active produces byte-identical
//! outcomes — id-ordered job records, service counters, fault tallies,
//! and the serialized journal — across shard counts and worker widths,
//! for every admission policy. And a run
//! whose arrival process is silenced reproduces the closed family
//! replay outcome record for record.

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, RunMode, ServiceConfig,
};
use linger_sim_core::{set_default_jobs, ShardPlan, SimDuration, SimTime};
use linger_telemetry::Recorder;
use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)]
fn build(
    admission: AdmissionPolicy,
    policy: Policy,
    nodes: usize,
    load: f64,
    cap: usize,
    horizon_s: u64,
    seed: u64,
    crash_rate: f64,
    fail_prob: f64,
) -> ClusterSim {
    let mut cfg = ClusterConfig::paper(policy, JobFamily::empty());
    cfg.nodes = nodes;
    cfg.trace.duration = SimDuration::from_secs(2 * 3600);
    cfg.seed = seed;
    // `nodes` servers of 120 s jobs: load 1.0 = nodes * 30 jobs/hour.
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour: load * nodes as f64 * 30.0 },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::Exponential,
        },
        admission,
        queue_capacity: cap,
        deadline_secs: 90.0,
    };
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(horizon_s) };
    cfg.faults = FaultConfig {
        crash_rate_per_hour: crash_rate,
        mean_reboot_secs: 120.0,
        migration_failure_prob: fail_prob,
    };
    ClusterSim::new(cfg)
}

/// The run's complete observable outcome as one string: population,
/// accumulators, fault counters, service counters, telemetry journal.
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
    let service = serde_json::to_string(sim.service_stats()).unwrap();
    assert!(sim.service_stats().accounting_holds(), "loss accounting must balance");
    format!(
        "{:?}|{}|{}|{:?}|{}|{}",
        sim.jobs(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
        sim.fault_stats(),
        service,
        events,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every admission policy serves a byte-identical run across shard
    /// counts {1, 4} and worker widths {1, 4}, with faults and telemetry
    /// active and the load near saturation.
    #[test]
    fn open_runs_are_byte_identical_across_execution_plans(
        admission_idx in 0usize..4,
        policy_idx in 0usize..4,
        // 193–256 nodes (4 bitset words) is where 4 shards exist.
        nodes in 193usize..257,
        load_milli in 500u64..2_500,
        seed in 0u64..10_000,
        crash_rate in 0.5f64..8.0,
        fail_prob in 0.05f64..0.4,
    ) {
        let admission = AdmissionPolicy::ALL[admission_idx];
        let policy = Policy::ALL[policy_idx];
        let load = load_milli as f64 / 1000.0;
        let cap = 2 * nodes;
        let mk = || build(admission, policy, nodes, load, cap, 1800, seed, crash_rate, fail_prob);
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
                    "{}/{} diverged at shards={} width={}",
                    admission.name(), policy, shards, width
                );
            }
        }
        set_default_jobs(0);
    }
}

/// A silenced arrival process turns the open loop into a pure drain:
/// seeding the queue with a closed family and running the open horizon
/// reproduces the closed family replay outcome record for record.
#[test]
fn silenced_open_run_matches_closed_family_replay() {
    let family = JobFamily::uniform(12, SimDuration::from_secs(150), 8 * 1024);
    let mk_closed = || {
        let mut cfg = ClusterConfig::paper(Policy::LingerLonger, family.clone());
        cfg.nodes = 8;
        cfg.trace.duration = SimDuration::from_secs(2 * 3600);
        cfg.seed = 23;
        cfg.faults = FaultConfig {
            crash_rate_per_hour: 1.0,
            mean_reboot_secs: 120.0,
            migration_failure_prob: 0.1,
        };
        cfg
    };
    let mut closed = ClusterSim::new(mk_closed());
    assert!(closed.run(), "closed replay must drain the family");

    let mut cfg = mk_closed();
    cfg.service = ServiceConfig::disabled();
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(4 * 3600) };
    let mut open = ClusterSim::new(cfg);
    open.run();

    assert_eq!(closed.completed(), open.completed());
    assert_eq!(closed.foreign_cpu_delivered(), open.foreign_cpu_delivered());
    assert_eq!(format!("{:?}", closed.jobs()), format!("{:?}", open.jobs()));
    let s = open.service_stats();
    assert_eq!(s.generated, 0, "a disabled process offers nothing");
    assert_eq!(s.shed + s.deficit + s.deadline_dropped, 0);
}
