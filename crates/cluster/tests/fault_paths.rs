//! Fault-path regression pin for central destination selection.
//!
//! A 512-node open central cell with node crashes, reboots, lost
//! transfers and a serialized dispatcher (`central_dispatch_rtt_secs > 0`)
//! drives every mid-window change to the destination pools: reboots and
//! completions that return nodes to `free ∧ idle`, failed transfers that
//! release a reservation and retry, and arrivals on a now-busy node that
//! evict at once. Each policy's outcome must hash to the digest pinned
//! below at shard counts 1 and 4, so a change to how destinations are
//! indexed cannot silently move a single placement or migration.

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, RunMode, ServiceConfig, StealingConfig,
};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

const NODES: usize = 512;

fn cell(policy: Policy) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(policy, JobFamily::empty());
    cfg.nodes = NODES;
    cfg.seed = 1998;
    cfg.trace.duration = SimDuration::from_secs(3600);
    // Load 0.9 of `NODES` servers of 120 s jobs keeps the idle pool
    // churning and lingering (or paused) jobs looking for destinations.
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_hour: 0.9 * NODES as f64 * 30.0,
            },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::BoundedPareto {
                alpha: 1.5,
                max_ratio: 100.0,
            },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * NODES,
        deadline_secs: 300.0,
    };
    cfg.mode = RunMode::Open {
        horizon: SimTime::from_secs(1800),
    };
    cfg.faults = FaultConfig {
        crash_rate_per_hour: 2.0,
        mean_reboot_secs: 60.0,
        migration_failure_prob: 0.1,
    };
    let mut stealing = StealingConfig::disabled();
    stealing.central_dispatch_rtt_secs = 0.05;
    cfg.stealing = stealing;
    cfg
}

/// 64-bit FNV-1a over the run's full observable outcome: every job
/// record (id order), the fault, service and steal counters, and the
/// delivered-CPU and foreground-delay accumulators.
fn outcome_digest(sim: &ClusterSim) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:#x}",
        sim.jobs(),
        sim.fault_stats(),
        sim.service_stats(),
        sim.steal_stats(),
        sim.completed(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run(policy: Policy, shards: usize) -> (u64, ClusterSim) {
    let mut sim = ClusterSim::new(cell(policy));
    sim.set_shards(shards);
    sim.run();
    (outcome_digest(&sim), sim)
}

#[test]
fn fault_path_outcomes_are_pinned() {
    // Recorded before destination queries moved to the per-window index.
    let pinned: [(Policy, u64); 3] = [
        (Policy::LingerLonger, 0x361c_4530_a131_71fd),
        (Policy::ImmediateEviction, 0x41f4_41b8_5dca_a708),
        (Policy::PauseAndMigrate, 0xa45d_9064_9116_27de),
    ];
    for (policy, want) in pinned {
        for shards in [1, 4] {
            let (got, sim) = run(policy, shards);
            let fs = sim.fault_stats();
            // The cell must actually exercise the fault paths it pins.
            assert!(fs.crashes > 0 && fs.crash_evictions > 0, "{policy}: {fs:?}");
            assert!(
                fs.migration_failures > 0 && fs.migration_retries > 0,
                "{policy}: {fs:?}"
            );
            assert!(sim.steal_stats().central_dispatches > 0, "{policy}");
            assert_eq!(got, want, "{policy} at {shards} shards: digest {got:#018x}");
        }
    }
}
