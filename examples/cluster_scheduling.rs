//! Cluster scheduling scenario: a research group submits a parameter
//! sweep to a department's workstation pool overnight.
//!
//! Demonstrates the cluster simulator's full API surface: custom job
//! families, trace synthesis knobs, run modes, per-job inspection, and
//! the foreground-impact accounting that justifies the "social contract"
//! refinement.
//!
//! Run with: `cargo run --release --example cluster_scheduling`

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, JobState, RunMode};
use linger_sim_core::{SimDuration, SimTime};

fn main() {
    // A 24-node pool; 60 simulation runs of 8 CPU-minutes each, 8 MB
    // resident — a typical overnight sweep.
    let family = JobFamily::uniform(60, SimDuration::from_secs(480), 8 * 1024);

    println!("== overnight sweep: 60 jobs x 8 CPU-min on a 24-node pool ==\n");
    for policy in Policy::ALL {
        let mut cfg = ClusterConfig::paper(policy, family.clone());
        cfg.nodes = 24;
        cfg.seed = 2026;
        // Busier-than-default offices: shorter away periods.
        cfg.trace.away_episode_mean_secs = 600.0;
        cfg.trace.duration = SimDuration::from_secs(6 * 3600);

        let mut sim = ClusterSim::new(cfg);
        let finished = sim.run();
        assert!(finished, "sweep did not finish under {policy}");

        let last_done = sim
            .jobs()
            .iter()
            .filter_map(|j| j.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let avg_migrations: f64 =
            sim.jobs().iter().map(|j| j.migrations as f64).sum::<f64>() / sim.jobs().len() as f64;
        let total_linger: f64 =
            sim.jobs().iter().map(|j| j.breakdown.lingering.as_secs_f64()).sum();
        println!(
            "{:<20} sweep done in {:>5.0} s | {:.2} migrations/job | {:>6.0} s lingered | owner delay {:.2}%",
            policy.to_string(),
            last_done.as_secs_f64(),
            avg_migrations,
            total_linger,
            sim.foreground_delay_ratio() * 100.0
        );
    }

    // Steady-state view: keep the pool saturated for an hour and measure
    // deliverable cycles under the best and worst policy.
    println!("\n== steady-state throughput (constant 60-job backlog, 1 h) ==\n");
    for policy in [Policy::LingerForever, Policy::ImmediateEviction] {
        let mut cfg = ClusterConfig::paper(policy, family.clone());
        cfg.nodes = 24;
        cfg.seed = 2026;
        cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(3600) };
        let mut sim = ClusterSim::new(cfg);
        sim.run();
        let live = sim.jobs().iter().filter(|j| j.state != JobState::Done).count();
        println!(
            "{:<20} delivered {:>5.0} cpu-s ({:.1} cpu-s/s across 24 nodes); {live} jobs in flight",
            policy.to_string(),
            sim.foreign_cpu_delivered().as_secs_f64(),
            sim.foreign_cpu_delivered().as_secs_f64() / 3600.0
        );
    }
}
