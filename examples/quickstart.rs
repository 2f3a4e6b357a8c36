//! Quickstart: the Linger-Longer policy in three steps.
//!
//! 1. Ask the cost model how long an 8 MB foreign job should linger on a
//!    node that just turned busy.
//! 2. Watch a lingering job steal fine-grain idle cycles on a single
//!    workstation (and how little it delays the owner).
//! 3. Compare all four policies on a small shared cluster.
//!
//! Run with: `cargo run --release --example quickstart`

use linger::cost::linger_duration;
use linger::{JobFamily, MigrationCostModel, Policy};
use linger_cluster::{paper_realization, policy_comparison};
use linger_node::{simulate_single_node, SingleNodeConfig};
use linger_sim_core::SimDuration;

fn main() {
    // -- 1. The linger-duration cost model (paper Sec 2, Fig 1) --------
    let migration = MigrationCostModel::paper_default();
    let t_migr = migration.cost(8 * 1024); // 8 MB over 3 Mbps effective
    println!("migrating an 8 MB job costs {:.1} s", t_migr.as_secs_f64());
    for h in [0.3, 0.5, 0.8] {
        // Destination: a recruited idle workstation (l = 0.05).
        let t = linger_duration(h, 0.05, t_migr).expect("busier source than destination");
        println!(
            "  node at {:>3.0}% local load -> linger {:.0} s before migrating",
            h * 100.0,
            t.as_secs_f64()
        );
    }

    // -- 2. Fine-grain cycle stealing on one workstation (Sec 4.1) -----
    let report = simulate_single_node(&SingleNodeConfig {
        utilization: 0.3,
        context_switch: SimDuration::from_micros(100),
        duration: SimDuration::from_secs(300),
        seed: 42,
    });
    println!(
        "\non a 30%-busy workstation, a lingering job harvested {:.1}% of idle \
         cycles\nwhile delaying the owner's processes by only {:.2}%",
        report.fcsr * 100.0,
        report.ldr * 100.0
    );

    // -- 3. Policies on a shared cluster (Sec 4.2) ---------------------
    println!("\n16-node cluster, 32 jobs x 5 CPU-minutes:");
    let family = JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024);
    for m in policy_comparison(family, &paper_realization(16, 7), 7) {
        println!(
            "  {:<18} avg completion {:>5.0} s, throughput {:>4.1} cpu-s/s",
            m.policy.to_string(),
            m.avg_completion_secs,
            m.throughput
        );
    }
    println!(
        "\n(Linger-Longer and Linger-Forever finish far ahead of {} and {} — \
         the paper's headline result.)",
        Policy::ImmediateEviction,
        Policy::PauseAndMigrate
    );
}
