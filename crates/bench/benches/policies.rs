//! Policy-level benchmarks: the four policies on identical workload
//! realizations (common random numbers).

use criterion::{criterion_group, criterion_main, Criterion};
use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim};
use linger_sim_core::SimDuration;
use std::hint::black_box;

fn cfg(policy: Policy) -> ClusterConfig {
    let mut cfg =
        ClusterConfig::paper(policy, JobFamily::uniform(12, SimDuration::from_secs(120), 8 * 1024));
    cfg.nodes = 12;
    cfg.trace.duration = SimDuration::from_secs(3600);
    cfg
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_family_run");
    for policy in Policy::ALL {
        g.bench_function(policy.abbrev(), |b| {
            b.iter(|| {
                let mut sim = ClusterSim::new(cfg(policy));
                sim.run();
                black_box(sim.foreign_cpu_delivered())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
