//! Cluster-simulator benchmarks, including the fidelity ablation
//! DESIGN.md calls out: the closed-form window rate (`steal_rate`) versus
//! the burst-accurate executor (`FineGrainCpu`) that it summarizes.

use criterion::{criterion_group, criterion_main, Criterion};
use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim};
use linger_node::{steal_rate, FineGrainCpu, FixedUtilization};
use linger_sim_core::{domains, RngFactory, SimDuration};
use linger_workload::BurstParamTable;
use std::hint::black_box;

fn small_cluster(policy: Policy) -> ClusterConfig {
    let mut cfg =
        ClusterConfig::paper(policy, JobFamily::uniform(16, SimDuration::from_secs(120), 8 * 1024));
    cfg.nodes = 16;
    cfg.trace.duration = SimDuration::from_secs(3600);
    cfg
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("cluster_family_16n_16j", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(small_cluster(Policy::LingerLonger));
            sim.run();
            black_box(sim.completed())
        })
    });
    c.bench_function("cluster_build_64n", |b| {
        b.iter(|| {
            let mut cfg = ClusterConfig::paper(Policy::LingerLonger, JobFamily::workload_1());
            cfg.trace.duration = SimDuration::from_secs(3600);
            black_box(ClusterSim::new(cfg))
        })
    });
}

/// Ablation: the cluster's per-window progress model vs. the
/// burst-accurate executor. Reports both timing and (through the printed
/// assertion) the agreement of the two on delivered CPU.
fn bench_rate_ablation(c: &mut Criterion) {
    let table = BurstParamTable::paper_calibrated();
    let cs = SimDuration::from_micros(100);
    let f = RngFactory::new(9);

    // Agreement check once, outside the timed region. The run-burst
    // distribution is heavy-tailed (CV² up to ~17), so the sample needs
    // minutes of demand to concentrate.
    for u in [0.1, 0.3, 0.6] {
        let analytic = steal_rate(&table, u, cs);
        let src = FixedUtilization::new(u, f.stream_for(domains::FINE_BURSTS, 7));
        let mut cpu = FineGrainCpu::new(src, cs);
        let demand = SimDuration::from_secs(240);
        let wall = cpu.consume(demand);
        let measured = demand.as_secs_f64() / wall.as_secs_f64();
        assert!(
            (measured - analytic).abs() / analytic < 0.12,
            "ablation disagreement at u={u}: {measured} vs {analytic}"
        );
    }

    c.bench_function("ablation_window_rate_1h", |b| {
        // One hour of 2-second windows through the closed form.
        b.iter(|| {
            let mut total = 0.0;
            for w in 0..1800 {
                let u = (w % 10) as f64 / 10.0;
                total += 2.0 * steal_rate(&table, u, cs);
            }
            black_box(total)
        })
    });
    c.bench_function("ablation_fine_grain_1h", |b| {
        // The same hour simulated burst-by-burst.
        b.iter(|| {
            let src = FixedUtilization::new(0.45, f.stream_for(domains::FINE_BURSTS, 8));
            let mut cpu = FineGrainCpu::new(src, cs);
            let mut wall = SimDuration::ZERO;
            while wall < SimDuration::from_secs(3600) {
                wall += cpu.consume(SimDuration::from_secs(1));
            }
            black_box(cpu.foreign_cpu())
        })
    });
}

criterion_group!(benches, bench_cluster, bench_rate_ablation);
criterion_main!(benches);
