//! Benchmarks of the shared workload-realization cache and the batched
//! hyper-exponential burst sampler.
//!
//! * `realize_cold_*` — a cache miss: full trace synthesis + random
//!   offsets + window-table prebuild, at 64 and 1024 nodes. This is what
//!   every policy in a sweep used to pay individually.
//! * `realize_warm_*` — a cache hit at the same sizes: a key hash plus an
//!   `Arc` clone. The cold/warm ratio is the per-policy saving the cache
//!   buys on the fig07/fig11 sweeps.
//! * `bursts_*` — per-draw `next_burst` loop vs one batched
//!   `next_bursts_into` call for the same burst count, quantifying the
//!   slab-sampling win inside trace synthesis itself.

use criterion::{criterion_group, criterion_main, Criterion};
use linger_sim_core::{domains, RngFactory, SimDuration};
use linger_workload::{BurstGenerator, CoarseTraceConfig, TraceLibrary};
use std::hint::black_box;

fn trace_cfg() -> CoarseTraceConfig {
    CoarseTraceConfig {
        duration: SimDuration::from_secs(600),
        ..Default::default()
    }
}

fn bench_realize(c: &mut Criterion) {
    let cfg = trace_cfg();
    for nodes in [64usize, 1024] {
        c.bench_function(&format!("realize_cold_{nodes}n"), |b| {
            let lib = TraceLibrary::new();
            b.iter(|| {
                lib.clear();
                black_box(lib.realize(&cfg, 1998, nodes))
            })
        });
        c.bench_function(&format!("realize_warm_{nodes}n"), |b| {
            let lib = TraceLibrary::new();
            lib.realize(&cfg, 1998, nodes);
            b.iter(|| black_box(lib.realize(&cfg, 1998, nodes)))
        });
    }
}

fn bench_burst_sampling(c: &mut Criterion) {
    const N: usize = 4096;
    let factory = RngFactory::new(1998);
    c.bench_function("bursts_per_draw_4096", |b| {
        b.iter(|| {
            let mut generator = BurstGenerator::paper(0.5);
            let mut rng = factory.stream_for(domains::FINE_BURSTS, 0);
            let mut out = Vec::with_capacity(N);
            for _ in 0..N {
                out.push(generator.next_burst(&mut rng));
            }
            black_box(out)
        })
    });
    c.bench_function("bursts_batched_4096", |b| {
        b.iter(|| {
            let mut generator = BurstGenerator::paper(0.5);
            let mut rng = factory.stream_for(domains::FINE_BURSTS, 0);
            let mut out = Vec::with_capacity(N);
            generator.next_bursts_into(&mut rng, N, &mut out);
            black_box(out)
        })
    });
}

criterion_group!(benches, bench_realize, bench_burst_sampling);
criterion_main!(benches);
