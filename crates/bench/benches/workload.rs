//! Micro-benchmarks of the workload substrate: burst generation,
//! moment fitting, dispatch-trace synthesis, coarse-trace synthesis and
//! the per-draw cost of the streams trace synthesis runs on.
//!
//! `bursts_*` compare a per-draw `next_burst` loop with one batched
//! `next_bursts_into` call for the same burst count, quantifying the
//! slab-sampling win inside trace synthesis itself.

use criterion::{criterion_group, criterion_main, Criterion};
use linger_sim_core::{domains, RngFactory, SimDuration};
use linger_stats::fit_two_moments;
use linger_workload::{
    BurstGenerator, CoarseTraceConfig, DispatchTrace, FineGrainAnalysis, TraceStream,
};
use rand::RngCore;
use std::hint::black_box;

fn bench_bursts(c: &mut Criterion) {
    c.bench_function("burst_generation_100k", |b| {
        let f = RngFactory::new(1);
        b.iter(|| {
            let mut gen = BurstGenerator::paper(0.35);
            let mut rng = f.stream_for(domains::FINE_BURSTS, 0);
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(gen.next_burst(&mut rng).duration.as_nanos());
            }
            black_box(acc)
        })
    });
}

fn bench_bursts_changing_utilization(c: &mut Criterion) {
    // Drives the generator the way the cluster simulators do: the target
    // utilization is reset every window (often to the same value, as CPU
    // load tends to dwell in one trace bucket), with a burst drawn after
    // each reset. Exercises the set_utilization fast path that skips the
    // distribution rebuild when the interpolated parameters are unchanged.
    let f = RngFactory::new(1);
    let sweep: Vec<f64> = (0..64).map(|w| 0.2 + 0.5 * ((w / 8) % 2) as f64).collect();
    c.bench_function("burst_generation_changing_utilization", |b| {
        b.iter(|| {
            let mut gen = BurstGenerator::paper(sweep[0]);
            let mut rng = f.stream_for(domains::FINE_BURSTS, 1);
            let mut acc = 0u64;
            for _ in 0..256 {
                for &u in &sweep {
                    gen.set_utilization(u);
                    acc = acc.wrapping_add(gen.next_burst(&mut rng).duration.as_nanos());
                }
            }
            black_box(acc)
        })
    });
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

fn bench_fit(c: &mut Criterion) {
    c.bench_function("two_moment_fit_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..1000 {
                let mean = i as f64 * 1e-4;
                for cv2 in [0.3, 1.0, 4.0, 12.0] {
                    let f = fit_two_moments(mean, cv2 * mean * mean);
                    acc += linger_stats::Distribution::mean(&f);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_traces(c: &mut Criterion) {
    let f = RngFactory::new(2);
    c.bench_function("dispatch_trace_60s", |b| {
        b.iter(|| {
            black_box(DispatchTrace::synthesize_fixed(&f, 0, 0.5, SimDuration::from_secs(60)))
        })
    });
    c.bench_function("coarse_trace_4h", |b| {
        let cfg = CoarseTraceConfig::default();
        b.iter(|| black_box(cfg.synthesize(&f, 0)))
    });
    c.bench_function("fine_grain_analysis_60s", |b| {
        let trace = DispatchTrace::synthesize_fixed(&f, 0, 0.5, SimDuration::from_secs(60));
        b.iter(|| {
            let mut an = FineGrainAnalysis::new(false);
            an.ingest(&trace);
            black_box(an.to_param_table())
        })
    });
}

/// One draw per iteration from a long-lived stream, so the reported
/// time is the amortized cost per `u64` (refills included) and per
/// trace sample — the unit trace-synthesis setup is paid in.
fn bench_draws(c: &mut Criterion) {
    let f = RngFactory::new(1998);
    c.bench_function("chacha8_next_u64", |b| {
        let mut rng = f.stream_for(domains::COARSE_TRACE, 0);
        b.iter(|| rng.next_u64())
    });
    c.bench_function("trace_stream_next_sample", |b| {
        let mut stream = TraceStream::new(&CoarseTraceConfig::default(), &f, 0);
        b.iter(|| stream.next_sample())
    });
    // The streamed path's initial positioning: a fresh stream skipped
    // half a 1-hour period (900 samples), the mean offset per node.
    c.bench_function("trace_stream_skip", |b| {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let fresh = TraceStream::new(&cfg, &f, 0);
        b.iter(|| {
            let mut stream = fresh.clone();
            stream.skip(900);
            black_box(stream.index())
        })
    });
}

criterion_group!(
    benches,
    bench_bursts,
    bench_bursts_changing_utilization,
    bench_burst_sampling,
    bench_fit,
    bench_traces,
    bench_draws
);
criterion_main!(benches);
