//! Schedule/cancel/pop churn micro-benchmarks for the slab-backed
//! [`EventQueue`] — the access pattern timer-heavy simulations produce:
//! every scheduled timeout is usually cancelled and rescheduled before it
//! fires, so the queue lives under a standing wave of tombstones.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use linger_sim_core::{EventQueue, SimTime};
use std::hint::black_box;

/// xorshift64* — cheap deterministic timestamps that churn the heap.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_churn");

    // The timer-wheel pattern: keep N pending timeouts, and on every pop
    // cancel one survivor and schedule a replacement. Cancellations never
    // stop, so tombstone pruning and compaction run continuously.
    g.bench_function("steady_state_reschedule_50k_ops", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::<u64>::new();
                let mut x = 0x9E3779B97F4A7C15u64;
                let handles: Vec<_> = (0..1_024u64)
                    .map(|i| q.schedule(SimTime::from_nanos(next(&mut x) % 1_000_000), i))
                    .collect();
                (q, handles, x)
            },
            |(mut q, mut handles, mut x)| {
                for i in 0..50_000u64 {
                    let victim = (next(&mut x) as usize) % handles.len();
                    q.cancel(handles[victim]);
                    handles[victim] = q.schedule(SimTime::from_nanos(next(&mut x) % 1_000_000), i);
                    if i % 4 == 0 {
                        black_box(q.pop());
                    }
                }
                black_box(q.len())
            },
            BatchSize::SmallInput,
        )
    });

    // Worst case for lazy cancellation: nearly everything scheduled is
    // dead by the time the heap drains.
    g.bench_function("cancel_90pct_then_drain_20k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                let mut x = 0x2545F4914F6CDD1Du64;
                let handles: Vec<_> = (0..20_000u64)
                    .map(|i| q.schedule(SimTime::from_nanos(next(&mut x) % 1_000_000_000), i))
                    .collect();
                for (i, h) in handles.iter().enumerate() {
                    if i % 10 != 0 {
                        q.cancel(*h);
                    }
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });

    // Pure horizon-bounded drain, the engine's inner loop shape.
    g.bench_function("pop_due_horizon_sweep_20k", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::<u64>::new();
                let mut x = 0xD1B54A32D192ED03u64;
                for i in 0..20_000u64 {
                    q.schedule(SimTime::from_nanos(next(&mut x) % 1_000_000_000), i);
                }
                q
            },
            |mut q| {
                let mut horizon = 0u64;
                while !q.is_empty() {
                    horizon += 50_000_000;
                    while let Some(e) = q.pop_due(SimTime::from_nanos(horizon)) {
                        black_box(e);
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
