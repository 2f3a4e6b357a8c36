//! Benchmarks of the telemetry recorder: the per-emission cost in
//! isolation, outside any simulation.
//!
//! * `record_disabled_4096` — a disabled recorder: every emission costs
//!   one `Option` branch and the event closure never runs. This is the
//!   default-path cost the ≤3% overhead contract is about.
//! * `record_journaling_4096` — the same emissions journaling into a
//!   default-capacity ring: closures run, events are pushed under the
//!   journal mutex (uncontended here — one thread).
//!
//! The whole-cell disabled-vs-journaling cost is `run_all`'s
//! `telemetry_ab` section (reported as `telemetry_overhead`).

use criterion::{criterion_group, criterion_main, Criterion};
use linger_telemetry::{Event, EventKind, Recorder, DEFAULT_CAPACITY};
use std::hint::black_box;

fn bench_record(c: &mut Criterion) {
    const N: u64 = 4096;
    c.bench_function("record_disabled_4096", |b| {
        let recorder = Recorder::disabled();
        b.iter(|| {
            for i in 0..N {
                recorder.record(|| {
                    Event::new(i as u32, i, EventKind::WindowStart { queue_depth: i as u32 })
                });
            }
            black_box(&recorder).enabled()
        })
    });
    c.bench_function("record_journaling_4096", |b| {
        let recorder = Recorder::with_capacity(DEFAULT_CAPACITY);
        b.iter(|| {
            for i in 0..N {
                recorder.record(|| {
                    Event::new(i as u32, i, EventKind::WindowStart { queue_depth: i as u32 })
                });
            }
            black_box(recorder.journal().map(|j| j.len()))
        })
    });
}

criterion_group!(benches, bench_record);
criterion_main!(benches);
