//! Benchmarks of the telemetry recorder on the cluster window loop.
//!
//! * `fig07_cell_disabled` — a fig07-fast-scale cluster cell with a
//!   disabled recorder: every emission site costs one `Option` branch
//!   and the event closures never run. This is the default-path cost
//!   the ≤3% overhead contract is about.
//! * `fig07_cell_journaling` — the same cell journaling into a
//!   default-capacity ring: closures run, events are pushed under the
//!   journal mutex (uncontended here — one sim, one thread).
//! * `record_disabled` / `record_journaling` — the per-emission cost in
//!   isolation, outside any simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim};
use linger_sim_core::SimDuration;
use linger_telemetry::{Event, EventKind, Recorder, DEFAULT_CAPACITY};
use std::hint::black_box;

fn cell_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        Policy::LingerLonger,
        JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024),
    );
    cfg.nodes = 16;
    cfg.seed = 1998;
    cfg
}

fn bench_cluster_cell(c: &mut Criterion) {
    c.bench_function("fig07_cell_disabled", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(cell_cfg()).with_recorder(Recorder::disabled());
            black_box(sim.run())
        })
    });
    c.bench_function("fig07_cell_journaling", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(cell_cfg())
                .with_recorder(Recorder::with_capacity(DEFAULT_CAPACITY));
            black_box(sim.run())
        })
    });
}

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

criterion_group!(benches, bench_cluster_cell, bench_record);
criterion_main!(benches);
