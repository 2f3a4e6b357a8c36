//! Workload-synthesis benchmarks: the parallel trace-library fan-out and
//! the window-row filler's chunk build, at the node counts where the
//! `ext_scaling` sweep switches representations. Serial and parallel
//! synthesis run over the same seeds (the fan-out is index-keyed, so the
//! bytes are identical either way) — the gap between the two is the
//! speedup the worker pool buys. The filler is the one row builder: it
//! fills a streamed cursor's chunks and, in a single fill at window 0,
//! a table realization's rows, so `chunk_build` times the table's
//! builder too, and a regression there shows up directly as setup cost
//! of streamed and table cells alike in the scaling sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use linger_sim_core::{set_default_jobs, RngFactory, SimDuration};
use linger_workload::{CoarseTraceConfig, WorkloadRealization};
use std::hint::black_box;

fn trace_cfg() -> CoarseTraceConfig {
    CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    }
}

fn bench_synthesize_library(c: &mut Criterion) {
    let cfg = trace_cfg();
    for nodes in [4096usize, 65_536] {
        for (mode, jobs) in [("serial", 1usize), ("parallel", 0)] {
            let name = format!("synthesize_library_{nodes}n_{mode}");
            c.bench_function(&name, |b| {
                set_default_jobs(jobs);
                let factory = RngFactory::new(1998);
                b.iter(|| black_box(cfg.synthesize_library(&factory, nodes)));
                set_default_jobs(0);
            });
        }
    }
}

fn bench_chunk_build(c: &mut Criterion) {
    let cfg = trace_cfg();
    for nodes in [4096usize, 65_536] {
        // 64-window chunks: the cursor rebuilds its arena once per
        // `rows` call past the current chunk, so stepping a fresh cursor
        // through the first four chunks times pure build throughput.
        let real = WorkloadRealization::synthesize_streamed(&cfg, 1998, nodes, 64);
        let name = format!("chunk_build_{nodes}n_64w");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut cursor = real.cursor(usize::MAX);
                for w in (0..256).step_by(64) {
                    black_box(cursor.rows(w).cpu.len());
                }
                cursor.chunks_built()
            })
        });
    }
}

criterion_group!(benches, bench_synthesize_library, bench_chunk_build);
criterion_main!(benches);
