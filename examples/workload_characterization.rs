//! Workload characterization walk-through (paper Sec 3): from dispatch
//! records to the two-level generator.
//!
//! Shows the full measurement pipeline a deployer would run on their own
//! machine room: record fine-grain bursts, fit per-bucket distributions,
//! check the fits, derive coarse-trace aggregates, and wire both levels
//! together.
//!
//! Run with: `cargo run --release --example workload_characterization`

use linger_sim_core::{domains, RngFactory, SimDuration, SimTime};
use linger_stats::Distribution;
use linger_workload::{
    analysis::{CoarseAggregates, FineGrainAnalysis},
    BurstFitTable, BurstKind, CoarseTraceConfig, DispatchTrace, LocalWorkload, TwoPoolMemory,
    PAGE_KB,
};
use std::sync::Arc;

fn main() {
    let factory = RngFactory::new(314);

    // -- 1. Fine-grain: dispatch traces -> bucket moments -> fits ------
    println!("== fine-grain characterization (Sec 3.1) ==");
    let mut analysis = FineGrainAnalysis::new(true);
    for (id, u) in [(0u64, 0.10), (1, 0.30), (2, 0.50), (3, 0.70)] {
        let trace = DispatchTrace::synthesize_fixed(&factory, id, u, SimDuration::from_secs(600));
        analysis.ingest(&trace);
    }
    for bucket in [2usize, 10] {
        let acc = &analysis.buckets()[bucket];
        let (run_fit, _) = analysis.fitted(bucket);
        let run_fit = run_fit.expect("populated bucket");
        let ks = analysis.ecdf(bucket, BurstKind::Run).ks_distance(|x| run_fit.cdf(x));
        println!(
            "bucket {:>3}%: {:>6} run bursts, mean {:>6.1} ms, fitted as {} (KS {:.3})",
            bucket * 5,
            acc.run.count(),
            acc.run.mean() * 1000.0,
            run_fit.family(),
            ks
        );
    }

    // -- 2. Coarse-grain: machine-room aggregates ----------------------
    println!("\n== coarse-grain characterization (Sec 3.2) ==");
    let cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(6 * 3600),
        ..Default::default()
    };
    let traces = cfg.synthesize_library(&factory, 16);
    let agg = CoarseAggregates::analyze(&traces);
    println!(
        "16 machines x 6 h: {:.0}% of time non-idle; {:.0}% of non-idle time under 10% CPU",
        agg.non_idle_fraction * 100.0,
        agg.non_idle_low_cpu_fraction * 100.0
    );
    println!(
        "free memory: >= {:.1} MB for 90% of the time, >= {:.1} MB for 95%",
        agg.mem_available_at_least(0.90) / 1024.0,
        agg.mem_available_at_least(0.95) / 1024.0
    );

    // -- 3. The two-pool memory contract -------------------------------
    println!("\n== two-pool priority memory (Sec 3.2) ==");
    let mut mem = TwoPoolMemory::new(64 * 1024, 30 * 1024 / PAGE_KB);
    let resident = mem.attach_foreign(8 * 1024);
    println!(
        "foreign job attached: {} KB resident, {} KB still free",
        resident,
        mem.free_kb()
    );
    let before_kb = mem.foreign_resident_kb();
    mem.set_local_pages(58 * 1024 / PAGE_KB); // the owner opens a big build
    println!(
        "owner grows to 58 MB: foreign shrinks to {} KB resident ({} pages reclaimed), \
         owner demand met in full: {}",
        mem.foreign_resident_kb(),
        (before_kb - mem.foreign_resident_kb()) / PAGE_KB,
        mem.local_kb() == 58 * 1024
    );

    // -- 4. The two-level generator (Fig 6) -----------------------------
    println!("\n== two-level workload generation (Fig 6) ==");
    let trace = Arc::new(traces[0].clone());
    let mut wl = LocalWorkload::new(
        trace,
        0,
        BurstFitTable::paper_shared(),
        factory.stream_for(domains::FINE_BURSTS, 99),
    );
    let mut bursts = 0u64;
    let mut run_time = SimDuration::ZERO;
    let horizon = SimTime::from_secs(120);
    while wl.position() < horizon {
        let b = wl.next_burst();
        bursts += 1;
        if b.kind == BurstKind::Run {
            run_time += b.duration;
        }
    }
    println!(
        "replayed 120 s of trace into {bursts} fine-grain bursts \
         ({:.1}% CPU demand realized)",
        run_time.as_secs_f64() / 120.0 * 100.0
    );
}
