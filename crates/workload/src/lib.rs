//! # linger-workload
//!
//! The two-level workstation workload model of *Linger Longer* (SC'98),
//! Sec 3 and Fig 6:
//!
//! * [`params`] — the 21-bucket fine-grain burst parameter table (Fig 3)
//!   with the paper's linear interpolation;
//! * [`burst`] — the alternating run/idle burst process;
//! * [`fit_table`] — precomputed, `Arc`-shared two-moment fits of the
//!   bucket table (one fit per bucket plus an interpolation memo cache);
//! * [`dispatch`] — synthetic scheduler-dispatch traces (substitution for
//!   the paper's AIX recordings; DESIGN.md §3.1);
//! * [`coarse`] — coarse 2-second traces, the recruitment-threshold idle
//!   rule, and a synthesizer calibrated to the Arpaci-trace aggregates the
//!   paper reports (substitution 2);
//! * [`analysis`] — re-derivation of Figs 2, 3 and 4 from traces;
//! * [`arrivals`] — deterministic open-arrival processes (Poisson and
//!   two-phase MMPP) for the serving mode, seeded per window;
//! * [`generator`] — the two-level generator wiring coarse traces to the
//!   burst process (Fig 6);
//! * [`library`] — the shared workload-realization cache: one synthesis
//!   of offsets + window table (or stream spec) per `(config, seed,
//!   nodes)` key, reused across policies, sweep points, and replications;
//! * [`stream`] — the memory-bounded streaming realization: resumable
//!   per-node trace streams feeding a chunked window cursor, for node
//!   counts whose monolithic table would not fit the byte budget;
//! * [`memory`] — the two-pool priority page model (Sec 3.2);
//! * [`paging`] — the same policy at page granularity (LRU lists, free
//!   list, fault costs), proving the protection invariant the Linux
//!   prototype relies on;
//! * [`io`] — trace persistence (JSON);
//! * [`trace_text`] — a documented plain-text trace interchange format
//!   for importing measured data.

//! ## Example
//!
//! ```
//! use linger_sim_core::{domains, RngFactory, SimDuration};
//! use linger_workload::{BurstGenerator, BurstKind};
//!
//! // Fine-grain bursts at 30% utilization.
//! let factory = RngFactory::new(7);
//! let mut rng = factory.stream_for(domains::FINE_BURSTS, 0);
//! let mut gen = BurstGenerator::paper(0.30);
//! let (mut run, mut total) = (0.0, 0.0);
//! for _ in 0..20_000 {
//!     let b = gen.next_burst(&mut rng);
//!     total += b.duration.as_secs_f64();
//!     if b.kind == BurstKind::Run {
//!         run += b.duration.as_secs_f64();
//!     }
//! }
//! assert!((run / total - 0.30).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod arrivals;
pub mod burst;
pub mod coarse;
pub mod dispatch;
pub mod fit_table;
pub mod generator;
pub mod io;
pub mod library;
pub mod memory;
pub mod paging;
pub mod params;
pub mod stream;
pub mod trace_text;

pub use analysis::{CoarseAggregates, FineGrainAnalysis};
pub use arrivals::{ArrivalConfig, ArrivalGenerator, ArrivalProcess, SizeDistribution};
pub use burst::{Burst, BurstGenerator, BurstKind, MIN_BURST};
pub use coarse::{
    CoarseSample, CoarseTrace, CoarseTraceConfig, TraceStream, IDLE_CPU_THRESHOLD,
    RECRUITMENT_SECS, SAMPLE_PERIOD_SECS, TOTAL_MEMORY_KB,
};
pub use dispatch::DispatchTrace;
pub use fit_table::{BurstFitTable, FitPair};
pub use generator::LocalWorkload;
pub use library::{
    RealizeOrigin, TraceCacheStats, TraceLibrary, WindowTable, WorkloadRealization,
};
pub use memory::{TwoPoolMemory, PAGE_KB};
pub use stream::{StreamSpec, WindowCursor, WindowRows, DEFAULT_WINDOW_BUDGET_BYTES};
pub use paging::{Owner, PagingConfig, PagingSim, PagingStats};
pub use params::{BucketParams, BurstParamTable, NUM_BUCKETS, WINDOW_SECS};
