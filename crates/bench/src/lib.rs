//! # linger-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation has a binary (`fig02` … `fig13`) that regenerates the rows
//! or series the paper reports, plus `run_all`, which executes the whole
//! suite and writes machine-readable results under `results/`.
//!
//! Shared experiment drivers live here so the binaries stay thin and the
//! integration tests can exercise the exact code paths the figures use.

#![warn(missing_docs)]

pub mod chart;
pub mod experiments;
pub mod output;
pub mod runner;

pub use chart::AsciiChart;
pub use experiments::*;
pub use output::{write_json, ArgError, Table};
pub use runner::{
    cpu_secs, peak_rss_kb, FailedSection, RunTimings, ScalingBaseline, SectionTiming,
    TelemetryOverhead,
};
