//! # linger
//!
//! The primary contribution of *Linger Longer: Fine-Grain Cycle Stealing
//! for Networks of Workstations* (Ryu & Hollingsworth, SC 1998): the
//! Linger-Longer scheduling policy and its companion cost models.
//!
//! * [`policy`] — the four migration policies (LL, LF, IE, PM);
//! * [`cost`] — the linger-duration model
//!   `T_lingr = (1−l)/(h−l)·T_migr` derived from the paper's Fig 1 timing
//!   analysis with the median-remaining-life episode predictor;
//! * [`migration`] — the fixed + size/bandwidth migration cost model;
//! * [`job`] — foreign jobs and job families (workloads 1 and 2 of
//!   Sec 4.2);
//! * [`params`] — bundled per-policy scheduling parameters;
//! * [`predictor`] — how good the median-remaining-life heuristic
//!   actually is, measured against alternatives on Pareto, exponential
//!   and deterministic episode populations.
//!
//! The simulators that evaluate these policies live in the sibling crates
//! `linger-node` (single node, Fig 5), `linger-cluster` (Figs 7–8) and
//! `linger-parallel` (Figs 9–13); the workload models in
//! `linger-workload`.
//!
//! ## Example: when does a job stop lingering?
//!
//! ```
//! use linger::cost::linger_duration;
//! use linger::migration::MigrationCostModel;
//!
//! // An 8 MB job on a node that turned 50%-busy, with idle nodes free.
//! let t_migr = MigrationCostModel::paper_default().cost(8 * 1024);
//! let t_lingr = linger_duration(0.5, 0.0, t_migr).unwrap();
//! // (1-0)/(0.5-0) = 2 × ~23 s ≈ 46 s of lingering before migrating.
//! assert!((t_lingr.as_secs_f64() - 2.0 * t_migr.as_secs_f64()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod job;
pub mod migration;
pub mod params;
pub mod policy;
pub mod predictor;

pub use job::{JobFamily, JobId, JobSpec};
pub use migration::{MigrationCostModel, MigrationRetryPolicy};
pub use params::{PolicyParams, DEFAULT_CONTEXT_SWITCH, DEFAULT_PAUSE_TIMEOUT};
pub use policy::Policy;
