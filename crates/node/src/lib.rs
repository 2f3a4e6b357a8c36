//! # linger-node
//!
//! Single-node strict-priority scheduling for the *Linger Longer* (SC'98)
//! reproduction:
//!
//! * [`source`] — local-demand burst sources (fixed utilization or
//!   trace-driven);
//! * [`executor`] — [`FineGrainCpu`], the burst-accurate execution of a
//!   starvation-priority foreign job with context-switch charging, plus
//!   the closed-form [`steal_rate`] used by the cluster fast path;
//! * [`single`] — the Sec 4.1 experiment: LDR and FCSR versus local
//!   utilization and context-switch cost (Fig 5);
//! * [`kernel`] — the event-driven strict-priority scheduler of the
//!   paper's Linux prototype (Sec 7), cross-validated against the burst
//!   model.

//! ## Example
//!
//! ```
//! use linger_node::{simulate_single_node, SingleNodeConfig};
//! use linger_sim_core::SimDuration;
//!
//! let report = simulate_single_node(&SingleNodeConfig {
//!     utilization: 0.3,
//!     context_switch: SimDuration::from_micros(100),
//!     duration: SimDuration::from_secs(60),
//!     seed: 1,
//! });
//! assert!(report.fcsr > 0.9);      // >90% of idle cycles harvested
//! assert!(report.ldr < 0.02);      // ~1% owner delay
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod kernel;
pub mod single;
pub mod source;

pub use executor::{steal_rate, steal_rate_with, FineGrainCpu};
pub use kernel::{simulate_kernel, KernelConfig, KernelReport, LocalProcessSpec};
pub use single::{
    fig5_paper_grid, fig5_sweep, simulate_single_node, SingleNodeConfig, SingleNodeReport,
};
pub use source::{BurstSource, FixedUtilization};
