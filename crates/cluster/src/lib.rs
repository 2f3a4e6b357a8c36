//! # linger-cluster
//!
//! The cluster simulator of *Linger Longer* (SC'98), Sec 4.2: sequential
//! foreign jobs scheduled across a cluster of user workstations under the
//! four policies (LL, LF, IE, PM), with trace-driven local workloads,
//! two-pool memory gating, and the fixed + size/bandwidth migration cost
//! model.
//!
//! * [`config`] — experiment configuration (the paper's 64-node setup);
//! * [`faults`] — deterministic fault injection (node crash/reboot
//!   schedules and in-transit migration failures);
//! * [`state`] — job lifecycle states and the Fig 8 breakdown;
//! * [`network`] — the shared migration network (eviction-storm
//!   contention);
//! * [`stealing`] — the decentralized work-stealing scheduler (per-node
//!   deques, randomized victims, steal latency as a first-class cost);
//! * [`sim`] — the window-stepped simulation; the scheduler (central
//!   queue or steal deques) sits behind one seam in its private
//!   `dispatch` submodule;
//! * [`metrics`] — the Fig 7 metrics and the policy-comparison driver.

//! ## Example
//!
//! ```
//! use linger::{JobFamily, Policy};
//! use linger_cluster::{ClusterConfig, ClusterSim};
//! use linger_sim_core::SimDuration;
//!
//! let mut cfg = ClusterConfig::paper(
//!     Policy::LingerLonger,
//!     JobFamily::uniform(4, SimDuration::from_secs(60), 8 * 1024),
//! );
//! cfg.nodes = 4;
//! cfg.trace.duration = SimDuration::from_secs(1800);
//! let mut sim = ClusterSim::new(cfg);
//! assert!(sim.run());
//! assert_eq!(sim.completed(), 4);
//! ```

#![warn(missing_docs)]

pub mod config;
mod dest;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod service;
pub mod sim;
pub mod state;
pub mod stealing;

pub use config::{AdmissionPolicy, ClusterConfig, RunMode, ServiceConfig};
pub use faults::{FaultConfig, FaultEvent, FaultEventKind, FaultModel, FaultStats};
pub use metrics::{
    evaluate_policy, evaluate_policy_replicated, paper_realization, policy_comparison,
    BreakdownSecs, Estimate, PolicyMetrics, ReplicatedMetrics,
};
pub use network::NetworkModel;
pub use service::{ServiceStats, DEFAULT_QUEUE_BUDGET_BYTES};
pub use sim::{ClusterSim, WINDOW};
pub use state::{JobCold, JobRecord, JobSlabs, JobState, NodeId, NodeSlabs, StateBreakdown};
pub use stealing::{StealState, StealStats, StealingConfig};
