//! # linger-parallel
//!
//! Parallel-job scheduling under Linger-Longer (paper Sec 5): synthetic
//! bulk-synchronous jobs, the sor/water/fft application models, and the
//! lingering-versus-reconfiguration comparison.
//!
//! * [`comm`] — NEWS / all-to-all / butterfly exchange patterns;
//! * [`bsp`] — the BSP job runner over burst-accurate lingering CPUs;
//! * [`experiments`] — Figs 9 and 10 (slowdown vs. load and granularity);
//! * [`reconfig`] — Fig 11 (LL-k vs. power-of-two reconfiguration);
//! * [`apps`] — Figs 12 and 13 (application slowdowns and strategies);
//! * [`hybrid`] — the hybrid linger/reconfigure strategy the paper
//!   proposes as future work (Sec 5.2), with a model-based width
//!   predictor and a simulation oracle;
//! * [`cluster`] — the end-to-end parallel-job cluster-throughput
//!   evaluation the paper's conclusion lists as ongoing work.

//! ## Example
//!
//! ```
//! use linger_parallel::{slowdown, BspConfig};
//!
//! // One 20%-busy workstation barely slows an 8-process BSP job …
//! let cfg = BspConfig { phases: 40, ..BspConfig::fig9() };
//! let mut utils = vec![0.0; 8];
//! utils[0] = 0.2;
//! let s = slowdown(&cfg, &utils, 1);
//! assert!(s < 2.0);
//! // … which is why lingering beats giving the node up.
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod bsp;
pub mod cluster;
pub mod comm;
pub mod experiments;
pub mod hybrid;
pub mod reconfig;

pub use apps::{fig12, fig13, App, Fig12Point, Fig13Point};
pub use bsp::{run_bsp, slowdown, BspConfig, BspRun};
pub use cluster::{
    simulate_parallel_cluster, throughput_sweep, ParallelClusterConfig, ParallelClusterReport,
    ParallelPolicy, ThroughputComparison,
};
pub use comm::CommPattern;
pub use experiments::{fig10, fig9, Fig10Point, Fig9Point};
pub use hybrid::{hybrid_experiment, predict_best_k, HybridPoint};
pub use reconfig::{fig11, Fig11Point, MalleableJob, Strategy};
