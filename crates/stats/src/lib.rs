//! # linger-stats
//!
//! Probability and statistics substrate for the *Linger Longer* (SC'98)
//! reproduction:
//!
//! * [`distr`] — exponential, 2-stage hyper-exponential, Erlang,
//!   deterministic and uniform distributions with exact moments and CDFs;
//! * [`fit`] — the paper's method-of-moments burst fitting (Sec 3.1):
//!   hyper-exponential for CV² > 1, with exact Erlang-mixture and
//!   exponential fallbacks so every (mean, variance) pair is representable;
//! * [`histogram`] — fixed-bin histograms, empirical CDFs, and the
//!   Kolmogorov–Smirnov distance used to validate fits (Fig 2);
//! * [`summary`] — Welford online statistics (the Fig 7 "Variation" metric)
//!   and time-weighted averages (utilizations).

//! ## Example
//!
//! ```
//! use linger_stats::{fit_two_moments, Distribution};
//!
//! // The paper's method-of-moments fit: CV² > 1 → hyper-exponential.
//! let fitted = fit_two_moments(0.05, 0.02);
//! assert_eq!(fitted.family(), "hyperexp2");
//! assert!((fitted.mean() - 0.05).abs() < 1e-9);
//! assert!((fitted.variance() - 0.02).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod distr;
pub mod fit;
pub mod histogram;
pub mod summary;

pub use distr::{
    Deterministic, Distribution, Erlang, Exponential, HyperExp2, Pareto, UniformRange,
};
pub use fit::{fit_two_moments, Fitted};
pub use histogram::{Ecdf, Histogram};
pub use summary::{z_score, BatchMeans, Online, TimeWeighted, UnsupportedConfidence};
