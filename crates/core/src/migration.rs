//! The migration cost model (paper Sec 2).
//!
//! "The migration cost consists of fixed part and variable part. The fixed
//! part is for handling the process-related work at the source and
//! destination nodes. The process transfer time varies on the network
//! bandwidth and the process size":
//!
//! ```text
//! T_migr = Processing_Time(source) + Process_size / network_bandwidth
//!        + Processing_Time(destination)
//! ```
//!
//! The paper's cluster experiments move 8 MB processes over 10 Mbps
//! Ethernet throttled to an effective 3 Mbps ("to limit the load placed on
//! the network by process migration"), and "the foreign job is suspended
//! for the entire duration of the migration".

use linger_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

/// Parameters of the fixed + variable migration cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCostModel {
    /// Process-handling time at the source node.
    pub source_processing: SimDuration,
    /// Process-handling time at the destination node.
    pub dest_processing: SimDuration,
    /// Effective transfer bandwidth, bits per second.
    pub bandwidth_bps: f64,
}

impl MigrationCostModel {
    /// The paper's configuration: 3 Mbps effective Ethernet and a modest
    /// fixed handling cost on each side.
    pub fn paper_default() -> Self {
        MigrationCostModel {
            source_processing: SimDuration::from_millis(300),
            dest_processing: SimDuration::from_millis(300),
            bandwidth_bps: 3.0e6,
        }
    }

    /// A zero-cost model (useful for isolating policy effects in tests
    /// and ablations).
    pub fn free() -> Self {
        MigrationCostModel {
            source_processing: SimDuration::ZERO,
            dest_processing: SimDuration::ZERO,
            bandwidth_bps: f64::INFINITY,
        }
    }

    /// Total migration cost for a process image of `size_kb` kilobytes.
    pub fn cost(&self, size_kb: u32) -> SimDuration {
        let bits = size_kb as f64 * 1024.0 * 8.0;
        let transfer = if self.bandwidth_bps.is_infinite() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bits / self.bandwidth_bps)
        };
        self.source_processing + transfer + self.dest_processing
    }
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Retry schedule for migrations that fail in transit (fault injection).
///
/// The paper assumes migrations always succeed; on a real network of
/// workstations a transfer can be cut short by the destination crashing
/// or the image being dropped mid-stream. A failed attempt is retried
/// after a capped exponential backoff, and each retry pays a
/// checkpoint-restart term on top of the full transfer cost: the image
/// must be re-captured from the last consistent checkpoint before it can
/// be re-sent. After `max_attempts` the migration is abandoned and the
/// job returns to the central queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationRetryPolicy {
    /// Maximum transfer attempts per migration, including the first.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: SimDuration,
    /// Cap on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Checkpoint-restart processing charged on every retry.
    pub checkpoint_cost: SimDuration,
}

impl MigrationRetryPolicy {
    /// Defaults sized against the paper's ~23 s 8 MB migration: 4
    /// attempts, 2 s → 16 s backoff, 500 ms checkpoint restart.
    pub fn paper_default() -> Self {
        MigrationRetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(16),
            checkpoint_cost: SimDuration::from_millis(500),
        }
    }

    /// Backoff before retry number `retry` (0-based): `base · 2^retry`,
    /// capped at [`Self::max_backoff`].
    pub fn backoff(&self, retry: u32) -> SimDuration {
        // 2^63 ns already exceeds any simulated horizon; clamp the shift
        // so the multiplier cannot overflow before the cap applies.
        let doubled = self.base_backoff.mul_f64((1u64 << retry.min(62)) as f64);
        if doubled > self.max_backoff {
            self.max_backoff
        } else {
            doubled
        }
    }

    /// Total extra delay a failed attempt adds before its re-transfer
    /// starts: backoff plus the checkpoint-restart processing.
    pub fn retry_delay(&self, retry: u32) -> SimDuration {
        self.backoff(retry) + self.checkpoint_cost
    }
}

impl Default for MigrationRetryPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_8mb_over_3mbps() {
        let m = MigrationCostModel::paper_default();
        let cost = m.cost(8 * 1024);
        // 8 MB = 67,108,864 bits; / 3e6 ≈ 22.37 s; + 0.6 s fixed.
        let expect = 8.0 * 1024.0 * 1024.0 * 8.0 / 3.0e6 + 0.6;
        assert!(
            (cost.as_secs_f64() - expect).abs() < 1e-6,
            "cost {} vs {}",
            cost.as_secs_f64(),
            expect
        );
    }

    #[test]
    fn cost_scales_linearly_with_size() {
        let m = MigrationCostModel::paper_default();
        let fixed = m.source_processing + m.dest_processing;
        let c1 = m.cost(1024) - fixed;
        let c4 = m.cost(4096) - fixed;
        assert!((c4.as_secs_f64() / c1.as_secs_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_size_costs_only_fixed_part() {
        let m = MigrationCostModel::paper_default();
        assert_eq!(m.cost(0), SimDuration::from_millis(600));
    }

    #[test]
    fn free_model_is_free() {
        assert_eq!(MigrationCostModel::free().cost(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn higher_bandwidth_is_cheaper() {
        let slow = MigrationCostModel {
            bandwidth_bps: 3.0e6,
            ..MigrationCostModel::paper_default()
        };
        let fast = MigrationCostModel { bandwidth_bps: 100.0e6, ..slow };
        assert!(fast.cost(8192) < slow.cost(8192));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let r = MigrationRetryPolicy::paper_default();
        assert_eq!(r.backoff(0), SimDuration::from_secs(2));
        assert_eq!(r.backoff(1), SimDuration::from_secs(4));
        assert_eq!(r.backoff(2), SimDuration::from_secs(8));
        assert_eq!(r.backoff(3), SimDuration::from_secs(16));
        assert_eq!(r.backoff(4), SimDuration::from_secs(16), "capped");
        assert_eq!(r.backoff(200), SimDuration::from_secs(16), "huge retry count capped");
    }

    #[test]
    fn retry_delay_adds_checkpoint_cost() {
        let r = MigrationRetryPolicy::paper_default();
        assert_eq!(r.retry_delay(0), SimDuration::from_millis(2500));
        assert_eq!(r.retry_delay(10), r.max_backoff + r.checkpoint_cost);
    }
}
