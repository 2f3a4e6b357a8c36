//! Shared-link network model for process migration.
//!
//! The paper transfers process images "over a 10 Mbps Ethernet at an
//! effective rate of 3 Mbps (to limit the load placed on the network by
//! process migration)" — a per-flow throttle protecting a shared
//! backbone. The default migration model charges that fixed effective
//! rate per migration; this module adds the shared medium itself, so an
//! eviction storm (many simultaneous IE migrations) contends for the
//! backbone and slows every transfer — the behaviour the throttle exists
//! to bound, and the subject of the network ablation.

use serde::{Deserialize, Serialize};

/// A shared migration network: concurrent flows split the backbone
/// fairly, each additionally capped at a per-flow rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Total backbone capacity, bits per second (paper: 10 Mbps Ethernet).
    pub backbone_bps: f64,
    /// Per-flow throttle, bits per second (paper: 3 Mbps effective).
    pub per_flow_bps: f64,
}

impl NetworkModel {
    /// The paper's network: 10 Mbps Ethernet with a 3 Mbps per-flow
    /// throttle.
    pub fn paper_default() -> Self {
        NetworkModel { backbone_bps: 10.0e6, per_flow_bps: 3.0e6 }
    }

    /// The rate each of `flows` concurrent transfers receives.
    pub fn per_flow_rate(&self, flows: usize) -> f64 {
        if flows == 0 {
            return 0.0;
        }
        let fair = self.backbone_bps / flows as f64;
        fair.min(self.per_flow_bps)
    }

    /// Bits a single flow moves during `secs` when `flows` transfers are
    /// active.
    pub fn bits_transferred(&self, flows: usize, secs: f64) -> f64 {
        self.per_flow_rate(flows) * secs
    }

    /// Round-trip time of one steal probe (request + response, each
    /// [`STEAL_PROBE_BITS`]) while `flows` bulk transfers share the
    /// medium. This is the network floor under a configured steal RTT:
    /// the effective per-probe cost is `max(rtt_secs, this)`, so an
    /// eviction storm saturating the backbone also slows stealing.
    pub fn steal_round_trip_secs(&self, flows: usize) -> f64 {
        // The probe itself is one extra flow on the shared medium.
        let rate = self.per_flow_rate(flows + 1);
        if rate <= 0.0 || rate.is_infinite() {
            return 0.0;
        }
        2.0 * STEAL_PROBE_BITS / rate
    }
}

/// Size of one steal probe message (request or response), bits. A small
/// control message: 512 bytes of headers + deque metadata.
pub const STEAL_PROBE_BITS: f64 = 4096.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_the_throttle() {
        let n = NetworkModel::paper_default();
        assert_eq!(n.per_flow_rate(1), 3.0e6);
        // Two or three flows still fit under the backbone.
        assert_eq!(n.per_flow_rate(3), 3.0e6);
    }

    #[test]
    fn many_flows_split_the_backbone() {
        let n = NetworkModel::paper_default();
        assert!((n.per_flow_rate(5) - 2.0e6).abs() < 1e-6);
        assert!((n.per_flow_rate(10) - 1.0e6).abs() < 1e-6);
    }

    #[test]
    fn zero_flows_move_nothing() {
        let n = NetworkModel::paper_default();
        assert_eq!(n.per_flow_rate(0), 0.0);
        assert_eq!(n.bits_transferred(0, 10.0), 0.0);
    }

    #[test]
    fn steal_round_trips_feel_backbone_contention() {
        let n = NetworkModel::paper_default();
        let quiet = n.steal_round_trip_secs(0);
        // 2 × 4096 bits at 3 Mbps ≈ 2.7 ms.
        assert!((quiet - 2.0 * 4096.0 / 3.0e6).abs() < 1e-9);
        // Ten concurrent migrations squeeze the probe's share.
        let storm = n.steal_round_trip_secs(10);
        assert!(storm > 2.0 * quiet, "contention should slow probes: {storm} vs {quiet}");
        // An unconstrained network never delays a probe.
        let free = NetworkModel {
            backbone_bps: f64::INFINITY,
            per_flow_bps: f64::INFINITY,
        };
        assert_eq!(free.steal_round_trip_secs(10), 0.0);
    }

    #[test]
    fn transferred_bits_scale_with_time() {
        let n = NetworkModel::paper_default();
        assert!((n.bits_transferred(1, 2.0) - 6.0e6).abs() < 1e-6);
        assert!((n.bits_transferred(10, 2.0) - 2.0e6).abs() < 1e-6);
    }
}
