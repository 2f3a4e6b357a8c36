//! Sources of local (owner) CPU demand.
//!
//! The node scheduler is generic over where its run/idle bursts come from:
//! a fixed-utilization generator (the Fig 5 single-node study), or a
//! trace-driven [`LocalWorkload`] (the cluster and parallel simulations).

use linger_sim_core::SimRng;
use linger_workload::{Burst, BurstGenerator, LocalWorkload};

/// Anything that can produce the next local run/idle burst.
pub trait BurstSource {
    /// Draw the next burst of local demand.
    fn next_burst(&mut self) -> Burst;
}

/// A burst source pinned to one utilization level (paper Sec 4.1:
/// "a single node with … various levels of processor utilization by
/// foreground jobs").
pub struct FixedUtilization {
    gen: BurstGenerator,
    rng: SimRng,
}

impl FixedUtilization {
    /// Bursts at `utilization` drawn from the paper-calibrated table.
    pub fn new(utilization: f64, rng: SimRng) -> Self {
        FixedUtilization { gen: BurstGenerator::paper(utilization), rng }
    }

    /// The pinned utilization level.
    pub fn utilization(&self) -> f64 {
        self.gen.utilization()
    }
}

impl BurstSource for FixedUtilization {
    fn next_burst(&mut self) -> Burst {
        self.gen.next_burst(&mut self.rng)
    }
}

impl BurstSource for LocalWorkload {
    fn next_burst(&mut self) -> Burst {
        LocalWorkload::next_burst(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger_sim_core::{domains, RngFactory};
    use linger_workload::BurstKind;

    #[test]
    fn fixed_source_matches_target() {
        let f = RngFactory::new(3);
        let mut src = FixedUtilization::new(0.4, f.stream_for(domains::FINE_BURSTS, 0));
        assert_eq!(src.utilization(), 0.4);
        let mut run = 0.0;
        let mut total = 0.0;
        for _ in 0..100_000 {
            let b = src.next_burst();
            total += b.duration.as_secs_f64();
            if b.kind == BurstKind::Run {
                run += b.duration.as_secs_f64();
            }
        }
        let u = run / total;
        assert!((u - 0.4).abs() < 0.02, "measured {u}");
    }
}
