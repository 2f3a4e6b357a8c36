//! Synthetic scheduler-dispatch traces.
//!
//! The paper's fine-grain characterization (Sec 3.1) came from AIX kernel
//! dispatch records captured on University of Maryland workstations. Those
//! recordings are not available, so this module generates synthetic
//! dispatch traces from the calibrated generative model — the stand-in
//! documented as substitution 1 in DESIGN.md. The analysis pipeline
//! ([`crate::analysis`]) treats these exactly as it would real records:
//! it re-derives bucket moments and hyper-exponential fits from the raw
//! burst population, which is what Figs 2 and 3 plot.

use crate::burst::{Burst, BurstGenerator, BurstKind};
use linger_sim_core::{domains, RngFactory, SimDuration};
use serde::{Deserialize, Serialize};

/// A recorded sequence of alternating run/idle bursts on one CPU.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DispatchTrace {
    bursts: Vec<Burst>,
}

impl DispatchTrace {
    /// The recorded bursts in time order.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// Number of bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// True if no bursts were recorded.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total span covered by the trace.
    pub fn total_duration(&self) -> SimDuration {
        self.bursts.iter().map(|b| b.duration).sum()
    }

    /// Overall CPU utilization of the trace.
    pub fn utilization(&self) -> f64 {
        let mut run = 0.0;
        let mut total = 0.0;
        for b in &self.bursts {
            let d = b.duration.as_secs_f64();
            total += d;
            if b.kind == BurstKind::Run {
                run += d;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            run / total
        }
    }

    /// Synthesize a trace holding a fixed target utilization for
    /// `duration` (the paper's "several twenty-minute intervals" at a
    /// given load level).
    ///
    /// Uses [`BurstGenerator::next_bursts_into`] in chunks: batched
    /// sampling yields bursts bit-identical to the per-draw loop in the
    /// same order, and the over-drawn tail of the final chunk only
    /// advances the per-trace `DISPATCH` stream, which is dropped here —
    /// so the trace matches per-draw generation exactly (see
    /// `fixed_synthesis_matches_per_draw_generation`).
    pub fn synthesize_fixed(
        factory: &RngFactory,
        trace_id: u64,
        utilization: f64,
        duration: SimDuration,
    ) -> Self {
        const CHUNK: usize = 64;
        let mut gen = BurstGenerator::paper(utilization);
        let mut rng = factory.stream_for(domains::DISPATCH, trace_id);
        let mut bursts = Vec::new();
        let mut batch = Vec::with_capacity(CHUNK);
        let mut elapsed = 0u64;
        let limit = duration.as_nanos();
        'fill: while elapsed < limit {
            gen.next_bursts_into(&mut rng, CHUNK, &mut batch);
            for &b in &batch {
                let mut b = b;
                // Trim the final burst to the requested duration.
                if elapsed + b.duration.as_nanos() > limit {
                    b.duration = SimDuration::from_nanos(limit - elapsed);
                    if b.duration.is_zero() {
                        break 'fill;
                    }
                }
                elapsed += b.duration.as_nanos();
                bursts.push(b);
                if elapsed >= limit {
                    break 'fill;
                }
            }
        }
        DispatchTrace { bursts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_trace_hits_target_utilization() {
        let f = RngFactory::new(31);
        for (id, target) in [(0u64, 0.1), (1, 0.5), (2, 0.8)] {
            let t = DispatchTrace::synthesize_fixed(&f, id, target, SimDuration::from_secs(1200));
            let u = t.utilization();
            assert!((u - target).abs() < 0.03, "target {target}, got {u}");
        }
    }

    #[test]
    fn trace_duration_is_exact() {
        let f = RngFactory::new(32);
        let d = SimDuration::from_secs(60);
        let t = DispatchTrace::synthesize_fixed(&f, 0, 0.4, d);
        assert_eq!(t.total_duration(), d);
    }

    #[test]
    fn bursts_alternate_in_trace() {
        let f = RngFactory::new(33);
        let t = DispatchTrace::synthesize_fixed(&f, 0, 0.5, SimDuration::from_secs(30));
        for w in t.bursts().windows(2) {
            assert_eq!(w[1].kind, w[0].kind.flip());
        }
    }

    #[test]
    fn deterministic_per_trace_id() {
        let f = RngFactory::new(35);
        let a = DispatchTrace::synthesize_fixed(&f, 1, 0.5, SimDuration::from_secs(10));
        let b = DispatchTrace::synthesize_fixed(&f, 1, 0.5, SimDuration::from_secs(10));
        assert_eq!(a.bursts(), b.bursts());
        let c = DispatchTrace::synthesize_fixed(&f, 2, 0.5, SimDuration::from_secs(10));
        assert_ne!(a.bursts(), c.bursts());
    }

    #[test]
    fn fixed_synthesis_matches_per_draw_generation() {
        // The batched path must reproduce the per-draw loop exactly —
        // this is the guarantee that lets figures keep byte-identical
        // JSON after the batching change.
        let f = RngFactory::new(37);
        for (id, target) in [(0u64, 0.05), (1, 0.5), (2, 0.9)] {
            let d = SimDuration::from_secs(600);
            let batched = DispatchTrace::synthesize_fixed(&f, id, target, d);
            let mut gen = BurstGenerator::paper(target);
            let mut rng = f.stream_for(domains::DISPATCH, id);
            let (mut per_draw, mut elapsed) = (Vec::new(), SimDuration::ZERO);
            while elapsed < d {
                let mut b = gen.next_burst(&mut rng);
                b.duration = b.duration.min(d - elapsed);
                elapsed += b.duration;
                per_draw.push(b);
            }
            assert_eq!(batched.bursts(), per_draw, "target {target}");
        }
    }

    #[test]
    fn zero_utilization_trace_is_single_idle_stretch() {
        let f = RngFactory::new(36);
        let t = DispatchTrace::synthesize_fixed(&f, 0, 0.0, SimDuration::from_secs(5));
        assert!(t.bursts().iter().all(|b| b.kind == BurstKind::Idle));
        assert_eq!(t.utilization(), 0.0);
    }
}
