//! The two-level workload generator (paper Fig 6).
//!
//! Combines a coarse-grain trace (2-second samples of CPU usage, memory,
//! and idle state) with the fine-grain burst model: the fine-grain
//! generator is continuously retargeted to the utilization of the coarse
//! sample in effect, producing an unbounded stream of run/idle bursts that
//! has both the long-term (time-of-day, session) structure of the trace
//! and the short-term burst structure of the dispatch data.
//!
//! "To draw a representative sample of jobs from different times of the
//! day, each node in the simulation was started at a randomly selected
//! offset into a different machine trace" (Sec 4.2) — the offset is a
//! constructor argument; [`LocalWorkload::with_random_offset`] draws it.

use crate::burst::{Burst, BurstGenerator};
use crate::coarse::{CoarseTrace, SAMPLE_PERIOD_SECS};
use crate::fit_table::BurstFitTable;
use linger_sim_core::{domains, RngFactory, SimRng, SimTime};
use std::sync::Arc;

/// The owner workload of one simulated node.
pub struct LocalWorkload {
    trace: Arc<CoarseTrace>,
    offset: usize,
    gen: BurstGenerator,
    rng: SimRng,
    /// Simulated time already covered by emitted bursts.
    position: SimTime,
}

impl LocalWorkload {
    /// A workload replaying `trace` from sample `offset`, with fine-grain
    /// bursts drawn from the shared fit table `fits` using `rng`.
    pub fn new(
        trace: Arc<CoarseTrace>,
        offset: usize,
        fits: Arc<BurstFitTable>,
        rng: SimRng,
    ) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        let u0 = trace.sample(offset).cpu;
        LocalWorkload {
            trace,
            offset,
            gen: BurstGenerator::new(fits, u0),
            rng,
            position: SimTime::ZERO,
        }
    }

    /// Like [`Self::new`] but drawing the start offset uniformly from the
    /// trace, using the node's `TRACE_OFFSET` stream.
    pub fn with_random_offset(
        trace: Arc<CoarseTrace>,
        factory: &RngFactory,
        node_id: u64,
        fits: Arc<BurstFitTable>,
    ) -> Self {
        let offset = Self::random_offset(&trace, factory, node_id);
        let rng = factory.stream_for(domains::FINE_BURSTS, node_id);
        Self::new(trace, offset, fits, rng)
    }

    /// The start offset [`Self::with_random_offset`] would draw for
    /// `node_id` — same stream, same draw — without paying for workload
    /// construction. Simulators that only track coarse node state use
    /// this to skip building per-node burst generators entirely.
    pub fn random_offset(trace: &CoarseTrace, factory: &RngFactory, node_id: u64) -> usize {
        Self::random_offset_for_len(trace.len(), factory, node_id)
    }

    /// [`Self::random_offset`] from the trace *length* alone — the draw
    /// depends only on the replay period, so streamed realizations can
    /// compute every node's offset without materializing a single trace.
    ///
    /// The draw is the first `u64` of the node's `TRACE_OFFSET` stream,
    /// taken from the stream's first ChaCha block alone.
    pub fn random_offset_for_len(len: usize, factory: &RngFactory, node_id: u64) -> usize {
        (factory.stream_first_u64(domains::TRACE_OFFSET, node_id) % len as u64) as usize
    }

    /// The trace sample index in effect at simulated time `t`.
    pub fn sample_index_at(&self, t: SimTime) -> usize {
        self.offset + (t.as_nanos() / (SAMPLE_PERIOD_SECS * 1_000_000_000)) as usize
    }

    /// Coarse CPU utilization in effect at time `t`.
    pub fn utilization_at(&self, t: SimTime) -> f64 {
        self.trace.sample(self.sample_index_at(t)).cpu
    }

    /// Simulated time up to which bursts have been emitted.
    pub fn position(&self) -> SimTime {
        self.position
    }

    /// The start offset into the trace.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Emit the next burst. The generator is retargeted to the coarse
    /// sample in effect at the burst's start time.
    pub fn next_burst(&mut self) -> Burst {
        let u = self.utilization_at(self.position);
        self.gen.set_utilization(u);
        let b = self.gen.next_burst(&mut self.rng);
        self.position += b.duration;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstKind;
    use crate::coarse::{CoarseSample, CoarseTraceConfig};
    use linger_sim_core::SimDuration;

    fn flat_trace(cpu: f64, samples: usize) -> Arc<CoarseTrace> {
        Arc::new(CoarseTrace::from_samples(
            (0..samples)
                .map(|_| CoarseSample { cpu, mem_used_kb: 30_000, keyboard: false })
                .collect(),
        ))
    }

    fn workload(trace: Arc<CoarseTrace>, offset: usize) -> LocalWorkload {
        let f = RngFactory::new(77);
        LocalWorkload::new(
            trace,
            offset,
            BurstFitTable::paper_shared(),
            f.stream_for(domains::FINE_BURSTS, 0),
        )
    }

    #[test]
    fn utilization_follows_flat_trace() {
        let mut w = workload(flat_trace(0.30, 100), 0);
        let mut run = 0.0;
        let mut total = 0.0;
        while w.position() < SimTime::from_secs(150) {
            let b = w.next_burst();
            total += b.duration.as_secs_f64();
            if b.kind == BurstKind::Run {
                run += b.duration.as_secs_f64();
            }
        }
        let u = run / total;
        assert!((u - 0.30).abs() < 0.05, "measured {u}");
    }

    #[test]
    fn position_advances_by_burst_durations() {
        let mut w = workload(flat_trace(0.5, 10), 0);
        let mut acc = SimDuration::ZERO;
        for _ in 0..100 {
            acc += w.next_burst().duration;
            assert_eq!(w.position(), SimTime::ZERO + acc);
        }
    }

    #[test]
    fn offset_shifts_trace_lookup() {
        let mut samples: Vec<CoarseSample> = (0..10)
            .map(|_| CoarseSample { cpu: 0.1, mem_used_kb: 30_000, keyboard: false })
            .collect();
        samples[5] = CoarseSample { cpu: 0.9, mem_used_kb: 40_000, keyboard: true };
        let trace = Arc::new(CoarseTrace::from_samples(samples));
        let w = workload(trace, 5);
        assert_eq!(w.utilization_at(SimTime::ZERO), 0.9);
        // 2 s later we've moved to sample 6.
        assert_eq!(w.utilization_at(SimTime::from_secs(2)), 0.1);
    }

    #[test]
    fn trace_wraps_for_long_simulations() {
        let w = workload(flat_trace(0.2, 5), 3);
        // 5-sample trace = 10 s; far beyond it must still answer.
        assert_eq!(w.utilization_at(SimTime::from_secs(1000)), 0.2);
    }

    #[test]
    fn random_offset_is_deterministic_per_node() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(1200),
            ..Default::default()
        };
        let f = RngFactory::new(9);
        let trace = Arc::new(cfg.synthesize(&f, 0));
        let fits = BurstFitTable::paper_shared();
        let a = LocalWorkload::with_random_offset(trace.clone(), &f, 4, fits.clone());
        let b = LocalWorkload::with_random_offset(trace.clone(), &f, 4, fits.clone());
        assert_eq!(a.offset(), b.offset());
        let c = LocalWorkload::with_random_offset(trace.clone(), &f, 5, fits);
        // Different nodes almost surely start elsewhere.
        assert_ne!(a.offset(), c.offset());
        // The standalone helper draws the very same offsets.
        assert_eq!(LocalWorkload::random_offset(&trace, &f, 4), a.offset());
        assert_eq!(LocalWorkload::random_offset(&trace, &f, 5), c.offset());
    }

    #[test]
    fn bursts_track_a_changing_trace() {
        // First 30 windows at 5%, next 30 at 85%: the run-burst share must
        // jump accordingly.
        let mut samples = Vec::new();
        for _ in 0..30 {
            samples.push(CoarseSample { cpu: 0.05, mem_used_kb: 30_000, keyboard: false });
        }
        for _ in 0..30 {
            samples.push(CoarseSample { cpu: 0.85, mem_used_kb: 30_000, keyboard: true });
        }
        let mut w = workload(Arc::new(CoarseTrace::from_samples(samples)), 0);
        let mut run_lo = 0.0;
        let mut tot_lo = 0.0;
        let mut run_hi = 0.0;
        let mut tot_hi = 0.0;
        while w.position() < SimTime::from_secs(120) {
            let start = w.position();
            let b = w.next_burst();
            let d = b.duration.as_secs_f64();
            if start < SimTime::from_secs(60) {
                tot_lo += d;
                if b.kind == BurstKind::Run {
                    run_lo += d;
                }
            } else {
                tot_hi += d;
                if b.kind == BurstKind::Run {
                    run_hi += d;
                }
            }
        }
        assert!(run_lo / tot_lo < 0.15, "low phase {}", run_lo / tot_lo);
        assert!(run_hi / tot_hi > 0.6, "high phase {}", run_hi / tot_hi);
    }
}
