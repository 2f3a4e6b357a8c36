//! Property tests of the workload models.

use linger_sim_core::{domains, RngFactory, SimDuration};
use linger_workload::{
    BurstGenerator, BurstKind, BurstParamTable, CoarseSample, CoarseTrace, CoarseTraceConfig,
    DispatchTrace, TwoPoolMemory, MIN_BURST, PAGE_KB, TOTAL_MEMORY_KB,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpolation_is_locally_bounded(u in 0.0f64..=1.0) {
        // Interpolated parameters lie between the surrounding buckets.
        let t = BurstParamTable::paper_calibrated();
        let p = t.interpolate(u);
        let lo = (u / 0.05).floor().min(20.0) as usize;
        let hi = (lo + 1).min(20);
        let a = t.buckets()[lo];
        let b = t.buckets()[hi];
        let between = |x: f64, p: f64, q: f64| {
            let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
            x >= lo - 1e-9 && x <= hi + 1e-9
        };
        prop_assert!(between(p.run_mean, a.run_mean, b.run_mean));
        prop_assert!(between(p.idle_mean, a.idle_mean, b.idle_mean));
    }

    #[test]
    fn generator_utilization_tracks_target(u in 0.05f64..=0.95, seed in 0u64..100) {
        let f = RngFactory::new(seed);
        let mut g = BurstGenerator::paper(u);
        let mut rng = f.stream_for(domains::FINE_BURSTS, seed);
        let mut run = 0.0;
        let mut total = 0.0;
        for _ in 0..30_000 {
            let b = g.next_burst(&mut rng);
            total += b.duration.as_secs_f64();
            if b.kind == BurstKind::Run {
                run += b.duration.as_secs_f64();
            }
        }
        let got = run / total;
        prop_assert!((got - u).abs() < 0.08, "target {u}, got {got}");
    }

    #[test]
    fn bursts_never_fall_below_minimum(u in 0.0f64..=1.0, seed in 0u64..50) {
        let f = RngFactory::new(seed);
        let mut g = BurstGenerator::paper(u);
        let mut rng = f.stream_for(domains::FINE_BURSTS, 1);
        for _ in 0..2_000 {
            prop_assert!(g.next_burst(&mut rng).duration >= MIN_BURST);
        }
    }

    #[test]
    fn dispatch_trace_duration_is_exact(
        secs in 1u64..120,
        u in 0.0f64..=1.0,
        id in 0u64..32,
    ) {
        let f = RngFactory::new(4);
        let t = DispatchTrace::synthesize_fixed(&f, id, u, SimDuration::from_secs(secs));
        prop_assert_eq!(t.total_duration(), SimDuration::from_secs(secs));
    }

    #[test]
    fn recruitment_flags_are_sound(
        cpu_levels in prop::collection::vec(0.0f64..1.0, 40..200),
        kb_mask in prop::collection::vec(any::<bool>(), 40..200),
    ) {
        // An idle flag implies every sample in the trailing minute was
        // quiet.
        let n = cpu_levels.len().min(kb_mask.len());
        let samples: Vec<CoarseSample> = (0..n)
            .map(|i| CoarseSample {
                cpu: cpu_levels[i],
                mem_used_kb: 30_000,
                keyboard: kb_mask[i],
            })
            .collect();
        let t = CoarseTrace::from_samples(samples.clone());
        let window = 30usize; // 60 s / 2 s
        for (i, &idle) in t.idle_flags().iter().enumerate() {
            if idle {
                prop_assert!(i + 1 >= window);
                for s in &samples[i + 1 - window..=i] {
                    prop_assert!(s.cpu < 0.10 && !s.keyboard);
                }
            }
        }
    }

    #[test]
    fn synthetic_traces_have_sane_samples(seed in 0u64..30, machine in 0u64..8) {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(600),
            ..Default::default()
        };
        let t = cfg.synthesize(&RngFactory::new(seed), machine);
        for s in t.samples() {
            prop_assert!((0.0..=1.0).contains(&s.cpu));
            prop_assert!(s.mem_used_kb <= TOTAL_MEMORY_KB);
        }
    }

    #[test]
    fn memory_model_is_a_lattice_walk(
        local_seq in prop::collection::vec(0u32..=80_000, 1..80),
        job_kb in 1u32..=40_000,
    ) {
        let mut m = TwoPoolMemory::new(64 * 1024, 24 * 1024 / PAGE_KB);
        let could_fit = m.fits(job_kb);
        let resident = m.attach_foreign(job_kb);
        if could_fit {
            prop_assert!(resident >= job_kb / 4096 * 4096);
        }
        for kb in local_seq {
            m.set_local_pages(kb / PAGE_KB);
            prop_assert!(m.local_kb() + m.foreign_resident_kb() <= m.total_kb());
        }
    }
}
