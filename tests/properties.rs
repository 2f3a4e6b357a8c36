//! Property-based tests (proptest) of the core invariants: the cost
//! model, two-moment fitting, the memory contract, simulated-time
//! arithmetic, and the event queue.

use linger::cost::{break_even_factor, linger_duration, migration_beneficial, should_migrate};
use linger::MigrationCostModel;
use linger_sim_core::{EventQueue, SimDuration, SimTime};
use linger_stats::{fit_two_moments, Distribution};
use linger_workload::{TwoPoolMemory, PAGE_KB};
use proptest::prelude::*;

proptest! {
    // ---------------------------------------------------------- cost model

    #[test]
    fn break_even_factor_is_at_least_one(
        h in 0.0f64..=1.0,
        l in 0.0f64..=1.0,
    ) {
        if let Some(k) = break_even_factor(h, l) {
            // (1-l)/(h-l) ≥ 1 because h ≤ 1.
            prop_assert!(k >= 1.0 - 1e-12, "factor {k}");
        } else {
            prop_assert!(h <= l);
        }
    }

    #[test]
    fn linger_duration_bounds(
        h in 0.01f64..=1.0,
        l in 0.0f64..=1.0,
        migr_ms in 1u64..=200_000,
    ) {
        let t_migr = SimDuration::from_millis(migr_ms);
        match linger_duration(h, l, t_migr) {
            Some(t) => {
                prop_assert!(h > l);
                // Lingering never shorter than the migration itself.
                prop_assert!(t >= t_migr, "t {t} < t_migr {t_migr}");
            }
            None => prop_assert!(h <= l),
        }
    }

    #[test]
    fn should_migrate_is_monotone_in_age(
        h in 0.05f64..=1.0,
        l in 0.0f64..=1.0,
        migr_ms in 1u64..=100_000,
        age_a_ms in 0u64..=1_000_000,
        age_b_ms in 0u64..=1_000_000,
    ) {
        let t_migr = SimDuration::from_millis(migr_ms);
        let (lo, hi) = if age_a_ms <= age_b_ms { (age_a_ms, age_b_ms) } else { (age_b_ms, age_a_ms) };
        let at_lo = should_migrate(SimDuration::from_millis(lo), h, l, t_migr);
        let at_hi = should_migrate(SimDuration::from_millis(hi), h, l, t_migr);
        // Once migration is due it stays due.
        prop_assert!(!at_lo || at_hi);
    }

    #[test]
    fn beneficial_episodes_are_upward_closed(
        h in 0.05f64..=1.0,
        l in 0.0f64..=1.0,
        migr_ms in 1u64..=100_000,
        lingr_ms in 0u64..=100_000,
        nidle_ms in 0u64..=10_000_000,
    ) {
        let t_migr = SimDuration::from_millis(migr_ms);
        let t_lingr = SimDuration::from_millis(lingr_ms);
        let t_nidle = SimDuration::from_millis(nidle_ms);
        if migration_beneficial(t_nidle, t_lingr, h, l, t_migr) {
            let longer = t_nidle + SimDuration::from_secs(100);
            prop_assert!(migration_beneficial(longer, t_lingr, h, l, t_migr));
        }
    }

    #[test]
    fn migration_cost_is_monotone_in_size(
        a_kb in 0u32..=1_000_000,
        b_kb in 0u32..=1_000_000,
    ) {
        let m = MigrationCostModel::paper_default();
        let (lo, hi) = if a_kb <= b_kb { (a_kb, b_kb) } else { (b_kb, a_kb) };
        prop_assert!(m.cost(lo) <= m.cost(hi));
    }

    // ------------------------------------------------------------- fitting

    #[test]
    fn two_moment_fit_is_exact(
        mean in 1e-5f64..10.0,
        cv2 in 0.05f64..30.0,
    ) {
        let var = cv2 * mean * mean;
        let f = fit_two_moments(mean, var);
        prop_assert!((f.mean() - mean).abs() / mean < 1e-6, "{} mean", f.family());
        prop_assert!((f.variance() - var).abs() / var < 1e-5, "{} var", f.family());
    }

    #[test]
    fn fitted_cdf_is_monotone(
        mean in 1e-4f64..1.0,
        cv2 in 0.1f64..20.0,
        x_a in 0.0f64..5.0,
        x_b in 0.0f64..5.0,
    ) {
        let f = fit_two_moments(mean, cv2 * mean * mean);
        let (lo, hi) = if x_a <= x_b { (x_a, x_b) } else { (x_b, x_a) };
        prop_assert!(f.cdf(lo) <= f.cdf(hi) + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f.cdf(hi)));
    }

    // ------------------------------------------------------ memory contract

    #[test]
    fn two_pool_memory_invariants(
        total_mb in 16u32..=128,
        job_mb in 1u32..=32,
        demands in prop::collection::vec(0u32..=140_000, 1..60),
    ) {
        let total_kb = total_mb * 1024;
        let mut m = TwoPoolMemory::new(total_kb, 20 * 1024.min(total_kb / 2) / PAGE_KB);
        m.attach_foreign(job_mb * 1024);
        for kb in demands {
            m.set_local_pages(kb / PAGE_KB);
            // Pools never exceed physical memory.
            prop_assert!(m.local_kb() + m.foreign_resident_kb() <= m.total_kb());
            // The foreign job never grows beyond its demand.
            prop_assert!(m.foreign_resident_kb() <= job_mb * 1024 + 4096);
            // Local demand (clamped to physical memory) is always met.
            prop_assert!(m.local_kb() == kb.min(m.total_kb()) / 4 * 4);
        }
    }

    // ------------------------------------------------------------ sim time

    #[test]
    fn sim_time_arithmetic_roundtrips(
        a_ns in 0u64..=(1u64 << 61),
        d_ns in 0u64..=(1u64 << 60),
    ) {
        let t = SimTime::from_nanos(a_ns);
        let d = SimDuration::from_nanos(d_ns);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later.saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(later), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling_is_monotone(
        ns in 1u64..=(1u64 << 40),
        k_a in 0.0f64..10.0,
        k_b in 0.0f64..10.0,
    ) {
        let d = SimDuration::from_nanos(ns);
        let (lo, hi) = if k_a <= k_b { (k_a, k_b) } else { (k_b, k_a) };
        prop_assert!(d.mul_f64(lo) <= d.mul_f64(hi));
    }

    // ---------------------------------------------------------- event queue

    #[test]
    fn event_queue_pops_sorted(
        times in prop::collection::vec(0u64..=1_000_000u64, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..=100_000u64, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                q.cancel(*h);
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, e)) = q.pop() {
            popped.push(e);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }
}
