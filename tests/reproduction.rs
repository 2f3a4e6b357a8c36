//! End-to-end reproduction checks: the paper's headline claims, exercised
//! through the same drivers the figure binaries use (in fast mode so the
//! whole file runs in seconds).

use linger_bench as bench;

const SEED: u64 = 1998;

#[test]
fn fig2_fits_track_empirical_cdfs() {
    for bucket in bench::fig02(SEED, true) {
        assert!(
            bucket.ks_run < 0.1 && bucket.ks_idle < 0.1,
            "{}%: KS run {} idle {}",
            bucket.level_pct,
            bucket.ks_run,
            bucket.ks_idle
        );
        // CDFs are proper and the fitted curve tracks the empirical one
        // pointwise within the KS bound.
        for (x, emp, fit) in &bucket.run_points {
            assert!(*x > 0.0);
            assert!((0.0..=1.0).contains(emp) && (0.0..=1.0).contains(fit));
            assert!((emp - fit).abs() < 0.15, "{}%: gap at {x}", bucket.level_pct);
        }
    }
}

#[test]
fn fig3_run_bursts_grow_with_utilization() {
    let rows = bench::fig03(SEED, true);
    let populated: Vec<_> = rows.iter().filter(|r| r.windows > 40).collect();
    assert!(populated.len() >= 10, "too few populated buckets");
    // Measured run-burst means grow (allowing neighbour noise) across the
    // populated range — the Fig 3 top-left shape.
    let first = populated.first().unwrap();
    let last = populated.last().unwrap();
    assert!(last.run_mean > 3.0 * first.run_mean);
}

#[test]
fn fig4_memory_and_idleness_anchors() {
    let r = bench::fig04(SEED, true);
    assert!((r.non_idle_fraction - 0.46).abs() < 0.10, "{}", r.non_idle_fraction);
    assert!((r.non_idle_low_cpu_fraction - 0.76).abs() < 0.10);
    assert!(r.p90_free_kb >= 12_000.0, "P90 {}", r.p90_free_kb);
    // "there is no significant difference in the available memory between
    // idle and non-idle states": survival curves stay close.
    for (i, (kb, all)) in r.cdf_all.iter().enumerate() {
        let idle = r.cdf_idle[i].1;
        let non_idle = r.cdf_non_idle[i].1;
        assert!(
            (idle - non_idle).abs() < 0.25,
            "idle/non-idle memory curves diverge at {kb} KB: {idle} vs {non_idle}"
        );
        let _ = all;
    }
}

#[test]
fn fig5_headline_bands() {
    let grid = bench::fig05(SEED, true);
    let peak_100 = grid[..9].iter().map(|r| r.ldr).fold(0.0f64, f64::max);
    let peak_300 = grid[9..18].iter().map(|r| r.ldr).fold(0.0f64, f64::max);
    let peak_500 = grid[18..].iter().map(|r| r.ldr).fold(0.0f64, f64::max);
    // "about 1%", "remains under 5%", "the overhead is 8%".
    assert!(peak_100 < 0.02, "LDR@100us {peak_100}");
    assert!(peak_300 < 0.05, "LDR@300us {peak_300}");
    assert!((0.04..0.10).contains(&peak_500), "LDR@500us {peak_500}");
    assert!(grid.iter().all(|r| r.fcsr > 0.90), "FCSR fell below 90%");
}

#[test]
fn fig7_headlines_hold_at_reduced_scale() {
    let r = bench::fig07(SEED, true);
    let (ll, lf, ie, pm) = (&r.workload1[0], &r.workload1[1], &r.workload1[2], &r.workload1[3]);
    // Throughput: "can improve the throughput of background jobs … by 60%".
    assert!(
        lf.throughput > 1.4 * pm.throughput,
        "LF {} vs PM {}",
        lf.throughput,
        pm.throughput
    );
    // Completion: "47% faster with Linger-Longer" (we require ≥ 20%).
    assert!(ll.avg_completion_secs < 0.8 * ie.avg_completion_secs);
    // Foreground: "only a 0.5% slowdown of foreground jobs" (≤ 0.6%).
    assert!(ll.foreground_delay < 0.006, "delay {}", ll.foreground_delay);
    // Light load: all policies near-equal.
    let avgs: Vec<f64> = r.workload2.iter().map(|m| m.avg_completion_secs).collect();
    let lo = avgs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = avgs.iter().cloned().fold(0.0f64, f64::max);
    assert!((hi - lo) / lo < 0.10, "workload-2 spread {avgs:?}");
}

#[test]
fn fig8_queue_time_explains_the_gap() {
    let r = bench::fig07(SEED, true);
    let (ll, ie) = (&r.workload1[0], &r.workload1[2]);
    assert!(ie.avg_breakdown.queued > 1.5 * ll.avg_breakdown.queued);
    assert!(ll.avg_breakdown.lingering > 0.0);
    assert_eq!(ie.avg_breakdown.lingering, 0.0);
    assert_eq!(ie.avg_breakdown.paused, 0.0);
}

#[test]
fn fig9_parallel_slowdown_curve() {
    let pts = bench::fig09(SEED, true);
    // "slowdown of only 1.1 to 1.5 when the load is less than 40%".
    for p in &pts[1..4] {
        assert!((1.0..2.0).contains(&p.slowdown), "{}%: {}", p.utilization_pct, p.slowdown);
    }
    // Large at 90% (paper ~9).
    assert!(pts[9].slowdown > 4.0);
}

#[test]
fn fig11_reconfiguration_tradeoff() {
    let pts = bench::fig11(SEED);
    let get = |s: &str, idle: usize| {
        pts.iter()
            .find(|p| p.strategy == s && p.idle == idle)
            .unwrap()
            .completion_secs
    };
    // All idle: the wider the job the faster.
    assert!(get("32 nodes", 32) < get("16 nodes", 32));
    assert!(get("16 nodes", 32) < get("8 nodes", 32));
    // LL-32 beats reconfiguration when few nodes are busy…
    assert!(get("32 nodes", 30) < get("reconfig", 30));
    // …and a crossover exists somewhere (reconfiguration eventually wins
    // as busy nodes accumulate — the paper puts it at ~6 busy).
    let crossover = (1..32usize).rev().any(|i| get("reconfig", i) < get("32 nodes", i));
    assert!(crossover, "no LL-32/reconfiguration crossover found");
    // LL-16 never loses to reconfiguration while ≥ 16 idle remain.
    for idle in 16..=31 {
        assert!(get("16 nodes", idle) <= get("reconfig", idle) * 1.05, "idle={idle}");
    }
}

#[test]
fn fig12_fig13_application_results() {
    let f12 = bench::fig12(SEED);
    let pick = |app: &str, k: usize, u: f64| {
        f12.iter()
            .find(|p| p.app == app && p.non_idle == k && (p.local_util - u).abs() < 1e-9)
            .unwrap()
            .slowdown
    };
    // Sensitivity ordering at the stress corner.
    assert!(pick("sor", 8, 0.4) > pick("water", 8, 0.4));
    assert!(pick("water", 8, 0.4) > pick("fft", 8, 0.4));
    // "with 4 non-idle nodes and 20% local utilization causes only 1.5 to
    // 1.6 slowdown" — band widened to 1.3–1.9.
    for app in ["sor", "water", "fft"] {
        let s = pick(app, 4, 0.2);
        assert!((1.2..2.0).contains(&s), "{app}: {s}");
    }

    let f13 = bench::fig13(SEED);
    for app in ["sor", "water", "fft"] {
        for idle in [14usize, 12] {
            let ll16 = f13
                .iter()
                .find(|p| p.app == app && p.idle == idle && p.strategy == "16 node linger")
                .unwrap()
                .slowdown;
            let rc = f13
                .iter()
                .find(|p| p.app == app && p.idle == idle && p.strategy == "reconfiguration")
                .unwrap()
                .slowdown;
            assert!(ll16 < rc, "{app} idle={idle}: {ll16} vs {rc}");
        }
    }
}
