//! The synthetic-BSP slowdown experiments (paper Figs 9 and 10).

use crate::bsp::{slowdown, BspConfig};
use linger_sim_core::{par_map_indexed, SimDuration};
use serde::{Deserialize, Serialize};

/// One point of the Fig 9 curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Local CPU utilization of the single non-idle node (percent).
    pub utilization_pct: u32,
    /// Job slowdown vs. 8 idle nodes.
    pub slowdown: f64,
}

/// Fig 9: slowdown of the 8-process, 100 ms-granularity BSP job as the
/// one non-idle node's local utilization sweeps 0–90%.
pub fn fig9(seed: u64, phases: usize) -> Vec<Fig9Point> {
    let cfg = BspConfig { phases, ..BspConfig::fig9() };
    // Each utilization point is an independent simulation; fan out.
    par_map_indexed(10, None, |i| {
        let u = i as f64 / 10.0;
        let mut utils = vec![0.0; cfg.processes];
        utils[0] = u;
        Fig9Point {
            utilization_pct: i as u32 * 10,
            slowdown: slowdown(&cfg, &utils, seed),
        }
    })
}

/// One point of a Fig 10 curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig10Point {
    /// Computation time between communications, milliseconds.
    pub granularity_ms: u64,
    /// Number of non-idle nodes (the curve).
    pub non_idle: usize,
    /// Job slowdown vs. 8 idle nodes.
    pub slowdown: f64,
}

/// Fig 10: slowdown vs. synchronization granularity (10 ms – 10 s) for
/// 1, 2, 4, and 8 non-idle nodes at 20% local utilization. Total work is
/// held constant across granularities.
pub fn fig10(seed: u64, total_compute: SimDuration) -> Vec<Fig10Point> {
    let granularities_ms: [u64; 7] = [10, 30, 100, 300, 1000, 3000, 10_000];
    let curves: [usize; 4] = [1, 2, 4, 8];
    // Flatten the 4×7 grid so every point fans out independently; the
    // output stays in (curve, granularity) order.
    par_map_indexed(curves.len() * granularities_ms.len(), None, |idx| {
        let non_idle = curves[idx / granularities_ms.len()];
        let g = granularities_ms[idx % granularities_ms.len()];
        let phases = ((total_compute.as_secs_f64() * 1000.0 / g as f64).round() as usize).max(2);
        let cfg = BspConfig {
            compute_per_phase: SimDuration::from_millis(g),
            phases,
            ..BspConfig::fig9()
        };
        let mut utils = vec![0.0; cfg.processes];
        for u in utils.iter_mut().take(non_idle) {
            *u = 0.2;
        }
        Fig10Point {
            granularity_ms: g,
            non_idle,
            slowdown: slowdown(&cfg, &utils, seed),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape() {
        let pts = fig9(3, 80);
        assert_eq!(pts.len(), 10);
        assert!((pts[0].slowdown - 1.0).abs() < 0.02, "0% load ≈ no slowdown");
        // Paper: "slowdown of only 1.1 to 1.5 when the load is less than
        // 40%"; large above 50%.
        for p in &pts[1..=4] {
            assert!(p.slowdown < 2.0, "{}%: {}", p.utilization_pct, p.slowdown);
        }
        assert!(pts[9].slowdown > 4.0, "90%: {}", pts[9].slowdown);
        // Monotone within noise.
        assert!(pts[9].slowdown > pts[5].slowdown);
        assert!(pts[5].slowdown > pts[2].slowdown);
    }

    #[test]
    fn fig10_shape() {
        let pts = fig10(3, SimDuration::from_secs(6));
        // 4 curves × 7 granularities.
        assert_eq!(pts.len(), 28);
        // More non-idle nodes → more slowdown, at every granularity.
        for &g in &[10u64, 1000] {
            let by_k: Vec<f64> = [1usize, 2, 4, 8]
                .iter()
                .map(|&k| {
                    pts.iter()
                        .find(|p| p.granularity_ms == g && p.non_idle == k)
                        .unwrap()
                        .slowdown
                })
                .collect();
            assert!(by_k[0] < by_k[3], "k ordering at g={g}: {by_k:?}");
        }
        // Finer granularity → more slowdown (compare ends for the 4-node
        // curve).
        let fine = pts
            .iter()
            .find(|p| p.granularity_ms == 10 && p.non_idle == 4)
            .unwrap()
            .slowdown;
        let coarse = pts
            .iter()
            .find(|p| p.granularity_ms == 10_000 && p.non_idle == 4)
            .unwrap()
            .slowdown;
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
        // Paper scale: the worst case (8 nodes, 10 ms) stays under ~2.5.
        let worst = pts.iter().map(|p| p.slowdown).fold(0.0f64, f64::max);
        assert!(worst < 4.0, "worst slowdown {worst}");
    }
}
