//! The single-node Linger-Longer impact study (paper Sec 4.1, Fig 5).
//!
//! "We simulated a single node with a single compute bound (always
//! runnable) process and various levels of processor utilization by
//! foreground jobs. For each simulation, we computed two metrics: the
//! local job delay ratio (LDR) and fine-grain cycle stealing ratio
//! (FCSR)."

use crate::executor::FineGrainCpu;
use crate::source::FixedUtilization;
use linger_sim_core::{domains, par_map_indexed, RngFactory, SimDuration};
use serde::{Deserialize, Serialize};

/// Configuration of one single-node simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SingleNodeConfig {
    /// Local (foreground) CPU utilization, 0–1.
    pub utilization: f64,
    /// Effective context-switch cost (the paper sweeps 100/300/500 µs).
    pub context_switch: SimDuration,
    /// Simulated wall-clock length of the run.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for SingleNodeConfig {
    fn default() -> Self {
        SingleNodeConfig {
            utilization: 0.5,
            context_switch: SimDuration::from_micros(100),
            duration: SimDuration::from_secs(600),
            seed: 0,
        }
    }
}

/// Result of one single-node simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SingleNodeReport {
    /// The configured local utilization.
    pub utilization: f64,
    /// The configured context-switch cost.
    pub context_switch: SimDuration,
    /// Local-job Delay Ratio: added latency / local run time.
    pub ldr: f64,
    /// Fine-grain Cycle Stealing Ratio: harvested / available idle cycles.
    pub fcsr: f64,
    /// CPU time the foreign job accumulated.
    pub foreign_cpu: SimDuration,
    /// Local busy time observed.
    pub local_busy: SimDuration,
    /// Idle cycles that were available.
    pub idle_available: SimDuration,
    /// Foreground preemptions of the foreign job.
    pub preemptions: u64,
}

/// Run one single-node simulation: a compute-bound foreign job lingers for
/// the whole run against a fixed-utilization foreground workload.
pub fn simulate_single_node(cfg: &SingleNodeConfig) -> SingleNodeReport {
    let factory = RngFactory::new(cfg.seed);
    let src = FixedUtilization::new(
        cfg.utilization,
        factory.stream_for(domains::FINE_BURSTS, (cfg.utilization * 10_000.0) as u64),
    );
    let mut cpu = FineGrainCpu::new(src, cfg.context_switch);
    // Drive by repeatedly demanding CPU until the wall horizon passes.
    // The foreign job is always runnable, so chunked demands are
    // equivalent to one unbounded demand.
    let chunk = SimDuration::from_secs(1);
    let mut wall = SimDuration::ZERO;
    while wall < cfg.duration {
        wall += cpu.consume(chunk);
    }
    SingleNodeReport {
        utilization: cfg.utilization,
        context_switch: cfg.context_switch,
        ldr: cpu.ldr(),
        fcsr: cpu.fcsr(),
        foreign_cpu: cpu.foreign_cpu(),
        local_busy: cpu.local_busy(),
        idle_available: cpu.idle_available(),
        preemptions: cpu.preemptions(),
    }
}

/// The Fig 5 sweep: LDR and FCSR at each utilization level for each
/// context-switch cost. Returns reports in `(cs, utilization)` row-major
/// order.
pub fn fig5_sweep(
    context_switches: &[SimDuration],
    utilizations: &[f64],
    duration: SimDuration,
    seed: u64,
) -> Vec<SingleNodeReport> {
    // Grid points are independent runs whose streams derive from
    // (seed, utilization); fan out, keeping row-major order.
    par_map_indexed(context_switches.len() * utilizations.len(), None, |idx| {
        let cs = context_switches[idx / utilizations.len()];
        let u = utilizations[idx % utilizations.len()];
        simulate_single_node(&SingleNodeConfig {
            utilization: u,
            context_switch: cs,
            duration,
            seed,
        })
    })
}

/// The paper's Fig 5 grid: 100/300/500 µs × 10%–90% utilization.
pub fn fig5_paper_grid(duration: SimDuration, seed: u64) -> Vec<SingleNodeReport> {
    let cs: Vec<SimDuration> =
        [100u64, 300, 500].into_iter().map(SimDuration::from_micros).collect();
    let utils: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    fig5_sweep(&cs, &utils, duration, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(u: f64, cs_us: u64) -> SingleNodeConfig {
        SingleNodeConfig {
            utilization: u,
            context_switch: SimDuration::from_micros(cs_us),
            duration: SimDuration::from_secs(120),
            seed: 7,
        }
    }

    #[test]
    fn delay_about_one_percent_at_100us() {
        // Paper: "For the chosen effective context switch time of 100
        // microseconds, the delay seen by the application process is
        // about 1%." (It peaks at low utilization.)
        let worst = (1..=9)
            .map(|i| simulate_single_node(&cfg(i as f64 / 10.0, 100)).ldr)
            .fold(0.0f64, f64::max);
        assert!(worst < 0.02, "peak LDR at 100µs is {worst}");
        assert!(worst > 0.005, "peak LDR at 100µs is implausibly low: {worst}");
    }

    #[test]
    fn delay_under_five_percent_at_300us() {
        let worst = (1..=9)
            .map(|i| simulate_single_node(&cfg(i as f64 / 10.0, 300)).ldr)
            .fold(0.0f64, f64::max);
        assert!(worst < 0.05, "peak LDR at 300µs is {worst}");
    }

    #[test]
    fn delay_around_eight_percent_at_500us() {
        let worst = (1..=9)
            .map(|i| simulate_single_node(&cfg(i as f64 / 10.0, 500)).ldr)
            .fold(0.0f64, f64::max);
        assert!((0.04..0.10).contains(&worst), "peak LDR at 500µs is {worst}");
    }

    #[test]
    fn fcsr_above_ninety_percent_everywhere() {
        // "In all of these cases, Lingering was able to make productive
        // use of over 90% of the available processor idle cycles."
        for cs in [100u64, 300, 500] {
            for i in 1..=9 {
                let r = simulate_single_node(&cfg(i as f64 / 10.0, cs));
                assert!(r.fcsr > 0.90, "u={} cs={cs}: fcsr {}", r.utilization, r.fcsr);
            }
        }
    }

    #[test]
    fn ldr_increases_with_context_switch_cost() {
        let u = 0.3;
        let a = simulate_single_node(&cfg(u, 100)).ldr;
        let b = simulate_single_node(&cfg(u, 300)).ldr;
        let c = simulate_single_node(&cfg(u, 500)).ldr;
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn report_accounting_is_consistent() {
        let r = simulate_single_node(&cfg(0.5, 100));
        assert!(r.foreign_cpu <= r.idle_available);
        assert!(r.preemptions > 0);
        // Utilization sanity: busy / (busy + idle) near the target.
        let u = r.local_busy.as_secs_f64()
            / (r.local_busy.as_secs_f64() + r.idle_available.as_secs_f64());
        assert!((u - 0.5).abs() < 0.05, "measured utilization {u}");
    }

    #[test]
    fn paper_grid_has_27_points() {
        let grid = fig5_paper_grid(SimDuration::from_secs(30), 1);
        assert_eq!(grid.len(), 27);
        // Row-major: first 9 points share the 100 µs cost.
        assert!(grid[..9]
            .iter()
            .all(|r| r.context_switch == SimDuration::from_micros(100)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_single_node(&cfg(0.4, 100));
        let b = simulate_single_node(&cfg(0.4, 100));
        assert_eq!(a.ldr, b.ldr);
        assert_eq!(a.fcsr, b.fcsr);
        assert_eq!(a.preemptions, b.preemptions);
    }
}
