//! Deterministic open-arrival process generation.
//!
//! The batch harness replays a fixed closed population; the serving mode
//! instead draws foreign-job arrivals from a stochastic process, window by
//! window, over sustained horizons. Two processes are supported:
//!
//! * **Poisson** — a constant-rate memoryless stream, the classic open
//!   M/·/· offered-load model;
//! * **MMPP** — a two-phase Markov-modulated Poisson process: the rate
//!   alternates between a *slow* and a *fast* phase with exponentially
//!   distributed dwell times, producing the bursty day/night and
//!   flash-crowd patterns a constant rate cannot.
//!
//! Determinism contract: the generator derives every draw from
//! [`domains::ARRIVALS`] streams of the experiment's master seed. Stream
//! index `0` carries the phase-modulation chain; stream `w + 1` carries
//! window `w`'s arrival count and per-job demands. Because each window's
//! draws come from its own stream and the phase chain is advanced exactly
//! once per window, the schedule is byte-identical regardless of worker
//! count, sharding, or telemetry — the same discipline every other
//! simulator input already follows.

use linger_sim_core::{domains, RngFactory, SimDuration, SimRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::SAMPLE_PERIOD_SECS;

/// The stochastic arrival process shaping when foreign jobs appear.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Constant-rate Poisson arrivals.
    Poisson {
        /// Mean arrivals per simulated hour.
        rate_per_hour: f64,
    },
    /// Two-phase Markov-modulated Poisson process. The process dwells in
    /// the slow phase (rate `slow_rate_per_hour`) for an exponentially
    /// distributed time with mean `slow_dwell_secs`, then switches to the
    /// fast phase, and so on. Phase transitions are evaluated once per
    /// window (the 2-second coarse sample period), which is far below any
    /// realistic dwell time.
    Mmpp {
        /// Arrival rate per hour while in the slow phase.
        slow_rate_per_hour: f64,
        /// Arrival rate per hour while in the fast (burst) phase.
        fast_rate_per_hour: f64,
        /// Mean dwell time in the slow phase, seconds.
        slow_dwell_secs: f64,
        /// Mean dwell time in the fast phase, seconds.
        fast_dwell_secs: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate per hour (phase-weighted for MMPP).
    pub fn mean_rate_per_hour(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_hour } => rate_per_hour,
            ArrivalProcess::Mmpp {
                slow_rate_per_hour,
                fast_rate_per_hour,
                slow_dwell_secs,
                fast_dwell_secs,
            } => {
                let total = slow_dwell_secs + fast_dwell_secs;
                if total <= 0.0 {
                    return 0.0;
                }
                (slow_rate_per_hour * slow_dwell_secs + fast_rate_per_hour * fast_dwell_secs)
                    / total
            }
        }
    }
}

/// The per-job CPU-demand (service-size) distribution.
///
/// Both variants are normalized to the configured `mean_cpu_secs`, so
/// switching the distribution changes *variability* (tail weight) at a
/// fixed offered load — the comparison the stealing-vs-sharing analyses
/// (arXiv:1810.13186) turn on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizeDistribution {
    /// Exponential sizes — the memoryless M/M baseline every earlier
    /// sweep used. One uniform draw per job, byte-identical to the
    /// pre-distribution-aware generator.
    Exponential,
    /// Bounded Pareto sizes on `[1, max_ratio]` (before mean scaling):
    /// density ∝ `y^-(alpha+1)`, truncated at `max_ratio` so the mean is
    /// finite even for `alpha ≤ 1`. The draw is rescaled so the overall
    /// mean stays `mean_cpu_secs`, keeping `offered_load` exact. Small
    /// `alpha` (1–2) gives the heavy tail — many tiny jobs, rare huge
    /// ones — under which central sharing and randomized stealing
    /// diverge.
    BoundedPareto {
        /// Tail exponent α (> 0); heavier tail as α decreases.
        alpha: f64,
        /// Largest size as a multiple of the smallest (H/L, > 1).
        max_ratio: f64,
    },
}

impl SizeDistribution {
    /// Mean of the *unscaled* draw (support `[1, max_ratio]`); the
    /// generator divides by this so configured means are exact.
    fn raw_mean(&self) -> f64 {
        match *self {
            SizeDistribution::Exponential => 1.0,
            SizeDistribution::BoundedPareto { alpha, max_ratio } => {
                let h = max_ratio.max(1.0 + 1e-12);
                if (alpha - 1.0).abs() < 1e-9 {
                    // α → 1 limit: E[Y] = ln(H) / (1 − 1/H).
                    h.ln() / (1.0 - 1.0 / h)
                } else {
                    // E[Y] = α (1 − H^(1−α)) / ((α − 1)(1 − H^(−α))).
                    alpha * (1.0 - h.powf(1.0 - alpha)) / ((alpha - 1.0) * (1.0 - h.powf(-alpha)))
                }
            }
        }
    }
}

/// Full arrival configuration: the process plus the per-job demand model.
///
/// Demands follow `size_dist` in CPU (normalized to mean `mean_cpu_secs`)
/// with a fixed memory footprint — the same job shape the closed-family
/// generator uses, so open and closed runs are comparable cell for cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Mean CPU demand per job, seconds.
    pub mean_cpu_secs: f64,
    /// Memory footprint per job, KB (fixed).
    pub mem_kb: u32,
    /// Shape of the per-job CPU demand distribution.
    pub size_dist: SizeDistribution,
}

impl ArrivalConfig {
    /// A zero-rate configuration: the generator never produces arrivals.
    /// Used as the inert default so closed-mode configs carry a valid
    /// (and digest-stable) service section.
    pub fn disabled() -> Self {
        ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour: 0.0 },
            mean_cpu_secs: 0.0,
            mem_kb: 0,
            size_dist: SizeDistribution::Exponential,
        }
    }

    /// Offered load against a fleet: mean arrival rate × mean CPU demand
    /// ÷ (nodes × 3600). Values above 1.0 oversubscribe the fleet.
    pub fn offered_load(&self, nodes: usize) -> f64 {
        if nodes == 0 {
            return 0.0;
        }
        self.process.mean_rate_per_hour() * self.mean_cpu_secs / (nodes as f64 * 3600.0)
    }
}

/// Which MMPP phase the generator is currently dwelling in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Slow,
    Fast,
}

/// Window-stepped arrival generator.
///
/// Call [`begin_window`](ArrivalGenerator::begin_window) exactly once per
/// simulation window, in window order; it returns how many jobs arrive in
/// that window. Then call [`draw_demand`](ArrivalGenerator::draw_demand)
/// once per arrival to obtain the job's CPU demand and memory footprint.
/// All draws for window `w` come from stream `w + 1`, so a window's
/// schedule depends only on the seed and the window index plus the
/// once-per-window phase chain.
#[derive(Debug)]
pub struct ArrivalGenerator {
    cfg: ArrivalConfig,
    factory: RngFactory,
    /// Phase-modulation chain (stream 0); only advanced for MMPP.
    phase_rng: SimRng,
    phase: Phase,
    /// Remaining dwell time in the current phase, seconds.
    dwell_left: f64,
    /// Per-window draw stream for the window most recently begun.
    window_rng: Option<SimRng>,
    next_window: u64,
}

impl ArrivalGenerator {
    /// Build a generator for `cfg` seeded from the experiment master seed.
    pub fn new(cfg: &ArrivalConfig, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let mut phase_rng = factory.stream_for(domains::ARRIVALS, 0);
        let (phase, dwell_left) = match cfg.process {
            ArrivalProcess::Poisson { .. } => (Phase::Slow, f64::INFINITY),
            ArrivalProcess::Mmpp { slow_dwell_secs, .. } => {
                let d = draw_exp(&mut phase_rng, slow_dwell_secs);
                (Phase::Slow, d)
            }
        };
        ArrivalGenerator {
            cfg: *cfg,
            factory,
            phase_rng,
            phase,
            dwell_left,
            window_rng: None,
            next_window: 0,
        }
    }

    /// Current arrival rate per hour given the modulation phase.
    fn current_rate(&self) -> f64 {
        match self.cfg.process {
            ArrivalProcess::Poisson { rate_per_hour } => rate_per_hour,
            ArrivalProcess::Mmpp { slow_rate_per_hour, fast_rate_per_hour, .. } => match self.phase
            {
                Phase::Slow => slow_rate_per_hour,
                Phase::Fast => fast_rate_per_hour,
            },
        }
    }

    /// Advance the MMPP phase chain by one window.
    fn step_phase(&mut self) {
        if let ArrivalProcess::Mmpp { slow_dwell_secs, fast_dwell_secs, .. } = self.cfg.process {
            self.dwell_left -= SAMPLE_PERIOD_SECS as f64;
            while self.dwell_left <= 0.0 {
                let (next, mean_dwell) = match self.phase {
                    Phase::Slow => (Phase::Fast, fast_dwell_secs),
                    Phase::Fast => (Phase::Slow, slow_dwell_secs),
                };
                self.phase = next;
                self.dwell_left += draw_exp(&mut self.phase_rng, mean_dwell);
            }
        }
    }

    /// Begin the next window and return its arrival count.
    ///
    /// Windows are implicit and sequential: the first call is window 0,
    /// the second window 1, and so on — matching the simulator's own
    /// window counter, which steps the generator exactly once per window.
    pub fn begin_window(&mut self) -> u32 {
        let w = self.next_window;
        self.next_window += 1;
        self.step_phase();
        let rate = self.current_rate();
        let lambda = rate / 3600.0 * SAMPLE_PERIOD_SECS as f64;
        if lambda <= 0.0 {
            self.window_rng = None;
            return 0;
        }
        let mut rng = self.factory.stream_for(domains::ARRIVALS, w + 1);
        let count = draw_poisson(&mut rng, lambda);
        self.window_rng = Some(rng);
        count
    }

    /// Whether the current window has a demand stream to draw from
    /// (true whenever its arrival rate was positive, even at count 0).
    /// Backpressure drains its deferred deficit only through windows
    /// with a stream, keeping every draw attributable to a window.
    pub fn has_window_stream(&self) -> bool {
        self.window_rng.is_some()
    }

    /// Draw one arrival's `(cpu_demand, mem_kb)` for the current window.
    ///
    /// # Panics
    ///
    /// Panics if called more times than the count the last
    /// [`begin_window`](ArrivalGenerator::begin_window) returned allows a
    /// stream for (i.e. before any window began, or after a zero-count
    /// window).
    pub fn draw_demand(&mut self) -> (SimDuration, u32) {
        let rng = self
            .window_rng
            .as_mut()
            .expect("draw_demand called outside a window with arrivals");
        let cpu = match self.cfg.size_dist {
            // Exactly the historical draw path: one uniform, exponential
            // transform — byte-identical to pre-`size_dist` schedules.
            SizeDistribution::Exponential => draw_exp(rng, self.cfg.mean_cpu_secs),
            SizeDistribution::BoundedPareto { alpha, max_ratio } => {
                let y = draw_bounded_pareto(rng, alpha, max_ratio);
                self.cfg.mean_cpu_secs * y / self.cfg.size_dist.raw_mean()
            }
        }
        .max(1e-9);
        (SimDuration::from_secs_f64(cpu), self.cfg.mem_kb)
    }
}

/// Exponential draw with the crate's standard `-(1 - u).ln() * mean` form.
fn draw_exp(rng: &mut SimRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.random();
    -(1.0 - u).ln() * mean
}

/// Inverse-CDF bounded-Pareto draw on `[1, max_ratio]` with tail
/// exponent `alpha` — one uniform per draw, same budget as `draw_exp`.
fn draw_bounded_pareto(rng: &mut SimRng, alpha: f64, max_ratio: f64) -> f64 {
    let h = max_ratio.max(1.0 + 1e-12);
    let a = alpha.max(1e-9);
    let u: f64 = rng.random();
    // F(y) = (1 − y^−α) / (1 − H^−α); invert at u.
    let hinv = h.powf(-a);
    (1.0 - u * (1.0 - hinv)).powf(-1.0 / a)
}

/// Knuth's product-form Poisson sampler. λ here is at most a few hundred
/// (per-window arrivals over 2 s), well within the algorithm's comfort
/// zone; `exp(-λ)` underflow would need λ > ~700.
fn draw_poisson(rng: &mut SimRng, lambda: f64) -> u32 {
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        let u: f64 = rng.random();
        p *= u;
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_cfg(rate: f64) -> ArrivalConfig {
        ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour: rate },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::Exponential,
        }
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut g = ArrivalGenerator::new(&ArrivalConfig::disabled(), 7);
        for _ in 0..10_000 {
            assert_eq!(g.begin_window(), 0);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = poisson_cfg(1800.0);
        let mut a = ArrivalGenerator::new(&cfg, 42);
        let mut b = ArrivalGenerator::new(&cfg, 42);
        for _ in 0..5_000 {
            let (na, nb) = (a.begin_window(), b.begin_window());
            assert_eq!(na, nb);
            for _ in 0..na {
                assert_eq!(a.draw_demand(), b.draw_demand());
            }
        }
    }

    #[test]
    fn different_seed_different_schedule() {
        let cfg = poisson_cfg(1800.0);
        let mut a = ArrivalGenerator::new(&cfg, 1);
        let mut b = ArrivalGenerator::new(&cfg, 2);
        let mut diff = 0u32;
        for _ in 0..2_000 {
            if a.begin_window() != b.begin_window() {
                diff += 1;
            }
        }
        assert!(diff > 0, "independent seeds should diverge");
    }

    #[test]
    fn poisson_mean_matches_rate() {
        // 1800/hour over 2 s windows → λ = 1 per window.
        let cfg = poisson_cfg(1800.0);
        let mut g = ArrivalGenerator::new(&cfg, 9);
        let windows = 50_000u64;
        let mut total = 0u64;
        for _ in 0..windows {
            total += g.begin_window() as u64;
        }
        let mean = total as f64 / windows as f64;
        assert!((mean - 1.0).abs() < 0.05, "poisson mean {mean} off from λ=1");
    }

    #[test]
    fn demands_are_exponential_with_requested_mean() {
        let cfg = poisson_cfg(3600.0);
        let mut g = ArrivalGenerator::new(&cfg, 5);
        let (mut n, mut sum) = (0u64, 0.0f64);
        for _ in 0..20_000 {
            let c = g.begin_window();
            for _ in 0..c {
                let (cpu, mem) = g.draw_demand();
                sum += cpu.as_secs_f64();
                n += 1;
                assert_eq!(mem, 8 * 1024);
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 120.0).abs() / 120.0 < 0.05, "cpu mean {mean} off from 120");
    }

    #[test]
    fn mmpp_long_run_rate_is_phase_weighted() {
        let cfg = ArrivalConfig {
            process: ArrivalProcess::Mmpp {
                slow_rate_per_hour: 360.0,
                fast_rate_per_hour: 3600.0,
                slow_dwell_secs: 600.0,
                fast_dwell_secs: 200.0,
            },
            mean_cpu_secs: 60.0,
            mem_kb: 1024,
            size_dist: SizeDistribution::Exponential,
        };
        // Phase-weighted: (360·600 + 3600·200)/800 = 1170/hour → λ = 0.65.
        assert!((cfg.process.mean_rate_per_hour() - 1170.0).abs() < 1e-9);
        let mut g = ArrivalGenerator::new(&cfg, 3);
        let windows = 400_000u64;
        let mut total = 0u64;
        for _ in 0..windows {
            total += g.begin_window() as u64;
        }
        let mean = total as f64 / windows as f64;
        assert!((mean - 0.65).abs() / 0.65 < 0.08, "mmpp mean {mean} off from 0.65");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean() {
        let mmpp = ArrivalConfig {
            process: ArrivalProcess::Mmpp {
                slow_rate_per_hour: 180.0,
                fast_rate_per_hour: 7200.0,
                slow_dwell_secs: 600.0,
                fast_dwell_secs: 150.0,
            },
            mean_cpu_secs: 60.0,
            mem_kb: 1024,
            size_dist: SizeDistribution::Exponential,
        };
        let mean_rate = mmpp.process.mean_rate_per_hour();
        let pois = ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour: mean_rate },
            mean_cpu_secs: 60.0,
            mem_kb: 1024,
            size_dist: SizeDistribution::Exponential,
        };
        let var_ratio = |cfg: &ArrivalConfig| {
            let mut g = ArrivalGenerator::new(cfg, 11);
            let windows = 100_000u64;
            let (mut s, mut s2) = (0.0f64, 0.0f64);
            for _ in 0..windows {
                let c = g.begin_window() as f64;
                s += c;
                s2 += c * c;
            }
            let mean = s / windows as f64;
            let var = s2 / windows as f64 - mean * mean;
            var / mean // index of dispersion; 1 for Poisson
        };
        let d_mmpp = var_ratio(&mmpp);
        let d_pois = var_ratio(&pois);
        assert!(d_mmpp > d_pois * 1.5, "mmpp dispersion {d_mmpp} not above poisson {d_pois}");
    }

    #[test]
    fn bounded_pareto_keeps_the_configured_mean() {
        for &(alpha, ratio) in &[(1.5, 100.0), (1.0, 300.0), (2.5, 50.0)] {
            let cfg = ArrivalConfig {
                size_dist: SizeDistribution::BoundedPareto { alpha, max_ratio: ratio },
                ..poisson_cfg(3600.0)
            };
            let mut g = ArrivalGenerator::new(&cfg, 5);
            let (mut n, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
            for _ in 0..40_000 {
                let c = g.begin_window();
                for _ in 0..c {
                    let (cpu, _) = g.draw_demand();
                    let s = cpu.as_secs_f64();
                    sum += s;
                    max = max.max(s);
                    n += 1;
                }
            }
            let mean = sum / n as f64;
            assert!(
                (mean - 120.0).abs() / 120.0 < 0.06,
                "pareto(α={alpha}, H={ratio}) mean {mean} off from 120"
            );
            // Heavy tail: the largest draw dwarfs the mean.
            assert!(max > 4.0 * mean, "pareto(α={alpha}) tail too light: max {max}");
        }
    }

    #[test]
    fn pareto_is_more_variable_than_exponential_at_equal_mean() {
        let sq_cv = |cfg: &ArrivalConfig| {
            let mut g = ArrivalGenerator::new(cfg, 13);
            let (mut n, mut s, mut s2) = (0u64, 0.0f64, 0.0f64);
            for _ in 0..60_000 {
                let c = g.begin_window();
                for _ in 0..c {
                    let x = g.draw_demand().0.as_secs_f64();
                    s += x;
                    s2 += x * x;
                    n += 1;
                }
            }
            let mean = s / n as f64;
            (s2 / n as f64 - mean * mean) / (mean * mean)
        };
        let exp = sq_cv(&poisson_cfg(3600.0));
        let par = sq_cv(&ArrivalConfig {
            size_dist: SizeDistribution::BoundedPareto { alpha: 1.5, max_ratio: 300.0 },
            ..poisson_cfg(3600.0)
        });
        assert!((exp - 1.0).abs() < 0.15, "exponential C² {exp} should be ~1");
        assert!(par > 3.0 * exp, "pareto C² {par} not heavy-tailed vs exponential {exp}");
    }

    #[test]
    fn size_distributions_round_trip_through_json() {
        let cfgs = [
            poisson_cfg(100.0),
            ArrivalConfig {
                size_dist: SizeDistribution::BoundedPareto { alpha: 1.5, max_ratio: 100.0 },
                ..poisson_cfg(100.0)
            },
        ];
        for cfg in cfgs {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: ArrivalConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn offered_load_formula() {
        // 1800 jobs/hour × 120 s mean = 60 node-hours of work per hour.
        let cfg = poisson_cfg(1800.0);
        assert!((cfg.offered_load(60) - 1.0).abs() < 1e-12);
        assert!((cfg.offered_load(120) - 0.5).abs() < 1e-12);
        assert_eq!(cfg.offered_load(0), 0.0);
    }

    #[test]
    fn window_streams_are_independent_of_history() {
        // Window w's count depends only on (seed, w, phase). For Poisson
        // the phase is fixed, so skipping draw_demand calls must not
        // change later windows.
        let cfg = poisson_cfg(3600.0);
        let mut a = ArrivalGenerator::new(&cfg, 17);
        let mut b = ArrivalGenerator::new(&cfg, 17);
        let mut counts_a = Vec::new();
        for _ in 0..500 {
            let c = a.begin_window();
            for _ in 0..c {
                a.draw_demand(); // consume demand draws
            }
            counts_a.push(c);
        }
        let counts_b: Vec<u32> = (0..500).map(|_| b.begin_window()).collect();
        assert_eq!(counts_a, counts_b);
    }
}
