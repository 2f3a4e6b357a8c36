//! The synthetic bulk-synchronous parallel job (paper Sec 5.1).
//!
//! "Each process computes serially for some period of time, and then an
//! opening barrier is performed to start a communication phase. During
//! the communication phase, each process can exchange messages with other
//! processes. The communication phase ends with an optional barrier."
//!
//! Each process runs as the *foreign* job of its node: on an idle node it
//! computes at full speed; on a non-idle node it is a lingering
//! starvation-priority process, executed through the burst-accurate
//! [`FineGrainCpu`]. Communication is modeled as wall time (wire latency
//! plus kernel-priority handler processing): interrupt-level message
//! handling is not subject to foreign-priority starvation, which is why
//! the paper observes that "the time spent waiting on communication won't
//! be affected as much by local CPU activity".

use crate::comm::CommPattern;
use linger_node::{FineGrainCpu, FixedUtilization};
use linger_sim_core::{domains, RngFactory, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Static description of a BSP job.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BspConfig {
    /// Number of processes (one per node).
    pub processes: usize,
    /// CPU demand of each process per compute phase (the synchronization
    /// granularity).
    pub compute_per_phase: SimDuration,
    /// Number of compute/communicate iterations.
    pub phases: usize,
    /// Message exchange pattern.
    pub pattern: CommPattern,
    /// Wire + protocol latency per communication round.
    pub round_latency: SimDuration,
    /// Handler CPU per message (runs at foreign priority).
    pub per_message_cpu: SimDuration,
    /// Effective context-switch cost on loaded nodes.
    pub context_switch: SimDuration,
}

impl BspConfig {
    /// The paper's Fig 9 job: 8 processes, 100 ms between synchronization
    /// phases, NEWS message passing.
    pub fn fig9() -> Self {
        BspConfig {
            processes: 8,
            compute_per_phase: SimDuration::from_millis(100),
            phases: 200,
            pattern: CommPattern::News,
            round_latency: SimDuration::from_millis(1),
            per_message_cpu: SimDuration::from_micros(500),
            context_switch: SimDuration::from_micros(100),
        }
    }
}

/// Outcome of one BSP run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BspRun {
    /// Wall-clock completion time.
    pub completion: SimDuration,
    /// Mean fraction of each phase spent waiting at the opening barrier,
    /// averaged over processes and phases.
    pub barrier_wait_fraction: f64,
}

/// Run the job with the given per-node local utilizations
/// (`node_utils[p]` is the load of the node hosting process `p`; 0 =
/// recruited idle node). `salt` decorrelates repeated runs.
pub fn run_bsp(cfg: &BspConfig, node_utils: &[f64], seed: u64, salt: u64) -> BspRun {
    assert_eq!(node_utils.len(), cfg.processes, "one utilization per process");
    let factory = RngFactory::new(seed);
    let mut cpus: Vec<FineGrainCpu<FixedUtilization>> = node_utils
        .iter()
        .enumerate()
        .map(|(p, &u)| {
            let rng = factory.stream_for(domains::PARALLEL, salt.wrapping_mul(1009) + p as u64);
            FineGrainCpu::new(FixedUtilization::new(u, rng), cfg.context_switch)
        })
        .collect();

    let rounds = cfg.pattern.rounds(cfg.processes);
    let msgs = cfg.pattern.messages_per_round(cfg.processes);
    // Kernel-priority handler time plus wire latency, per dependency
    // round; a single-process run exchanges nothing.
    let comm_per_phase = if cfg.processes <= 1 || msgs == 0 {
        SimDuration::ZERO
    } else {
        (cfg.round_latency + cfg.per_message_cpu.mul_f64(msgs as f64)).mul_f64(rounds as f64)
    };

    let mut now = SimTime::ZERO; // all processes synchronized at phase start
    let mut wait_accum = 0.0f64;
    let mut wait_samples = 0u64;

    for _ in 0..cfg.phases {
        // Compute phase + opening barrier.
        now = sync_step(&mut cpus, now, cfg.compute_per_phase, &mut wait_accum, &mut wait_samples);
        // Communication: load-independent wall time; every process's
        // local stream keeps evolving underneath it.
        for c in cpus.iter_mut() {
            c.advance_wall(comm_per_phase);
        }
        now += comm_per_phase;
    }

    BspRun {
        completion: now.saturating_since(SimTime::ZERO),
        barrier_wait_fraction: if wait_samples == 0 {
            0.0
        } else {
            wait_accum / wait_samples as f64
        },
    }
}

/// All processes consume `demand`, then meet at a barrier: returns the
/// barrier time and advances stragglers' local streams through their wait.
fn sync_step(
    cpus: &mut [FineGrainCpu<FixedUtilization>],
    now: SimTime,
    demand: SimDuration,
    wait_accum: &mut f64,
    wait_samples: &mut u64,
) -> SimTime {
    let arrivals: Vec<SimTime> = cpus.iter_mut().map(|c| now + c.consume(demand)).collect();
    let barrier = arrivals.iter().copied().max().expect("at least one process");
    let span = barrier.saturating_since(now).as_secs_f64();
    for (c, &a) in cpus.iter_mut().zip(&arrivals) {
        c.advance_wall(barrier.saturating_since(a));
        if span > 0.0 {
            *wait_accum += barrier.saturating_since(a).as_secs_f64() / span;
            *wait_samples += 1;
        }
    }
    barrier
}

/// Completion-time ratio against the same job on all-idle nodes.
pub fn slowdown(cfg: &BspConfig, node_utils: &[f64], seed: u64) -> f64 {
    let loaded = run_bsp(cfg, node_utils, seed, 1);
    let ideal = run_bsp(cfg, &vec![0.0; cfg.processes], seed, 2);
    loaded.completion.as_secs_f64() / ideal.completion.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BspConfig {
        BspConfig { phases: 60, ..BspConfig::fig9() }
    }

    fn utils(loaded: usize, u: f64) -> Vec<f64> {
        let mut v = vec![0.0; 8];
        for x in v.iter_mut().take(loaded) {
            *x = u;
        }
        v
    }

    #[test]
    fn ideal_run_matches_work() {
        let cfg = quick_cfg();
        let r = run_bsp(&cfg, &utils(0, 0.0), 5, 0);
        let messages = cfg.pattern.messages_per_phase(cfg.processes) as f64;
        let phase = cfg.compute_per_phase + cfg.per_message_cpu.mul_f64(messages);
        let work = (phase + cfg.round_latency).as_secs_f64() * cfg.phases as f64;
        let got = r.completion.as_secs_f64();
        assert!((got - work).abs() / work < 0.02, "ideal completion {got} vs work {work}");
    }

    #[test]
    fn slowdown_grows_with_utilization() {
        // The Fig 9 curve must be monotone (up to noise) and reach
        // roughly 1/(1-u) scale at high utilization.
        let cfg = quick_cfg();
        let s20 = slowdown(&cfg, &utils(1, 0.2), 5);
        let s50 = slowdown(&cfg, &utils(1, 0.5), 5);
        let s90 = slowdown(&cfg, &utils(1, 0.9), 5);
        assert!(s20 < s50 && s50 < s90, "{s20} {s50} {s90}");
        assert!(s20 > 1.05 && s20 < 1.8, "20%: {s20}");
        assert!(s90 > 5.0, "90%: {s90}");
    }

    #[test]
    fn slowdown_grows_with_loaded_nodes() {
        let cfg = quick_cfg();
        let s1 = slowdown(&cfg, &utils(1, 0.2), 7);
        let s4 = slowdown(&cfg, &utils(4, 0.2), 7);
        let s8 = slowdown(&cfg, &utils(8, 0.2), 7);
        assert!(s1 < s4 && s4 < s8, "{s1} {s4} {s8}");
        // Fig 10 / Fig 12 scale: 20% load keeps slowdown under ~2.5 even
        // fully loaded.
        assert!(s8 < 3.0, "8 loaded at 20%: {s8}");
        assert!(s8 > 1.2);
    }

    #[test]
    fn coarser_granularity_means_less_slowdown() {
        // Fig 10: "larger synchronization granularity produces less
        // slowdown" (per-phase barrier max amplifies fine-grain noise).
        let mk = |g_ms: u64, phases: usize| BspConfig {
            compute_per_phase: SimDuration::from_millis(g_ms),
            phases,
            ..BspConfig::fig9()
        };
        let fine = slowdown(&mk(10, 600), &utils(4, 0.2), 9);
        let coarse = slowdown(&mk(1000, 12), &utils(4, 0.2), 9);
        assert!(fine > coarse + 0.05, "fine {fine} should exceed coarse {coarse}");
    }

    #[test]
    fn barrier_wait_fraction_reported() {
        let cfg = quick_cfg();
        let r = run_bsp(&cfg, &utils(2, 0.5), 11, 0);
        assert!(r.barrier_wait_fraction > 0.0 && r.barrier_wait_fraction < 1.0);
    }

    #[test]
    fn deterministic_given_seed_and_salt() {
        let cfg = quick_cfg();
        let a = run_bsp(&cfg, &utils(3, 0.3), 13, 4);
        let b = run_bsp(&cfg, &utils(3, 0.3), 13, 4);
        assert_eq!(a.completion, b.completion);
        let c = run_bsp(&cfg, &utils(3, 0.3), 13, 5);
        assert_ne!(a.completion, c.completion, "salt must decorrelate");
    }

    #[test]
    #[should_panic]
    fn utils_length_must_match() {
        let cfg = quick_cfg();
        let _ = run_bsp(&cfg, &[0.0; 4], 1, 0);
    }
}
