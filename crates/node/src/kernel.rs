//! Event-driven kernel scheduler model (the paper's Linux prototype,
//! Sec 7: "the strict priority-based scheduler … has been developed").
//!
//! Where [`crate::executor::FineGrainCpu`] treats the owner's demand as a
//! pre-aggregated run/idle burst stream, this module simulates the
//! scheduler the prototype actually modified: multiple local processes
//! with think/compute cycles, a ready queue with round-robin quanta
//! *within* the local class, and a foreign process in a strictly lower
//! class that runs only when the local ready queue is empty and is
//! preempted mid-quantum the instant a local process wakes.
//!
//! The two models are cross-validated: with a single local process whose
//! think/compute cycle matches a burst-table bucket, the kernel model's
//! LDR and FCSR agree with the burst model's (see the tests here and the
//! `node` bench).

use linger_sim_core::{
    Context, Engine, EventHandle, RngFactory, SimDuration, SimRng, SimTime, Simulation,
};
use linger_stats::{fit_two_moments, Distribution, Fitted};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Stochastic shape of one local (owner) process.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocalProcessSpec {
    /// Mean CPU demand per compute burst (seconds).
    pub run_mean: f64,
    /// Variance of the compute burst.
    pub run_var: f64,
    /// Mean think (blocked) time between bursts (seconds).
    pub think_mean: f64,
    /// Variance of think time.
    pub think_var: f64,
}

impl LocalProcessSpec {
    /// A process matching utilization-`u` bucket of the paper table
    /// (single-process equivalent of the burst stream).
    pub fn from_bucket(u: f64) -> Self {
        let p = linger_workload::BurstParamTable::paper_calibrated().interpolate(u);
        LocalProcessSpec {
            run_mean: p.run_mean.max(1e-5),
            run_var: p.run_var,
            think_mean: p.idle_mean.max(1e-5),
            think_var: p.idle_var,
        }
    }
}

/// Kernel scheduler configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelConfig {
    /// The local processes on the node.
    pub processes: Vec<LocalProcessSpec>,
    /// Round-robin quantum within the local class (Linux ~100 ms era
    /// default is far larger than typical bursts; 10 ms models a
    /// desktop-tuned kernel).
    pub quantum: SimDuration,
    /// Effective context-switch cost.
    pub context_switch: SimDuration,
    /// Whether a foreign (starvation-priority) job is present.
    pub foreign_present: bool,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            processes: vec![LocalProcessSpec::from_bucket(0.3)],
            quantum: SimDuration::from_millis(10),
            context_switch: SimDuration::from_micros(100),
            foreign_present: true,
            duration: SimDuration::from_secs(60),
            seed: 0,
        }
    }
}

/// Aggregated outcome of a kernel-model run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KernelReport {
    /// CPU time consumed by local processes.
    pub local_cpu: SimDuration,
    /// CPU time harvested by the foreign job.
    pub foreign_cpu: SimDuration,
    /// Wall time during which no one computed (switch overhead + true
    /// idle with no foreign job).
    pub dead_time: SimDuration,
    /// Added latency experienced by local wakes due to the foreign job
    /// holding the CPU (LDR numerator).
    pub local_delay: SimDuration,
    /// Number of foreign-job preemptions by local wakes.
    pub preemptions: u64,
    /// Context switches of any kind.
    pub switches: u64,
    /// Measured local CPU utilization.
    pub utilization: f64,
    /// Local-job Delay Ratio.
    pub ldr: f64,
    /// Fine-grain Cycle Stealing Ratio (share of non-local time the
    /// foreign job converted into work).
    pub fcsr: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Running {
    Nobody,
    Local(usize),
    Foreign,
}

#[derive(Debug)]
enum Ev {
    /// Local process `pid` finished thinking and wants the CPU.
    Wake(usize),
    /// The running local process's compute burst completes.
    BurstDone(usize),
    /// Round-robin quantum expired for the running local process.
    Quantum,
    /// End of simulation.
    End,
}

struct Kernel {
    cfg: KernelConfig,
    run_dists: Vec<Fitted>,
    think_dists: Vec<Fitted>,
    rng: SimRng,
    ready: VecDeque<usize>,
    /// Remaining demand of each local process's current burst.
    remaining: Vec<SimDuration>,
    running: Running,
    /// When the running entity was dispatched.
    dispatched_at: SimTime,
    /// Pending completion/quantum event for the running local process.
    pending: Option<EventHandle>,
    // accounting
    local_cpu: SimDuration,
    foreign_cpu: SimDuration,
    foreign_started_at: Option<SimTime>,
    local_delay: SimDuration,
    preemptions: u64,
    switches: u64,
    done: bool,
}

impl Kernel {
    fn new(cfg: KernelConfig) -> Self {
        let run_dists = cfg
            .processes
            .iter()
            .map(|p| fit_two_moments(p.run_mean, p.run_var))
            .collect();
        let think_dists = cfg
            .processes
            .iter()
            .map(|p| fit_two_moments(p.think_mean, p.think_var))
            .collect();
        let rng = RngFactory::new(cfg.seed).stream_for(linger_sim_core::domains::DISPATCH, 0xFEED);
        let n = cfg.processes.len();
        Kernel {
            cfg,
            run_dists,
            think_dists,
            rng,
            ready: VecDeque::new(),
            remaining: vec![SimDuration::ZERO; n],
            running: Running::Nobody,
            dispatched_at: SimTime::ZERO,
            pending: None,
            local_cpu: SimDuration::ZERO,
            foreign_cpu: SimDuration::ZERO,
            foreign_started_at: None,
            local_delay: SimDuration::ZERO,
            preemptions: 0,
            switches: 0,
            done: false,
        }
    }

    fn draw(&mut self, d: &Fitted) -> SimDuration {
        SimDuration::from_secs_f64(d.sample(&mut self.rng)).max(SimDuration::from_micros(10))
    }

    /// Credit the foreign job for time computed since dispatch.
    fn settle_foreign(&mut self, now: SimTime) {
        if let Some(start) = self.foreign_started_at.take() {
            self.foreign_cpu += now.saturating_since(start);
        }
    }

    /// Dispatch the next entity (after any switch penalty has elapsed —
    /// the penalty is modeled as the dispatch happening `context_switch`
    /// after the decision point, charged to the incoming entity).
    fn dispatch(&mut self, ctx: &mut Context<'_, Ev>) {
        debug_assert!(self.pending.is_none());
        let now = ctx.now();
        if let Some(pid) = self.ready.pop_front() {
            // A switch is charged when the CPU changes occupant.
            let cs = if self.running == Running::Local(pid) {
                SimDuration::ZERO
            } else {
                self.switches += 1;
                self.cfg.context_switch
            };
            if self.running == Running::Foreign {
                // Foreign held the CPU: the wake pays the preemption
                // latency (the LDR numerator).
                self.preemptions += 1;
                self.local_delay += self.cfg.context_switch;
            }
            self.running = Running::Local(pid);
            self.dispatched_at = now + cs;
            let slice = self.remaining[pid].min(self.cfg.quantum);
            let h = if slice == self.remaining[pid] {
                ctx.schedule_at(self.dispatched_at + slice, Ev::BurstDone(pid))
            } else {
                ctx.schedule_at(self.dispatched_at + slice, Ev::Quantum)
            };
            self.pending = Some(h);
        } else if self.cfg.foreign_present {
            let cs = if self.running == Running::Foreign {
                SimDuration::ZERO
            } else {
                self.switches += 1;
                self.cfg.context_switch
            };
            self.running = Running::Foreign;
            self.dispatched_at = now + cs;
            // Compute-bound: no completion event; it runs until preempted.
            self.foreign_started_at = Some(self.dispatched_at);
        } else {
            self.running = Running::Nobody;
        }
    }

    /// Account the CPU time of the local process being descheduled.
    fn settle_local(&mut self, pid: usize, now: SimTime) {
        let ran = now.saturating_since(self.dispatched_at);
        self.local_cpu += ran;
        self.remaining[pid] = self.remaining[pid].saturating_sub(ran);
    }
}

impl Simulation for Kernel {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
        if self.done {
            return;
        }
        match ev {
            Ev::Wake(pid) => {
                self.remaining[pid] = {
                    let d = self.run_dists[pid];
                    self.draw(&d)
                };
                self.ready.push_back(pid);
                match self.running {
                    Running::Foreign => {
                        // Strict priority: preempt immediately, even
                        // mid-quantum.
                        self.settle_foreign(ctx.now());
                        self.dispatch(ctx);
                    }
                    Running::Nobody => self.dispatch(ctx),
                    Running::Local(_) => { /* waits in the ready queue */ }
                }
            }
            Ev::BurstDone(pid) => {
                self.pending = None;
                self.settle_local(pid, ctx.now());
                debug_assert!(self.remaining[pid].is_zero());
                // Go think, then wake again.
                let think = {
                    let d = self.think_dists[pid];
                    self.draw(&d)
                };
                ctx.schedule_in(think, Ev::Wake(pid));
                self.dispatch(ctx);
            }
            Ev::Quantum => {
                self.pending = None;
                if let Running::Local(pid) = self.running {
                    self.settle_local(pid, ctx.now());
                    self.ready.push_back(pid);
                }
                self.dispatch(ctx);
            }
            Ev::End => {
                // Final settlement.
                match self.running {
                    Running::Local(pid) => self.settle_local(pid, ctx.now()),
                    Running::Foreign => self.settle_foreign(ctx.now()),
                    Running::Nobody => {}
                }
                if let Some(h) = self.pending.take() {
                    ctx.cancel(h);
                }
                self.done = true;
                ctx.stop();
            }
        }
    }
}

/// Run the kernel scheduler model.
pub fn simulate_kernel(cfg: &KernelConfig) -> KernelReport {
    let total = cfg.duration;
    let mut kernel = Kernel::new(cfg.clone());
    let mut engine = Engine::new({
        // Stagger initial wakes by each process's think time.
        kernel.running = Running::Nobody;
        kernel
    });
    // Prime: each process starts thinking at t=0; the foreign job is
    // dispatched by the first scheduling decision.
    {
        let model = engine.model_mut();
        let n = model.cfg.processes.len();
        let mut first_wakes = Vec::with_capacity(n);
        for pid in 0..n {
            let d = model.think_dists[pid];
            first_wakes.push(model.draw(&d));
        }
        for (pid, w) in first_wakes.into_iter().enumerate() {
            engine.prime(SimTime::ZERO + w, Ev::Wake(pid));
        }
    }
    engine.prime(SimTime::ZERO + total, Ev::End);
    // The foreign job (if present) gets the CPU until the first wake.
    if cfg.foreign_present {
        let model = engine.model_mut();
        model.running = Running::Foreign;
        model.foreign_started_at = Some(SimTime::ZERO);
        model.switches = 1;
    }
    engine.run_to_completion();
    let k = engine.into_model();

    let total_s = total.as_secs_f64();
    let local_s = k.local_cpu.as_secs_f64();
    let foreign_s = k.foreign_cpu.as_secs_f64();
    let non_local = (total_s - local_s).max(0.0);
    KernelReport {
        local_cpu: k.local_cpu,
        foreign_cpu: k.foreign_cpu,
        dead_time: SimDuration::from_secs_f64((total_s - local_s - foreign_s).max(0.0)),
        local_delay: k.local_delay,
        preemptions: k.preemptions,
        switches: k.switches,
        utilization: local_s / total_s,
        ldr: if local_s > 0.0 { k.local_delay.as_secs_f64() / local_s } else { 0.0 },
        fcsr: if non_local > 0.0 { foreign_s / non_local } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{simulate_single_node, SingleNodeConfig};

    fn cfg_one(u: f64, foreign: bool) -> KernelConfig {
        KernelConfig {
            processes: vec![LocalProcessSpec::from_bucket(u)],
            foreign_present: foreign,
            duration: SimDuration::from_secs(120),
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn utilization_matches_bucket() {
        for u in [0.2, 0.5, 0.8] {
            let r = simulate_kernel(&cfg_one(u, true));
            assert!((r.utilization - u).abs() < 0.06, "target {u}, measured {}", r.utilization);
        }
    }

    #[test]
    fn foreign_fills_the_gaps() {
        let r = simulate_kernel(&cfg_one(0.3, true));
        // local + foreign + dead ≈ total; dead is only switch overhead.
        let total = 120.0;
        let sum =
            r.local_cpu.as_secs_f64() + r.foreign_cpu.as_secs_f64() + r.dead_time.as_secs_f64();
        assert!((sum - total).abs() < 1e-6);
        assert!(r.fcsr > 0.9, "fcsr {}", r.fcsr);
    }

    #[test]
    fn no_foreign_means_idle_gaps() {
        let r = simulate_kernel(&cfg_one(0.3, false));
        assert_eq!(r.foreign_cpu, SimDuration::ZERO);
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.ldr, 0.0);
        // Dead time ≈ all non-local time.
        assert!(r.dead_time.as_secs_f64() > 0.5 * 120.0);
    }

    #[test]
    fn kernel_agrees_with_burst_model() {
        // Cross-validation of the two fidelity levels: a single local
        // process drawn from the bucket distributions is statistically the
        // burst stream, so LDR and FCSR must agree.
        for u in [0.2, 0.5] {
            let k = simulate_kernel(&KernelConfig {
                duration: SimDuration::from_secs(300),
                ..cfg_one(u, true)
            });
            let b = simulate_single_node(&SingleNodeConfig {
                utilization: u,
                context_switch: SimDuration::from_micros(100),
                duration: SimDuration::from_secs(300),
                seed: 5,
            });
            assert!(
                (k.ldr - b.ldr).abs() < 0.004,
                "u={u}: kernel LDR {} vs burst LDR {}",
                k.ldr,
                b.ldr
            );
            assert!(
                (k.fcsr - b.fcsr).abs() < 0.05,
                "u={u}: kernel FCSR {} vs burst FCSR {}",
                k.fcsr,
                b.fcsr
            );
        }
    }

    #[test]
    fn multiple_local_processes_share_round_robin() {
        // Two identical processes at bucket 0.3 each: combined utilization
        // roughly doubles (minus overlap), and the foreign job still
        // starves correctly.
        let cfg = KernelConfig {
            processes: vec![LocalProcessSpec::from_bucket(0.3); 2],
            foreign_present: true,
            duration: SimDuration::from_secs(120),
            seed: 9,
            ..Default::default()
        };
        let r = simulate_kernel(&cfg);
        assert!(r.utilization > 0.40, "two processes should load more: {}", r.utilization);
        assert!(r.fcsr > 0.85, "fcsr {}", r.fcsr);
        assert!(r.preemptions > 0);
    }

    #[test]
    fn quantum_bounds_local_monopolies() {
        // A long-burst process plus a short-burst process: the quantum
        // keeps both making progress (round-robin within the class). We
        // check simply that both processes' demand is served and the run
        // completes with plenty of switches.
        let cfg = KernelConfig {
            processes: vec![
                LocalProcessSpec {
                    run_mean: 0.2,
                    run_var: 1e-3,
                    think_mean: 0.2,
                    think_var: 1e-3,
                },
                LocalProcessSpec {
                    run_mean: 0.004,
                    run_var: 1e-6,
                    think_mean: 0.02,
                    think_var: 1e-5,
                },
            ],
            quantum: SimDuration::from_millis(5),
            foreign_present: false,
            duration: SimDuration::from_secs(30),
            seed: 4,
            ..Default::default()
        };
        let r = simulate_kernel(&cfg);
        assert!(r.switches > 1000, "round-robin must slice: {}", r.switches);
        assert!(r.utilization > 0.5);
    }

    #[test]
    fn ldr_grows_with_context_switch_cost() {
        let base = cfg_one(0.3, true);
        let ldr = |cs: u64| {
            simulate_kernel(&KernelConfig {
                context_switch: SimDuration::from_micros(cs),
                ..base.clone()
            })
            .ldr
        };
        let (a, b, c) = (ldr(100), ldr(300), ldr(500));
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn deterministic() {
        let a = simulate_kernel(&cfg_one(0.4, true));
        let b = simulate_kernel(&cfg_one(0.4, true));
        assert_eq!(a.foreign_cpu, b.foreign_cpu);
        assert_eq!(a.switches, b.switches);
    }
}
