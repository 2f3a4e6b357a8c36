//! Application models: `sor`, `water`, `fft` (paper Sec 5.2).
//!
//! The paper ran three real shared-memory programs through the CVM
//! simulator with ATOM-derived traces. Neither tool is available, so each
//! application is modeled by its phase structure — per-iteration compute
//! grain plus communication pattern — chosen to preserve the property the
//! paper's results hinge on: the compute-to-communication ratio.
//! "water and fft have much more communication than sor and the time
//! spent waiting on communication won't be affected as much by local CPU
//! activity", making `sor` the most load-sensitive and `fft` the least
//! (DESIGN.md, substitution 3).

use crate::bsp::{run_bsp, BspConfig};
use crate::comm::CommPattern;
use crate::reconfig::largest_pow2_at_most;
use linger_sim_core::{par_map_indexed, SimDuration};
use serde::{Deserialize, Serialize};

/// Which application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum App {
    /// Red/black successive over-relaxation (Jacobi-style stencil):
    /// compute-dominated NEWS ghost-cell exchange.
    Sor,
    /// Molecular dynamics (SPLASH-2): all-neighbor force exchange, a
    /// moderate communication share.
    Water,
    /// Fast Fourier transform: butterfly all-to-all, the highest
    /// communication share.
    Fft,
}

impl App {
    /// All three, in the paper's order.
    pub const ALL: [App; 3] = [App::Sor, App::Water, App::Fft];

    /// Lower-case name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            App::Sor => "sor",
            App::Water => "water",
            App::Fft => "fft",
        }
    }

    /// Phase model for a run on `procs` processes of a problem sized for
    /// `cluster` nodes (per-process compute scales with `cluster/procs`).
    ///
    /// Message costs set the dedicated-cluster communication fractions at
    /// roughly 4% (sor), 15% (water) and 30% (fft) for 8 processes.
    pub fn config(self, procs: usize, cluster: usize) -> BspConfig {
        let scale = cluster as f64 / procs as f64;
        // Communication cost is dominated by wire/protocol latency, which
        // local CPU load does not slow — that is exactly why the paper
        // finds the communication-heavy applications less sensitive to
        // lingering. Handler CPU per message is small.
        // All three apps iterate at the same compute grain (problem sizes
        // in the paper's runs were chosen per-app; what distinguishes the
        // apps for scheduling purposes is the communication share).
        let (compute_ms, pattern, msg_cpu_us, latency_ms) = match self {
            App::Sor => (450.0, CommPattern::News, 200.0, 16.0),
            App::Water => (450.0, CommPattern::AllToAll, 500.0, 75.0),
            App::Fft => (450.0, CommPattern::Butterfly, 500.0, 63.0),
        };
        BspConfig {
            processes: procs,
            compute_per_phase: SimDuration::from_secs_f64(compute_ms * 1e-3 * scale),
            phases: 30,
            pattern,
            round_latency: SimDuration::from_secs_f64(latency_ms * 1e-3),
            per_message_cpu: SimDuration::from_secs_f64(msg_cpu_us * 1e-6),
            context_switch: SimDuration::from_micros(100),
        }
    }

    /// Fraction of a dedicated-cluster iteration spent communicating.
    pub fn comm_fraction(self, procs: usize) -> f64 {
        let cfg = self.config(procs, procs);
        let msgs = cfg.pattern.messages_per_phase(procs) as f64;
        let rounds = cfg.pattern.rounds(procs) as f64;
        let comm =
            cfg.per_message_cpu.as_secs_f64() * msgs + cfg.round_latency.as_secs_f64() * rounds;
        comm / (comm + cfg.compute_per_phase.as_secs_f64())
    }
}

/// One point of the Fig 12 grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Point {
    /// Application.
    pub app: &'static str,
    /// Number of non-idle nodes (0–8).
    pub non_idle: usize,
    /// Local utilization of the non-idle nodes (0.1–0.4).
    pub local_util: f64,
    /// Slowdown vs. 8 idle nodes.
    pub slowdown: f64,
}

/// Fig 12: slowdown of each application on an 8-node cluster as the
/// number of non-idle nodes (0–8) and their local utilization (10–40%)
/// vary, under lingering.
pub fn fig12(seed: u64) -> Vec<Fig12Point> {
    const UTILS: [f64; 4] = [0.1, 0.2, 0.3, 0.4];
    const NON_IDLE: usize = 9; // 0..=8
                               // Per-app dedicated-cluster baselines, then the 3×4×9 grid; every
                               // point is an independent run, flattened in (app, util, non_idle)
                               // order so the output matches the serial loop nest exactly.
    let ideals = par_map_indexed(App::ALL.len(), None, |a| {
        let cfg = App::ALL[a].config(8, 8);
        run_bsp(&cfg, &[0.0; 8], seed, 0).completion.as_secs_f64()
    });
    par_map_indexed(App::ALL.len() * UTILS.len() * NON_IDLE, None, |idx| {
        let app = App::ALL[idx / (UTILS.len() * NON_IDLE)];
        let lusg = UTILS[(idx / NON_IDLE) % UTILS.len()];
        let non_idle = idx % NON_IDLE;
        let cfg = app.config(8, 8);
        let mut utils = vec![0.0; 8];
        for u in utils.iter_mut().take(non_idle) {
            *u = lusg;
        }
        let t = run_bsp(&cfg, &utils, seed, (non_idle as u64) << 8 | (lusg * 100.0) as u64)
            .completion
            .as_secs_f64();
        Fig12Point {
            app: app.name(),
            non_idle,
            local_util: lusg,
            slowdown: t / ideals[idx / (UTILS.len() * NON_IDLE)],
        }
    })
}

/// One point of the Fig 13 plot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13Point {
    /// Application.
    pub app: &'static str,
    /// Idle nodes available (16 → 0).
    pub idle: usize,
    /// Strategy label ("reconfiguration", "16 node linger", "8 node linger").
    pub strategy: &'static str,
    /// Slowdown vs. the app on 16 idle nodes.
    pub slowdown: f64,
}

/// Fig 13: lingering (16 or 8 processes) vs. power-of-two
/// reconfiguration on a 16-node cluster with 20% local utilization on
/// non-idle nodes, for each application.
pub fn fig13(seed: u64) -> Vec<Fig13Point> {
    const CLUSTER: usize = 16;
    const STRATEGIES: usize = 3; // reconfiguration, 16-node linger, 8-node linger
    const IDLES: usize = CLUSTER + 1; // 16 down to 0
    let ideals = par_map_indexed(App::ALL.len(), None, |a| {
        let cfg = App::ALL[a].config(CLUSTER, CLUSTER);
        run_bsp(&cfg, &[0.0; CLUSTER], seed, 0).completion.as_secs_f64()
    });
    // Flattened in (app, idle descending, strategy) order, matching the
    // serial loop nest; every point is an independent run.
    par_map_indexed(App::ALL.len() * IDLES * STRATEGIES, None, |idx| {
        let app = App::ALL[idx / (IDLES * STRATEGIES)];
        let ideal = ideals[idx / (IDLES * STRATEGIES)];
        let idle = CLUSTER - (idx / STRATEGIES) % IDLES;
        match idx % STRATEGIES {
            0 => {
                // Reconfiguration: largest power of two ≤ idle (1 busy
                // node when none are idle).
                let (procs, busy) =
                    if idle == 0 { (1usize, 1usize) } else { (largest_pow2_at_most(idle), 0) };
                let t_rc = timed(app, procs, busy, CLUSTER, seed, idle as u64);
                Fig13Point {
                    app: app.name(),
                    idle,
                    strategy: "reconfiguration",
                    slowdown: t_rc / ideal,
                }
            }
            s => {
                // Linger with 16 (s == 1) or 8 (s == 2) processes.
                let k = if s == 1 { 16usize } else { 8 };
                let busy = k.saturating_sub(idle);
                let t = timed(app, k, busy, CLUSTER, seed, (k as u64) << 16 | idle as u64);
                let strategy = if k == 16 { "16 node linger" } else { "8 node linger" };
                Fig13Point { app: app.name(), idle, strategy, slowdown: t / ideal }
            }
        }
    })
}

fn timed(app: App, procs: usize, busy: usize, cluster: usize, seed: u64, salt: u64) -> f64 {
    let cfg = app.config(procs, cluster);
    let mut utils = vec![0.0; procs];
    for u in utils.iter_mut().take(busy.min(procs)) {
        *u = 0.2;
    }
    run_bsp(&cfg, &utils, seed, salt).completion.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_fractions_are_ordered() {
        // sor compute-dominated, fft communication-heavy.
        let sor = App::Sor.comm_fraction(8);
        let water = App::Water.comm_fraction(8);
        let fft = App::Fft.comm_fraction(8);
        assert!(sor < water && water < fft, "{sor} {water} {fft}");
        assert!(sor < 0.10, "sor {sor}");
        assert!(fft > 0.20, "fft {fft}");
    }

    #[test]
    fn sensitivity_ordering_matches_paper() {
        // "Sor is the most sensitive to local utilization and the number
        // of non-idle nodes. Water is less sensitive … and fft is the
        // least."
        let pts = fig12(5);
        let pick = |app: &str| {
            pts.iter()
                .find(|p| p.app == app && p.non_idle == 8 && (p.local_util - 0.4).abs() < 1e-9)
                .unwrap()
                .slowdown
        };
        let (sor, water, fft) = (pick("sor"), pick("water"), pick("fft"));
        assert!(sor > water && water > fft, "sor {sor} water {water} fft {fft}");
    }

    #[test]
    fn single_non_idle_node_modest_slowdown() {
        // "when only one non-idle node is involved even with 40% local
        // utilization the slowdown … reaches only 1.7."
        let pts = fig12(5);
        for app in ["sor", "water", "fft"] {
            let s = pts
                .iter()
                .find(|p| p.app == app && p.non_idle == 1 && (p.local_util - 0.4).abs() < 1e-9)
                .unwrap()
                .slowdown;
            assert!((1.1..2.2).contains(&s), "{app}: {s}");
        }
    }

    #[test]
    fn all_nodes_non_idle_roughly_doubles() {
        // "Even when all 8 nodes are non-idle, the job is slowed down by
        // just above a factor of 2" (at 20%).
        let pts = fig12(5);
        for app in ["sor", "water", "fft"] {
            let s = pts
                .iter()
                .find(|p| p.app == app && p.non_idle == 8 && (p.local_util - 0.2).abs() < 1e-9)
                .unwrap()
                .slowdown;
            assert!((1.3..2.8).contains(&s), "{app}: {s}");
        }
    }

    #[test]
    fn slowdown_monotone_in_load_and_nodes() {
        let pts = fig12(6);
        let get = |app: &str, k: usize, u: f64| {
            pts.iter()
                .find(|p| p.app == app && p.non_idle == k && (p.local_util - u).abs() < 1e-9)
                .unwrap()
                .slowdown
        };
        for app in ["sor", "water", "fft"] {
            assert!(get(app, 8, 0.4) > get(app, 8, 0.1), "{app} load monotone");
            assert!(get(app, 8, 0.2) > get(app, 1, 0.2) - 0.05, "{app} node monotone");
            assert!((get(app, 0, 0.2) - 1.0).abs() < 0.02, "{app} zero non-idle");
        }
    }

    #[test]
    fn fig13_linger16_wins_with_many_idle_nodes() {
        // "For all cases, the Linger-Longer policy using 16 nodes
        // outperforms the reconfiguration when the number of idle nodes
        // is at least 12."
        let pts = fig13(7);
        for app in ["sor", "water", "fft"] {
            for idle in [15usize, 13, 12] {
                let ll = pts
                    .iter()
                    .find(|p| p.app == app && p.idle == idle && p.strategy == "16 node linger")
                    .unwrap()
                    .slowdown;
                let rc = pts
                    .iter()
                    .find(|p| p.app == app && p.idle == idle && p.strategy == "reconfiguration")
                    .unwrap()
                    .slowdown;
                assert!(ll < rc, "{app} idle={idle}: LL16 {ll} vs reconfig {rc}");
            }
        }
    }

    #[test]
    fn fig13_linger8_beats_reconfiguration_when_few_idle() {
        // Paper: "when less than 8 idle nodes are left, lingering with 8
        // nodes looks much better than … the reconfiguration policy."
        //
        // Noted divergence (see EXPERIMENTS.md): the paper also ranks
        // LL-8 above LL-16 in that regime. Under a barrier-max model
        // calibrated to the paper's own Fig 12 magnitudes (slowdown ≈ 2
        // with every node at 20%), halving the process count costs a
        // factor of two that lingering on extra busy nodes never does, so
        // LL-16 stays ahead here; we reproduce the reconfiguration
        // comparisons and record the LL-8/LL-16 ordering as divergent.
        let pts = fig13(7);
        for app in ["sor", "water", "fft"] {
            for idle in [7usize, 5, 3, 1] {
                let ll8 = pts
                    .iter()
                    .find(|p| p.app == app && p.idle == idle && p.strategy == "8 node linger")
                    .unwrap()
                    .slowdown;
                let rc = pts
                    .iter()
                    .find(|p| p.app == app && p.idle == idle && p.strategy == "reconfiguration")
                    .unwrap()
                    .slowdown;
                assert!(ll8 < rc, "{app} idle={idle}: LL8 {ll8} vs reconfig {rc}");
            }
        }
    }
}
