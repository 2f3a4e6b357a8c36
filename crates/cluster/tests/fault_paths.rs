//! Fault-path regression pins: outcome digests recorded from earlier
//! builds, which any later layout or indexing change must reproduce.
//!
//! A 512-node open central cell with node crashes, reboots, lost
//! transfers and a serialized dispatcher (`central_dispatch_rtt_secs > 0`)
//! drives every mid-window change to the destination pools: reboots and
//! completions that return nodes to `free ∧ idle`, failed transfers that
//! release a reservation and retry, and arrivals on a now-busy node that
//! evict at once. Each policy's outcome must hash to the digest pinned
//! below at shard counts 1 and 4, so a change to how destinations are
//! indexed cannot silently move a single placement or migration.
//!
//! The slab-turnover pins cover job-slot recycling: a faults-on
//! throughput cell per policy (every completion retires and respawns into
//! the vacated slot), an open cell per admission policy (retirement
//! without respawn, shedding, deadline drops) and a stealing open cell.
//! Their digests also cover the telemetry journal. They were recorded
//! while an append-only slab layout (finished rows left in place, every
//! respawn appended) still existed beside recycling, and that layout
//! reproduced every pinned outcome except the `peak_live_rows` witness
//! of the open cells — so the pins stand in for the retired layout
//! equivalence proof.

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, JobState, RunMode, ServiceConfig,
    StealingConfig,
};
use linger_sim_core::{set_default_jobs, SimDuration, SimTime};
use linger_telemetry::Recorder;
use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

const NODES: usize = 512;

fn cell(policy: Policy) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(policy, JobFamily::empty());
    cfg.nodes = NODES;
    cfg.seed = 1998;
    cfg.trace.duration = SimDuration::from_secs(3600);
    // Load 0.9 of `NODES` servers of 120 s jobs keeps the idle pool
    // churning and lingering (or paused) jobs looking for destinations.
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_hour: 0.9 * NODES as f64 * 30.0,
            },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::BoundedPareto {
                alpha: 1.5,
                max_ratio: 100.0,
            },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * NODES,
        deadline_secs: 300.0,
    };
    cfg.mode = RunMode::Open {
        horizon: SimTime::from_secs(1800),
    };
    cfg.faults = FaultConfig {
        crash_rate_per_hour: 2.0,
        mean_reboot_secs: 60.0,
        migration_failure_prob: 0.1,
    };
    let mut stealing = StealingConfig::disabled();
    stealing.central_dispatch_rtt_secs = 0.05;
    cfg.stealing = stealing;
    cfg
}

/// 64-bit FNV-1a over the run's full observable outcome: every job
/// record (id order), the fault, service and steal counters, and the
/// delivered-CPU and foreground-delay accumulators.
fn outcome_digest(sim: &ClusterSim) -> u64 {
    fnv1a(&format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:#x}",
        sim.jobs(),
        sim.fault_stats(),
        sim.service_stats(),
        sim.steal_stats(),
        sim.completed(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
    ))
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run(cfg: ClusterConfig, shards: usize) -> (u64, ClusterSim) {
    let mut sim = ClusterSim::new(cfg);
    sim.set_shards(shards);
    sim.run();
    (outcome_digest(&sim), sim)
}

#[test]
fn fault_path_outcomes_are_pinned() {
    // Recorded before destination queries moved to the per-window index.
    let pinned: [(Policy, u64); 3] = [
        (Policy::LingerLonger, 0x361c_4530_a131_71fd),
        (Policy::ImmediateEviction, 0x41f4_41b8_5dca_a708),
        (Policy::PauseAndMigrate, 0xa45d_9064_9116_27de),
    ];
    for (policy, want) in pinned {
        for shards in [1, 4] {
            let (got, sim) = run(cell(policy), shards);
            let fs = sim.fault_stats();
            // The cell must actually exercise the fault paths it pins.
            assert!(fs.crashes > 0 && fs.crash_evictions > 0, "{policy}: {fs:?}");
            assert!(
                fs.migration_failures > 0 && fs.migration_retries > 0,
                "{policy}: {fs:?}"
            );
            assert!(sim.steal_stats().central_dispatches > 0, "{policy}");
            assert_eq!(got, want, "{policy} at {shards} shards: digest {got:#018x}");
        }
    }
}

/// The fault cell with a dispatcher far too slow for its arrivals: a
/// 2.5 s round trip allows 0.8 placements per 2 s window against ~7.7
/// arrivals, so the bounded queue sheds for most of the run. Most
/// placement passes end at the first job the full backlog cannot take;
/// every fifth window the backlog is already full when the pass starts.
/// The idle pool the remaining placements and linger tests draw from
/// holds ~220–250 nodes, more than the destination index sorts up front.
fn saturated_cell(policy: Policy) -> ClusterConfig {
    let mut cfg = cell(policy);
    cfg.stealing.central_dispatch_rtt_secs = 2.5;
    cfg
}

#[test]
fn saturated_dispatcher_outcomes_are_pinned() {
    // Recorded before placement passes stopped at a full backlog and
    // before the destination index sorted its pools lazily.
    let pinned: [(Policy, u64); 3] = [
        (Policy::LingerLonger, 0x5f19_e784_5ac4_64aa),
        (Policy::ImmediateEviction, 0xaf1b_6b5c_971e_01cd),
        (Policy::PauseAndMigrate, 0xe72c_b4dc_da3d_a93d),
    ];
    let windows = 1800 / 2;
    let mut wrong = Vec::new();
    for (policy, want) in pinned {
        for shards in [1, 4] {
            let (got, sim) = run(saturated_cell(policy), shards);
            let svc = sim.service_stats();
            assert!(svc.saturated_windows > windows / 2, "{policy}: {svc:?}");
            // Nodes hosting or receiving a job at the end; the rest are
            // free or crashed.
            let held = sim
                .jobs()
                .iter()
                .filter(|j| {
                    j.node.is_some() && !matches!(j.state, JobState::Done | JobState::Queued)
                })
                .count();
            assert!(NODES - held > 256, "{policy}: {held} nodes held");
            if got != want {
                wrong.push(format!("{policy} at {shards} shards: digest {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

/// The slab-turnover fault settings: crashes, reboots and lost
/// transfers, so slots are vacated by completions, kills and retries.
const TURNOVER_FAULTS: FaultConfig = FaultConfig {
    crash_rate_per_hour: 2.0,
    mean_reboot_secs: 120.0,
    migration_failure_prob: 0.2,
};

/// A throughput cell with a short job demand against a long horizon:
/// every family slot turns over many times.
fn turnover_cell(policy: Policy) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform(12, SimDuration::from_secs(90), 8 * 1024),
    );
    cfg.nodes = 24;
    cfg.trace.duration = SimDuration::from_secs(3600);
    cfg.seed = 7;
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(1800) };
    cfg.faults = TURNOVER_FAULTS;
    cfg
}

/// An open cell at twice the service capacity of 16 nodes, so bounded
/// admission sheds, blocks or drops and the queue churns.
fn open_cell(admission: AdmissionPolicy, policy: Policy) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(policy, JobFamily::empty());
    cfg.nodes = 16;
    cfg.trace.duration = SimDuration::from_secs(2 * 3600);
    cfg.seed = 1998;
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_hour: 2.0 * 16.0 * 30.0 },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::Exponential,
        },
        admission,
        queue_capacity: 32,
        deadline_secs: 90.0,
    };
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(1800) };
    cfg.faults = TURNOVER_FAULTS;
    cfg
}

/// The shed open cell under randomized stealing with batch steals and
/// heavy-tailed sizes.
fn stealing_cell() -> ClusterConfig {
    let mut cfg = open_cell(AdmissionPolicy::Shed, Policy::LingerLonger);
    cfg.service.arrivals.size_dist = SizeDistribution::BoundedPareto {
        alpha: 1.5,
        max_ratio: 100.0,
    };
    cfg.stealing = StealingConfig::randomized(3, 0.5).with_steal_half();
    cfg
}

/// Run `cfg` at `shards` shards and worker width `width` (threaded
/// classify whenever both exceed 1) with a journal attached; returns the
/// digest of the outcome and the journal, and the finished sim.
fn run_journaled(cfg: ClusterConfig, shards: usize, width: usize) -> (u64, ClusterSim) {
    set_default_jobs(width);
    let mut sim = ClusterSim::new(cfg);
    sim.set_shards(shards);
    sim.set_recorder(Recorder::with_capacity(1 << 16));
    sim.run();
    set_default_jobs(0);
    let events = sim
        .recorder()
        .journal()
        .map(|j| serde_json::to_string(&j.snapshot()).unwrap())
        .unwrap_or_default();
    let digest = fnv1a(&format!("{:016x}|{}", outcome_digest(&sim), events));
    (digest, sim)
}

/// Check each `(name, cfg, want)` pin at shards {1, 4} × widths {1, 4},
/// reporting every mismatch at once; `check` asserts the cell really
/// exercised slot turnover.
fn assert_pins(pins: Vec<(String, ClusterConfig, u64)>, check: impl Fn(&str, &ClusterSim)) {
    let mut wrong = Vec::new();
    for (name, cfg, want) in pins {
        for (shards, width) in [(1, 1), (4, 1), (4, 4)] {
            let (got, sim) = run_journaled(cfg.clone(), shards, width);
            check(&name, &sim);
            if got != want {
                wrong.push(format!("{name} shards={shards} width={width}: {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn throughput_turnover_outcomes_are_pinned() {
    let pinned: [(Policy, u64); 4] = [
        (Policy::ImmediateEviction, 0x4923_b579_0a68_aa84),
        (Policy::PauseAndMigrate, 0xa112_aefc_10d2_9878),
        (Policy::LingerLonger, 0x0590_9ef1_00dd_95fe),
        (Policy::LingerForever, 0xe5d6_a9fb_e3bd_a36d),
    ];
    let pins = pinned.iter().map(|&(p, want)| (p.to_string(), turnover_cell(p), want)).collect();
    assert_pins(pins, |name, sim| {
        assert!(sim.completed() >= 24, "{name}: horizon must turn slots over");
        assert_eq!(sim.live_job_rows(), 12, "{name}: live rows stay at the family size");
        assert_eq!(sim.archived_jobs(), sim.completed(), "{name}: completions retire");
        assert!(sim.fault_stats().crashes > 0, "{name}: {:?}", sim.fault_stats());
    });
}

#[test]
fn open_admission_outcomes_are_pinned() {
    let pinned: [(AdmissionPolicy, Policy, u64); 4] = [
        (AdmissionPolicy::Open, Policy::ImmediateEviction, 0x0c6e_be37_cb42_b30e),
        (AdmissionPolicy::Shed, Policy::PauseAndMigrate, 0xdf46_99a1_d836_b32c),
        (AdmissionPolicy::Block, Policy::LingerLonger, 0xc9d8_8594_b33a_e003),
        (AdmissionPolicy::Deadline, Policy::LingerForever, 0x3894_4849_9ed6_91cf),
    ];
    let pins = pinned
        .iter()
        .map(|&(a, p, want)| (format!("{}/{p}", a.name()), open_cell(a, p), want))
        .collect();
    assert_pins(pins, |name, sim| {
        assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
        assert!(sim.service_stats().accounting_holds(), "{name}");
    });
}

#[test]
fn stealing_open_outcome_is_pinned() {
    let pins = vec![("stealing".to_string(), stealing_cell(), 0x69f2_970a_dd5d_56be)];
    assert_pins(pins, |name, sim| {
        let st = sim.steal_stats();
        assert!(st.hits > 0 && st.probes == st.hits + st.misses, "{name}: {st:?}");
        assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
    });
}
