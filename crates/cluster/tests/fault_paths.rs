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
//!
//! The multi-shard source pins run one 512-node cell per job source — a
//! family that finishes, one cut at `max_time`, a throughput cell and a
//! deadline open cell — plus a batch-stealing open cell through the same
//! shard × width grid. At 512 nodes the four-shard plan really has four
//! shards, which the 16- and 24-node cells above cannot reach. The
//! stealing cell's journal overflows the ring, so its digest covers the
//! full outcome and the journal's last 65,536 events.
//!
//! The memory-pressure pins run the wide throughput cell with 24 MB jobs,
//! through the same grid: the only cells whose hosted jobs lose pages to
//! owner memory growth and run partially resident.

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, JobState, RunMode, ServiceConfig,
    StealingConfig,
};
use linger_sim_core::{set_default_jobs, ShardPlan, SimDuration, SimTime};
use linger_telemetry::Recorder;
use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution, WorkloadRealization};

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
            process: ArrivalProcess::Poisson { rate_per_hour: 0.9 * NODES as f64 * 30.0 },
            mean_cpu_secs: 120.0,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::BoundedPareto { alpha: 1.5, max_ratio: 100.0 },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * NODES,
        deadline_secs: 300.0,
    };
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(1800) };
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

/// The owner workload `cfg` replays, synthesized once per test and
/// shared by every run of every pin on the same `(trace, seed, nodes)`.
fn realize(cfg: &ClusterConfig) -> WorkloadRealization {
    WorkloadRealization::synthesize(&cfg.trace, cfg.seed, cfg.nodes)
}

fn run(cfg: &ClusterConfig, real: &WorkloadRealization, shards: usize) -> (u64, ClusterSim) {
    let mut sim = ClusterSim::with_realization(cfg.clone(), real);
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
    let real = realize(&cell(Policy::LingerLonger));
    for (policy, want) in pinned {
        for shards in [1, 4] {
            let (got, sim) = run(&cell(policy), &real, shards);
            let fs = sim.fault_stats();
            // The cell must actually exercise the fault paths it pins.
            assert!(fs.crashes > 0 && fs.crash_evictions > 0, "{policy}: {fs:?}");
            assert!(fs.migration_failures > 0 && fs.migration_retries > 0, "{policy}: {fs:?}");
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
    let real = realize(&saturated_cell(Policy::LingerLonger));
    for (policy, want) in pinned {
        for shards in [1, 4] {
            let (got, sim) = run(&saturated_cell(policy), &real, shards);
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
    let mut cfg =
        ClusterConfig::paper(policy, JobFamily::uniform(12, SimDuration::from_secs(90), 8 * 1024));
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
    cfg.service.arrivals.size_dist =
        SizeDistribution::BoundedPareto { alpha: 1.5, max_ratio: 100.0 };
    cfg.stealing = StealingConfig { steal_half: true, ..StealingConfig::randomized(3, 0.5) };
    cfg
}

/// Run `cfg` at `shards` shards and worker width `width` (threaded
/// classify whenever both exceed 1) with a journal attached; returns the
/// digest of the outcome and the journal, and the finished sim. A family
/// run can end two ways, so its digest also covers `run()`'s verdict
/// (throughput and open runs always end at their horizon).
fn run_journaled(
    cfg: &ClusterConfig,
    real: &WorkloadRealization,
    shards: usize,
    width: usize,
) -> (u64, ClusterSim) {
    let family = cfg.mode == RunMode::Family;
    set_default_jobs(width);
    let mut sim = ClusterSim::with_realization(cfg.clone(), real);
    sim.set_shards(shards);
    sim.set_recorder(Recorder::with_capacity(1 << 16));
    let done = sim.run();
    set_default_jobs(0);
    let events = sim
        .recorder()
        .journal()
        .map(|j| serde_json::to_string(&j.snapshot()).unwrap())
        .unwrap_or_default();
    let mut digest = fnv1a(&format!("{:016x}|{}", outcome_digest(&sim), events));
    if family {
        digest = fnv1a(&format!("{digest:016x}|{done}"));
    }
    (digest, sim)
}

/// One pinned cell: name, config, the realization it replays, digest.
type Pin<'a> = (String, ClusterConfig, &'a WorkloadRealization, u64);

/// Check each pin at shards {1, 4} × widths {1, 4}, reporting every
/// mismatch at once; `check` asserts the cell really exercised slot
/// turnover. One more run per cell has no recorder attached: its outcome
/// must equal the outcome half of the journaled run at shards 1, width 1,
/// so journaling cannot move a result.
fn assert_pins(pins: Vec<Pin<'_>>, check: impl Fn(&str, &ClusterSim)) {
    let mut wrong = Vec::new();
    for (name, cfg, real, want) in pins {
        for (shards, width) in [(1, 1), (4, 1), (4, 4)] {
            let (got, sim) = run_journaled(&cfg, real, shards, width);
            check(&name, &sim);
            if got != want {
                wrong.push(format!("{name} shards={shards} width={width}: {got:#018x}"));
            }
            if (shards, width) == (1, 1) {
                let (plain, journaled) = (run(&cfg, real, 1).0, outcome_digest(&sim));
                if plain != journaled {
                    wrong.push(format!(
                        "{name} unjournaled: {plain:#018x}, journaled {journaled:#018x}"
                    ));
                }
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
    let real = realize(&turnover_cell(Policy::LingerLonger));
    let pins = pinned
        .iter()
        .map(|&(p, want)| (p.to_string(), turnover_cell(p), &real, want))
        .collect();
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
    let real = realize(&open_cell(AdmissionPolicy::Open, Policy::LingerLonger));
    let pins = pinned
        .iter()
        .map(|&(a, p, want)| (format!("{}/{p}", a.name()), open_cell(a, p), &real, want))
        .collect();
    assert_pins(pins, |name, sim| {
        assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
        assert!(sim.service_stats().accounting_holds(), "{name}");
    });
}

/// An open cell under randomized single-job stealing. Deadline/LL
/// reneges from the deques, Block/PM pause-evicts back onto them and
/// Shed/IE evicts back onto them.
fn stealing_open_cell(admission: AdmissionPolicy, policy: Policy) -> ClusterConfig {
    let mut cfg = open_cell(admission, policy);
    cfg.stealing = StealingConfig::randomized(3, 0.5);
    cfg
}

#[test]
fn stealing_open_outcome_is_pinned() {
    // A central dispatch round trip is documented as meaningless under
    // stealing, so setting one must not move a byte.
    let mut ignored_rtt = stealing_cell();
    ignored_rtt.stealing.central_dispatch_rtt_secs = 4.0;
    let real = realize(&stealing_cell());
    let pins = vec![
        ("stealing".to_string(), stealing_cell(), &real, 0x69f2_970a_dd5d_56be),
        ("stealing+central_rtt".to_string(), ignored_rtt, &real, 0x69f2_970a_dd5d_56be),
        (
            "stealing deadline/LL".to_string(),
            stealing_open_cell(AdmissionPolicy::Deadline, Policy::LingerLonger),
            &real,
            0xf3d3_c1d0_9ffa_3eb6,
        ),
        (
            "stealing block/PM".to_string(),
            stealing_open_cell(AdmissionPolicy::Block, Policy::PauseAndMigrate),
            &real,
            0x5c25_f605_c18a_5906,
        ),
        (
            "stealing shed/IE".to_string(),
            stealing_open_cell(AdmissionPolicy::Shed, Policy::ImmediateEviction),
            &real,
            0xecf0_5ba4_cbdd_c724,
        ),
    ];
    assert_pins(pins, |name, sim| {
        let st = sim.steal_stats();
        assert!(st.hits > 0 && st.probes == st.hits + st.misses, "{name}: {st:?}");
        assert_eq!(st.central_dispatches, 0, "{name}: stealing never charges the coordinator");
        assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
        if name.contains("deadline") {
            let svc = sim.service_stats();
            assert!(svc.deadline_dropped > 0, "{name}: deques must renege: {svc:?}");
        }
    });
}

/// `cfg` grown to [`NODES`] nodes: eight bitset words, so the pins' four
/// shards really exist and width 4 threads them.
fn multi_shard(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.nodes = NODES;
    assert_eq!(ShardPlan::new(cfg.nodes, 4).shard_count(), 4, "shard axis collapsed");
    cfg
}

/// Two 90 s jobs per node under the turnover faults: a family that
/// finishes within a few hundred windows.
fn wide_family_cell(policy: Policy) -> ClusterConfig {
    let family = JobFamily::uniform(2 * NODES as u32, SimDuration::from_secs(90), 8 * 1024);
    let mut cfg = ClusterConfig::paper(policy, family);
    cfg.trace.duration = SimDuration::from_secs(3600);
    cfg.seed = 1998;
    cfg.faults = TURNOVER_FAULTS;
    multi_shard(cfg)
}

/// The wide family as a constant population over a 600 s horizon.
fn wide_throughput_cell(policy: Policy) -> ClusterConfig {
    let mut cfg = wide_family_cell(policy);
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(600) };
    cfg
}

/// The deadline open cell at twice the service capacity of [`NODES`]
/// nodes over a 600 s horizon: queued jobs renege, served ones retire.
fn wide_open_cell(policy: Policy) -> ClusterConfig {
    let mut cfg = open_cell(AdmissionPolicy::Deadline, policy);
    cfg.service.arrivals.process =
        ArrivalProcess::Poisson { rate_per_hour: 2.0 * NODES as f64 * 30.0 };
    cfg.service.queue_capacity = 2 * NODES;
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(600) };
    multi_shard(cfg)
}

/// The batch-stealing cell at 0.9 of the service capacity of [`NODES`]
/// nodes over a 300 s horizon: deques fill and drain, so idle nodes
/// probe and steal across shard boundaries.
fn wide_stealing_cell() -> ClusterConfig {
    let mut cfg = stealing_cell();
    cfg.service.arrivals.process =
        ArrivalProcess::Poisson { rate_per_hour: 0.9 * NODES as f64 * 30.0 };
    cfg.service.queue_capacity = 2 * NODES;
    cfg.mode = RunMode::Open { horizon: SimTime::from_secs(300) };
    multi_shard(cfg)
}

#[test]
fn multi_shard_source_outcomes_are_pinned() {
    // Recorded before the run modes moved behind one job-source seam.
    let mut cut_family = wide_family_cell(Policy::ImmediateEviction);
    cut_family.max_time = SimTime::from_secs(240);
    let wide = realize(&wide_family_cell(Policy::LingerLonger));
    let wide_open = realize(&wide_open_cell(Policy::LingerLonger));
    let pins = vec![
        (
            "family/LL".to_string(),
            wide_family_cell(Policy::LingerLonger),
            &wide,
            0x6af8_785a_79fa_27a4,
        ),
        ("family/IE at max_time".to_string(), cut_family, &wide, 0x262f_5262_69f4_9428),
        (
            "throughput/PM".to_string(),
            wide_throughput_cell(Policy::PauseAndMigrate),
            &wide,
            0xd06d_2b5a_0e96_c68a,
        ),
        (
            "open deadline/LL".to_string(),
            wide_open_cell(Policy::LingerLonger),
            &wide_open,
            0x3c8b_eb3e_11d2_6b64,
        ),
        (
            "stealing shed/LL".to_string(),
            wide_stealing_cell(),
            &wide_open,
            0xabf8_577e_f4f0_9f38,
        ),
    ];
    assert_pins(pins, |name, sim| {
        let total = 2 * NODES;
        assert!(sim.fault_stats().crashes > 0, "{name}: {:?}", sim.fault_stats());
        if name == "family/LL" {
            assert_eq!(sim.completed(), total, "{name}: the family must finish");
        } else if name.starts_with("family") {
            assert!(sim.completed() < total, "{name}: max_time must cut the family");
        } else if name.starts_with("throughput") {
            assert!(sim.completed() > total, "{name}: horizon must turn slots over");
            assert_eq!(sim.live_job_rows(), total, "{name}: live rows stay at the family size");
            assert_eq!(sim.archived_jobs(), sim.completed(), "{name}: completions retire");
        } else if name.starts_with("stealing") {
            let st = sim.steal_stats();
            assert!(st.hits > 0 && st.probes == st.hits + st.misses, "{name}: {st:?}");
            assert_eq!(st.central_dispatches, 0, "{name}: stealing never charges the coordinator");
            assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
        } else {
            let svc = sim.service_stats();
            assert!(svc.deadline_dropped > 0, "{name}: queued jobs must renege: {svc:?}");
            assert!(sim.archived_jobs() > 0, "{name}: open runs retire jobs");
            assert!(svc.accounting_holds(), "{name}");
        }
    });
}

/// The wide throughput cell with 24 MB jobs over a 1,200 s horizon. The
/// 8 MB jobs of every other cell always stay fully resident; 24 MB ones
/// do not, so owner memory growth reclaims pages from hosted jobs, which
/// then run partially resident and regrow once the owner shrinks — the
/// two-pool reclaim and regrow paths no other pin reaches.
fn pressure_cell(policy: Policy) -> ClusterConfig {
    let mut cfg = wide_throughput_cell(policy);
    cfg.family = JobFamily::uniform(2 * NODES as u32, SimDuration::from_secs(90), 24 * 1024);
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(1200) };
    cfg
}

#[test]
fn memory_pressure_outcomes_are_pinned() {
    // Recorded while every node's memory pool was refreshed from the
    // window row each window, hosting a job or not.
    let real = realize(&pressure_cell(Policy::LingerLonger));
    let pinned: [(Policy, u64); 2] = [
        (Policy::LingerLonger, 0x4e3e_85de_7f70_a9d8),
        (Policy::ImmediateEviction, 0xb2e3_4839_fa70_4eac),
    ];
    let pins = pinned
        .iter()
        .map(|&(p, want)| (format!("24 MB throughput/{p}"), pressure_cell(p), &real, want))
        .collect();
    assert_pins(pins, |name, sim| {
        let total = 2 * NODES;
        assert!(sim.completed() > total, "{name}: horizon must turn slots over");
        assert_eq!(sim.live_job_rows(), total, "{name}: live rows stay at the family size");
        assert!(sim.fault_stats().crashes > 0, "{name}: {:?}", sim.fault_stats());
    });
}
