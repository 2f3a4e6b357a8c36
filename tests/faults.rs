//! Fault-injection determinism and crash-safety, end to end.
//!
//! The contracts under test:
//!
//! - A fault schedule is a pure function of `(fault config, seed, node
//!   id)` — building it inside a parallel sweep yields identical events
//!   at any worker count.
//! - A zero-rate fault config is inert: the figure JSON a faulted build
//!   emits at rate 0 is byte-for-byte what the fault-free simulator
//!   produces, regardless of the other (unused) fault parameters.
//! - A cell that panics mid-sweep becomes a structured error; the
//!   surviving cells complete and their results still land on disk as
//!   valid, atomically renamed JSON.

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, FaultConfig, FaultModel, RunMode};
use linger_sim_core::{par_map_indexed, try_par_map_indexed, SimDuration, SimTime};
use linger_workload::CoarseTraceConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same `(fault config, seed)` → identical per-node failure
    /// schedules whether the sweep runs on 1 worker or 4.
    #[test]
    fn fault_schedule_identical_at_jobs_1_and_4(
        seed in 0u64..1_000_000,
        rate in 0.1f64..24.0,
        reboot in 30.0f64..1200.0,
        prob in 0.0f64..0.5,
        nodes in 1usize..24,
    ) {
        let cfg = FaultConfig {
            crash_rate_per_hour: rate,
            mean_reboot_secs: reboot,
            migration_failure_prob: prob,
        };
        let sweep = |jobs: usize| {
            par_map_indexed(6, Some(jobs), |cell| {
                let m = FaultModel::new(cfg, seed.wrapping_add(cell as u64), nodes, 2_000);
                m.events().to_vec()
            })
        };
        prop_assert_eq!(sweep(1), sweep(4));
    }

    /// Migration-failure draws are keyed by `(job, transfer)` alone —
    /// the same draws come out of every worker layout.
    #[test]
    fn migration_failure_draws_identical_at_jobs_1_and_4(
        seed in 0u64..1_000_000,
        prob in 0.05f64..0.95,
    ) {
        let cfg = FaultConfig {
            crash_rate_per_hour: 0.0,
            mean_reboot_secs: 300.0,
            migration_failure_prob: prob,
        };
        let sweep = |jobs: usize| {
            par_map_indexed(32, Some(jobs), |i| {
                let m = FaultModel::new(cfg, seed, 4, 100);
                m.migration_fails(i as u32, (i * 7) as u32)
            })
        };
        prop_assert_eq!(sweep(1), sweep(4));
    }
}

/// The cluster configuration `ext_faults` sweeps in fast mode, with the
/// given fault parameters.
fn faulted_cfg(seed: u64, faults: FaultConfig) -> ClusterConfig {
    let nodes = 16;
    let trace = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    let family = JobFamily::uniform(2 * nodes as u32, SimDuration::from_secs(300), 8 * 1024);
    let mut cfg = ClusterConfig::paper(Policy::LingerLonger, family);
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.trace = trace;
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(600) };
    cfg.faults = faults;
    cfg
}

/// Serialize the figure-level observables of one run as pretty JSON —
/// the same fields `ext_faults` writes per grid point.
fn figure_json(cfg: ClusterConfig) -> String {
    let mut sim = ClusterSim::new(cfg);
    sim.run();
    let summary = (
        sim.completed(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio(),
        sim.fault_stats(),
    );
    serde_json::to_string_pretty(&summary).expect("summary serializes")
}

#[test]
fn rate_zero_figure_json_is_byte_identical_to_fault_free() {
    let golden = figure_json(faulted_cfg(1998, FaultConfig::disabled()));
    // Zero rates with wildly different inert parameters must not move a
    // single byte — no RNG draw may depend on them.
    let zeroed = figure_json(faulted_cfg(
        1998,
        FaultConfig {
            crash_rate_per_hour: 0.0,
            mean_reboot_secs: 31_557.0,
            migration_failure_prob: 0.0,
        },
    ));
    assert_eq!(golden, zeroed, "rate-0 fault config perturbed the run");
    // And the machinery is genuinely live at nonzero rates (the golden
    // comparison above would pass vacuously if faults never fired).
    let faulted = figure_json(faulted_cfg(
        1998,
        FaultConfig {
            crash_rate_per_hour: 12.0,
            mean_reboot_secs: 300.0,
            migration_failure_prob: 0.10,
        },
    ));
    assert_ne!(golden, faulted, "nonzero fault rate produced no faults");
}

#[test]
fn ext_faults_rate_zero_rows_match_the_direct_simulation() {
    let points = linger_bench::ext_faults(1998, true);
    let ll0 = points
        .iter()
        .find(|p| p.policy == "LL" && p.crash_rate_per_hour == 0.0)
        .expect("grid has a rate-0 LL row");
    assert_eq!(
        (ll0.crashes, ll0.migration_failures, ll0.migrations_abandoned),
        (0, 0, 0),
        "rate-0 row recorded fault activity"
    );
    // The rate-0 grid point is the plain fault-free simulation.
    let mut sim = ClusterSim::new(faulted_cfg(1998, FaultConfig::disabled()));
    sim.run();
    assert_eq!(ll0.completed, sim.completed());
    assert_eq!(ll0.foreign_cpu_secs, sim.foreign_cpu_delivered().as_secs_f64());
}

#[test]
fn panicking_cell_yields_structured_error_and_survivors_reach_disk() {
    let res = try_par_map_indexed(8, Some(4), |i| {
        if i == 3 {
            panic!("deliberate failure in cell {i}");
        }
        i * 10
    });
    let err = res[3].as_ref().expect_err("cell 3 panicked");
    assert_eq!(err.index, 3);
    assert!(err.payload.contains("deliberate failure"), "{}", err.payload);
    let survivors: Vec<usize> = res.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
    assert_eq!(survivors, vec![0, 10, 20, 40, 50, 60, 70]);

    // The partial results still persist atomically and parse back.
    let dir = std::env::temp_dir().join("linger-fault-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("partial.json");
    let json = serde_json::to_string_pretty(&survivors).unwrap();
    linger_sim_core::write_atomic(&path, json.as_bytes()).unwrap();
    let back: Vec<usize> = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(back, survivors);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["partial.json".to_string()], "temp file leaked");
    std::fs::remove_dir_all(&dir).ok();
}
