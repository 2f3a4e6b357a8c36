//! Hand-built trace scenarios exercising the scheduler's state machine
//! edge cases through [`ClusterSim::with_traces`].

use linger::{JobFamily, JobId, JobSpec, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, JobState};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::{CoarseSample, CoarseTrace};
use std::sync::Arc;

const WINDOWS_PER_MIN: usize = 30;

fn quiet() -> CoarseSample {
    CoarseSample { cpu: 0.02, mem_used_kb: 24_000, keyboard: false }
}

fn busy() -> CoarseSample {
    CoarseSample { cpu: 0.30, mem_used_kb: 28_000, keyboard: true }
}

/// A trace that is idle, except `busy_ranges` of window indices.
fn trace(windows: usize, busy_ranges: &[(usize, usize)]) -> Arc<CoarseTrace> {
    // Lead with a quiet minute so window 0 is already recruited.
    let mut samples = vec![quiet(); WINDOWS_PER_MIN + windows];
    for &(lo, hi) in busy_ranges {
        for w in lo..hi {
            samples[WINDOWS_PER_MIN + w] = busy();
        }
    }
    Arc::new(CoarseTrace::from_samples(samples))
}

fn base_cfg(policy: Policy, nodes: usize, jobs: u32, job_secs: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform(jobs, SimDuration::from_secs(job_secs), 8 * 1024),
    );
    cfg.nodes = nodes;
    cfg.max_time = SimTime::from_secs(7200);
    cfg
}

fn sim(policy: Policy, jobs: u32, job_secs: u64, node_busy: &[&[(usize, usize)]]) -> ClusterSim {
    let cfg = base_cfg(policy, node_busy.len(), jobs, job_secs);
    let traces: Vec<Arc<CoarseTrace>> =
        node_busy.iter().map(|ranges| trace(4000, ranges)).collect();
    // All nodes start at the first post-warmup window.
    let offsets = vec![WINDOWS_PER_MIN; node_busy.len()];
    ClusterSim::with_traces(cfg, traces, offsets)
}

#[test]
fn idle_only_run_completes_at_full_speed() {
    let mut s = sim(Policy::LingerLonger, 1, 120, &[&[]]);
    assert!(s.run());
    let j = &s.jobs()[0];
    // A quiet node (2% cpu) delivers nearly the full CPU: completion just
    // above the demand.
    let c = j.completion_time().unwrap().as_secs_f64();
    assert!((120.0..140.0).contains(&c), "completion {c}");
    assert_eq!(j.migrations, 0);
    assert_eq!(j.breakdown.lingering, SimDuration::ZERO);
}

#[test]
fn pause_and_migrate_resumes_in_place_within_grace() {
    // One node; a 40-second busy blip (20 windows) then quiet. With a
    // generous grace period, PM pauses and resumes in place — never
    // migrating (there is nowhere to go anyway).
    let mut cfg = base_cfg(Policy::PauseAndMigrate, 1, 1, 120);
    cfg.params.pause_timeout = SimDuration::from_secs(300);
    let traces = vec![trace(4000, &[(30, 50)])];
    let mut s = ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN]);
    assert!(s.run());
    let j = &s.jobs()[0];
    assert!(j.breakdown.paused > SimDuration::ZERO, "must have paused");
    assert_eq!(j.migrations, 0, "resumed in place");
    assert_eq!(j.state, JobState::Done);
}

#[test]
fn pause_and_migrate_requeues_after_grace_with_no_destination() {
    // One node, permanently busy after window 30, short grace: the job
    // pauses, the grace expires, there is no destination, so it returns
    // to the queue and only finishes because lingering is not allowed —
    // i.e. it never finishes within the horizon.
    let mut cfg = base_cfg(Policy::PauseAndMigrate, 1, 1, 300);
    cfg.params.pause_timeout = SimDuration::from_secs(10);
    cfg.max_time = SimTime::from_secs(900);
    let traces = vec![trace(4000, &[(30, 4000)])];
    let mut s = ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN]);
    let finished = s.run();
    assert!(!finished, "no idle node ever reappears");
    let j = &s.jobs()[0];
    assert_eq!(j.state, JobState::Queued);
    assert!(j.breakdown.queued > SimDuration::from_secs(300));
}

#[test]
fn linger_longer_rides_out_short_episode_but_migrates_from_long_one() {
    // Two nodes. Node 0 hosts the job, then turns busy for good at window
    // 60; node 1 stays idle. The LL cost model should move the job to
    // node 1 after roughly T_lingr = (1-l)/(h-l)·T_migr of lingering.
    //
    // Placement prefers the lower-cpu idle node, so make node 1 slightly
    // busier at the start to steer the job onto node 0.
    let cfg = base_cfg(Policy::LingerLonger, 2, 1, 600);
    let t_migr = cfg.params.migration.cost(8 * 1024).as_secs_f64();
    let mut n1_samples = vec![quiet(); WINDOWS_PER_MIN + 4000];
    for s in n1_samples.iter_mut().take(WINDOWS_PER_MIN + 4000) {
        s.cpu = 0.05; // idle but measurably busier than node 0's 0.02
    }
    let traces = vec![trace(4000, &[(60, 4000)]), Arc::new(CoarseTrace::from_samples(n1_samples))];
    let mut s = ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 2]);
    assert!(s.run());
    let j = &s.jobs()[0];
    assert_eq!(j.migrations, 1, "exactly one migration to the idle node");
    assert!(j.breakdown.lingering > SimDuration::ZERO, "lingered first");
    // It lingered at least roughly the cost-model duration:
    // T_lingr = (1-l)/(h-l)·T_migr with h=0.30, l=0.05 → 3.8·T_migr.
    let expected_lingr = (1.0 - 0.05) / (0.30 - 0.05) * t_migr;
    let lingered = j.breakdown.lingering.as_secs_f64();
    assert!(
        lingered >= 0.8 * expected_lingr,
        "lingered {lingered}s vs expected ≥ {expected_lingr}s"
    );
}

#[test]
fn linger_forever_stays_put_through_everything() {
    let mut s = sim(Policy::LingerForever, 1, 300, &[&[(30, 4000)]]);
    assert!(s.run());
    let j = &s.jobs()[0];
    assert_eq!(j.migrations, 0);
    assert!(j.breakdown.lingering > SimDuration::from_secs(100));
    // Progress at 30% local load is ~0.7 of full speed (plus overheads):
    // completion sits between demand/0.75 and demand/0.5.
    let c = j.completion_time().unwrap().as_secs_f64();
    assert!((340.0..650.0).contains(&c), "completion {c}");
}

#[test]
fn immediate_eviction_bounces_between_alternating_nodes() {
    // Node 0 busy during [60, 120); node 1 busy during [0, 60) and idle
    // afterwards: an IE job placed on node 0 is evicted at 60 and should
    // land on node 1.
    let mut s = sim(Policy::ImmediateEviction, 1, 240, &[&[(60, 2000)], &[(0, 55)]]);
    assert!(s.run());
    let j = &s.jobs()[0];
    assert!(j.migrations >= 1, "must have evicted at least once");
    assert_eq!(j.breakdown.lingering, SimDuration::ZERO);
    assert!(j.breakdown.migrating > SimDuration::ZERO);
}

#[test]
fn lingering_placement_uses_busy_nodes_when_nothing_idle() {
    // Both nodes busy from the start: LL places anyway (lingering
    // placement), IE leaves the job queued.
    let ranges: &[&[(usize, usize)]] = &[&[(0, 4000)], &[(0, 4000)]];
    let mut ll = sim(Policy::LingerLonger, 1, 120, ranges);
    assert!(ll.run(), "LL must finish by lingering");
    assert!(ll.jobs()[0].breakdown.lingering > SimDuration::ZERO);

    let mut cfg = base_cfg(Policy::ImmediateEviction, 2, 1, 120);
    cfg.max_time = SimTime::from_secs(600);
    let traces: Vec<Arc<CoarseTrace>> = ranges.iter().map(|r| trace(4000, r)).collect();
    let mut ie = ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 2]);
    assert!(!ie.run(), "IE has no idle node to use");
    assert_eq!(ie.jobs()[0].state, JobState::Queued);
    assert_eq!(ie.jobs()[0].first_start, None);
}

#[test]
fn foreground_delay_accrues_only_while_lingering() {
    let mut busy_host = sim(Policy::LingerForever, 1, 120, &[&[(0, 4000)]]);
    busy_host.run();
    assert!(busy_host.foreground_delay_ratio() > 0.0);

    let mut idle_host = sim(Policy::LingerForever, 1, 120, &[&[]]);
    idle_host.run();
    // Running on a recruited (but 2%-busy) node is "running", not
    // "lingering": no delay is charged.
    assert_eq!(idle_host.jobs()[0].breakdown.lingering, SimDuration::ZERO);
}

#[test]
fn eviction_storms_contend_for_the_shared_network() {
    use linger_cluster::NetworkModel;
    // Many IE jobs on a cluster whose nodes all turn busy at once: every
    // job migrates simultaneously and the 10 Mbps backbone must be split,
    // unlike the unconstrained network.
    let ranges: Vec<Vec<(usize, usize)>> = (0..6)
        .map(|n| if n < 3 { vec![(100, 160)] } else { vec![] })
        .collect();
    let build = |network: Option<NetworkModel>| {
        let mut cfg = base_cfg(Policy::ImmediateEviction, 6, 3, 400);
        cfg.network = network;
        let traces: Vec<Arc<CoarseTrace>> = ranges.iter().map(|r| trace(4000, r)).collect();
        ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 6])
    };
    let mut shared = build(Some(NetworkModel::paper_default()));
    assert!(shared.run());
    let mut unconstrained = build(Some(NetworkModel {
        backbone_bps: f64::INFINITY,
        per_flow_bps: f64::INFINITY,
    }));
    assert!(unconstrained.run());
    let sum = |s: &ClusterSim| -> f64 {
        s.jobs().iter().map(|j| j.breakdown.migrating.as_secs_f64()).sum()
    };
    let (shared_migr, fast_migr) = (sum(&shared), sum(&unconstrained));
    // Jobs migrated in both runs…
    assert!(shared.jobs().iter().any(|j| j.migrations > 0));
    // …but the shared backbone made transfers take real time while the
    // unconstrained network is bounded by the fixed processing cost only.
    assert!(
        shared_migr > fast_migr + 10.0,
        "shared {shared_migr}s vs unconstrained {fast_migr}s"
    );
}

#[test]
fn shared_network_matches_fixed_cost_for_a_lone_migration() {
    use linger_cluster::NetworkModel;
    // One job, one migration: the shared network at 3 Mbps per flow must
    // agree with the fixed-cost model within a couple of windows.
    let ranges: Vec<Vec<(usize, usize)>> = vec![vec![(60, 4000)], vec![]];
    let build = |network: Option<NetworkModel>| {
        let mut cfg = base_cfg(Policy::ImmediateEviction, 2, 1, 300);
        cfg.network = network;
        let traces: Vec<Arc<CoarseTrace>> = ranges.iter().map(|r| trace(4000, r)).collect();
        ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 2])
    };
    let mut fixed = build(None);
    assert!(fixed.run());
    let mut shared = build(Some(NetworkModel::paper_default()));
    assert!(shared.run());
    let f = fixed.jobs()[0].breakdown.migrating.as_secs_f64();
    let s = shared.jobs()[0].breakdown.migrating.as_secs_f64();
    assert!((f - s).abs() <= 6.0, "fixed {f}s vs shared {s}s");
}

#[test]
fn staggered_arrivals_are_honored() {
    // Jobs arriving every 100 s must not start before their arrival.
    let mut cfg = base_cfg(Policy::LingerLonger, 2, 3, 60);
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| JobSpec {
            id: JobId(i),
            cpu_demand: SimDuration::from_secs(60),
            mem_kb: 8 * 1024,
            arrival: SimTime::from_secs(100 * u64::from(i)),
        })
        .collect();
    // The family's job list is private; its serialized form takes any.
    let family = format!(r#"{{"jobs":{}}}"#, serde_json::to_string(&jobs).unwrap());
    cfg.family = serde_json::from_str(&family).unwrap();
    let traces = vec![trace(4000, &[]), trace(4000, &[])];
    let mut s = ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 2]);
    assert!(s.run());
    for (i, j) in s.jobs().iter().enumerate() {
        let arrival = 100.0 * i as f64;
        let started = j.first_start.unwrap().as_nanos() as f64 / 1e9;
        assert!(
            started + 1e-9 >= arrival,
            "job {i} started at {started} before arrival {arrival}"
        );
        // Queue time should be tiny (idle nodes waiting).
        assert!(j.breakdown.queued.as_secs_f64() <= 4.0);
    }
}

#[test]
#[should_panic(expected = "all of one period")]
fn mixed_period_traces_are_rejected() {
    // Traces of different lengths have no window-major form.
    let cfg = base_cfg(Policy::LingerLonger, 2, 1, 120);
    let traces = vec![trace(4000, &[]), trace(2000, &[])];
    ClusterSim::with_traces(cfg, traces, vec![WINDOWS_PER_MIN; 2]);
}
