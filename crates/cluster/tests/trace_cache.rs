//! Workload-realization cache soundness: a cluster run built through the
//! shared [`TraceLibrary`] must be indistinguishable from one that
//! synthesizes its own traces, and eviction mid-sweep must never change
//! results — only cost.

use linger::{JobFamily, Policy};
use linger_cluster::{evaluate_policy, ClusterConfig, ClusterSim};
use linger_sim_core::{RngFactory, SimDuration};
use linger_workload::{CoarseTrace, CoarseTraceConfig, LocalWorkload, TraceLibrary};
use proptest::prelude::*;
use std::sync::Arc;

fn cfg(policy: Policy, nodes: usize, jobs: u32, demand_s: u64, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform(jobs, SimDuration::from_secs(demand_s), 8 * 1024),
    );
    cfg.nodes = nodes;
    cfg.trace.duration = SimDuration::from_secs(1800);
    cfg.seed = seed;
    cfg
}

/// Whole per-node traces and offsets, synthesized the way
/// `ClusterSim::new` did before the realization cache existed.
fn legacy_traces(
    trace: &CoarseTraceConfig,
    seed: u64,
    nodes: usize,
) -> (Vec<Arc<CoarseTrace>>, Vec<usize>) {
    let factory = RngFactory::new(seed);
    let traces: Vec<Arc<CoarseTrace>> = (0..nodes)
        .map(|n| Arc::new(trace.synthesize(&factory, n as u64)))
        .collect();
    let offsets = traces
        .iter()
        .enumerate()
        .map(|(n, t)| LocalWorkload::random_offset(t, &factory, n as u64))
        .collect();
    (traces, offsets)
}

/// Everything observable about a finished run, exactly.
fn fingerprint(sim: &ClusterSim) -> (String, u64) {
    let jobs = sim
        .jobs()
        .iter()
        .map(|j| (j.state, j.completed_at, j.migrations, j.remaining))
        .collect::<Vec<_>>();
    (format!("{jobs:?}"), sim.foreign_cpu_delivered().as_nanos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cached run (`ClusterSim::new`, global library) and a
    /// cache-bypassing run (`with_traces` over freshly synthesized whole
    /// traces) are bit-identical.
    #[test]
    fn cached_and_bypassing_runs_are_identical(
        policy_idx in 0usize..4,
        nodes in 2usize..10,
        jobs in 1u32..8,
        demand_s in 30u64..120,
        seed in 0u64..500,
    ) {
        let policy = Policy::ALL[policy_idx];
        let c = cfg(policy, nodes, jobs, demand_s, seed);

        let mut cached = ClusterSim::new(c.clone());
        prop_assert!(cached.run());

        let (traces, offsets) = legacy_traces(&c.trace, c.seed, c.nodes);
        let mut bypass = ClusterSim::with_traces(c, traces, offsets);
        prop_assert!(bypass.run());

        prop_assert_eq!(fingerprint(&cached), fingerprint(&bypass));
    }

    /// `PolicyMetrics` computed against a warm cache equal those computed
    /// after `clear()` forces every lookup to miss and resynthesize.
    #[test]
    fn policy_metrics_survive_a_cache_flush(
        policy_idx in 0usize..4,
        nodes in 2usize..8,
        seed in 0u64..200,
    ) {
        let policy = Policy::ALL[policy_idx];
        let family = JobFamily::uniform(4, SimDuration::from_secs(60), 8 * 1024);
        let warm = evaluate_policy(policy, family.clone(), nodes, seed);
        TraceLibrary::global().clear();
        let cold = evaluate_policy(policy, family, nodes, seed);
        prop_assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    }

    /// A sweep run against a library so small it evicts on every insert
    /// produces the same runs as one with an unbounded budget: eviction
    /// changes cost, never results.
    #[test]
    fn eviction_mid_sweep_never_changes_results(
        nodes in 2usize..8,
        seed in 0u64..200,
    ) {
        let tiny = TraceLibrary::with_max_bytes(1);
        let roomy = TraceLibrary::new();
        // Interleave two keys so the tiny library keeps evicting the one
        // it is about to need again.
        for s in [seed, seed + 1, seed, seed + 1, seed] {
            let c = cfg(Policy::LingerLonger, nodes, 3, 60, s);
            let mut evicted = ClusterSim::with_realization(
                c.clone(),
                &tiny.realize(&c.trace, c.seed, c.nodes),
            );
            let mut kept = ClusterSim::with_realization(
                c.clone(),
                &roomy.realize(&c.trace, c.seed, c.nodes),
            );
            prop_assert!(evicted.run());
            prop_assert!(kept.run());
            prop_assert_eq!(fingerprint(&evicted), fingerprint(&kept));
        }
        let stats = tiny.stats();
        prop_assert!(stats.evictions > 0, "tiny library never evicted: {stats:?}");
    }
}
