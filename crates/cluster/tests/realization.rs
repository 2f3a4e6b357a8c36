//! Workload-realization soundness: a realization shared across runs must
//! be indistinguishable from one synthesized afresh per run. A run built
//! by `ClusterSim::new` (its own synthesis), one over legacy whole
//! traces, and runs that reuse one monolithic or one streamed
//! realization must all finish identically — including runs whose
//! horizons need different numbers of window-table rows, in either
//! order and racing on two threads.

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, RunMode};
use linger_sim_core::{par_map_indexed, RngFactory, SimDuration, SimTime};
use linger_workload::{CoarseTrace, CoarseTraceConfig, LocalWorkload, WorkloadRealization};
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
/// `ClusterSim::new` did before realizations existed.
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

    /// A run over its own fresh synthesis (`ClusterSim::new`), one over
    /// freshly synthesized whole traces (`with_traces`), two in turn over
    /// one monolithic realization (the second after the first consumed
    /// it) and two over one streamed realization with a small chunk all
    /// finish bit-identically.
    #[test]
    fn cached_and_bypassing_runs_are_identical(
        policy_idx in 0usize..4,
        nodes in 2usize..10,
        jobs in 1u32..8,
        demand_s in 30u64..120,
        seed in 0u64..500,
        chunk in 1usize..16,
    ) {
        let policy = Policy::ALL[policy_idx];
        let c = cfg(policy, nodes, jobs, demand_s, seed);
        let run = |mut sim: ClusterSim| {
            assert!(sim.run(), "family did not finish");
            fingerprint(&sim)
        };

        let want = run(ClusterSim::new(c.clone()));
        let (traces, offsets) = legacy_traces(&c.trace, c.seed, c.nodes);
        prop_assert_eq!(&run(ClusterSim::with_traces(c.clone(), traces, offsets)), &want);

        let mono = WorkloadRealization::synthesize_monolithic(&c.trace, c.seed, c.nodes);
        let streamed = WorkloadRealization::synthesize_streamed(&c.trace, c.seed, c.nodes, chunk);
        for (what, real) in [("monolithic", &mono), ("streamed", &streamed)] {
            for pass in 0..2 {
                let got = run(ClusterSim::with_realization(c.clone(), real));
                prop_assert_eq!(&got, &want, "{} realization, pass {}", what, pass);
            }
        }
    }
}

/// A 70-node throughput cell (two 64-node idle words) over a 1,800 s
/// trace (900 windows) cut at `horizon_s`.
fn throughput_cell(policy: Policy, horizon_s: u64) -> ClusterConfig {
    let mut c = cfg(policy, 70, 140, 120, 1998);
    c.mode = RunMode::Throughput { horizon: SimTime::from_secs(horizon_s) };
    c
}

/// A run that reads 301 rows and one that reads every row of the period
/// (its 3,600 s horizon wraps the trace), over one shared table in both
/// orders and racing on two workers, each finish as over a realization
/// of its own.
#[test]
fn runs_of_different_horizons_share_one_table() {
    let period = cfg(Policy::LingerLonger, 70, 1, 1, 1998).trace.sample_count();
    for policy in [Policy::LingerLonger, Policy::ImmediateEviction] {
        let cells = [throughput_cell(policy, 600), throughput_cell(policy, 3600)];
        let fresh_real = |c: &ClusterConfig| {
            WorkloadRealization::synthesize_monolithic(&c.trace, c.seed, c.nodes)
        };
        let run = |c: &ClusterConfig, real: &WorkloadRealization| {
            let mut sim = ClusterSim::with_realization(c.clone(), real);
            assert!(sim.run(), "throughput runs end at their horizon");
            fingerprint(&sim)
        };
        let want: Vec<_> = cells.iter().map(|c| run(c, &fresh_real(c))).collect();
        assert_ne!(want[0], want[1], "the horizons must differ in outcome");

        // Rows each cell's construction asks for: its horizon's 300 or
        // 1,800 windows plus one, up to the period.
        let reach = [301, period];
        for order in [[0, 1], [1, 0]] {
            let shared = fresh_real(&cells[0]);
            let mut built = 0;
            for i in order {
                assert_eq!(run(&cells[i], &shared), want[i], "{policy}: cell {i}, order {order:?}");
                built = built.max(reach[i]);
                assert_eq!(shared.table(1).expect("table").rows(), built, "order {order:?}");
            }
        }
        for race in 0..4 {
            let shared = fresh_real(&cells[0]);
            let got = par_map_indexed(2, Some(2), |i| run(&cells[i], &shared));
            assert_eq!(got, want, "{policy}: race {race}");
        }
    }
}
