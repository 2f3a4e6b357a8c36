//! CI smoke for the job-slot recycler: a long-horizon throughput run at
//! 65,536 nodes with enough windows for ≥4× job turnover, asserting the
//! live hot-lane length stays pinned at the initial job count while the
//! archive absorbs every completion.
//!
//! `--fast` shrinks the turnover cell to 4096 nodes so the whole smoke
//! stays inside a couple of seconds; `--max-nodes <n>` caps the cell
//! directly.

use linger::{JobFamily, Policy};
use linger_bench::output::{banner, HarnessArgs};
use linger_cluster::{ClusterConfig, ClusterSim, RunMode};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::CoarseTraceConfig;

fn throughput_cfg(
    policy: Policy,
    nodes: usize,
    demand_s: u64,
    horizon_s: u64,
    seed: u64,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        policy,
        JobFamily::uniform((2 * nodes) as u32, SimDuration::from_secs(demand_s), 8 * 1024),
    );
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.trace = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(horizon_s) };
    cfg
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Slot-recycling smoke",
        "long-horizon turnover bound",
    );

    // Turnover bound: short demands against a long horizon cycle
    //    every slot several times; the recycler must keep the hot lanes
    //    at exactly the initial job count the whole way.
    let nodes = args
        .max_nodes
        .unwrap_or(if args.fast { 4096 } else { 65_536 });
    let initial_jobs = 2 * nodes;
    let mut sim = ClusterSim::new(throughput_cfg(Policy::LingerLonger, nodes, 30, 600, args.seed));
    let t0 = std::time::Instant::now();
    sim.run();
    let turnover = sim.completed() as f64 / initial_jobs as f64;
    println!(
        "turnover cell: {} nodes, {} initial jobs, {} completed ({:.1}x turnover) \
         in {:.1}s",
        nodes,
        initial_jobs,
        sim.completed(),
        turnover,
        t0.elapsed().as_secs_f64(),
    );
    println!(
        "live-lanes: rows={} bytes={} archived={}",
        sim.live_job_rows(),
        sim.live_lane_bytes(),
        sim.archived_jobs(),
    );
    assert!(
        turnover >= 4.0,
        "smoke horizon must produce >=4x job turnover (got {turnover:.2}x)"
    );
    assert_eq!(
        sim.live_job_rows(),
        initial_jobs,
        "live hot-lane length must stay pinned at the initial job count"
    );
    assert_eq!(
        sim.archived_jobs(),
        sim.completed(),
        "every completion must retire into the archive"
    );
    println!("[PASS] live hot lanes pinned at {initial_jobs} rows through {turnover:.1}x turnover");
}
