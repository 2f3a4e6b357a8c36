//! Figure-by-figure experiment drivers.
//!
//! Each function regenerates the data behind one figure or table of the
//! paper's evaluation, scaled by the `fast` flag for smoke runs. The
//! binaries in `src/bin/` print these results in the paper's layout; the
//! integration tests assert their shape.

use linger::{JobFamily, Policy};
use linger_cluster::{paper_realization, policy_comparison, PolicyMetrics};
use linger_node::{fig5_paper_grid, SingleNodeReport};
use linger_sim_core::{domains, par_map_indexed, RngFactory, SimDuration, SimTime};
use linger_stats::Distribution;
use linger_workload::{
    analysis::{CoarseAggregates, FineGrainAnalysis},
    BurstFitTable, BurstKind, BurstParamTable, CoarseTraceConfig, DispatchTrace, LocalWorkload,
    WorkloadRealization,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

// ---------------------------------------------------------------- fig 2

/// CDF overlay for one utilization bucket (Fig 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Bucket {
    /// Bucket utilization (percent).
    pub level_pct: u32,
    /// `(duration s, empirical CDF, fitted CDF)` for run bursts.
    pub run_points: Vec<(f64, f64, f64)>,
    /// Same for idle bursts.
    pub idle_points: Vec<(f64, f64, f64)>,
    /// Kolmogorov–Smirnov distance, run bursts.
    pub ks_run: f64,
    /// Kolmogorov–Smirnov distance, idle bursts.
    pub ks_idle: f64,
}

/// Fig 2: empirical vs. method-of-moments-fitted burst CDFs at 10% and
/// 50% utilization.
pub fn fig02(seed: u64, fast: bool) -> Vec<Fig2Bucket> {
    let minutes = if fast { 5 } else { 40 };
    let factory = RngFactory::new(seed);
    // The two buckets are independent analyses; fan out, output in order.
    let buckets = [(0u64, 10u32), (1, 50)];
    par_map_indexed(buckets.len(), None, |k| {
        let (id, pct) = buckets[k];
        let trace = DispatchTrace::synthesize_fixed(
            &factory,
            id,
            pct as f64 / 100.0,
            SimDuration::from_secs(minutes * 60),
        );
        let mut an = FineGrainAnalysis::new(true);
        an.ingest(&trace);
        let bucket = (pct / 5) as usize;
        let (run_fit, idle_fit) = an.fitted(bucket);
        let run_fit = run_fit.expect("run fit");
        let idle_fit = idle_fit.expect("idle fit");
        let run_ecdf = an.ecdf(bucket, BurstKind::Run);
        let idle_ecdf = an.ecdf(bucket, BurstKind::Idle);
        // The paper plots 0–0.1 s.
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 0.002).collect();
        let run_points = xs.iter().map(|&x| (x, run_ecdf.eval(x), run_fit.cdf(x))).collect();
        let idle_points = xs.iter().map(|&x| (x, idle_ecdf.eval(x), idle_fit.cdf(x))).collect();
        Fig2Bucket {
            level_pct: pct,
            run_points,
            idle_points,
            ks_run: run_ecdf.ks_distance(|x| run_fit.cdf(x)),
            ks_idle: idle_ecdf.ks_distance(|x| idle_fit.cdf(x)),
        }
    })
}

// ---------------------------------------------------------------- fig 3

/// One bucket row of Fig 3: measured vs. generating-model moments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Bucket level (percent).
    pub level_pct: u32,
    /// Measured mean run-burst duration (s).
    pub run_mean: f64,
    /// Measured run-burst variance (s²).
    pub run_var: f64,
    /// Measured mean idle-burst duration (s).
    pub idle_mean: f64,
    /// Measured idle-burst variance (s²).
    pub idle_var: f64,
    /// Model (ground truth) run mean.
    pub model_run_mean: f64,
    /// Model idle mean.
    pub model_idle_mean: f64,
    /// Number of 2-second windows observed in this bucket.
    pub windows: u64,
}

/// Fig 3: re-derive the burst parameter table from synthetic dispatch
/// traces spanning every utilization level.
pub fn fig03(seed: u64, fast: bool) -> Vec<Fig3Row> {
    let factory = RngFactory::new(seed);
    let minutes: u64 = if fast { 3 } else { 20 };
    let mut an = FineGrainAnalysis::new(false);
    // One fixed-level trace per bucket (the paper's "several twenty-minute
    // intervals … at various level of utilization"). Each trace's stream
    // is keyed by its bucket id, so synthesis fans out; ingestion stays
    // serial in bucket order to keep the accumulators byte-identical.
    let traces = par_map_indexed(19, None, |j| {
        let i = j as u64 + 1;
        DispatchTrace::synthesize_fixed(
            &factory,
            i,
            i as f64 * 0.05,
            SimDuration::from_secs(minutes * 60),
        )
    });
    for trace in &traces {
        an.ingest(trace);
    }
    let measured = an.to_param_table();
    let model = BurstParamTable::paper_calibrated();
    (0..linger_workload::NUM_BUCKETS)
        .map(|i| {
            let m = measured.buckets()[i];
            let g = model.buckets()[i];
            Fig3Row {
                level_pct: (i * 5) as u32,
                run_mean: m.run_mean,
                run_var: m.run_var,
                idle_mean: m.idle_mean,
                idle_var: m.idle_var,
                model_run_mean: g.run_mean,
                model_idle_mean: g.idle_mean,
                windows: an.buckets()[i].windows,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 4

/// Fig 4 plus the Sec 3.2 headline aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Machines synthesized.
    pub machines: usize,
    /// Trace hours per machine.
    pub hours: u64,
    /// Fraction of time non-idle (paper: 0.46).
    pub non_idle_fraction: f64,
    /// Fraction of non-idle time below 10% CPU (paper: 0.76).
    pub non_idle_low_cpu_fraction: f64,
    /// `(free KB, fraction of time at least that much is free)` — overall.
    pub cdf_all: Vec<(f64, f64)>,
    /// Same during idle periods.
    pub cdf_idle: Vec<(f64, f64)>,
    /// Same during non-idle periods.
    pub cdf_non_idle: Vec<(f64, f64)>,
    /// Free memory exceeded 90% of the time (paper: ≥ 14 MB).
    pub p90_free_kb: f64,
    /// Free memory exceeded 95% of the time (paper: ≥ 10 MB).
    pub p95_free_kb: f64,
}

/// Fig 4: the available-memory distribution of the synthetic coarse
/// trace library.
pub fn fig04(seed: u64, fast: bool) -> Fig4Result {
    // Even the fast mode needs enough machine-hours for the episode-level
    // aggregates to converge near the paper's values.
    let machines = if fast { 10 } else { 32 };
    let hours = if fast { 4 } else { 12 };
    // The calibration targets are time-averaged aggregates; the diurnal
    // modulation is deliberately left off here because its asymmetric
    // episode scaling shifts the long-run active fraction (it is
    // exercised separately by the workload crate's tests).
    let cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(hours * 3600),
        ..Default::default()
    };
    let traces = cfg.synthesize_library(&RngFactory::new(seed), machines);
    let agg = CoarseAggregates::analyze(&traces);
    // "The y-axis shows the fraction of time that at least x KB of memory
    // are available": survival function points.
    let survival = |e: &linger_stats::Ecdf| -> Vec<(f64, f64)> {
        (0..=16)
            .map(|i| {
                let kb = i as f64 * 4096.0;
                (kb, 1.0 - e.eval(kb - 1.0))
            })
            .collect()
    };
    Fig4Result {
        machines,
        hours,
        non_idle_fraction: agg.non_idle_fraction,
        non_idle_low_cpu_fraction: agg.non_idle_low_cpu_fraction,
        cdf_all: survival(&agg.mem_all),
        cdf_idle: survival(&agg.mem_idle),
        cdf_non_idle: survival(&agg.mem_non_idle),
        p90_free_kb: agg.mem_available_at_least(0.90),
        p95_free_kb: agg.mem_available_at_least(0.95),
    }
}

// ---------------------------------------------------------------- fig 5

/// Fig 5: LDR and FCSR vs. local utilization for 100/300/500 µs context
/// switches.
pub fn fig05(seed: u64, fast: bool) -> Vec<SingleNodeReport> {
    let dur = SimDuration::from_secs(if fast { 60 } else { 600 });
    fig5_paper_grid(dur, seed)
}

// ---------------------------------------------------------------- fig 6

/// Self-check of the two-level generation pipeline (the Fig 6
/// architecture): fine-grain streams must track their coarse trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Windows compared.
    pub windows: usize,
    /// Mean absolute utilization error between the coarse sample and the
    /// fine-grain stream realized in its window.
    pub mean_abs_error: f64,
    /// Correlation between coarse and realized window utilization.
    pub correlation: f64,
}

/// Fig 6: generate a trace-driven fine-grain stream and compare realized
/// window utilizations to the coarse samples that commanded them.
pub fn fig06(seed: u64, fast: bool) -> Fig6Result {
    let factory = RngFactory::new(seed);
    let hours = if fast { 1 } else { 2 };
    let cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(hours * 3600),
        ..Default::default()
    };
    let trace = Arc::new(cfg.synthesize(&factory, 0));
    let mut wl = LocalWorkload::new(
        trace.clone(),
        0,
        BurstFitTable::paper_shared(),
        factory.stream_for(domains::FINE_BURSTS, 0),
    );
    let horizon = SimTime::ZERO + trace.duration();
    let window_ns = 2_000_000_000u64;
    let n_windows = (trace.duration().as_nanos() / window_ns) as usize;
    let mut busy = vec![0u64; n_windows];
    while wl.position() < horizon {
        let start = wl.position();
        let b = wl.next_burst();
        if b.kind == BurstKind::Run {
            // Attribute run time to the windows it overlaps.
            let mut s = start.as_nanos();
            let e = (start + b.duration).as_nanos();
            while s < e {
                let w = (s / window_ns) as usize;
                if w >= n_windows {
                    break;
                }
                let w_end = (w as u64 + 1) * window_ns;
                busy[w] += e.min(w_end) - s;
                s = e.min(w_end);
            }
        }
    }
    let coarse: Vec<f64> = (0..n_windows).map(|w| trace.sample(w).cpu).collect();
    let fine: Vec<f64> = busy.iter().map(|&b| b as f64 / window_ns as f64).collect();
    let mae = coarse.iter().zip(&fine).map(|(c, f)| (c - f).abs()).sum::<f64>() / n_windows as f64;
    Fig6Result {
        windows: n_windows,
        mean_abs_error: mae,
        correlation: correlation(&coarse, &fine),
    }
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

// ------------------------------------------------------------- fig 7/8

/// Fig 7 table (with Fig 8 breakdowns) for both workloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Cluster size used.
    pub nodes: usize,
    /// Metrics per policy, workload-1 (many jobs).
    pub workload1: Vec<PolicyMetrics>,
    /// Metrics per policy, workload-2 (few jobs).
    pub workload2: Vec<PolicyMetrics>,
}

/// Figs 7 and 8: the 64-node cluster policy comparison on both paper
/// workloads. Both workloads' four policies replay one owner-workload
/// realization, synthesized once here.
pub fn fig07(seed: u64, fast: bool) -> Fig7Result {
    let nodes = if fast { 16 } else { 64 };
    let (w1, w2) = if fast {
        (
            JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024),
            JobFamily::uniform(4, SimDuration::from_secs(900), 8 * 1024),
        )
    } else {
        (JobFamily::workload_1(), JobFamily::workload_2())
    };
    let real = paper_realization(nodes, seed);
    Fig7Result {
        nodes,
        workload1: policy_comparison(w1, &real, seed),
        workload2: policy_comparison(w2, &real, seed),
    }
}

/// Paper reference values for the Fig 7 table (for side-by-side
/// printing).
pub fn fig07_paper_reference() -> [[f64; 4]; 8] {
    // Rows: (w1 avg, w1 var%, w1 family, w1 tput, w2 avg, w2 var%,
    // w2 family, w2 tput); columns LL, LF, IE, PM.
    [
        [1044.0, 1026.0, 1531.0, 1531.0],
        [13.7, 20.5, 27.7, 22.5],
        [1847.0, 1844.0, 2616.0, 2521.0],
        [52.2, 55.5, 34.6, 34.6],
        [1859.0, 1861.0, 1860.0, 1862.0],
        [0.9, 1.3, 1.3, 1.6],
        [1896.0, 1925.0, 1925.0, 1956.0],
        [15.0, 14.7, 14.5, 14.5],
    ]
}

// ------------------------------------------------------------ figs 9-13

/// Fig 9 series.
pub fn fig09(seed: u64, fast: bool) -> Vec<linger_parallel::Fig9Point> {
    linger_parallel::fig9(seed, if fast { 40 } else { 300 })
}

/// Fig 10 series.
pub fn fig10(seed: u64, fast: bool) -> Vec<linger_parallel::Fig10Point> {
    let total = SimDuration::from_secs(if fast { 3 } else { 20 });
    linger_parallel::fig10(seed, total)
}

/// Fig 11 series.
pub fn fig11(seed: u64) -> Vec<linger_parallel::Fig11Point> {
    linger_parallel::fig11(seed)
}

/// Fig 12 grid.
pub fn fig12(seed: u64) -> Vec<linger_parallel::Fig12Point> {
    linger_parallel::fig12(seed)
}

/// Fig 13 series.
pub fn fig13(seed: u64) -> Vec<linger_parallel::Fig13Point> {
    linger_parallel::fig13(seed)
}

// ------------------------------------------------------- extensions

/// The hybrid-strategy extension (paper Sec 5.2 future work).
pub fn ext_hybrid(seed: u64) -> Vec<linger_parallel::HybridPoint> {
    let job = linger_parallel::MalleableJob::fig11();
    linger_parallel::hybrid_experiment(&job, seed, 5)
}

/// The end-to-end parallel-throughput extension (paper Sec 7 ongoing
/// work): offered-load sweep under rigid-idle vs lingering placement.
pub fn ext_parallel_throughput(
    seed: u64,
    fast: bool,
) -> Vec<linger_parallel::ThroughputComparison> {
    let mut base = linger_parallel::ParallelClusterConfig { seed, ..Default::default() };
    if fast {
        base.nodes = 16;
        base.width = 4;
        base.phases = 120;
        base.horizon = linger_sim_core::SimTime::from_secs(3600);
        base.trace.duration = SimDuration::from_secs(3600);
    }
    let loads: &[u64] = if fast { &[30, 90, 300] } else { &[30, 60, 90, 180, 300, 600] };
    linger_parallel::throughput_sweep(&base, loads)
}

/// Node counts the scaling extension sweeps. The top counts stream
/// their windows through the chunked pipeline (a monolithic table at
/// 1,048,576 nodes would need ~21 GiB); `run_all` only runs past
/// 65,536 in full mode.
pub const SCALING_NODE_COUNTS: [usize; 8] =
    [64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576];

/// The scaling sweep's owner trace: one hour of coarse trace, replayed
/// cyclically — enough diversity for a scaling study while keeping
/// window tables through 65,536 nodes under the default window budget.
fn scaling_trace() -> CoarseTraceConfig {
    CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    }
}

/// One deterministic cell of the scaling sweep. Every field is a pure
/// function of `(seed, fast)`, so CI can byte-diff the JSON across
/// machines and thread counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Cluster size.
    pub nodes: usize,
    /// Policy abbreviation (LL / LF / IE / PM).
    pub policy: String,
    /// Windows simulated (horizon / 2 s).
    pub windows: usize,
    /// Jobs completed inside the horizon.
    pub completed: usize,
    /// Foreign CPU delivered over the horizon, seconds.
    pub foreign_cpu_secs: f64,
    /// Cluster-wide foreground delay ratio.
    pub foreground_delay: f64,
}

/// Wall-clock of one scaling cell — kept out of [`ScalingPoint`] so the
/// deterministic JSON stays machine-independent.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingTiming {
    /// Cluster size.
    pub nodes: usize,
    /// Policy abbreviation.
    pub policy: String,
    /// Seconds building the simulator (per-cell share of the trace
    /// synthesis and table build, which run once per node count, plus
    /// construction).
    pub setup_secs: f64,
    /// Seconds inside the window loop — the **median** of the
    /// individually-timed replicates, robust against a scheduler blip
    /// landing in one rep. When the cell streams its windows, chunk
    /// construction is subtracted out (see [`Self::stream_build_secs`])
    /// so this stays a pure sweep cost comparable across table and
    /// streamed cells.
    pub run_secs: f64,
    /// Mean seconds per replicate spent building window chunks inside
    /// the run (the streamed pipeline synthesizes windows lazily ahead
    /// of the sweep cursor). Zero for cells served by a monolithic
    /// table, whose window synthesis lands in `setup_secs` instead.
    pub stream_build_secs: f64,
    /// Identical runs timed independently (always ≥ 3; more for small
    /// cells, whose single run sits near clock granularity). Replicates
    /// share traces and produce byte-identical results; only the first
    /// run's outcomes are reported.
    pub timing_reps: u32,
    /// `nodes × windows` of one run of the cell.
    pub node_windows: f64,
    /// Window-loop nanoseconds per node-window.
    pub ns_per_node_window: f64,
    /// Resident bytes of the cell's shared workload realization
    /// ([`WorkloadRealization::approx_bytes`]), read once the cell's
    /// simulators are built: the offsets plus the window-table rows the
    /// horizon reads (its windows plus one, built once per node count
    /// and capped at the replay period), or just the offsets when the
    /// cell streams its windows (each run's chunk arena is not counted).
    pub realization_bytes: usize,
    /// `realization_bytes` per node-window of the table rows built (of
    /// the replay period when the cell streams) — the memory counterpart
    /// of `ns_per_node_window`, 10.125 B plus the offsets' share for a
    /// table.
    pub bytes_per_node_window: f64,
    /// Live hot-lane rows in the job slabs after the run — with slot
    /// recycling this stays at the initial job count (`O(active jobs)`)
    /// no matter how many respawns the horizon produced.
    pub live_job_rows: usize,
    /// Completed jobs retired to the cold archive during the run.
    pub archived_jobs: usize,
}

/// Window-loop nanoseconds per node-window at one node count, aggregated
/// over all policies — the scorecard's flat-scaling criterion.
pub fn scaling_ns_per_node_window(timings: &[ScalingTiming], nodes: usize) -> f64 {
    let mut secs = 0.0;
    let mut node_windows = 0.0;
    for t in timings.iter().filter(|t| t.nodes == nodes) {
        secs += t.run_secs;
        node_windows += t.node_windows;
    }
    if node_windows == 0.0 {
        0.0
    } else {
        secs * 1e9 / node_windows
    }
}

/// The scaling extension: all four policies at the node counts in
/// `node_counts`, in constant-load throughput mode, with wall-clock per
/// node-window. The paper stops at 64 nodes; this sweep shows the
/// indexed-node-state simulator holds its per-node-window cost out to a
/// million workstations. Counts whose monolithic window table would
/// exceed the 4 GiB window budget stream windows
/// through the chunked pipeline instead; outcomes are byte-identical
/// either way, and the chunk-build seconds are reported separately in
/// [`ScalingTiming::stream_build_secs`].
///
/// Cells run serially so the timings are uncontended; inside a cell the
/// trace synthesis fans out deterministically. Traces, offsets, and the
/// window table depend only on `(trace config, seed, nodes)`, exactly as
/// [`linger_cluster::ClusterSim::new`] derives them, so each node count
/// synthesizes one realization and the four policies (and every timing
/// replicate) reuse it.
pub fn ext_scaling_at(
    seed: u64,
    node_counts: &[usize],
    fast: bool,
) -> (Vec<ScalingPoint>, Vec<ScalingTiming>) {
    let horizon = SimTime::from_secs(if fast { 600 } else { 3600 });
    let trace_cfg = scaling_trace();
    let mut points = Vec::new();
    let mut timings = Vec::new();
    for &nodes in node_counts {
        let expected_windows = (horizon.as_nanos() / linger_cluster::WINDOW.as_nanos()) as usize;
        let t0 = std::time::Instant::now();
        // One realization (offsets + window table, or a stream spec at
        // the top counts) per node count, shared across all four
        // policies and every timing replicate below. Its table rows —
        // the horizon's windows plus one, as each simulator asks — are
        // built here, so the shared setup carries them rather than the
        // first policy's construction.
        let real = WorkloadRealization::synthesize(&trace_cfg, seed, nodes);
        real.table(expected_windows + 1);
        let shared_setup = t0.elapsed().as_secs_f64() / Policy::ALL.len() as f64;
        for policy in Policy::ALL {
            let t1 = std::time::Instant::now();
            let expected_windows = expected_windows as f64;
            // Enough identical runs to keep each timed region well above
            // clock granularity (a 64-node cell alone finishes in ~2 ms),
            // and never fewer than three so the median below has
            // something to reject an outlier against — except at the
            // largest counts, where a single run is seconds long and
            // holding several simulators at once would multiply the
            // peak footprint the streamed pipeline exists to bound.
            let min_reps = if nodes >= 262_144 { 1 } else { 3 };
            let reps = ((256.0 * 1024.0 / (nodes as f64 * expected_windows)).ceil() as u32)
                .clamp(1, 16)
                .max(min_reps);
            let mut sims: Vec<linger_cluster::ClusterSim> = (0..reps)
                .map(|_| {
                    let family = JobFamily::uniform(
                        (2 * nodes) as u32,
                        SimDuration::from_secs(300),
                        8 * 1024,
                    );
                    let mut cfg = linger_cluster::ClusterConfig::paper(policy, family);
                    cfg.nodes = nodes;
                    cfg.seed = seed;
                    cfg.trace = trace_cfg.clone();
                    cfg.mode = linger_cluster::RunMode::Throughput { horizon };
                    linger_cluster::ClusterSim::with_realization(cfg, &real)
                })
                .collect();
            let setup_secs = shared_setup + t1.elapsed().as_secs_f64();
            // Time each replicate independently and keep the median, so
            // one preempted rep cannot drag the reported cost. Streamed
            // cells build window chunks lazily *inside* run(); that
            // build time is workload synthesis, not sweep cost, so it
            // is measured via the simulator's own accounting and
            // subtracted from the rep's wall-clock.
            let mut build_total = 0.0;
            let mut rep_secs: Vec<f64> = sims
                .iter_mut()
                .map(|sim| {
                    let b0 = sim.stream_build_secs();
                    let t2 = std::time::Instant::now();
                    sim.run();
                    let built = sim.stream_build_secs() - b0;
                    build_total += built;
                    (t2.elapsed().as_secs_f64() - built).max(0.0)
                })
                .collect();
            rep_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let mid = rep_secs.len() / 2;
            let run_secs = if rep_secs.len() % 2 == 1 {
                rep_secs[mid]
            } else {
                (rep_secs[mid - 1] + rep_secs[mid]) / 2.0
            };
            // Read after the simulators exist: the table holds the rows
            // they can read (a streamed realization holds none and is
            // reported per node-window of its period).
            let realization_bytes = real.approx_bytes();
            let rows = real.table(1).map_or(trace_cfg.sample_count(), |t| t.rows());
            let sim = &sims[0];
            let windows = (sim.now().as_nanos() / linger_cluster::WINDOW.as_nanos()) as usize;
            let node_windows = nodes as f64 * windows as f64;
            points.push(ScalingPoint {
                nodes,
                policy: policy.abbrev().to_string(),
                windows,
                completed: sim.completed(),
                foreign_cpu_secs: sim.foreign_cpu_delivered().as_secs_f64(),
                foreground_delay: sim.foreground_delay_ratio(),
            });
            timings.push(ScalingTiming {
                nodes,
                policy: policy.abbrev().to_string(),
                setup_secs,
                run_secs,
                stream_build_secs: build_total / reps as f64,
                timing_reps: reps,
                node_windows,
                ns_per_node_window: run_secs * 1e9 / node_windows.max(1.0),
                realization_bytes,
                bytes_per_node_window: realization_bytes as f64 / (rows * nodes).max(1) as f64,
                live_job_rows: sim.live_job_rows(),
                archived_jobs: sim.archived_jobs(),
            });
        }
    }
    (points, timings)
}

/// [`ext_scaling_at`] over the full [`SCALING_NODE_COUNTS`] sweep.
pub fn ext_scaling(seed: u64, fast: bool) -> (Vec<ScalingPoint>, Vec<ScalingTiming>) {
    ext_scaling_at(seed, &SCALING_NODE_COUNTS, fast)
}

// -------------------------------------------------- fault injection

/// The failure grid of the fault sweep: crash rate per node-hour paired
/// with an in-transit migration failure probability, from fault-free
/// (which must be byte-identical to a run without fault injection) to
/// aggressively unreliable.
pub const FAULT_RATES: [(f64, f64); 5] =
    [(0.0, 0.0), (0.2, 0.02), (1.0, 0.05), (4.0, 0.10), (12.0, 0.25)];

/// Mean reboot downtime used by the fault sweep, seconds.
pub const FAULT_MEAN_REBOOT_SECS: f64 = 300.0;

/// One deterministic cell of the fault-injection sweep. Every field is a
/// pure function of `(seed, fast)` — fault schedules are keyed by
/// `(fault config, seed, node/job id)`, never by thread count — so the
/// JSON byte-diffs across machines and `--jobs` settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPoint {
    /// Mean crashes per node per hour of uptime.
    pub crash_rate_per_hour: f64,
    /// Mean reboot downtime, seconds.
    pub mean_reboot_secs: f64,
    /// Per-transfer in-transit failure probability.
    pub migration_failure_prob: f64,
    /// Policy abbreviation (LL / LF / IE / PM).
    pub policy: String,
    /// Windows simulated (horizon / 2 s).
    pub windows: usize,
    /// Jobs completed inside the horizon.
    pub completed: usize,
    /// Foreign CPU delivered over the horizon, seconds.
    pub foreign_cpu_secs: f64,
    /// Cluster-wide foreground delay ratio.
    pub foreground_delay: f64,
    /// Node crash events applied.
    pub crashes: usize,
    /// Crashes that killed a hosted (or inbound) job.
    pub crash_evictions: usize,
    /// Transfers lost in transit.
    pub migration_failures: usize,
    /// Retry transfers started after a failure.
    pub migration_retries: usize,
    /// Migrations abandoned after exhausting the retry budget.
    pub migrations_abandoned: usize,
}

/// The fault-injection extension: all four policies across
/// [`FAULT_RATES`] in constant-load throughput mode. Shows how much of
/// the cycle-stealing throughput each policy keeps as the NOW degrades
/// from the paper's perfectly reliable cluster to one where nodes crash
/// several times an hour and a quarter of the transfers are lost.
///
/// Cells fan out via [`par_map_indexed`] and share one workload
/// realization; results are byte-identical at any thread count.
pub fn ext_faults(seed: u64, fast: bool) -> Vec<FaultPoint> {
    let nodes = if fast { 16 } else { 64 };
    let horizon = SimTime::from_secs(if fast { 600 } else { 3600 });
    let trace_cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    // One realization (offsets + window table) shared by every
    // cell of the grid.
    let real = WorkloadRealization::synthesize(&trace_cfg, seed, nodes);
    let n_cells = FAULT_RATES.len() * Policy::ALL.len();
    par_map_indexed(n_cells, None, |idx| {
        let (crash_rate, mig_prob) = FAULT_RATES[idx / Policy::ALL.len()];
        let policy = Policy::ALL[idx % Policy::ALL.len()];
        let family = JobFamily::uniform((2 * nodes) as u32, SimDuration::from_secs(300), 8 * 1024);
        let mut cfg = linger_cluster::ClusterConfig::paper(policy, family);
        cfg.nodes = nodes;
        cfg.seed = seed;
        cfg.trace = trace_cfg.clone();
        cfg.mode = linger_cluster::RunMode::Throughput { horizon };
        cfg.faults = linger_cluster::FaultConfig {
            crash_rate_per_hour: crash_rate,
            mean_reboot_secs: FAULT_MEAN_REBOOT_SECS,
            migration_failure_prob: mig_prob,
        };
        let mut sim = linger_cluster::ClusterSim::with_realization(cfg, &real);
        sim.run();
        let windows = (sim.now().as_nanos() / linger_cluster::WINDOW.as_nanos()) as usize;
        let fs = sim.fault_stats();
        FaultPoint {
            crash_rate_per_hour: crash_rate,
            mean_reboot_secs: FAULT_MEAN_REBOOT_SECS,
            migration_failure_prob: mig_prob,
            policy: policy.abbrev().to_string(),
            windows,
            completed: sim.completed(),
            foreign_cpu_secs: sim.foreign_cpu_delivered().as_secs_f64(),
            foreground_delay: sim.foreground_delay_ratio(),
            crashes: fs.crashes,
            crash_evictions: fs.crash_evictions,
            migration_failures: fs.migration_failures,
            migration_retries: fs.migration_retries,
            migrations_abandoned: fs.migrations_abandoned,
        }
    })
}

// ----------------------------------------------- open-arrivals service

/// Offered loads of the service sweep (fraction of cluster capacity):
/// two undersaturated points, one mildly oversaturated, one deep in
/// overload where an unbounded queue would grow without limit.
pub const SERVICE_LOADS: [f64; 4] = [0.2, 0.6, 1.5, 4.0];

/// Mean foreign-job CPU demand in the service sweep, seconds.
pub const SERVICE_MEAN_CPU_SECS: f64 = 120.0;

/// One deterministic cell of the open-arrivals service sweep: an
/// admission policy held at an offered load for the full horizon. Every
/// field is a pure function of `(seed, fast)`; arrivals are drawn from
/// per-window keyed streams, so the JSON byte-diffs across machines and
/// `--jobs` settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServicePoint {
    /// Offered load as a fraction of cluster CPU capacity.
    pub offered_load: f64,
    /// Admission policy name (open / shed / block / deadline).
    pub admission: String,
    /// Windows simulated (horizon / 2 s).
    pub windows: usize,
    /// Arrivals the process offered.
    pub generated: u64,
    /// Arrivals admitted into the queue.
    pub admitted: u64,
    /// Arrivals dropped at a full queue.
    pub shed: u64,
    /// Arrival deferral events charged to backpressure.
    pub deferred: u64,
    /// Arrivals still blocked upstream at the horizon.
    pub deficit: u64,
    /// Largest upstream deficit ever reached.
    pub peak_deficit: u64,
    /// Queued jobs dropped for exceeding the deadline.
    pub deadline_dropped: u64,
    /// Windows in which admission hit the capacity limit.
    pub saturated_windows: u64,
    /// Largest admission-queue depth at a window boundary.
    pub peak_queue_depth: usize,
    /// Largest live job-slab row count (the flat-memory witness).
    pub peak_live_rows: usize,
    /// Effective queue capacity in entries (`u64::MAX` = unbounded).
    pub queue_capacity: usize,
    /// Jobs completed inside the horizon.
    pub completed: usize,
    /// Steady-state throughput, completions per 2 s window (batch
    /// means).
    pub throughput_per_window: f64,
    /// Half-width of the throughput confidence interval (0 until two
    /// batches exist).
    pub throughput_ci: f64,
    /// Steady-state completion latency, seconds (batch means).
    pub latency_secs: f64,
    /// Half-width of the latency confidence interval.
    pub latency_ci: f64,
    /// Cluster-wide foreground delay ratio.
    pub foreground_delay: f64,
}

/// The open-arrivals service extension: every admission policy across
/// [`SERVICE_LOADS`], Poisson arrivals onto a LingerLonger cluster.
/// Undersaturated cells must serve everything; oversaturated cells must
/// degrade gracefully — bounded queue depth, exact loss counters, flat
/// hot-state memory — instead of growing without limit.
///
/// Cells fan out via [`par_map_indexed`] and share one workload
/// realization; results are byte-identical at any thread count.
pub fn ext_service(seed: u64, fast: bool, ci_level: f64) -> Vec<ServicePoint> {
    use linger_cluster::{AdmissionPolicy, ServiceConfig};
    use linger_workload::{ArrivalConfig, ArrivalProcess};

    let nodes = if fast { 16 } else { 64 };
    let horizon = SimTime::from_secs(if fast { 2 * 3600 } else { 48 * 3600 });
    let trace_cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    let real = WorkloadRealization::synthesize(&trace_cfg, seed, nodes);
    // CI half-widths collapse to 0 until two batches exist so the JSON
    // stays plain numbers (the vendored serializer writes non-finite
    // floats as null).
    let ci = |bm: &linger_stats::BatchMeans| {
        let hw = bm.ci_half_width(ci_level).expect("--ci is validated at parse time");
        if hw.is_finite() {
            hw
        } else {
            0.0
        }
    };
    let n_cells = SERVICE_LOADS.len() * AdmissionPolicy::ALL.len();
    par_map_indexed(n_cells, None, |idx| {
        let load = SERVICE_LOADS[idx / AdmissionPolicy::ALL.len()];
        let admission = AdmissionPolicy::ALL[idx % AdmissionPolicy::ALL.len()];
        let mut cfg =
            linger_cluster::ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty());
        cfg.nodes = nodes;
        cfg.seed = seed;
        cfg.trace = trace_cfg.clone();
        cfg.mode = linger_cluster::RunMode::Open { horizon };
        // `nodes` servers of 120 s jobs: load 1.0 = nodes * 30 per hour.
        cfg.service = ServiceConfig {
            arrivals: ArrivalConfig {
                process: ArrivalProcess::Poisson {
                    rate_per_hour: load * nodes as f64 * 3600.0 / SERVICE_MEAN_CPU_SECS,
                },
                mean_cpu_secs: SERVICE_MEAN_CPU_SECS,
                mem_kb: 8 * 1024,
                size_dist: linger_workload::SizeDistribution::Exponential,
            },
            admission,
            queue_capacity: 2 * nodes,
            deadline_secs: 300.0,
        };
        let mut sim = linger_cluster::ClusterSim::with_realization(cfg, &real);
        sim.run();
        let windows = (sim.now().as_nanos() / linger_cluster::WINDOW.as_nanos()) as usize;
        let s = sim.service_stats();
        assert!(s.accounting_holds(), "loss accounting must balance in every cell");
        ServicePoint {
            offered_load: load,
            admission: admission.name().to_string(),
            windows,
            generated: s.generated,
            admitted: s.admitted,
            shed: s.shed,
            deferred: s.deferred,
            deficit: s.deficit,
            peak_deficit: s.peak_deficit,
            deadline_dropped: s.deadline_dropped,
            saturated_windows: s.saturated_windows,
            peak_queue_depth: s.peak_queue_depth,
            peak_live_rows: s.peak_live_rows,
            queue_capacity: s.queue_capacity,
            completed: sim.completed(),
            throughput_per_window: s.throughput.mean(),
            throughput_ci: ci(&s.throughput),
            latency_secs: s.latency.mean(),
            latency_ci: ci(&s.latency),
            foreground_delay: sim.foreground_delay_ratio(),
        }
    })
}

// ----------------------------------------------------- work stealing

/// Node counts of the stealing sweep; fast mode keeps the endpoints
/// (the crossover lives at the extremes, the middle count only traces
/// the transition).
pub const STEALING_NODE_COUNTS: [usize; 3] = [64, 1024, 16_384];

/// Scheduler variants compared by the stealing sweep.
pub const STEALING_SCHEDULERS: [&str; 3] = ["central", "steal_low", "steal_high"];

/// Fault levels swept: (crashes per node-hour, migration failure
/// probability). Quiet, moderate, heavy.
pub const STEALING_FAULTS: [(f64, f64); 3] = [(0.0, 0.0), (1.0, 0.05), (6.0, 0.2)];

/// Per-placement round trip of the serialized central dispatcher,
/// seconds. Negligible against a 64-node arrival rate; past ~6,000
/// nodes the dispatcher's service rate (`WINDOW / rtt`) falls below the
/// arrival rate and the coordinator itself becomes the bottleneck.
pub const STEALING_CENTRAL_RTT_SECS: f64 = 0.02;

/// LAN-class steal round trip, seconds.
pub const STEALING_RTT_LOW_SECS: f64 = 0.1;

/// Punitive (WAN-class) steal round trip, seconds: every successful
/// steal pays `attempt x rtt` in simulated time before the job lands.
pub const STEALING_RTT_HIGH_SECS: f64 = 8.0;

/// Victim probes a thief may issue per window.
pub const STEALING_PROBE_ATTEMPTS: u32 = 3;

/// Offered load of every stealing cell (fraction of cluster capacity).
pub const STEALING_LOAD: f64 = 0.6;

/// One deterministic cell of the work-stealing sweep: a scheduler
/// discipline at a node count, size distribution, and fault level, held
/// at [`STEALING_LOAD`] for the full horizon. Every field is a pure
/// function of `(seed, fast)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StealingPoint {
    /// Scheduler variant (central / steal_low / steal_high).
    pub scheduler: String,
    /// Cluster size.
    pub nodes: usize,
    /// Job-size distribution ("exp" or "pareto").
    pub size_dist: String,
    /// Crash rate, per node-hour.
    pub crash_rate_per_hour: f64,
    /// Probability an in-flight transfer is lost.
    pub migration_failure_prob: f64,
    /// Offered load as a fraction of cluster CPU capacity.
    pub offered_load: f64,
    /// Arrivals the process offered.
    pub generated: u64,
    /// Arrivals admitted (queue or home deque).
    pub admitted: u64,
    /// Arrivals dropped at a full queue.
    pub shed: u64,
    /// Jobs completed inside the horizon.
    pub completed: usize,
    /// Steady-state completion latency, seconds (batch means) — the
    /// mean-response metric the crossover table compares.
    pub mean_latency_secs: f64,
    /// Half-width of the latency confidence interval.
    pub latency_ci: f64,
    /// Steady-state throughput, completions per 2 s window.
    pub throughput_per_window: f64,
    /// Largest queued-work depth at a window boundary (central queue or
    /// summed deques).
    pub peak_queue_depth: usize,
    /// Jobs a deque owner popped for itself.
    pub local_pops: u64,
    /// Victim probes issued.
    pub probes: u64,
    /// Probes that found stealable work.
    pub hits: u64,
    /// Probes that found none.
    pub misses: u64,
    /// Windows in which a thief exhausted its probe budget.
    pub abandons: u64,
    /// Jobs that changed nodes via a steal.
    pub stolen_jobs: u64,
    /// Placements serialized through the central dispatcher.
    pub central_dispatches: u64,
    /// Node crashes injected.
    pub crashes: usize,
    /// In-flight transfers lost to the fault model.
    pub migration_failures: usize,
}

/// The work-stealing extension: central dispatch vs randomized stealing
/// across [`STEALING_NODE_COUNTS`], exponential vs bounded-Pareto job
/// sizes, and [`STEALING_FAULTS`], all at [`STEALING_LOAD`]. The sweep
/// makes steal latency a first-class cost: `steal_low` pays a LAN round
/// trip per probe, `steal_high` a punitive one, and `central` pays a
/// per-placement serialization through one coordinator.
///
/// Cells fan out via [`par_map_indexed`] and share one workload
/// realization per node count; results are byte-identical at any thread
/// count.
pub fn ext_stealing(seed: u64, fast: bool, ci_level: f64) -> Vec<StealingPoint> {
    let node_counts: Vec<usize> = if fast {
        vec![STEALING_NODE_COUNTS[0], STEALING_NODE_COUNTS[2]]
    } else {
        STEALING_NODE_COUNTS.to_vec()
    };
    let horizon_secs = if fast { 2 * 3600 } else { 12 * 3600 };
    ext_stealing_at(seed, &node_counts, horizon_secs, ci_level)
}

/// [`ext_stealing`] at explicit node counts and horizon — the tests run
/// a small grid through the exact cell code the figure uses.
pub fn ext_stealing_at(
    seed: u64,
    node_counts: &[usize],
    horizon_secs: u64,
    ci_level: f64,
) -> Vec<StealingPoint> {
    let horizon = SimTime::from_secs(horizon_secs);
    let trace_cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    // One realization per node count, synthesized serially before the
    // cells fan out and shared by every cell at that count.
    let reals: Vec<WorkloadRealization> = node_counts
        .iter()
        .map(|&nodes| WorkloadRealization::synthesize(&trace_cfg, seed, nodes))
        .collect();
    let ci = |bm: &linger_stats::BatchMeans| {
        let hw = bm.ci_half_width(ci_level).expect("--ci is validated at parse time");
        if hw.is_finite() {
            hw
        } else {
            0.0
        }
    };
    let dists = ["exp", "pareto"];
    let n_cells =
        node_counts.len() * dists.len() * STEALING_FAULTS.len() * STEALING_SCHEDULERS.len();
    par_map_indexed(n_cells, None, |idx| {
        let scheduler = STEALING_SCHEDULERS[idx % STEALING_SCHEDULERS.len()];
        let rest = idx / STEALING_SCHEDULERS.len();
        let (crash_rate, fail_prob) = STEALING_FAULTS[rest % STEALING_FAULTS.len()];
        let rest = rest / STEALING_FAULTS.len();
        let dist = dists[rest % dists.len()];
        let at = rest / dists.len();
        let nodes = node_counts[at];

        let cfg = stealing_cell_cfg(seed, nodes, dist, (crash_rate, fail_prob), scheduler, horizon);
        let mut sim = linger_cluster::ClusterSim::with_realization(cfg, &reals[at]);
        sim.run();
        let s = sim.service_stats();
        assert!(s.accounting_holds(), "loss accounting must balance in every cell");
        let st = sim.steal_stats();
        assert_eq!(st.probes, st.hits + st.misses, "every probe hits or misses");
        let fs = sim.fault_stats();
        StealingPoint {
            scheduler: scheduler.to_string(),
            nodes,
            size_dist: dist.to_string(),
            crash_rate_per_hour: crash_rate,
            migration_failure_prob: fail_prob,
            offered_load: STEALING_LOAD,
            generated: s.generated,
            admitted: s.admitted,
            shed: s.shed,
            completed: sim.completed(),
            mean_latency_secs: s.latency.mean(),
            latency_ci: ci(&s.latency),
            throughput_per_window: s.throughput.mean(),
            peak_queue_depth: s.peak_queue_depth,
            local_pops: st.local_pops,
            probes: st.probes,
            hits: st.hits,
            misses: st.misses,
            abandons: st.abandons,
            stolen_jobs: st.stolen_jobs,
            central_dispatches: st.central_dispatches,
            crashes: fs.crashes,
            migration_failures: fs.migration_failures,
        }
    })
}

/// The `ClusterConfig` for one `ext_stealing` grid cell.
fn stealing_cell_cfg(
    seed: u64,
    nodes: usize,
    dist: &str,
    (crash_rate, fail_prob): (f64, f64),
    scheduler: &str,
    horizon: SimTime,
) -> linger_cluster::ClusterConfig {
    use linger_cluster::{AdmissionPolicy, ServiceConfig, StealingConfig};
    use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

    let mut cfg = linger_cluster::ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty());
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.trace = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    cfg.mode = linger_cluster::RunMode::Open { horizon };
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_hour: STEALING_LOAD * nodes as f64 * 3600.0 / SERVICE_MEAN_CPU_SECS,
            },
            mean_cpu_secs: SERVICE_MEAN_CPU_SECS,
            mem_kb: 8 * 1024,
            size_dist: match dist {
                "pareto" => SizeDistribution::BoundedPareto { alpha: 1.5, max_ratio: 100.0 },
                _ => SizeDistribution::Exponential,
            },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * nodes,
        deadline_secs: 300.0,
    };
    cfg.faults = linger_cluster::FaultConfig {
        crash_rate_per_hour: crash_rate,
        mean_reboot_secs: FAULT_MEAN_REBOOT_SECS,
        migration_failure_prob: fail_prob,
    };
    cfg.stealing = match scheduler {
        "steal_low" => StealingConfig::randomized(STEALING_PROBE_ATTEMPTS, STEALING_RTT_LOW_SECS),
        "steal_high" => StealingConfig::randomized(STEALING_PROBE_ATTEMPTS, STEALING_RTT_HIGH_SECS),
        _ => {
            let mut s = StealingConfig::disabled();
            s.central_dispatch_rtt_secs = STEALING_CENTRAL_RTT_SECS;
            s
        }
    };
    cfg
}

// -------------------------------------------------------- ablations

/// One row of a scalar-parameter ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// The swept parameter's value (units depend on the ablation).
    pub value: f64,
    /// LL average completion time, s.
    pub ll_avg_secs: f64,
    /// LL throughput, cpu-s/s.
    pub ll_throughput: f64,
    /// LL foreground delay ratio.
    pub ll_delay: f64,
    /// IE average completion time, s (contrast).
    pub ie_avg_secs: f64,
}

fn cluster_point(
    policy: Policy,
    nodes: usize,
    seed: u64,
    mutate: &dyn Fn(&mut linger_cluster::ClusterConfig),
) -> PolicyMetrics {
    let family = JobFamily::uniform((2 * nodes) as u32, SimDuration::from_secs(300), 8 * 1024);
    let mut cfg = linger_cluster::ClusterConfig::paper(policy, family);
    cfg.nodes = nodes;
    cfg.seed = seed;
    mutate(&mut cfg);
    // The family and throughput runs replay one realization.
    let real = WorkloadRealization::synthesize(&cfg.trace, cfg.seed, cfg.nodes);
    let mut fam = linger_cluster::ClusterSim::with_realization(cfg.clone(), &real);
    fam.run();
    let mut completion = linger_stats::Online::new();
    for j in fam.jobs() {
        if let Some(c) = j.completion_time() {
            completion.add(c.as_secs_f64());
        }
    }
    let mut tp = linger_cluster::ClusterSim::with_realization(cfg.with_throughput_mode(), &real);
    tp.run();
    PolicyMetrics {
        policy,
        avg_completion_secs: completion.mean(),
        variation: completion.cv(),
        family_time_secs: 0.0,
        throughput: tp.foreign_cpu_delivered().as_secs_f64() / tp.now().as_secs_f64().max(1.0),
        foreground_delay: fam.foreground_delay_ratio(),
        avg_breakdown: linger_cluster::BreakdownSecs::default(),
        avg_migrations: 0.0,
        finished: true,
    }
}

/// Ablation: effective context-switch cost (the Fig 5 knob pushed through
/// the whole cluster pipeline). Values in microseconds.
pub fn ablation_context_switch(seed: u64, nodes: usize) -> Vec<AblationRow> {
    [50u64, 100, 300, 500, 1000]
        .into_iter()
        .map(|us| {
            let mutate = move |cfg: &mut linger_cluster::ClusterConfig| {
                cfg.params.context_switch = SimDuration::from_micros(us);
            };
            let ll = cluster_point(Policy::LingerLonger, nodes, seed, &mutate);
            let ie = cluster_point(Policy::ImmediateEviction, nodes, seed, &mutate);
            AblationRow {
                value: us as f64,
                ll_avg_secs: ll.avg_completion_secs,
                ll_throughput: ll.throughput,
                ll_delay: ll.foreground_delay,
                ie_avg_secs: ie.avg_completion_secs,
            }
        })
        .collect()
}

/// Ablation: migration bandwidth (Mbps). The paper throttles to 3 Mbps;
/// faster networks shorten linger durations and cheapen IE.
pub fn ablation_migration_bandwidth(seed: u64, nodes: usize) -> Vec<AblationRow> {
    [1.0f64, 3.0, 10.0, 100.0]
        .into_iter()
        .map(|mbps| {
            let mutate = move |cfg: &mut linger_cluster::ClusterConfig| {
                cfg.params.migration.bandwidth_bps = mbps * 1e6;
            };
            let ll = cluster_point(Policy::LingerLonger, nodes, seed, &mutate);
            let ie = cluster_point(Policy::ImmediateEviction, nodes, seed, &mutate);
            AblationRow {
                value: mbps,
                ll_avg_secs: ll.avg_completion_secs,
                ll_throughput: ll.throughput,
                ll_delay: ll.foreground_delay,
                ie_avg_secs: ie.avg_completion_secs,
            }
        })
        .collect()
}

/// Ablation: the Pause-and-Migrate grace period (seconds). Shows why the
/// paper's near-identical IE/PM rows pin it low.
pub fn ablation_pause_timeout(seed: u64, nodes: usize) -> Vec<AblationRow> {
    [2u64, 10, 30, 60, 120]
        .into_iter()
        .map(|secs| {
            let mutate = move |cfg: &mut linger_cluster::ClusterConfig| {
                cfg.params.pause_timeout = SimDuration::from_secs(secs);
            };
            let pm = cluster_point(Policy::PauseAndMigrate, nodes, seed, &mutate);
            let ie = cluster_point(Policy::ImmediateEviction, nodes, seed, &mutate);
            AblationRow {
                value: secs as f64,
                ll_avg_secs: pm.avg_completion_secs, // PM under sweep
                ll_throughput: pm.throughput,
                ll_delay: pm.foreground_delay,
                ie_avg_secs: ie.avg_completion_secs,
            }
        })
        .collect()
}

/// One row of the memory-pressure ablation: foreign working set versus
/// page-level execution efficiency.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemoryPressureRow {
    /// Foreign working-set size, MB.
    pub foreign_mb: u32,
    /// Frames left for the foreign pool after local residency, MB.
    pub available_mb: u32,
    /// Fraction of the working set resident.
    pub residency: f64,
    /// CPU efficiency under the fault costs (work / (work + stalls)).
    pub efficiency: f64,
}

/// Ablation: sweep the foreign job's working set against a fixed local
/// footprint and measure page-level efficiency — the ground truth behind
/// the cluster simulator's residency-proportional slowdown and the
/// Sec 3.2 claim that ~10–14 MB free suffices for "one compute-bound
/// foreign job of moderate size".
pub fn ablation_memory_pressure(seed: u64) -> Vec<MemoryPressureRow> {
    use linger_workload::{PagingConfig, PagingSim};
    let frames_total = 16_384usize; // 64 MB
    let local_pages = 11_500usize; // ~45 MB local+OS: ~19 MB free
    [2u32, 4, 8, 16, 19, 24, 32]
        .into_iter()
        .map(|foreign_mb| {
            let foreign_pages = (foreign_mb as usize) * 256;
            let mut sim = PagingSim::new(PagingConfig {
                frames: frames_total,
                local_pages,
                foreign_pages,
                seed,
                ..Default::default()
            });
            for vp in 0..local_pages {
                sim.local_ref(vp);
            }
            let efficiency = sim.foreign_efficiency(60_000);
            let (_, resident, _) = sim.residency();
            let available = frames_total - local_pages;
            MemoryPressureRow {
                foreign_mb,
                available_mb: (available / 256) as u32,
                residency: resident as f64 / foreign_pages as f64,
                efficiency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 7;

    /// The realization estimate must not silently move a sweep point
    /// between representations: at the default 4 GiB budget every count
    /// through 65,536 builds a window table and the top two stream.
    #[test]
    fn scaling_sweep_representation_is_pinned() {
        use linger_workload::stream::streamed_chunk_windows;
        let period = scaling_trace().sample_count();
        assert_eq!(period, 1800);
        for nodes in SCALING_NODE_COUNTS {
            let streams =
                streamed_chunk_windows(nodes, period, linger_workload::DEFAULT_WINDOW_BUDGET_BYTES)
                    .is_some();
            assert_eq!(streams, nodes > 65_536, "{nodes} nodes");
        }
    }

    #[test]
    fn fig02_fast_fits_match() {
        let r = fig02(SEED, true);
        assert_eq!(r.len(), 2);
        for b in &r {
            assert!(b.ks_run < 0.1, "{}%: ks {}", b.level_pct, b.ks_run);
            assert!(b.ks_idle < 0.1, "{}%: ks {}", b.level_pct, b.ks_idle);
            assert_eq!(b.run_points.len(), 50);
        }
    }

    #[test]
    fn fig03_fast_recovers_moments() {
        let rows = fig03(SEED, true);
        assert_eq!(rows.len(), 21);
        // Mid buckets must be populated and near the model.
        for row in rows.iter().filter(|r| (20..=80).contains(&r.level_pct)) {
            assert!(row.windows > 0, "bucket {} empty", row.level_pct);
            if row.model_run_mean > 0.0 && row.windows > 50 {
                let err = (row.run_mean - row.model_run_mean).abs() / row.model_run_mean;
                assert!(err < 0.5, "bucket {}: run mean err {err}", row.level_pct);
            }
        }
    }

    #[test]
    fn fig04_fast_matches_paper_anchors() {
        let r = fig04(SEED, true);
        assert!((r.non_idle_fraction - 0.46).abs() < 0.10);
        assert!((r.non_idle_low_cpu_fraction - 0.76).abs() < 0.10);
        assert!(r.p90_free_kb >= 12_000.0);
        assert!(r.p95_free_kb >= 8_000.0);
        // Survival curves are monotone decreasing.
        for pts in [&r.cdf_all, &r.cdf_idle, &r.cdf_non_idle] {
            for w in pts.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12);
            }
        }
    }

    #[test]
    fn fig05_fast_has_grid() {
        let r = fig05(SEED, true);
        assert_eq!(r.len(), 27);
        assert!(r.iter().all(|p| p.fcsr > 0.85));
    }

    #[test]
    fn fig06_pipeline_tracks_trace() {
        let r = fig06(SEED, true);
        assert!(r.windows > 1000);
        assert!(r.mean_abs_error < 0.08, "MAE {}", r.mean_abs_error);
        assert!(r.correlation > 0.8, "corr {}", r.correlation);
    }

    #[test]
    fn fig07_fast_preserves_ordering() {
        let r = fig07(SEED, true);
        let (ll, ie) = (&r.workload1[0], &r.workload1[2]);
        assert!(ll.avg_completion_secs < ie.avg_completion_secs);
        assert!(ll.throughput > ie.throughput);
    }

    #[test]
    fn fig09_fast_shape() {
        let r = fig09(SEED, true);
        assert_eq!(r.len(), 10);
        assert!(r[9].slowdown > r[2].slowdown);
    }

    #[test]
    fn ext_scaling_cells_are_deterministic_and_match_cluster_sim_new() {
        // A scaling cell must reproduce exactly what ClusterSim::new
        // would compute from the same config — the shared traces/offsets
        // are an optimization, not a semantic change — and re-running
        // the sweep must give byte-identical points.
        let (points, timings) = ext_scaling_at(SEED, &[16], true);
        assert_eq!(points.len(), 4);
        assert_eq!(timings.len(), 4);
        let (again, _) = ext_scaling_at(SEED, &[16], true);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(serde_json::to_string(a).unwrap(), serde_json::to_string(b).unwrap());
        }
        for (p, t) in points.iter().zip(&timings) {
            assert_eq!(p.windows, 300, "600 s horizon at 2 s windows");
            assert_eq!(t.node_windows, 16.0 * 300.0);
            assert!(p.completed > 0, "{}: nothing finished", p.policy);
        }
        // Direct construction path gives the same numbers.
        let family = JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024);
        let mut cfg = linger_cluster::ClusterConfig::paper(Policy::LingerLonger, family);
        cfg.nodes = 16;
        cfg.seed = SEED;
        cfg.trace = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        cfg.mode = linger_cluster::RunMode::Throughput { horizon: SimTime::from_secs(600) };
        let mut sim = linger_cluster::ClusterSim::new(cfg);
        sim.run();
        let ll = &points[0];
        assert_eq!(ll.policy, "LL");
        assert_eq!(ll.completed, sim.completed());
        assert_eq!(ll.foreign_cpu_secs, sim.foreign_cpu_delivered().as_secs_f64());
    }

    #[test]
    fn ext_stealing_cells_are_deterministic_and_counters_balance() {
        // A small grid through the exact cell code the figure uses:
        // re-running the sweep must give byte-identical points, every
        // cell's loss accounting and probe ledger must balance, and the
        // three scheduler variants must exercise their own machinery
        // (central serializes, stealing probes).
        let points = ext_stealing_at(SEED, &[16], 1800, 0.95);
        assert_eq!(points.len(), STEALING_SCHEDULERS.len() * STEALING_FAULTS.len() * 2);
        let again = ext_stealing_at(SEED, &[16], 1800, 0.95);
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(serde_json::to_string(a).unwrap(), serde_json::to_string(b).unwrap());
        }
        for p in &points {
            assert!(p.completed > 0, "{}/{}: nothing finished", p.scheduler, p.size_dist);
            assert_eq!(p.probes, p.hits + p.misses);
            if p.scheduler == "central" {
                assert!(p.central_dispatches > 0);
                assert_eq!(p.probes, 0);
            } else {
                assert_eq!(p.central_dispatches, 0);
                assert!(p.local_pops + p.stolen_jobs > 0);
            }
            if p.crash_rate_per_hour == 0.0 {
                assert_eq!(p.crashes, 0);
            }
        }
    }

    #[test]
    fn paper_reference_is_fig7_shaped() {
        let refs = fig07_paper_reference();
        assert_eq!(refs.len(), 8);
        // Headline: LL throughput improves ~50% over PM on workload-1.
        assert!(refs[3][0] / refs[3][3] > 1.4);
    }

    #[test]
    fn memory_pressure_cliff_sits_at_the_free_pool() {
        let rows = ablation_memory_pressure(3);
        // Fully resident jobs run at full speed…
        for r in rows.iter().filter(|r| r.foreign_mb <= r.available_mb) {
            assert!(r.residency > 0.99, "{} MB: residency {}", r.foreign_mb, r.residency);
            assert!(r.efficiency > 0.99, "{} MB: efficiency {}", r.foreign_mb, r.efficiency);
        }
        // …and thrash once the working set overflows it.
        let over: Vec<_> = rows.iter().filter(|r| r.foreign_mb > r.available_mb + 1).collect();
        assert!(!over.is_empty());
        for r in over {
            assert!(r.efficiency < 0.2, "{} MB: efficiency {}", r.foreign_mb, r.efficiency);
        }
    }

    #[test]
    fn ablation_rows_cover_their_sweeps() {
        let cs = ablation_context_switch(5, 8);
        assert_eq!(cs.len(), 5);
        assert!(cs.windows(2).all(|w| w[0].value < w[1].value));
        // Foreground delay grows with switch cost.
        assert!(cs.last().unwrap().ll_delay > cs.first().unwrap().ll_delay);

        let bw = ablation_migration_bandwidth(5, 8);
        assert_eq!(bw.len(), 4);
        // IE benefits from faster migration.
        assert!(bw.last().unwrap().ie_avg_secs <= bw.first().unwrap().ie_avg_secs + 1.0);
    }
}
