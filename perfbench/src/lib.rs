//! Host-time benchmark of the linger cluster simulator.
//!
//! Four named 16,384-node cells; a process measures one of them, one
//! cell at a time. Every layer is measured from outside, by timing calls
//! into the public API of the simulator crates:
//!
//! * `workload` — [`WorkloadRealization::synthesize_monolithic`] /
//!   [`WorkloadRealization::synthesize_streamed`], the stream cursor
//!   (`ClusterSim::stream_*`), and the arrival process
//!   (`ServiceStats::generated`);
//! * `cluster::sim` — [`ClusterSim::with_realization`],
//!   [`ClusterSim::run`] and [`ClusterSim::step`];
//! * `sched` — `StealStats` (central dispatches, probes, steals);
//! * `cluster::service` — admission counters in `ServiceStats`;
//! * `cluster::state` — `live_job_rows` / `live_lane_bytes`;
//! * `telemetry` — a journaling `Recorder` against a disabled one.
//!
//! The crate holds the cell definitions, the outcome digest and the
//! invariant checks, plus the timed runners; `main.rs` adds argument
//! parsing, the measuring loop and the report.

#![warn(missing_docs)]

use linger::{JobFamily, Policy};
use linger_cluster::{
    AdmissionPolicy, ClusterConfig, ClusterSim, JobRecord, JobState, RunMode, ServiceConfig,
    StealStats, StealingConfig,
};
use linger_sim_core::{SimDuration, SimTime};
use linger_telemetry::Recorder;
use linger_workload::{
    ArrivalConfig, ArrivalProcess, CoarseTraceConfig, SizeDistribution, WorkloadRealization,
};
use std::time::Instant;

/// Workload seed used when none is given; the reference digests in
/// `workloads.json` are recorded at this seed.
pub const DEFAULT_SEED: u64 = 1998;

/// Cluster size of every full-size cell.
pub const FULL_NODES: usize = 16_384;

/// Windows per chunk of the streamed realization.
pub const STREAM_CHUNK_WINDOWS: usize = 64;

/// Nodes per classify shard; the benchmark pins the shard count to
/// `ceil(nodes / SHARD_NODES)` instead of reading `LINGER_SHARDS`.
pub const SHARD_NODES: usize = 8192;

/// Offered load of the open cells, as a share of cluster CPU capacity.
pub const OPEN_LOAD: f64 = 0.6;

/// Mean CPU demand of an open-arrival job, seconds.
pub const OPEN_MEAN_CPU_SECS: f64 = 120.0;

/// Per-placement round trip of the serialized central dispatcher.
pub const CENTRAL_RTT_SECS: f64 = 0.02;

/// Victim probes a thief may issue per window (`open_steal`).
pub const STEAL_PROBES: u32 = 3;

/// Steal round trip, seconds (`open_steal`).
pub const STEAL_RTT_SECS: f64 = 0.1;

/// The four benchmark cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Throughput mode on a monolithic window table.
    ThroughputTable,
    /// The same cell over a streamed realization.
    ThroughputStreamed,
    /// Open arrivals through the serialized central dispatcher.
    OpenCentral,
    /// Open arrivals through randomized work stealing.
    OpenSteal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ThroughputTable,
        Workload::ThroughputStreamed,
        Workload::OpenCentral,
        Workload::OpenSteal,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ThroughputTable => "throughput_table",
            Workload::ThroughputStreamed => "throughput_streamed",
            Workload::OpenCentral => "open_central",
            Workload::OpenSteal => "open_steal",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the cell runs open arrivals (otherwise throughput mode).
    pub fn is_open(self) -> bool {
        matches!(self, Workload::OpenCentral | Workload::OpenSteal)
    }

    /// Simulated horizon of the full-size cell, seconds. The open cells
    /// run long enough for the central dispatcher's queue to fill and
    /// stay full for most of the windows.
    pub fn full_horizon_secs(self) -> u64 {
        if self.is_open() {
            2200
        } else {
            600
        }
    }
}

/// Size of one cell: cluster nodes and simulated horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Cluster size.
    pub nodes: usize,
    /// Simulated horizon, seconds.
    pub horizon_secs: u64,
}

impl Scale {
    /// The benchmark's full-size cell for `w`.
    pub fn full(w: Workload) -> Scale {
        Scale {
            nodes: FULL_NODES,
            horizon_secs: w.full_horizon_secs(),
        }
    }

    /// Windows the cell simulates.
    pub fn windows(self) -> u64 {
        SimTime::from_secs(self.horizon_secs).as_nanos() / linger_cluster::WINDOW.as_nanos()
    }

    /// The pinned classify shard count.
    pub fn shards(self) -> usize {
        self.nodes.div_ceil(SHARD_NODES).max(1)
    }
}

/// The `ClusterConfig` of one cell: LingerLonger on the 1-hour coarse
/// trace, fault-free.
pub fn cell_config(w: Workload, scale: Scale, seed: u64) -> ClusterConfig {
    let nodes = scale.nodes;
    let horizon = SimTime::from_secs(scale.horizon_secs);
    let family = if w.is_open() {
        JobFamily::empty()
    } else {
        JobFamily::uniform((2 * nodes) as u32, SimDuration::from_secs(300), 8 * 1024)
    };
    let mut cfg = ClusterConfig::paper(Policy::LingerLonger, family);
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.trace = CoarseTraceConfig {
        duration: SimDuration::from_secs(3600),
        ..Default::default()
    };
    if !w.is_open() {
        cfg.mode = RunMode::Throughput { horizon };
        return cfg;
    }
    cfg.mode = RunMode::Open { horizon };
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_hour: OPEN_LOAD * nodes as f64 * 3600.0 / OPEN_MEAN_CPU_SECS,
            },
            mean_cpu_secs: OPEN_MEAN_CPU_SECS,
            mem_kb: 8 * 1024,
            size_dist: SizeDistribution::BoundedPareto {
                alpha: 1.5,
                max_ratio: 100.0,
            },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * nodes,
        deadline_secs: 300.0,
    };
    cfg.stealing = if w == Workload::OpenSteal {
        StealingConfig::randomized(STEAL_PROBES, STEAL_RTT_SECS)
    } else {
        let mut s = StealingConfig::disabled();
        s.central_dispatch_rtt_secs = CENTRAL_RTT_SECS;
        s
    };
    cfg
}

/// Synthesize the cell's owner workload cold (never from the shared
/// trace cache): streamed for `throughput_streamed`, monolithic
/// otherwise.
pub fn synthesize(w: Workload, cfg: &ClusterConfig) -> WorkloadRealization {
    if w == Workload::ThroughputStreamed {
        WorkloadRealization::synthesize_streamed(
            &cfg.trace,
            cfg.seed,
            cfg.nodes,
            STREAM_CHUNK_WINDOWS,
        )
    } else {
        WorkloadRealization::synthesize_monolithic(&cfg.trace, cfg.seed, cfg.nodes)
    }
}

/// Build the simulator over `real` with the pinned shard count and the
/// given recorder.
pub fn construct(
    cfg: ClusterConfig,
    real: &WorkloadRealization,
    shards: usize,
    recorder: Recorder,
) -> ClusterSim {
    let mut sim = ClusterSim::with_realization(cfg, real).with_shards(shards);
    sim.set_recorder(recorder);
    sim
}

// ------------------------------------------------------------ outcomes

/// The simulated outcome of one cell run: exact counters and the digest
/// over them. Identical across runs of one seed, whatever the host did.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a digest of the outcome (see [`digest`]).
    pub digest: u64,
    /// Windows simulated.
    pub windows: u64,
    /// Jobs completed.
    pub completed: usize,
    /// Arrivals the open process offered.
    pub generated: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals shed at a full queue.
    pub shed: u64,
    /// Arrivals blocked upstream at the end of the run.
    pub deficit: u64,
    /// Windows in which admission hit capacity.
    pub saturated_windows: u64,
    /// Deepest admission queue at a window boundary.
    pub peak_queue_depth: usize,
    /// Mean completion latency, simulated seconds (batch means).
    pub mean_latency_s: f64,
    /// Stealing and central-dispatch counters.
    pub steal: StealStats,
    /// Window chunks the streamed cursor built.
    pub stream_chunks: u64,
    /// Resident bytes of the streamed window arena.
    pub stream_arena_bytes: usize,
    /// Live hot-lane rows in the job slabs.
    pub live_job_rows: usize,
    /// Resident bytes of the live job lanes.
    pub live_lane_bytes: usize,
}

impl Outcome {
    /// Read the outcome of a finished run (outside any timed region:
    /// the digest materializes every job record).
    pub fn of(sim: &ClusterSim) -> Outcome {
        let s = sim.service_stats();
        Outcome {
            digest: digest(sim),
            windows: sim.now().as_nanos() / linger_cluster::WINDOW.as_nanos(),
            completed: sim.completed(),
            generated: s.generated,
            admitted: s.admitted,
            shed: s.shed,
            deficit: s.deficit,
            saturated_windows: s.saturated_windows,
            peak_queue_depth: s.peak_queue_depth,
            mean_latency_s: s.latency.mean(),
            steal: sim.steal_stats(),
            stream_chunks: sim.stream_chunks_built(),
            stream_arena_bytes: sim.stream_arena_bytes(),
            live_job_rows: sim.live_job_rows(),
            live_lane_bytes: sim.live_lane_bytes(),
        }
    }
}

/// 64-bit FNV-1a, fed little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in an optional word (absent and present hash differently).
    pub fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Outcome digest of a finished run: FNV-1a over the completed count,
/// the foreign CPU delivered (ns), the foreground-delay bits, the
/// service and steal counters, and every materialized job record.
pub fn digest(sim: &ClusterSim) -> u64 {
    let mut h = Fnv::default();
    h.u64(sim.completed() as u64);
    h.u64(sim.foreign_cpu_delivered().as_nanos());
    h.u64(sim.foreground_delay_ratio().to_bits());
    let s = sim.service_stats();
    for v in [
        s.generated,
        s.admitted,
        s.shed,
        s.deferred,
        s.deficit,
        s.peak_deficit,
        s.deadline_dropped,
        s.saturated_windows,
        s.peak_queue_depth as u64,
        s.peak_live_rows as u64,
        s.throughput.batches(),
        s.throughput.mean().to_bits(),
        s.latency.batches(),
        s.latency.mean().to_bits(),
    ] {
        h.u64(v);
    }
    let st = sim.steal_stats();
    for v in [
        st.local_pops,
        st.probes,
        st.hits,
        st.misses,
        st.abandons,
        st.stolen_jobs,
        st.central_dispatches,
    ] {
        h.u64(v);
    }
    let jobs = sim.jobs();
    h.u64(jobs.len() as u64);
    for rec in &jobs {
        hash_record(&mut h, rec);
    }
    h.finish()
}

fn hash_record(h: &mut Fnv, r: &JobRecord) {
    let t = |t: Option<SimTime>| t.map(SimTime::as_nanos);
    h.u64(r.spec.id.0 as u64);
    h.u64(r.spec.cpu_demand.as_nanos());
    h.u64(r.spec.mem_kb as u64);
    h.u64(r.spec.arrival.as_nanos());
    h.u64(r.remaining.as_nanos());
    h.u64(match r.state {
        JobState::Queued => 0,
        JobState::Running => 1,
        JobState::Lingering => 2,
        JobState::Paused => 3,
        JobState::Migrating => 4,
        JobState::Done => 5,
    });
    h.opt(r.node.map(|n| n.0 as u64));
    h.opt(t(r.episode_start));
    h.opt(t(r.migration_until));
    h.opt(r.migration_bits_left.map(f64::to_bits));
    h.opt(t(r.pause_deadline));
    h.opt(t(r.first_start));
    h.opt(t(r.completed_at));
    h.u64(r.has_run as u64);
    let b = &r.breakdown;
    for d in [b.queued, b.running, b.lingering, b.paused, b.migrating] {
        h.u64(d.as_nanos());
    }
    for v in [
        r.migrations,
        r.migration_attempts,
        r.transfer_seq,
        r.crashes,
    ] {
        h.u64(v as u64);
    }
}

/// The invariants every run must keep, whatever its size.
pub fn check_invariants(o: &Outcome) -> Result<(), String> {
    if o.generated != o.admitted + o.shed + o.deficit {
        return Err(format!(
            "loss accounting broken: generated {} != admitted {} + shed {} + deficit {}",
            o.generated, o.admitted, o.shed, o.deficit
        ));
    }
    let st = &o.steal;
    if st.probes != st.hits + st.misses {
        return Err(format!(
            "probe accounting broken: probes {} != hits {} + misses {}",
            st.probes, st.hits, st.misses
        ));
    }
    if o.completed == 0 {
        return Err("no job completed".into());
    }
    Ok(())
}

/// The property each workload was chosen for. `open_central` has it
/// only at full size: a small cluster never saturates the dispatcher.
pub fn check_property(w: Workload, o: &Outcome) -> Result<(), String> {
    let ok = match w {
        Workload::ThroughputTable => o.stream_chunks == 0,
        Workload::ThroughputStreamed => o.stream_chunks > 0,
        Workload::OpenCentral => {
            2 * o.saturated_windows > o.windows
                && o.shed > 0
                && o.steal.probes == 0
                && o.steal.central_dispatches > 0
        }
        Workload::OpenSteal => o.shed == 0 && o.steal.central_dispatches == 0 && o.steal.probes > 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} lost its defining property: {o:?}", w.name()))
    }
}

/// Reference digests recorded in `workloads.json`, which holds them for
/// the full-size cells at its `seed`.
pub fn reference_digest(w: Workload, seed: u64) -> Option<u64> {
    let doc: serde::Value = serde_json::from_str(include_str!("../workloads.json"))
        .expect("workloads.json is valid JSON");
    let recorded = doc.get("seed").and_then(|v| match v {
        serde::Value::UInt(n) => Some(*n),
        _ => None,
    });
    if recorded != Some(seed) {
        return None;
    }
    let serde::Value::Seq(items) = doc.get("workloads")? else {
        return None;
    };
    let hex = items
        .iter()
        .find_map(|item| match (item.get("name"), item.get("digest")) {
            (Some(serde::Value::Str(n)), Some(serde::Value::Str(d))) if n == w.name() => Some(d),
            _ => None,
        })?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Check one finished run: the invariants, the workload's property, and
/// the digest against `expected`. With no expectation yet, the first
/// digest becomes it, so every later run of the process must agree.
pub fn check_run(w: Workload, o: &Outcome, expected: &mut Option<u64>) -> Result<(), String> {
    check_invariants(o)?;
    check_property(w, o)?;
    match *expected {
        Some(d) if d != o.digest => Err(format!(
            "{} digest {:#018x} != expected {d:#018x}",
            w.name(),
            o.digest
        )),
        Some(_) => Ok(()),
        None => {
            *expected = Some(o.digest);
            Ok(())
        }
    }
}

// -------------------------------------------------------------- runners

/// Host-time split of one cell run, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellTimes {
    /// The `synthesize_*` call.
    pub synthesize_s: f64,
    /// `ClusterSim::with_realization` plus shard and recorder pinning.
    pub construct_s: f64,
    /// The window loop (`run()`, or the traced `step()` loop).
    pub run_s: f64,
    /// Chunk builds inside construction (streamed: window 0's chunk).
    pub construct_build_s: f64,
    /// Chunk builds inside the window loop.
    pub run_build_s: f64,
    /// Resident bytes of the realization after synthesis.
    pub realization_bytes: usize,
}

impl CellTimes {
    /// Synthesis plus construction.
    pub fn setup_s(&self) -> f64 {
        self.synthesize_s + self.construct_s
    }

    /// Config to finished run.
    pub fn cell_s(&self) -> f64 {
        self.setup_s() + self.run_s
    }
}

/// Per-step record of a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSample {
    /// Nanoseconds from the start of the cell to the start of the step.
    pub start_ns: u64,
    /// Wall nanoseconds of the `step()` call.
    pub dur_ns: u64,
    /// Whether `saturated_windows` advanced during the step.
    pub saturated: bool,
    /// Chunk-build nanoseconds inside the step (streamed cells).
    pub build_ns: u64,
}

/// A finished cell: its timings, per-step samples when traced, the
/// simulator and the realization (both kept so the caller reads the
/// outcome and drops them outside the timed region).
pub struct CellRun {
    /// Host-time split.
    pub times: CellTimes,
    /// One entry per window when traced, empty otherwise.
    pub steps: Vec<StepSample>,
    /// The finished simulator.
    pub sim: ClusterSim,
    /// The realization the simulator was built over.
    pub real: WorkloadRealization,
}

/// Run one cold cell: synthesize, construct, run. `traced` replaces
/// `run()` with a loop of individually timed `step()` calls.
pub fn run_cell(w: Workload, scale: Scale, seed: u64, traced: bool) -> CellRun {
    let cfg = cell_config(w, scale, seed);
    let t0 = Instant::now();
    let real = synthesize(w, &cfg);
    let t1 = Instant::now();
    let mut sim = construct(cfg, &real, scale.shards(), Recorder::disabled());
    let t2 = Instant::now();
    let construct_build_s = sim.stream_build_secs();
    let mut steps = Vec::new();
    if traced {
        let horizon = SimTime::from_secs(scale.horizon_secs);
        steps.reserve(scale.windows() as usize);
        while sim.now() < horizon {
            let saturated0 = sim.service_stats().saturated_windows;
            let build0 = sim.stream_build_secs();
            let s0 = Instant::now();
            sim.step();
            let dur_ns = s0.elapsed().as_nanos() as u64;
            steps.push(StepSample {
                start_ns: (s0 - t0).as_nanos() as u64,
                dur_ns,
                saturated: sim.service_stats().saturated_windows > saturated0,
                build_ns: ((sim.stream_build_secs() - build0) * 1e9) as u64,
            });
        }
    }
    // Untraced: the whole window loop. Traced: no window is left, so
    // this only ends the run (telemetry flush).
    sim.run();
    let t3 = Instant::now();
    let times = CellTimes {
        synthesize_s: (t1 - t0).as_secs_f64(),
        construct_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        construct_build_s,
        run_build_s: sim.stream_build_secs() - construct_build_s,
        realization_bytes: real.approx_bytes(),
    };
    CellRun {
        times,
        steps,
        sim,
        real,
    }
}

/// Re-run the window loop of a cell over an existing realization with a
/// journaling recorder; returns the loop's wall seconds and the sim.
pub fn run_journaled(
    w: Workload,
    scale: Scale,
    seed: u64,
    real: &WorkloadRealization,
) -> (f64, ClusterSim) {
    let recorder = Recorder::with_capacity(linger_telemetry::DEFAULT_CAPACITY);
    let mut sim = construct(cell_config(w, scale, seed), real, scale.shards(), recorder);
    let t0 = Instant::now();
    sim.run();
    (t0.elapsed().as_secs_f64(), sim)
}

// ------------------------------------------------------------- metrics

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order:
/// name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("cell_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order: name
/// and unit. `sim_s` is simulated time; every other time is host time.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workload.synthesize_s", "s"),
    ("workload.realization_mib", "MiB"),
    ("workload.stream_build_share", "ratio"),
    ("workload.stream_chunks", "count"),
    ("workload.stream_arena_mib", "MiB"),
    ("cluster.construct_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.steps", "count"),
    ("cluster.step_p50_us", "us"),
    ("cluster.step_p99_us", "us"),
    ("cluster.step_samples", "count"),
    ("cluster.ns_per_node_window", "ns"),
    ("cluster.saturated_step_share", "ratio"),
    ("cluster.live_job_rows", "count"),
    ("cluster.live_lane_mib", "MiB"),
    ("cluster.completed", "count"),
    ("service.generated", "count"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("service.saturated_windows", "count"),
    ("service.peak_queue_depth", "count"),
    ("service.mean_latency_s", "sim_s"),
    ("sched.central_dispatches", "count"),
    ("sched.probes", "count"),
    ("sched.hits", "count"),
    ("sched.hit_ratio", "ratio"),
    ("sched.local_pops", "count"),
    ("sched.stolen_jobs", "count"),
    ("sched.abandons", "count"),
    ("telemetry.journal_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_runs", "count"),
    ("bench.nproc", "count"),
    ("bench.threads", "count"),
    ("bench.shards", "count"),
];

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Pair values with the names and units of a catalogue, in order.
fn label(catalogue: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(
        catalogue.len(),
        values.len(),
        "one value per catalogued metric"
    );
    catalogue
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// The execution environment the benchmark pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEnv {
    /// `available_parallelism` of the host.
    pub nproc: usize,
    /// Worker-pool size set for synthesis and sharded sweeps.
    pub threads: usize,
    /// Classify shards per sweep.
    pub shards: usize,
}

/// One traced cell run plus the journaled re-run of its window loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRep {
    /// Host-time split of the traced run.
    pub times: CellTimes,
    /// Per-step samples.
    pub steps: Vec<StepSample>,
    /// Window-loop seconds of the journaled re-run.
    pub journal_run_s: f64,
}

/// End-to-end metrics: medians over the untraced runs, and the peak
/// RSS of this process.
pub fn end_to_end_metrics(plain: &[CellTimes], peak_rss_mib: f64) -> Vec<Metric> {
    let cell: Vec<f64> = plain.iter().map(CellTimes::cell_s).collect();
    let setup: Vec<f64> = plain.iter().map(CellTimes::setup_s).collect();
    label(&END_TO_END, &[median(&cell), median(&setup), peak_rss_mib])
}

/// Per-layer metrics from the traced runs (timings: medians over runs;
/// step percentiles: pooled over every traced step), the untraced runs
/// (overhead and journal baselines), and the outcome (exact counts).
pub fn per_layer_metrics(
    plain: &[CellTimes],
    traced: &[TracedRep],
    outcome: &Outcome,
    scale: Scale,
    env: HostEnv,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedRep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let step_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.steps.iter().map(|s| s.dur_ns as f64 / 1e3))
        .collect();
    let (sat_ns, all_ns) = traced
        .iter()
        .flat_map(|r| &r.steps)
        .fold((0u64, 0u64), |acc, s| {
            (
                acc.0 + if s.saturated { s.dur_ns } else { 0 },
                acc.1 + s.dur_ns,
            )
        });
    let node_windows = (scale.nodes as u64 * outcome.windows).max(1) as f64;
    let plain_cell = median(&plain.iter().map(CellTimes::cell_s).collect::<Vec<_>>());
    let plain_run = median(&plain.iter().map(|t| t.run_s).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let st = &outcome.steal;
    let last = traced.last().map(|r| r.times).unwrap_or_default();
    label(
        &PER_LAYER,
        &[
            med(&|r| r.times.synthesize_s),
            mib(last.realization_bytes),
            med(&|r| {
                ratio(
                    r.times.construct_build_s + r.times.run_build_s,
                    r.times.cell_s(),
                )
            }),
            outcome.stream_chunks as f64,
            mib(outcome.stream_arena_bytes),
            med(&|r| r.times.construct_s - r.times.construct_build_s),
            med(&|r| r.times.run_s),
            outcome.windows as f64,
            quantile(&step_us, 0.50),
            quantile(&step_us, 0.99),
            step_us.len() as f64,
            med(&|r| (r.times.run_s - r.times.run_build_s) * 1e9 / node_windows),
            ratio(sat_ns as f64, all_ns as f64),
            outcome.live_job_rows as f64,
            mib(outcome.live_lane_bytes),
            outcome.completed as f64,
            outcome.generated as f64,
            outcome.admitted as f64,
            outcome.shed as f64,
            outcome.saturated_windows as f64,
            outcome.peak_queue_depth as f64,
            outcome.mean_latency_s,
            st.central_dispatches as f64,
            st.probes as f64,
            st.hits as f64,
            ratio(st.hits as f64, st.probes as f64),
            st.local_pops as f64,
            st.stolen_jobs as f64,
            st.abandons as f64,
            ratio(med(&|r| r.journal_run_s), plain_run),
            ratio(med(&|r| r.times.cell_s()), plain_cell),
            traced.len() as f64,
            env.nproc as f64,
            env.threads as f64,
            env.shards as f64,
        ],
    )
}

// --------------------------------------------------------------- stats

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (`q` in 0..=1); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
