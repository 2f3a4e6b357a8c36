//! The cluster scheduling simulator (paper Sec 4.2).
//!
//! Time advances in 2-second windows — the sampling period of the coarse
//! traces driving each node. Within a window, a hosted foreign job earns
//! CPU at the expected fine-grain stealing rate for the node's current
//! utilization ([`linger_node::steal_rate`], the closed-form mean of the
//! burst-accurate executor; the `cluster` bench contains the ablation
//! comparing the two). Policy decisions — eviction, pausing, the
//! Linger-Longer migration test — are evaluated at window boundaries.
//!
//! One foreign job runs per node at a time (Sec 3.2: free memory
//! "sufficient to accommodate one compute-bound foreign job of moderate
//! size"), gated by the two-pool memory model's admission check.
//!
//! ## Sharded window sweep
//!
//! The per-window sweeps are organised as *classify → merge*: the node-id
//! space is partitioned into word-aligned shards ([`ShardPlan`]) that
//! each scan their own slice of the hot struct-of-arrays slabs and record
//! per-node **intents** (pure functions of the window-start state), and a
//! single sequential pass then applies the intents in ascending node
//! order — exactly the order the historical single loop visited nodes.
//! Every side effect (index mutations, queue pushes, f64 accumulations,
//! telemetry emission) happens only in the merge, so the produced bytes
//! are identical at any shard count and any worker count; shards merely
//! decide which execution unit *computed* each intent. Every phase runs
//! its shards through [`ShardPlan::run`], which threads them only when
//! there are several shards and a worker budget above one; otherwise
//! they run in-line, through the same buffers. Clusters below
//! [`linger_sim_core::SHARD_MIN_NODES`] default to one shard (see
//! [`ClusterSim::set_shards`]), so they sweep in-line unless a shard
//! count is set explicitly.

use crate::config::{AdmissionPolicy, ClusterConfig, RunMode};
use crate::dest::{DestIndex, Pool};
use crate::faults::{FaultEventKind, FaultModel, FaultStats};
use crate::service::{effective_queue_capacity, queue_budget_from_env, ServiceStats};
use crate::state::{JobCold, JobRecord, JobSlabs, JobState, NodeId, NodeSlabs, NO_JOB, NO_NODE};
use crate::stealing::{draw_victim, StealState, StealStats};
use linger::cost::should_migrate;
use linger::{JobId, JobSpec, Policy};
use linger_node::steal_rate;
use linger_sim_core::{
    default_shard_count, prefetch_read, NodeIndex, RngFactory, ShardPlan, SimDuration, SimTime,
};
use linger_telemetry::{DecisionAction, Event, EventKind, JournalCounts, Recorder};
use linger_workload::{
    ArrivalGenerator, CoarseTrace, RealizeOrigin, TraceLibrary, TwoPoolMemory, WindowCursor,
    WorkloadRealization, SAMPLE_PERIOD_SECS,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// One simulation window (= the coarse-trace sampling period).
pub const WINDOW: SimDuration = SimDuration::from_secs(SAMPLE_PERIOD_SECS);

/// FNV-1a over the JSON serialization of a config — a stable name for
/// its telemetry spill file.
fn config_digest(cfg: &ClusterConfig) -> u64 {
    let text = serde_json::to_string(cfg).unwrap_or_default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the decision sweep resolved for one busy node — recorded by the
/// owning shard, applied in ascending node order by the merge.
#[derive(Debug, Clone, Copy)]
struct DecideIntent {
    ni: u32,
    ji: u32,
    kind: DecideKind,
}

#[derive(Debug, Clone, Copy)]
enum DecideKind {
    /// A running job's node turned non-idle: apply the policy reaction.
    NonIdle,
    /// A lingering job's node turned idle again.
    ResumeLinger,
    /// Still lingering on a non-idle node under LL: run the migration
    /// test (destination choice needs the live candidate set, so it
    /// happens in the merge).
    LingerCheck,
    /// A paused job's node turned idle again.
    ResumePause,
    /// A paused job's grace period expired.
    PauseEvict,
}

/// Progress computed for one busy node: the expensive per-node math
/// (steal-rate interpolation, residency, completion fraction) done in the
/// owning shard; the merge only applies exact integer gains and
/// pre-computed f64 terms in ascending node order.
#[derive(Debug, Clone, Copy)]
struct ProgressIntent {
    ni: u32,
    ji: u32,
    state: JobState,
    kind: ProgressKind,
    /// CPU earned this window (integer nanoseconds — exact).
    gain: SimDuration,
    /// Fraction of the window elapsed at completion (Complete only).
    frac: f64,
    /// Foreground delay seconds to accumulate (Lingering only).
    delay_add: f64,
    has_delay: bool,
}

#[derive(Debug, Clone, Copy)]
enum ProgressKind {
    /// Paused/migrating-in: account the window, no progress.
    Account,
    /// Earns `gain`, does not finish this window.
    Advance,
    /// Finishes `frac` of the way into the window.
    Complete,
}

/// A free node eligible to acquire work this window (stealing mode) —
/// recorded by the owning shard against window-start state, resolved by
/// the merge in ascending node order (pops first, then randomized
/// probes), exactly the classify → ordered-merge discipline of
/// [`DecideIntent`].
#[derive(Debug, Clone, Copy)]
struct StealIntent {
    ni: u32,
    /// Window-start advisory: the thief's own deque held work, so the
    /// merge tries an owner pop before probing. Re-validated against the
    /// live deques (an earlier thief may have stolen it away).
    pop: bool,
}

/// The cluster simulation.
pub struct ClusterSim {
    cfg: ClusterConfig,
    /// Per-node slabs (occupancy, memory).
    nodes: NodeSlabs,
    /// Per-job hot/cold slabs; materialized via [`Self::jobs`].
    jobs: JobSlabs,
    queue: VecDeque<usize>,
    window: usize,
    /// Total foreign CPU delivered (throughput numerator).
    foreign_cpu: SimDuration,
    /// Local busy seconds across all nodes (delay-ratio denominator).
    local_busy_secs: f64,
    /// Added foreground latency seconds (delay-ratio numerator).
    local_delay_secs: f64,
    /// Next id for respawned jobs in throughput mode.
    next_job_id: u32,
    /// Completed job count.
    completed: usize,
    /// Nodes with no hosted foreign job, maintained incrementally at
    /// every claim/release (replaces the per-query full scan).
    free: NodeIndex,
    /// Complement of `free`: nodes hosting (or reserved for) a job.
    busy: NodeIndex,
    /// `free ∧ idle` — the destination-candidate set every placement
    /// and migration query starts from. Rebuilt from the window's idle
    /// words at the top of each window, then maintained at every
    /// claim/release, so a saturated cluster answers "no idle node" in
    /// O(1) instead of rescanning all free nodes.
    free_idle: NodeIndex,
    /// Lazily sorted view of the two central candidate pools
    /// (`free_idle` and free ∧ non-idle), collected at most once per
    /// window and shared by every destination query — linger migration,
    /// eviction, transfer retry and queue placement.
    dest: DestIndex,
    /// Per-window scratch: the recruitment idle flags of every node at
    /// the current window as packed bit words, and the CPU demands.
    idle_words: Vec<u64>,
    cpu_w: Vec<f64>,
    /// Scratch for the not-yet-placeable queue tail.
    place_scratch: VecDeque<usize>,
    /// Superset of the jobs currently in [`JobState::Migrating`] —
    /// appended to on every migration start, compacted each window — so
    /// transfer progress and arrivals never rescan the ever-growing job
    /// table (throughput mode appends a record per respawn).
    migrating: Vec<usize>,
    /// Per-window `(cpu, mem, idle)` rows of phase 0: the realization's
    /// shared table or its streamed chunks, behind one cursor (both
    /// produce identical rows — `stream::tests` and the cluster
    /// streaming suite prove it bit-for-bit).
    windows: WindowCursor,
    /// Word-aligned partition of the node-id space driving the
    /// classify phase of every sweep.
    plan: ShardPlan,
    /// Reusable per-shard intent buffers.
    decide_bufs: Vec<Vec<DecideIntent>>,
    progress_bufs: Vec<Vec<ProgressIntent>>,
    /// Pre-materialized crash/reboot schedule and migration-failure
    /// draws; empty/quiet when `cfg.faults` is disabled.
    faults: FaultModel,
    /// Nodes currently down. A crashed node is in none of `free`,
    /// `free_idle`, or `busy` until its reboot event fires.
    crashed: NodeIndex,
    /// Cursor into `faults.events()` (sorted by window).
    fault_cursor: usize,
    /// Fault counters accumulated over the run.
    fault_stats: FaultStats,
    /// Event recorder — disabled by default (one `Option` branch per
    /// emission site; the event closures never run). Telemetry only
    /// *reads* simulation state and simulated time, never RNG streams,
    /// so attaching a recorder cannot change any result.
    telemetry: Recorder,
    /// Counters already flushed to the global registry (watermark, so
    /// repeated `run()` calls never double-count).
    telemetry_absorbed: JournalCounts,
    /// Per-node steal deques, present only when `cfg.stealing.enabled`
    /// — the queue discipline then routes through them instead of
    /// `queue`, which stays empty.
    steal: Option<StealState>,
    /// Exact stealing / central-dispatch counters.
    steal_stats: StealStats,
    /// Reusable per-shard steal-intent buffers.
    steal_bufs: Vec<Vec<StealIntent>>,
    /// When the central coordinator (a single-server dispatch queue
    /// under `central_dispatch_rtt_secs > 0`) next frees up. Backlog
    /// carries across windows; stays `ZERO` when the knob is off.
    central_next_free: SimTime,
    /// Keyed RNG streams for victim draws ([`crate::stealing`]).
    rng_factory: RngFactory,
    /// Open-arrivals generator, present only in [`RunMode::Open`].
    arrivals: Option<ArrivalGenerator>,
    /// Service-mode counters and steady-state estimators.
    service: ServiceStats,
    /// Effective admission-queue capacity, entries (`usize::MAX` when
    /// admission is open/unbounded or the run is closed).
    queue_cap: usize,
    /// Completion count at the previous window boundary (per-window
    /// throughput deltas for the batch-means estimator).
    last_completed: usize,
}

impl ClusterSim {
    /// Build the simulation: fetch (or synthesize) the owner-workload
    /// realization for `(cfg.trace, cfg.seed, cfg.nodes)` from the shared
    /// [`TraceLibrary`] and queue the whole family at its arrival times.
    ///
    /// Common random numbers make the realization independent of policy
    /// and cost parameters, so repeated constructions across a sweep
    /// reuse one synthesis; results are identical either way.
    pub fn new(cfg: ClusterConfig) -> Self {
        let (real, origin) =
            TraceLibrary::global().realize_with_origin(&cfg.trace, cfg.seed, cfg.nodes);
        let sim = Self::with_realization(cfg, &real);
        sim.telemetry.record(|| {
            Event::new(0, 0, match origin {
                RealizeOrigin::Hit => EventKind::TraceCacheHit,
                RealizeOrigin::Miss => EventKind::TraceCacheMiss,
                RealizeOrigin::Bypass => EventKind::TraceCacheBypass,
            })
        });
        sim
    }

    /// Build the simulation over explicit per-node traces and start
    /// offsets — for measured trace data or hand-built test scenarios.
    /// The traces are transposed into a window table
    /// ([`WorkloadRealization::from_traces`]) and the simulation is built
    /// over it like any other realization.
    ///
    /// # Panics
    /// If the number of traces or offsets differs from `cfg.nodes`, or
    /// the traces do not all share one period (mixed-period traces have
    /// no window-major form).
    pub fn with_traces(
        cfg: ClusterConfig,
        traces: Vec<Arc<CoarseTrace>>,
        offsets: Vec<usize>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.nodes, "one trace per node");
        assert_eq!(offsets.len(), cfg.nodes, "one offset per node");
        let real = WorkloadRealization::from_traces(&traces, offsets)
            .expect("with_traces needs at least one trace, all of one period");
        Self::with_realization(cfg, &real)
    }

    /// Build the simulation over a shared workload realization (cached or
    /// freshly synthesized) and queue the whole family at its arrival
    /// times — every constructor ends here. The realization's window
    /// table is shared by `Arc`, never copied per policy; a streamed
    /// realization gets a fresh cursor.
    ///
    /// # Panics
    /// If the realization's node count differs from `cfg.nodes`.
    pub fn with_realization(cfg: ClusterConfig, real: &WorkloadRealization) -> Self {
        assert_eq!(real.nodes(), cfg.nodes, "realization must cover cfg.nodes");
        // Node state comes from the window rows; initial memory demand is
        // the window-0 row.
        let mut windows = real.cursor();
        let nodes = NodeSlabs::new(windows.rows(0).mem_kb, cfg.node_memory_kb);
        let jobs = JobSlabs::from_specs(cfg.family.jobs());
        let next_job_id = jobs.len() as u32;
        let n = cfg.nodes;
        // Queue discipline: the central FIFO, or — stealing mode — the
        // per-node deques, with each family job scattered to its home
        // deque (`id % nodes`) at its arrival order.
        let mut steal = cfg.stealing.enabled.then(|| StealState::new(n));
        let queue: VecDeque<usize> = match steal.as_mut() {
            Some(st) => {
                for (ji, spec) in cfg.family.jobs().iter().enumerate() {
                    let home = st.home_of(spec.id.0 as u64);
                    st.push_back(home, ji as u32);
                }
                VecDeque::new()
            }
            None => (0..jobs.len()).collect(),
        };
        // The fault schedule spans the run's hard horizon; events are a
        // pure function of (faults config, seed, node), so two runs of
        // the same config realize identical failures.
        let horizon = match cfg.mode {
            RunMode::Family => cfg.max_time,
            RunMode::Throughput { horizon } | RunMode::Open { horizon } => horizon,
        };
        let max_windows = (horizon.as_nanos() / WINDOW.as_nanos()) as usize + 1;
        let faults = FaultModel::new(cfg.faults, cfg.seed, n, max_windows);
        let shards = std::env::var("LINGER_SHARDS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| default_shard_count(n));
        let plan = ShardPlan::new(n, shards.max(1));
        let shard_count = plan.shard_count().max(1);
        // Open-arrivals wiring: the generator exists only in Open mode,
        // and the admission queue is bounded only when a bounded policy
        // asks for it — the capacity is the configured entry count
        // clamped by the `LINGER_QUEUE_BUDGET` byte budget.
        let (arrivals, queue_cap, queue_budget) = match cfg.mode {
            RunMode::Open { .. } => {
                let generator = ArrivalGenerator::new(&cfg.service.arrivals, cfg.seed);
                let budget = queue_budget_from_env();
                let cap = if cfg.service.admission == AdmissionPolicy::Open {
                    usize::MAX
                } else {
                    effective_queue_capacity(cfg.service.queue_capacity, budget)
                };
                (Some(generator), cap, budget)
            }
            _ => (None, usize::MAX, 0),
        };
        let rng_factory = RngFactory::new(cfg.seed);
        ClusterSim {
            cfg,
            nodes,
            jobs,
            queue,
            window: 0,
            foreign_cpu: SimDuration::ZERO,
            local_busy_secs: 0.0,
            local_delay_secs: 0.0,
            next_job_id,
            completed: 0,
            free: NodeIndex::full(n),
            busy: NodeIndex::new(n),
            free_idle: NodeIndex::new(n),
            dest: DestIndex::default(),
            idle_words: vec![0; n.div_ceil(64).max(1)],
            cpu_w: vec![0.0; n],
            place_scratch: VecDeque::new(),
            migrating: Vec::new(),
            windows,
            plan,
            decide_bufs: vec![Vec::new(); shard_count],
            progress_bufs: vec![Vec::new(); shard_count],
            faults,
            crashed: NodeIndex::new(n),
            fault_cursor: 0,
            fault_stats: FaultStats::default(),
            telemetry: Recorder::from_env(),
            telemetry_absorbed: JournalCounts::default(),
            steal,
            steal_stats: StealStats::default(),
            steal_bufs: vec![Vec::new(); shard_count],
            central_next_free: SimTime::ZERO,
            rng_factory,
            arrivals,
            service: ServiceStats::new(queue_cap, queue_budget),
            queue_cap,
            last_completed: 0,
        }
    }

    /// Repartition the node-id space into (at most) `shards` shards.
    ///
    /// An execution knob only: any shard count produces byte-identical
    /// results, because all side effects are applied by the sequential
    /// index-ordered merge. Defaults to [`default_shard_count`];
    /// `LINGER_SHARDS` overrides the default at construction. A count
    /// above one threads the sweep whenever the worker budget is above
    /// one ([`ShardPlan::run`]).
    pub fn set_shards(&mut self, shards: usize) {
        self.plan = ShardPlan::new(self.nodes.len(), shards.max(1));
        let shard_count = self.plan.shard_count().max(1);
        self.decide_bufs = vec![Vec::new(); shard_count];
        self.progress_bufs = vec![Vec::new(); shard_count];
        self.steal_bufs = vec![Vec::new(); shard_count];
    }

    /// Builder-style [`Self::set_shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.set_shards(shards);
        self
    }

    /// Attach (or detach) an event recorder, replacing the one built
    /// from `LINGER_TELEMETRY` at construction.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
    }

    /// Builder-style [`Self::set_recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.telemetry = recorder;
        self
    }

    /// The attached recorder (disabled unless enabled by environment or
    /// [`Self::set_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.telemetry
    }

    /// An event stamped with the current window and `t`.
    fn event_at(&self, t: SimTime, kind: EventKind) -> Event {
        Event::new(self.window as u32, t.as_nanos(), kind)
    }

    /// Current simulated time (start of the current window).
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + WINDOW.mul_f64(self.window as f64)
    }

    /// Materialized records of the full job population — archived and
    /// live — in ascending id order (inspect after a run). Slot
    /// recycling only changes which slot a live record comes from, never
    /// its place here.
    pub fn jobs(&self) -> Vec<JobRecord> {
        let mut records = self.jobs.all_records();
        // Queue time accrues lazily (one multiply at dequeue); jobs still
        // on the queue carry an unflushed span — patch it in here so the
        // materialized breakdowns match the historic per-window walk at
        // any point of the run. Parked and archived rows are Done, so
        // only live queued slots need it; ids are unique, so each finds
        // its record by binary search.
        let w = self.window as u32;
        for ji in 0..self.jobs.len() {
            if self.jobs.state[ji] != JobState::Queued {
                continue;
            }
            let from = self.jobs.queued_from[ji].max(self.arrival_window(ji));
            if w > from {
                let id = self.jobs.id[ji].0;
                let at = records
                    .binary_search_by_key(&id, |r| r.spec.id.0)
                    .expect("every live slot has a record");
                records[at].breakdown.queued += Self::window_span(w - from);
            }
        }
        records
    }

    /// Total foreign CPU delivered so far.
    pub fn foreign_cpu_delivered(&self) -> SimDuration {
        self.foreign_cpu
    }

    /// Cluster-wide foreground delay ratio so far (the "<0.5% slowdown"
    /// headline).
    pub fn foreground_delay_ratio(&self) -> f64 {
        if self.local_busy_secs == 0.0 {
            0.0
        } else {
            self.local_delay_secs / self.local_busy_secs
        }
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Live hot-lane rows in the job slabs — the recycling invariant is
    /// that this stays `O(active jobs)` no matter how many jobs have
    /// flowed through a throughput run.
    pub fn live_job_rows(&self) -> usize {
        self.jobs.len()
    }

    /// Completed jobs whose records moved to the cold archive.
    pub fn archived_jobs(&self) -> usize {
        self.jobs.archived_len()
    }

    /// Resident bytes of the live job lanes (see
    /// [`crate::state::JobSlabs::live_lane_bytes`]).
    pub fn live_lane_bytes(&self) -> usize {
        self.jobs.live_lane_bytes()
    }

    /// Fault-injection counters accumulated so far (all zero when
    /// `cfg.faults` is disabled).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Service-mode counters and steady-state estimators (inert zeros
    /// unless the run mode is [`RunMode::Open`]).
    pub fn service_stats(&self) -> &ServiceStats {
        &self.service
    }

    /// Stealing and central-dispatch counters (all zero under the
    /// default central queue with a free coordinator).
    pub fn steal_stats(&self) -> StealStats {
        self.steal_stats
    }

    /// Jobs waiting for a node, wherever they wait: the central FIFO,
    /// or the sum of every per-node deque in stealing mode.
    fn queued_len(&self) -> usize {
        match &self.steal {
            Some(st) => st.total(),
            None => self.queue.len(),
        }
    }

    /// Enqueue a job under the active queue discipline: the central
    /// FIFO, or the job's home deque (`id % nodes`) in stealing mode.
    fn enqueue_job(&mut self, ji: usize) {
        match self.steal.as_mut() {
            Some(st) => {
                let home = st.home_of(self.jobs.id[ji].0 as u64);
                st.push_back(home, ji as u32);
            }
            None => self.queue.push_back(ji),
        }
    }

    /// Wall-clock seconds spent building streamed window chunks so far
    /// (0 for table-backed realizations). Chunk builds are deferred
    /// synthesis, so harnesses attribute this to setup and subtract it
    /// from the sweep's run time.
    pub fn stream_build_secs(&self) -> f64 {
        self.windows.build_secs()
    }

    /// Number of window chunks built so far (0 unless streamed).
    pub fn stream_chunks_built(&self) -> u64 {
        self.windows.chunks_built()
    }

    /// Resident bytes of the streamed window arena — chunk plus per-node
    /// stream states and scratch (0 unless streamed).
    pub fn stream_arena_bytes(&self) -> usize {
        self.windows.approx_bytes()
    }

    /// Recruitment idle flag of node `ni` at the current window.
    #[inline]
    fn idle_at(&self, ni: usize) -> bool {
        self.idle_words[ni / 64] & (1u64 << (ni % 64)) != 0
    }

    /// Run to the configured termination condition. Returns `true` on
    /// normal completion, `false` if the family-mode safety horizon hit.
    pub fn run(&mut self) -> bool {
        let done = loop {
            match self.cfg.mode {
                RunMode::Family => {
                    if self.completed == self.jobs.total_jobs() {
                        break true;
                    }
                    if self.now() >= self.cfg.max_time {
                        break false;
                    }
                }
                RunMode::Throughput { horizon } | RunMode::Open { horizon } => {
                    if self.now() >= horizon {
                        break true;
                    }
                }
            }
            self.step();
        };
        self.flush_telemetry();
        done
    }

    /// Merge this run's counters into the process-wide registry (once —
    /// a watermark guards repeated calls) and spill the journal as JSON
    /// lines when `LINGER_TELEMETRY_DIR` is set. The spill file name is
    /// a digest of the serialized configuration, so identical configs
    /// overwrite each other with identical bytes and a sweep stays
    /// race-free at any `--jobs`.
    fn flush_telemetry(&mut self) {
        let Some(journal) = self.telemetry.journal() else { return };
        let counts = journal.counts();
        let delta = counts.since(&self.telemetry_absorbed);
        if delta.events > 0 {
            linger_telemetry::metrics::global()
                .absorb_counts(self.cfg.params.policy.abbrev(), delta);
        }
        self.telemetry_absorbed = counts;
        if let Some(dir) = std::env::var_os("LINGER_TELEMETRY_DIR") {
            let name = format!(
                "journal-{}-{:016x}.jsonl",
                self.cfg.params.policy.abbrev(),
                config_digest(&self.cfg)
            );
            let path = std::path::Path::new(&dir).join(name);
            if let Err(e) = journal.write_jsonl(&path) {
                eprintln!("telemetry: could not write {}: {e}", path.display());
            }
        }
    }

    /// Advance one 2-second window.
    pub fn step(&mut self) {
        let t = self.now();
        let w = self.window;
        self.telemetry.record(|| {
            self.event_at(t, EventKind::WindowStart { queue_depth: self.queued_len() as u32 })
        });
        // 0. Per-window node state: copy the window's cpu/idle lanes into
        //    the scratch arrays and refresh every node's memory demand.
        self.refresh_window(w);

        // 1. Fault events. A crash knocks the node out of every
        //    scheduling set and kills whatever it hosted (or was
        //    receiving); a reboot returns it to the free pool. The
        //    schedule is pre-sorted by window, so this is a cursor
        //    advance — O(1) per window when no faults are configured.
        while let Some(&ev) = self.faults.events().get(self.fault_cursor) {
            if ev.window > w {
                break;
            }
            self.fault_cursor += 1;
            match ev.kind {
                FaultEventKind::Crash => self.crash_node(ev.node, t),
                FaultEventKind::Reboot => self.reboot_node(ev.node),
            }
        }

        // 1b. Open arrivals and admission control (serving mode only).
        //     Injection precedes migration arrivals and placement, so an
        //     arrival admitted this window is placeable this window —
        //     matching the closed family, whose time-zero jobs are
        //     placeable in window 0.
        if self.arrivals.is_some() {
            self.inject_arrivals(t);
        }

        // 2. Shared-network transfer progress, then migration arrivals.
        //    `migrating` is a superset of the in-flight jobs, so working
        //    from it (sorted — the ascending order the old full job-table
        //    scan visited) touches the same jobs in the same order. An
        //    arrival can evict-and-remigrate (IE on a now-busy
        //    destination), pushing onto `self.migrating` mid-loop; those
        //    jobs have fresh deadlines in the future and are merged back
        //    for the next window.
        let mut mig = std::mem::take(&mut self.migrating);
        // Sort by the slot's *current occupant id*, not the raw slab
        // index: a recycled slot can hold a high id at a low index, and
        // the arrival order is observable (destination picks depend on
        // what earlier arrivals occupied), so it must follow submission
        // order. Equal ids mean equal slots, so `dedup` still collapses
        // duplicates after the sort.
        mig.sort_unstable_by_key(|&ji| self.jobs.id[ji].0);
        mig.dedup();
        if let Some(net) = self.cfg.network {
            let flows = mig
                .iter()
                .filter(|&&ji| {
                    self.jobs.state[ji] == JobState::Migrating
                        && self.jobs.cold[ji].migration_bits_left.is_some_and(|b| b > 0.0)
                })
                .count();
            if flows > 0 {
                let moved = net.bits_transferred(flows, WINDOW.as_secs_f64());
                for &ji in &mig {
                    if self.jobs.state[ji] == JobState::Migrating {
                        if let Some(bits) = self.jobs.cold[ji].migration_bits_left.as_mut() {
                            *bits -= moved;
                        }
                    }
                }
            }
        }
        for &ji in &mig {
            let cold = &self.jobs.cold[ji];
            let fixed_done = cold.migration_until.is_some_and(|until| t >= until);
            let bits_done = cold.migration_bits_left.is_none_or(|b| b <= 0.0);
            if self.jobs.state[ji] == JobState::Migrating && fixed_done && bits_done {
                if self.faults.migration_fails(self.jobs.id[ji].0, cold.transfer_seq) {
                    // The image was lost in transit: free the reserved
                    // destination and retry with backoff (or abandon).
                    self.fault_stats.migration_failures += 1;
                    let dest = self.jobs.node(ji).expect("migration has a destination");
                    let job = self.jobs.id[ji].0;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::MigrationFail { dest: dest.0 as u32 })
                            .on_node(dest.0 as u32)
                            .for_job(job)
                    });
                    self.release_node(dest);
                    self.retry_migration(ji, t);
                } else {
                    self.arrive(ji, t);
                }
            }
        }
        mig.retain(|&ji| self.jobs.state[ji] == JobState::Migrating);
        mig.extend(&self.migrating);
        self.migrating = mig;

        // 3. Idle/non-idle transitions and policy decisions — hosted
        //    nodes only; the busy index skips free nodes entirely. Each
        //    shard classifies its busy nodes against the window-start
        //    state (each decision below only ever releases its *own* node
        //    or claims a free one, so per-node classification is pure
        //    over the phase start); the merge applies them ascending.
        self.classify_decisions(t);
        self.apply_decisions(t);

        // 4. Progress, completions, and delay accounting. The busy-hours
        //    sum runs over every node (same ascending order as always —
        //    f64 addition is order-sensitive, so it stays sequential);
        //    job progress only touches hosted nodes: shards do the
        //    steal-rate math, the merge applies it ascending.
        for ni in 0..self.nodes.len() {
            self.local_busy_secs += self.cpu_w[ni] * WINDOW.as_secs_f64();
        }
        self.classify_progress();
        self.apply_progress(t);

        // 5. Placement of queued jobs. Queue time is no longer accrued
        //    by a per-window queue walk: each job's accrual is an exact
        //    integer-nanosecond multiple of `WINDOW`, so it is applied
        //    in one multiply when the job leaves the queue (and patched
        //    for still-queued jobs in `jobs()`), replacing the historic
        //    phase 6 with identical bytes and zero per-window cost.
        //    Stealing mode replaces the central pass with the deque
        //    discipline: shards classify which free nodes may acquire
        //    work; the merge resolves pops and randomized probes in
        //    ascending node order.
        if self.steal.is_some() {
            self.classify_steals();
            self.apply_steals(t);
        } else {
            self.place_queued(t);
        }

        // 6. Service-mode steady-state accounting: per-window completed
        //    deltas feed the throughput batch means; depth/row peaks are
        //    the bounded-state witnesses the scorecard checks.
        if self.arrivals.is_some() {
            let delta = self.completed - self.last_completed;
            self.last_completed = self.completed;
            self.service.throughput.add(delta as f64);
            self.service.peak_queue_depth = self.service.peak_queue_depth.max(self.queued_len());
            self.service.peak_live_rows = self.service.peak_live_rows.max(self.jobs.len());
        }

        self.window += 1;
    }

    /// First window index at which a queued job accrues queue time: the
    /// first window whose start time is at or past its submission.
    /// (The historic per-window walk accrued under `t >= arrival`.)
    fn arrival_window(&self, ji: usize) -> u32 {
        self.jobs.arrival[ji].as_nanos().div_ceil(WINDOW.as_nanos()) as u32
    }

    /// Exactly `count` windows of time — integer nanoseconds, equal to
    /// `count` repeated `WINDOW` additions.
    fn window_span(count: u32) -> SimDuration {
        SimDuration::from_nanos(WINDOW.as_nanos() * count as u64)
    }

    /// Credit job `ji`'s queued time for the span it just spent on the
    /// queue: every window from `max(entry, arrival)` up to (not
    /// including) the current one — the exact set of windows the historic
    /// phase-6 walk visited it in.
    fn flush_queue_time(&mut self, ji: usize) {
        let from = self.jobs.queued_from[ji].max(self.arrival_window(ji));
        let w = self.window as u32;
        if w > from {
            self.jobs.breakdown[ji].queued += Self::window_span(w - from);
        }
    }

    /// Phase 1b (serving mode): draw this window's arrivals and run them
    /// through admission control. All counters are exact; the identity
    /// `generated == admitted + shed + deficit` holds after every window.
    fn inject_arrivals(&mut self, t: SimTime) {
        let mut generator = self.arrivals.take().expect("open mode has a generator");
        let offered = generator.begin_window();
        let policy = self.cfg.service.admission;

        // Deadline policy: renege over-age jobs from the queue head
        // before admitting, so freshly freed capacity is usable at once.
        if policy == AdmissionPolicy::Deadline {
            self.renege_expired(t);
        }

        self.service.generated += offered as u64;
        let mut admitted = 0u32;
        let mut refused = false;
        match policy {
            AdmissionPolicy::Open => {
                for _ in 0..offered {
                    self.admit_arrival(&mut generator, t);
                }
                admitted = offered;
            }
            AdmissionPolicy::Shed | AdmissionPolicy::Deadline => {
                let space = self.queue_cap.saturating_sub(self.queued_len());
                let take = (offered as usize).min(space) as u32;
                for _ in 0..take {
                    self.admit_arrival(&mut generator, t);
                }
                admitted = take;
                let dropped = offered - take;
                if dropped > 0 {
                    refused = true;
                    self.service.shed += dropped as u64;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::AdmissionShed { count: dropped })
                    });
                }
            }
            AdmissionPolicy::Block => {
                // Backpressure: the blocked source re-offers its deficit
                // (FIFO upstream) before this window's new arrivals;
                // whatever still does not fit stays upstream as O(1)
                // counter state — nothing is lost, nothing unbounded.
                // Deficit jobs draw their demands from the window that
                // admits them, so draining needs this window's stream
                // (present whenever the window's rate was positive).
                let mut space = self.queue_cap.saturating_sub(self.queued_len());
                if generator.has_window_stream() {
                    let drain = (self.service.deficit).min(space as u64) as u32;
                    for _ in 0..drain {
                        self.admit_arrival(&mut generator, t);
                    }
                    admitted += drain;
                    self.service.deficit -= drain as u64;
                    space -= drain as usize;
                }
                let take = (offered as usize).min(space) as u32;
                for _ in 0..take {
                    self.admit_arrival(&mut generator, t);
                }
                admitted += take;
                let deferred = offered - take;
                if deferred > 0 || self.service.deficit > 0 {
                    refused = deferred > 0;
                    self.service.deferred += deferred as u64;
                    self.service.deficit += deferred as u64;
                    self.service.peak_deficit =
                        self.service.peak_deficit.max(self.service.deficit);
                    let deficit = self.service.deficit;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::AdmissionDefer { count: deferred, deficit })
                    });
                }
            }
        }
        if refused {
            self.service.saturated_windows += 1;
        }
        if offered > 0 || admitted > 0 {
            let depth = self.queued_len() as u32;
            self.telemetry.record(|| {
                self.event_at(t, EventKind::ArrivalBurst { offered, admitted, depth })
            });
        }
        self.arrivals = Some(generator);
    }

    /// Admit one arrival: draw its demand, mint the next job id, push a
    /// live slab row (reusing a retired slot when one is free), and join
    /// the FIFO queue. Arrival time is the current window start, so the
    /// job is placeable this very window and its lazy queue-time span
    /// starts exactly here.
    fn admit_arrival(&mut self, generator: &mut ArrivalGenerator, t: SimTime) {
        let (cpu_demand, mem_kb) = generator.draw_demand();
        let spec = JobSpec { id: JobId(self.next_job_id), cpu_demand, mem_kb, arrival: t };
        self.next_job_id += 1;
        let ji = self.jobs.push(spec, self.window as u32);
        self.enqueue_job(ji);
        self.service.admitted += 1;
    }

    /// Drop queued jobs whose waiting time exceeds the deadline. The
    /// queue is FIFO and every (re)enqueue stamps the current window, so
    /// effective entry windows are non-decreasing front to back and the
    /// scan stops at the first unexpired job.
    fn renege_expired(&mut self, t: SimTime) {
        if self.steal.is_some() {
            self.renege_expired_deques(t);
            return;
        }
        let deadline_secs = self.cfg.service.deadline_secs;
        let w = self.window as u32;
        while let Some(&ji) = self.queue.front() {
            let from = self.jobs.queued_from[ji].max(self.arrival_window(ji));
            let waited = if w > from { Self::window_span(w - from) } else { SimDuration::ZERO };
            if waited.as_secs_f64() <= deadline_secs {
                break;
            }
            self.queue.pop_front();
            self.flush_queue_time(ji);
            self.jobs.state[ji] = JobState::Done;
            self.jobs.node[ji] = NO_NODE;
            self.service.deadline_dropped += 1;
            let job = self.jobs.id[ji].0;
            let waited_secs = waited.as_secs_f64();
            self.telemetry.record(|| {
                self.event_at(t, EventKind::DeadlineDrop { waited_secs }).for_job(job)
            });
            // Dropped-unserved jobs retire like completions: record to
            // the cold archive, recycle the slot. They are *not* counted
            // completed and carry no `completed_at`.
            self.jobs.retire(ji);
        }
    }

    /// Deadline reneging over the steal deques. `steal_half` moves old
    /// jobs onto younger deques, so expiry is *not* front-monotonic per
    /// deque — every deque is scanned in full, ascending node order,
    /// front to back (a deterministic order at any shard count).
    fn renege_expired_deques(&mut self, t: SimTime) {
        let mut st = self.steal.take().expect("stealing mode");
        let deadline_secs = self.cfg.service.deadline_secs;
        let w = self.window as u32;
        let mut expired: Vec<u32> = Vec::new();
        for ni in 0..st.nodes() {
            if st.len(ni) == 0 {
                continue;
            }
            expired.clear();
            expired.extend(st.iter(ni).filter(|&ji| {
                let ji = ji as usize;
                let from = self.jobs.queued_from[ji].max(self.arrival_window(ji));
                let waited =
                    if w > from { Self::window_span(w - from) } else { SimDuration::ZERO };
                waited.as_secs_f64() > deadline_secs
            }));
            if expired.is_empty() {
                continue;
            }
            st.remove(ni, &expired);
            for &ji32 in &expired {
                let ji = ji32 as usize;
                let from = self.jobs.queued_from[ji].max(self.arrival_window(ji));
                let waited_secs = Self::window_span(w - from).as_secs_f64();
                self.flush_queue_time(ji);
                self.jobs.state[ji] = JobState::Done;
                self.jobs.node[ji] = NO_NODE;
                self.service.deadline_dropped += 1;
                let job = self.jobs.id[ji].0;
                self.telemetry.record(|| {
                    self.event_at(t, EventKind::DeadlineDrop { waited_secs }).for_job(job)
                });
                self.jobs.retire(ji);
            }
        }
        self.steal = Some(st);
    }

    /// Phase 0: refresh the per-window scratch (cpu lane, idle words,
    /// memory demand) and rebuild the `free ∧ idle` candidate set.
    ///
    /// Each shard streams its own slice of the window's three SoA rows:
    /// busy nodes take the full two-pool accounting path (reclaim/regrow
    /// against the hosted job), then a branch-free bulk store refreshes
    /// every node — a value-level no-op on the busy nodes just updated,
    /// and exactly equivalent to the full path on nodes with no foreign
    /// job attached.
    fn refresh_window(&mut self, w: usize) {
        // A streamed cursor builds (or reuses) the chunk covering `w`
        // here, recycling its arena in place.
        let rows = self.windows.rows(w);
        let (cpu_row, mem_row, idle_row) = (rows.cpu, rows.mem_kb, rows.idle);
        let plan = &self.plan;
        let busy_words = self.busy.words();
        let parts = plan
            .split_mut(&mut self.cpu_w)
            .into_iter()
            .zip(plan.split_mut(&mut self.nodes.memory))
            .zip(plan.split_words_mut(&mut self.idle_words));
        plan.run(parts, |si, ((cpu_dst, mem_dst), idle_dst)| {
            let range = plan.ranges()[si].clone();
            let busy_w = &busy_words[plan.word_range(si)];
            refresh_shard(range, cpu_dst, idle_dst, mem_dst, busy_w, cpu_row, mem_row, idle_row);
        });
        // One O(n/64) pass replaces the historical per-node inserts; the
        // set content is identical (`free` already excludes crashed
        // nodes).
        self.free_idle.assign_and_words(&self.idle_words, &self.free);
        self.dest.invalidate();
    }

    /// Phase 3 classify: every shard scans its slice of the busy index
    /// and records what the policy would do to each hosted job, reading
    /// only window-start state.
    fn classify_decisions(&mut self, t: SimTime) {
        let mut bufs = std::mem::take(&mut self.decide_bufs);
        let plan = &self.plan;
        let busy_words = self.busy.words();
        let hosted = &self.nodes.hosted;
        let job_state = &self.jobs.state;
        let cold = &self.jobs.cold;
        let idle_words = &self.idle_words;
        let policy = self.cfg.params.policy;
        plan.run(bufs.iter_mut(), |si, out| {
            out.clear();
            let wr = plan.word_range(si);
            classify_decisions_shard(
                wr.start,
                &busy_words[wr],
                hosted,
                job_state,
                cold,
                idle_words,
                policy,
                t,
                out,
            );
        });
        self.decide_bufs = bufs;
    }

    /// Phase 3 merge: apply the recorded decisions in ascending node
    /// order — the order the historical single sweep visited busy nodes.
    /// Destination selection (migrations, evictions) runs here against
    /// the live candidate set, exactly as it always did.
    fn apply_decisions(&mut self, t: SimTime) {
        let mut bufs = std::mem::take(&mut self.decide_bufs);
        for buf in &mut bufs {
            for i in 0..buf.len() {
                // Start a later intent's job-record fill while this one
                // applies; every arm below touches `cold[ji]`.
                if let Some(ahead) = buf.get(i + 8) {
                    prefetch_read(&self.jobs.cold[ahead.ji as usize]);
                }
                let intent = buf[i];
                let ni = NodeId(intent.ni as usize);
                let ji = intent.ji as usize;
                match intent.kind {
                    DecideKind::NonIdle => self.on_non_idle(ji, ni, t),
                    DecideKind::ResumeLinger => {
                        // Episode over; back to plain running.
                        self.jobs.state[ji] = JobState::Running;
                        self.jobs.cold[ji].episode_start = None;
                        self.record_decision(ji, ni, t, DecisionAction::Resume, None);
                    }
                    DecideKind::LingerCheck => self.maybe_migrate_lingering(ji, ni, t),
                    DecideKind::ResumePause => {
                        self.jobs.state[ji] = JobState::Running;
                        self.jobs.cold[ji].episode_start = None;
                        self.jobs.cold[ji].pause_deadline = None;
                        self.record_decision(ji, ni, t, DecisionAction::Resume, None);
                    }
                    DecideKind::PauseEvict => self.evict(ji, ni, t),
                }
            }
            buf.clear();
        }
        self.decide_bufs = bufs;
    }

    /// Phase 4 classify: the per-busy-node steal-rate/residency math,
    /// done by the owning shard against phase-start state (progress on
    /// one node never touches another's inputs).
    fn classify_progress(&mut self) {
        let mut bufs = std::mem::take(&mut self.progress_bufs);
        let plan = &self.plan;
        let busy_words = self.busy.words();
        let hosted = &self.nodes.hosted;
        let memory = &self.nodes.memory;
        let job_state = &self.jobs.state;
        let remaining = &self.jobs.remaining;
        let cpu_w = &self.cpu_w;
        let cfg = &self.cfg;
        plan.run(bufs.iter_mut(), |si, out| {
            out.clear();
            let wr = plan.word_range(si);
            classify_progress_shard(
                wr.start,
                &busy_words[wr],
                hosted,
                job_state,
                remaining,
                memory,
                cpu_w,
                cfg,
                out,
            );
        });
        self.progress_bufs = bufs;
    }

    /// Phase 4 merge: apply gains, delays, and completions in ascending
    /// node order. The f64 accumulations happen here, in the historical
    /// order, with the exact expressions the shards pre-computed.
    fn apply_progress(&mut self, t: SimTime) {
        let mut bufs = std::mem::take(&mut self.progress_bufs);
        for buf in &mut bufs {
            for i in 0..buf.len() {
                // Start a later intent's demand/breakdown fills while
                // this one applies.
                if let Some(ahead) = buf.get(i + 8) {
                    let j = ahead.ji as usize;
                    prefetch_read(&self.jobs.remaining[j]);
                    prefetch_read(&self.jobs.breakdown[j]);
                }
                let p = buf[i];
                let ji = p.ji as usize;
                match p.kind {
                    ProgressKind::Account => {
                        // Paused/migrating-in jobs make no progress;
                        // account time.
                        self.jobs.breakdown[ji].add(p.state, WINDOW);
                    }
                    ProgressKind::Advance => {
                        if p.has_delay {
                            self.local_delay_secs += p.delay_add;
                        }
                        self.foreign_cpu += p.gain;
                        self.jobs.remaining[ji] =
                            self.jobs.remaining[ji].saturating_sub(p.gain);
                        self.jobs.breakdown[ji].add(p.state, WINDOW);
                    }
                    ProgressKind::Complete => {
                        if p.has_delay {
                            self.local_delay_secs += p.delay_add;
                        }
                        let remaining = self.jobs.remaining[ji];
                        let at = t + WINDOW.mul_f64(p.frac);
                        self.foreign_cpu += remaining;
                        self.jobs.remaining[ji] = SimDuration::ZERO;
                        self.jobs.breakdown[ji].add(p.state, WINDOW.mul_f64(p.frac));
                        self.complete(ji, NodeId(p.ni as usize), at);
                    }
                }
            }
            buf.clear();
        }
        self.progress_bufs = bufs;
    }

    /// Record a policy decision about `ji` on `node` (telemetry only —
    /// reads window utilization, mutates nothing).
    fn record_decision(
        &self,
        ji: usize,
        node: NodeId,
        t: SimTime,
        action: DecisionAction,
        dest: Option<NodeId>,
    ) {
        self.telemetry.record(|| {
            self.event_at(t, EventKind::Decision {
                action,
                host_cpu: Some(self.cpu_w[node.0]),
                dest_cpu: dest.map(|d| self.cpu_w[d.0]),
                age_secs: None,
                migration_secs: None,
                dest: dest.map(|d| d.0 as u32),
            })
            .on_node(node.0 as u32)
            .for_job(self.jobs.id[ji].0)
        });
    }

    /// A running job's node turned non-idle: apply the policy.
    fn on_non_idle(&mut self, ji: usize, node: NodeId, t: SimTime) {
        match self.cfg.params.policy {
            Policy::ImmediateEviction => self.evict(ji, node, t),
            Policy::PauseAndMigrate => {
                self.jobs.state[ji] = JobState::Paused;
                self.jobs.cold[ji].episode_start = Some(t);
                self.jobs.cold[ji].pause_deadline = Some(t + self.cfg.params.pause_timeout);
                self.record_decision(ji, node, t, DecisionAction::Pause, None);
            }
            Policy::LingerLonger | Policy::LingerForever => {
                self.jobs.state[ji] = JobState::Lingering;
                self.jobs.cold[ji].episode_start = Some(t);
                self.record_decision(ji, node, t, DecisionAction::Linger, None);
            }
        }
    }

    /// The Linger-Longer migration test (paper Sec 2): once the episode
    /// age reaches `T_lingr = (1−l)/(h−l)·T_migr` for the best available
    /// destination, migrate.
    fn maybe_migrate_lingering(&mut self, ji: usize, node: NodeId, t: SimTime) {
        let Some(start) = self.jobs.cold[ji].episode_start else { return };
        let mem_kb = self.jobs.mem_kb[ji];
        if self.steal.is_some() {
            // Decentralized mode has no global destination index: nodes
            // acquire work themselves, so no coordinator knows the best
            // destination. Apply the linger test against an assumed-idle
            // destination; past the threshold the job returns to its
            // home deque and waits to be popped or stolen, paying queue
            // and steal latency where the central policy paid a
            // directed move.
            let h = self.cpu_w[node.0];
            let t_migr = self.cfg.params.migration.cost(mem_kb);
            let age = t.saturating_since(start);
            if should_migrate(age, h, 0.0, t_migr) {
                self.record_decision(ji, node, t, DecisionAction::Requeue, None);
                self.release_node(node);
                self.requeue(ji, t);
            }
            return;
        }
        let Some(dest) = self.best_destination(Pool::Idle, mem_kb, Some(node)) else {
            return; // nowhere better to go; keep lingering
        };
        let h = self.cpu_w[node.0];
        let l = self.cpu_w[dest.0];
        let t_migr = self.cfg.params.migration.cost(mem_kb);
        let age = t.saturating_since(start);
        if should_migrate(age, h, l, t_migr) {
            self.telemetry.record(|| {
                self.event_at(t, EventKind::Decision {
                    action: DecisionAction::Migrate,
                    host_cpu: Some(h),
                    dest_cpu: Some(l),
                    age_secs: Some(age.as_secs_f64()),
                    migration_secs: Some(t_migr.as_secs_f64()),
                    dest: Some(dest.0 as u32),
                })
                .on_node(node.0 as u32)
                .for_job(self.jobs.id[ji].0)
            });
            self.migrate(ji, node, dest, t);
        }
    }

    /// Evict: migrate to the best idle node if one exists, otherwise
    /// return to the queue (the migration cost is then paid when the job
    /// is re-placed).
    fn evict(&mut self, ji: usize, node: NodeId, t: SimTime) {
        if self.steal.is_some() {
            // No global index to pick an eviction target from under
            // stealing: the job returns to its home deque and the next
            // free node pops or steals it.
            self.record_decision(ji, node, t, DecisionAction::Requeue, None);
            self.release_node(node);
            self.requeue(ji, t);
            return;
        }
        match self.best_destination(Pool::Idle, self.jobs.mem_kb[ji], Some(node)) {
            Some(dest) => {
                self.record_decision(ji, node, t, DecisionAction::Evict, Some(dest));
                self.migrate(ji, node, dest, t);
            }
            None => {
                self.record_decision(ji, node, t, DecisionAction::Requeue, None);
                self.release_node(node);
                self.requeue(ji, t);
            }
        }
    }

    /// Return a job to the waiting pool — the central queue, or its home
    /// deque in stealing mode — with no node and no in-flight migration
    /// state.
    fn requeue(&mut self, ji: usize, t: SimTime) {
        self.jobs.state[ji] = JobState::Queued;
        self.jobs.node[ji] = NO_NODE;
        let cold = &mut self.jobs.cold[ji];
        cold.episode_start = None;
        cold.pause_deadline = None;
        cold.migration_until = None;
        cold.migration_bits_left = None;
        cold.migration_attempts = 0;
        self.jobs.queued_from[ji] = self.window as u32;
        self.enqueue_job(ji);
        self.telemetry.record(|| {
            self.event_at(t, EventKind::QueueEnter).for_job(self.jobs.id[ji].0)
        });
    }

    /// A node crashes: it leaves every scheduling set, and the job it
    /// hosted — running, lingering, paused, or still in transit toward
    /// it — is lost and must restart elsewhere from its last checkpoint
    /// (re-placement of a `has_run` job pays a full migration).
    fn crash_node(&mut self, ni: usize, t: SimTime) {
        if self.crashed.contains(ni) {
            return;
        }
        self.crashed.insert(ni);
        self.fault_stats.crashes += 1;
        self.free.remove(ni);
        self.free_idle.remove(ni);
        let hosted = self.nodes.hosted(ni);
        self.telemetry.record(|| {
            self.event_at(t, EventKind::NodeCrash {
                evicted: hosted.map(|ji| self.jobs.id[ji].0),
            })
            .on_node(ni as u32)
        });
        if let Some(ji) = hosted {
            self.nodes.memory[ni].detach_foreign();
            self.nodes.set_hosted(ni, None);
            self.busy.remove(ni);
            self.fault_stats.crash_evictions += 1;
            self.jobs.cold[ji].crashes += 1;
            if self.jobs.state[ji] == JobState::Migrating {
                // The in-flight image died with its destination; retry
                // toward a fresh one under the same backoff budget.
                self.retry_migration(ji, t);
            } else {
                self.requeue(ji, t);
            }
        }
    }

    /// A crashed node's reboot completes: it rejoins the free pool (and
    /// the idle candidate set if its owner workload is idle).
    fn reboot_node(&mut self, ni: usize) {
        if !self.crashed.contains(ni) {
            return;
        }
        self.crashed.remove(ni);
        self.join_free(ni);
        self.telemetry
            .record(|| self.event_at(self.now(), EventKind::NodeReboot).on_node(ni as u32));
    }

    /// A transfer attempt failed (in transit or by destination crash):
    /// start the next attempt toward the best destination after a capped
    /// exponential backoff plus checkpoint-restart cost, or abandon the
    /// migration once the attempt budget is spent. The caller has
    /// already released (or lost) the previous destination.
    fn retry_migration(&mut self, ji: usize, t: SimTime) {
        if self.steal.is_some() {
            // No centralized rescue dispatcher exists under stealing:
            // a lost transfer (failed steal delivery included) goes back
            // to the job's home deque and waits to be popped or stolen
            // again.
            self.requeue(ji, t);
            return;
        }
        let attempt = self.jobs.cold[ji].migration_attempts.max(1);
        let retry = self.cfg.params.retry;
        if attempt >= retry.max_attempts {
            self.fault_stats.migrations_abandoned += 1;
            self.telemetry.record(|| {
                self.event_at(t, EventKind::MigrationAbandon).for_job(self.jobs.id[ji].0)
            });
            self.requeue(ji, t);
            return;
        }
        let mem_kb = self.jobs.mem_kb[ji];
        let Some(dest) = self.best_destination(Pool::Idle, mem_kb, None) else {
            // Nowhere to retry toward; fall back to the queue instead of
            // burning attempts against a saturated cluster.
            self.requeue(ji, t);
            return;
        };
        self.fault_stats.migration_retries += 1;
        self.telemetry.record(|| {
            self.event_at(t, EventKind::MigrationRetry { dest: dest.0 as u32, attempt })
                .on_node(dest.0 as u32)
                .for_job(self.jobs.id[ji].0)
        });
        let start = t + retry.retry_delay(attempt - 1);
        let (until, bits) = self.migration_terms(mem_kb, start);
        self.jobs.state[ji] = JobState::Migrating;
        self.jobs.node[ji] = dest.0 as u32;
        let cold = &mut self.jobs.cold[ji];
        cold.migration_until = Some(until);
        cold.migration_bits_left = bits;
        cold.migration_attempts = attempt + 1;
        cold.transfer_seq += 1;
        self.migrating.push(ji);
        self.claim_node(dest, ji);
    }

    /// Begin a migration from `from` to the reserved `dest`.
    fn migrate(&mut self, ji: usize, from: NodeId, dest: NodeId, t: SimTime) {
        self.telemetry.record(|| {
            self.event_at(t, EventKind::MigrationStart { dest: dest.0 as u32, attempt: 1 })
                .on_node(from.0 as u32)
                .for_job(self.jobs.id[ji].0)
        });
        self.release_node(from);
        let (until, bits) = self.migration_terms(self.jobs.mem_kb[ji], t);
        self.jobs.state[ji] = JobState::Migrating;
        self.jobs.node[ji] = dest.0 as u32;
        let cold = &mut self.jobs.cold[ji];
        cold.migration_until = Some(until);
        cold.migration_bits_left = bits;
        cold.episode_start = None;
        cold.pause_deadline = None;
        cold.migrations += 1;
        cold.migration_attempts = 1;
        cold.transfer_seq += 1;
        self.migrating.push(ji);
        self.claim_node(dest, ji); // reserve
    }

    /// Fixed-deadline and transfer terms for a migration starting at `t`.
    ///
    /// Without a shared network, the whole cost (processing + transfer at
    /// the effective rate) is a deadline. With one, the deadline covers
    /// only the fixed processing; the image's bits then drain at whatever
    /// rate the contended backbone provides.
    fn migration_terms(&self, mem_kb: u32, t: SimTime) -> (SimTime, Option<f64>) {
        match self.cfg.network {
            None => (t + self.cfg.params.migration.cost(mem_kb), None),
            Some(_) => {
                let fixed = self.cfg.params.migration.source_processing
                    + self.cfg.params.migration.dest_processing;
                (t + fixed, Some(mem_kb as f64 * 1024.0 * 8.0))
            }
        }
    }

    /// A migrating job materializes on its reserved destination.
    fn arrive(&mut self, ji: usize, t: SimTime) {
        let node = self.jobs.node(ji).expect("migration has a destination");
        self.telemetry.record(|| {
            self.event_at(t, EventKind::MigrationArrive { dest: node.0 as u32 })
                .on_node(node.0 as u32)
                .for_job(self.jobs.id[ji].0)
        });
        self.nodes.memory[node.0].attach_foreign(self.jobs.mem_kb[ji]);
        let idle = self.idle_at(node.0);
        let cold = &mut self.jobs.cold[ji];
        cold.migration_until = None;
        cold.migration_bits_left = None;
        cold.migration_attempts = 0;
        cold.has_run = true;
        if cold.first_start.is_none() {
            cold.first_start = Some(t);
        }
        self.jobs.state[ji] = JobState::Running;
        self.jobs.cold[ji].episode_start = None;
        if !idle {
            // The destination turned non-idle while the job was in
            // transit: apply the policy's non-idle reaction immediately
            // (IE evicts again — the "unnecessary, expensive migrations"
            // the paper attributes to it).
            self.on_non_idle(ji, node, t);
        }
    }

    /// Job finished: free the node, record, respawn in throughput mode.
    fn complete(&mut self, ji: usize, node: NodeId, at: SimTime) {
        self.release_node(node);
        self.jobs.state[ji] = JobState::Done;
        self.jobs.node[ji] = NO_NODE;
        self.jobs.cold[ji].completed_at = Some(at);
        self.completed += 1;
        let b = self.jobs.breakdown[ji];
        let completion_secs = at.saturating_since(self.jobs.arrival[ji]).as_secs_f64();
        let migrations = self.jobs.cold[ji].migrations;
        self.telemetry.record(|| {
            self.event_at(at, EventKind::Complete {
                queued_secs: b.queued.as_secs_f64(),
                running_secs: b.running.as_secs_f64(),
                lingering_secs: b.lingering.as_secs_f64(),
                paused_secs: b.paused.as_secs_f64(),
                migrating_secs: b.migrating.as_secs_f64(),
                completion_secs,
                migrations,
            })
            .on_node(node.0 as u32)
            .for_job(self.jobs.id[ji].0)
        });
        match self.cfg.mode {
            RunMode::Throughput { .. } => {
                // Hold the number of jobs in the system constant.
                let spec = JobSpec {
                    id: JobId(self.next_job_id),
                    arrival: at,
                    cpu_demand: self.jobs.cold[ji].cpu_demand,
                    mem_kb: self.jobs.mem_kb[ji],
                };
                self.next_job_id += 1;
                // Retire the finished record into the archive and respawn
                // in the freed slot: the id above comes from the
                // simulator's counter, so recycling only changes the slab
                // index, never the identity.
                let new_ji = self.jobs.respawn(ji, spec, self.window as u32);
                self.enqueue_job(new_ji);
            }
            RunMode::Open { .. } => {
                // Serving mode: the latency estimator sees every
                // completion, and the finished row retires so live state
                // tracks the active population, not the total flow.
                self.service.latency.add(completion_secs);
                self.jobs.retire(ji);
            }
            RunMode::Family => {}
        }
    }

    fn claim_node(&mut self, node: NodeId, ji: usize) {
        self.nodes.set_hosted(node.0, Some(ji));
        self.free.remove(node.0);
        self.free_idle.remove(node.0);
        self.busy.insert(node.0);
    }

    fn release_node(&mut self, node: NodeId) {
        self.nodes.memory[node.0].detach_foreign();
        self.nodes.set_hosted(node.0, None);
        self.join_free(node.0);
        self.busy.remove(node.0);
    }

    /// Node `ni` returns to the free pool mid-window (release or reboot):
    /// into `free`, into `free_idle` if its owner is idle, and into the
    /// destination index at its sorted position.
    fn join_free(&mut self, ni: usize) {
        self.free.insert(ni);
        let pool = if self.idle_at(ni) {
            self.free_idle.insert(ni);
            Pool::Idle
        } else {
            Pool::NonIdle
        };
        self.dest.insert(pool, (self.cpu_w[ni], ni as u32));
    }

    /// The best destination in `pool`: the free node with the lowest
    /// current utilization (ties to the lowest id) that can hold
    /// `mem_kb`, other than `exclude`. Answered by the per-window
    /// [`DestIndex`]; an empty pool answers in O(1).
    fn best_destination(
        &mut self,
        pool: Pool,
        mem_kb: u32,
        exclude: Option<NodeId>,
    ) -> Option<NodeId> {
        let (cpu_w, memory) = (&self.cpu_w, &self.nodes.memory);
        let cand = |ni: usize| (cpu_w[ni], ni as u32);
        let room = |ni: usize| memory[ni].free_kb();
        let ex = exclude.map(|n| n.0);
        match pool {
            Pool::Idle => {
                let live = &self.free_idle;
                self.dest.best(pool, live, room, mem_kb, ex, live.iter().map(cand))
            }
            Pool::NonIdle => {
                let idle = &self.idle_words;
                let members = self
                    .free
                    .iter()
                    .filter(|&ni| idle[ni / 64] & (1u64 << (ni % 64)) == 0)
                    .map(cand);
                self.dest.best(pool, &self.free, room, mem_kb, ex, members)
            }
        }
        .map(NodeId)
    }

    /// FIFO placement of queued jobs: idle nodes first; lingering policies
    /// may fall back to the least-loaded non-idle node (Sec 4.2: LL "can
    /// run jobs on any semi-available node").
    fn place_queued(&mut self, t: SimTime) {
        // A saturated cluster (every node claimed or crashed) cannot
        // place anything: the pass below would pop each job and push it
        // back unchanged. Skip it — queue order, lazy queue-time spans,
        // and all indexes are untouched, so the bytes are identical.
        if self.free.is_empty() {
            return;
        }
        // A serialized dispatcher stops placing once its backlog is a
        // full window deep: at most `WINDOW / rtt_c` placements per
        // window, the rest wait in the bounded admission queue. This
        // keeps the in-flight transfer list O(window / rtt_c) under
        // overload instead of letting it grow without limit. The backlog
        // only grows during a pass, so once it is full every job still
        // queued keeps its place — the pass ends there (or never starts).
        let rtt_c = self.cfg.stealing.central_dispatch_rtt_secs;
        let backlog_full = |next_free: SimTime| rtt_c > 0.0 && next_free >= t + WINDOW;
        if backlog_full(self.central_next_free) {
            return;
        }
        let mut unplaced = std::mem::take(&mut self.place_scratch);
        unplaced.clear();
        // Smallest memory demand whose query already came up empty this
        // pass. While placing, both candidate sets only shrink (claims
        // remove nodes; free nodes' memory never changes mid-pass), so a
        // failure at `m` KB guarantees failure for any demand ≥ m — the
        // query can be skipped without changing a single placement. This
        // keeps the saturated-queue case O(queue).
        let mut idle_fail_kb = u32::MAX;
        let mut nonidle_fail_kb = u32::MAX;
        while let Some(ji) = self.queue.pop_front() {
            if self.jobs.arrival[ji] > t {
                unplaced.push_back(ji);
                continue;
            }
            if backlog_full(self.central_next_free) {
                self.queue.push_front(ji);
                break;
            }
            // Only the dense hot lanes (`mem_kb`, `arrival`) are read on
            // the skip path — a saturated queue never touches the cold
            // job slab at all.
            let mem_kb = self.jobs.mem_kb[ji];
            let mut target = if mem_kb >= idle_fail_kb {
                None
            } else {
                let d = self.best_destination(Pool::Idle, mem_kb, None);
                if d.is_none() {
                    idle_fail_kb = mem_kb;
                }
                d
            };
            if target.is_none()
                && self.cfg.params.policy.places_on_non_idle()
                && mem_kb < nonidle_fail_kb
            {
                // Least-loaded non-idle node that can take the job.
                let d = self.best_destination(Pool::NonIdle, mem_kb, None);
                if d.is_none() {
                    nonidle_fail_kb = mem_kb;
                }
                target = d;
            }
            match target {
                None => unplaced.push_back(ji),
                Some(dest) => {
                    // Central-coordinator serialization: with a positive
                    // `central_dispatch_rtt_secs`, the dispatcher is a
                    // single-server queue handling one placement per
                    // round trip, with backlog carried across windows.
                    // Zero (the default) keeps the historical free
                    // coordinator, byte for byte.
                    let extra = if rtt_c > 0.0 {
                        let start = self.central_next_free.max(t);
                        self.central_next_free = start + SimDuration::from_secs_f64(rtt_c);
                        self.steal_stats.central_dispatches += 1;
                        self.central_next_free.saturating_since(t)
                    } else {
                        SimDuration::ZERO
                    };
                    self.dispatch_queued(ji, dest, t, extra);
                }
            }
        }
        if self.queue.is_empty() {
            // The drained queue buffer becomes next window's scratch.
            std::mem::swap(&mut self.queue, &mut unplaced);
        } else {
            // Stopped early: the few jobs skipped so far go back in front
            // of the untouched rest.
            while let Some(ji) = unplaced.pop_back() {
                self.queue.push_front(ji);
            }
        }
        self.place_scratch = unplaced;
    }

    /// Dispatch a queued job to `dest`, `extra` simulated seconds from
    /// now (steal round trips, coordinator backlog). With `extra` zero
    /// this is the historical placement path, byte for byte: jobs that
    /// have run elsewhere pay a migration; fresh jobs attach at once.
    /// A positive `extra` rides the migrating machinery even for fresh
    /// jobs — the transfer is in flight for that long, visible to the
    /// crash and migration-failure fault model.
    fn dispatch_queued(&mut self, ji: usize, dest: NodeId, t: SimTime, extra: SimDuration) {
        self.flush_queue_time(ji);
        self.claim_node(dest, ji);
        self.telemetry.record(|| {
            self.event_at(t, EventKind::Decision {
                action: DecisionAction::Place,
                host_cpu: Some(self.cpu_w[dest.0]),
                dest_cpu: None,
                age_secs: None,
                migration_secs: None,
                dest: Some(dest.0 as u32),
            })
            .for_job(self.jobs.id[ji].0)
        });
        let mem_kb = self.jobs.mem_kb[ji];
        if self.jobs.cold[ji].has_run {
            // Re-materializing an evicted job costs a migration (which
            // starts only once the dispatch delay has elapsed).
            let (until, bits) = self.migration_terms(mem_kb, t + extra);
            self.jobs.state[ji] = JobState::Migrating;
            self.jobs.node[ji] = dest.0 as u32;
            let cold = &mut self.jobs.cold[ji];
            cold.migration_until = Some(until);
            cold.migration_bits_left = bits;
            cold.migrations += 1;
            cold.migration_attempts = 1;
            cold.transfer_seq += 1;
            self.migrating.push(ji);
            self.telemetry.record(|| {
                self.event_at(t, EventKind::MigrationStart {
                    dest: dest.0 as u32,
                    attempt: 1,
                })
                .for_job(self.jobs.id[ji].0)
            });
        } else if extra > SimDuration::ZERO {
            // A fresh job delayed in flight: no image to move (no
            // migration count, no bits on the backbone), but it arrives
            // only at `t + extra` and the transfer can be lost.
            self.jobs.state[ji] = JobState::Migrating;
            self.jobs.node[ji] = dest.0 as u32;
            let cold = &mut self.jobs.cold[ji];
            cold.migration_until = Some(t + extra);
            cold.migration_bits_left = None;
            cold.migration_attempts = 1;
            cold.transfer_seq += 1;
            self.migrating.push(ji);
        } else {
            self.nodes.memory[dest.0].attach_foreign(mem_kb);
            let idle = self.idle_at(dest.0);
            self.jobs.node[ji] = dest.0 as u32;
            let cold = &mut self.jobs.cold[ji];
            cold.has_run = true;
            cold.first_start = Some(t);
            if idle {
                self.jobs.state[ji] = JobState::Running;
            } else {
                self.jobs.state[ji] = JobState::Lingering;
                self.jobs.cold[ji].episode_start = Some(t);
                self.record_decision(ji, dest, t, DecisionAction::Linger, None);
            }
        }
    }

    /// Stealing-mode phase 5 classify: each shard scans its slice of the
    /// free index (crashed nodes are already excluded) and records which
    /// nodes may acquire work this window — idle nodes always, non-idle
    /// ones when the policy places on semi-available nodes — plus the
    /// window-start advisory of whether their own deque held work.
    fn classify_steals(&mut self) {
        let st = self.steal.take().expect("stealing mode");
        let mut bufs = std::mem::take(&mut self.steal_bufs);
        let plan = &self.plan;
        let free_words = self.free.words();
        let idle_words = &self.idle_words;
        let policy = self.cfg.params.policy;
        let st_ref = &st;
        plan.run(bufs.iter_mut(), |si, out| {
            out.clear();
            let wr = plan.word_range(si);
            classify_steals_shard(wr.start, &free_words[wr], idle_words, policy, st_ref, out);
        });
        self.steal_bufs = bufs;
        self.steal = Some(st);
    }

    /// Stealing-mode phase 5 merge: resolve the intents in ascending
    /// node order. Owners pop LIFO from their own deque at zero latency;
    /// empty-handed thieves probe randomly drawn victims, each probe a
    /// round trip in simulated time, and a hit ships the victim's oldest
    /// job (plus half the deque under `steal_half`) with the accumulated
    /// probe delay. Probes are only sent while unserved work exists
    /// (`total() > 0`) — a no-work window costs nothing, and the RNG
    /// contract is unaffected because victim draws are keyed by
    /// `(thief, window, attempt)`, not by draw order.
    fn apply_steals(&mut self, t: SimTime) {
        let mut st = self.steal.take().expect("stealing mode");
        let scfg = self.cfg.stealing;
        let nodes = st.nodes() as u32;
        let window = self.window as u32;
        // Effective per-probe round trip: the configured baseline, or
        // the shared backbone's control-message round trip under the
        // current bulk-transfer load, whichever is slower.
        let rtt = match self.cfg.network {
            Some(net) => scfg.rtt_secs.max(net.steal_round_trip_secs(self.migrating.len())),
            None => scfg.rtt_secs,
        };
        let mut bufs = std::mem::take(&mut self.steal_bufs);
        'merge: for buf in &bufs {
            for &intent in buf {
                if st.total() == 0 {
                    // Nothing left to pop or steal anywhere; later
                    // thieves stay silent (no probes against a known-
                    // empty system).
                    break 'merge;
                }
                let ni = intent.ni as usize;
                // Owner pop: the newest job on the node's own deque,
                // LIFO, zero latency.
                if intent.pop {
                    if let Some(ji) = st.back(ni) {
                        let ji = ji as usize;
                        if self.jobs.arrival[ji] <= t
                            && self.nodes.memory[ni].fits(self.jobs.mem_kb[ji])
                        {
                            st.pop_back(ni);
                            self.steal_stats.local_pops += 1;
                            self.dispatch_queued(ji, NodeId(ni), t, SimDuration::ZERO);
                            continue;
                        }
                    }
                }
                if nodes < 2 {
                    continue;
                }
                // Probe randomized victims, one round trip each.
                let mut hit = false;
                for attempt in 1..=scfg.probe_attempts {
                    let victim =
                        draw_victim(&self.rng_factory, ni as u32, window, attempt, nodes)
                            as usize;
                    self.steal_stats.probes += 1;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::StealAttempt {
                            victim: victim as u32,
                            attempt,
                            victim_depth: st.len(victim) as u32,
                        })
                        .on_node(ni as u32)
                    });
                    // Bitmap first: almost every probe at scale is a
                    // miss against an empty deque, and `has_work` keeps
                    // that verdict in L1 instead of paying a cache miss
                    // on the victim's deque header per probe.
                    let stealable = st.has_work(victim)
                        && !self.crashed.contains(victim)
                        && st.front(victim).is_some_and(|ji| {
                            let ji = ji as usize;
                            self.jobs.arrival[ji] <= t
                                && self.nodes.memory[ni].fits(self.jobs.mem_kb[ji])
                        });
                    if !stealable {
                        self.steal_stats.misses += 1;
                        self.telemetry.record(|| {
                            self.event_at(t, EventKind::StealMiss {
                                victim: victim as u32,
                                attempt,
                            })
                            .on_node(ni as u32)
                        });
                        continue;
                    }
                    let batch =
                        if scfg.steal_half { st.len(victim).div_ceil(2) } else { 1 };
                    let delay_secs = attempt as f64 * rtt;
                    let first = st.pop_front(victim).expect("validated front") as usize;
                    self.steal_stats.hits += 1;
                    self.steal_stats.stolen_jobs += 1;
                    let job = self.jobs.id[first].0;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::StealHit {
                            victim: victim as u32,
                            attempt,
                            batch: batch as u32,
                            delay_secs,
                        })
                        .on_node(ni as u32)
                        .for_job(job)
                    });
                    // The rest of the batch rides the same round trip
                    // onto the thief's deque (oldest first, appended at
                    // the back — they are the thief's freshest work now).
                    for _ in 1..batch {
                        let Some(extra_ji) = st.pop_front(victim) else { break };
                        st.push_back(ni, extra_ji);
                        self.steal_stats.stolen_jobs += 1;
                    }
                    self.dispatch_queued(
                        first,
                        NodeId(ni),
                        t,
                        SimDuration::from_secs_f64(delay_secs),
                    );
                    hit = true;
                    break;
                }
                if !hit && scfg.probe_attempts > 0 {
                    self.steal_stats.abandons += 1;
                    let attempts = scfg.probe_attempts;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::StealAbandon { attempts })
                            .on_node(ni as u32)
                    });
                }
            }
        }
        for buf in &mut bufs {
            buf.clear();
        }
        self.steal_bufs = bufs;
        self.steal = Some(st);
    }
}

/// One shard's slice of phase 0: copy the window's cpu/idle lanes and
/// refresh memory demand. `range` is the shard's node-id range (64-
/// aligned start); `busy_words` is its slice of the busy bitset.
#[allow(clippy::too_many_arguments)]
fn refresh_shard(
    range: std::ops::Range<usize>,
    cpu_dst: &mut [f64],
    idle_dst: &mut [u64],
    mem: &mut [TwoPoolMemory],
    busy_words: &[u64],
    cpu_row: &[f64],
    mem_row: &[u32],
    idle_row: &[u64],
) {
    let base = range.start;
    cpu_dst.copy_from_slice(&cpu_row[range.clone()]);
    let word_base = base / 64;
    idle_dst.copy_from_slice(&idle_row[word_base..word_base + idle_dst.len()]);
    // Busy nodes take the full two-pool accounting path (reclaim/regrow
    // against the hosted job's pool)...
    for (k, &w0) in busy_words.iter().enumerate() {
        let mut word = w0;
        while word != 0 {
            let ni = (word_base + k) * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            mem[ni - base].set_local_kb(mem_row[ni]);
        }
    }
    // ...then a branch-free bulk store refreshes every node — a value-
    // level no-op on the busy nodes just updated.
    for (m, &kb) in mem.iter_mut().zip(&mem_row[range]) {
        m.store_local_kb_unattached(kb);
    }
}

/// One shard's slice of the phase 3 classify: record what the policy
/// would do to each busy node's job, reading only window-start state.
#[allow(clippy::too_many_arguments)]
fn classify_decisions_shard(
    word_base: usize,
    busy_words: &[u64],
    hosted: &[u32],
    job_state: &[JobState],
    cold: &[JobCold],
    idle_words: &[u64],
    policy: Policy,
    t: SimTime,
    out: &mut Vec<DecideIntent>,
) {
    for (k, &w0) in busy_words.iter().enumerate() {
        let idle_word = idle_words[word_base + k];
        // Gather the word's node → job pairs first, starting each job
        // record's cache fill, so the classification below runs against
        // lines already in flight instead of stalling one miss at a
        // time. Pure reordering of reads — bit order is preserved.
        let mut pairs = [(0u32, 0u32); 64];
        let mut n = 0;
        let mut word = w0;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let ni = (word_base + k) * 64 + bit;
            let ji = hosted[ni];
            debug_assert_ne!(ji, NO_JOB, "busy node must host a job");
            prefetch_read(&job_state[ji as usize]);
            pairs[n] = (ni as u32, ji);
            n += 1;
        }
        for &(ni, ji) in &pairs[..n] {
            let ni = ni as usize;
            let bit = ni % 64;
            let idle = idle_word & (1u64 << bit) != 0;
            let kind = match job_state[ji as usize] {
                JobState::Running if !idle => DecideKind::NonIdle,
                JobState::Lingering if idle => DecideKind::ResumeLinger,
                JobState::Lingering if policy == Policy::LingerLonger => DecideKind::LingerCheck,
                JobState::Paused if idle => DecideKind::ResumePause,
                JobState::Paused
                    if cold[ji as usize].pause_deadline.is_some_and(|d| t >= d) =>
                {
                    DecideKind::PauseEvict
                }
                _ => continue,
            };
            out.push(DecideIntent { ni: ni as u32, ji, kind });
        }
    }
}

/// One shard's slice of the phase 4 classify: per-busy-node progress
/// math. All f64 terms are computed here with the exact expressions the
/// historical loop used; the merge only applies them in order.
#[allow(clippy::too_many_arguments)]
fn classify_progress_shard(
    word_base: usize,
    busy_words: &[u64],
    hosted: &[u32],
    job_state: &[JobState],
    remaining: &[SimDuration],
    memory: &[TwoPoolMemory],
    cpu_w: &[f64],
    cfg: &ClusterConfig,
    out: &mut Vec<ProgressIntent>,
) {
    for (k, &w0) in busy_words.iter().enumerate() {
        // Same gather-then-compute shape as the decision classify: get
        // every hosted job's state and remaining-demand lines in flight
        // before the steal-rate math dereferences them.
        let mut pairs = [(0u32, 0u32); 64];
        let mut n = 0;
        let mut word = w0;
        while word != 0 {
            let ni = (word_base + k) * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            let ji = hosted[ni];
            debug_assert_ne!(ji, NO_JOB, "busy node must host a job");
            prefetch_read(&job_state[ji as usize]);
            prefetch_read(&remaining[ji as usize]);
            pairs[n] = (ni as u32, ji);
            n += 1;
        }
        for &(ni, ji) in &pairs[..n] {
            let ni = ni as usize;
            let state = job_state[ji as usize];
            if !matches!(state, JobState::Running | JobState::Lingering) {
                out.push(ProgressIntent {
                    ni: ni as u32,
                    ji,
                    state,
                    kind: ProgressKind::Account,
                    gain: SimDuration::ZERO,
                    frac: 0.0,
                    delay_add: 0.0,
                    has_delay: false,
                });
                continue;
            }
            let u = cpu_w[ni];
            // Memory pressure: a partially-resident job pages and slows
            // proportionally.
            let residency = memory[ni].foreign_residency();
            let rate = steal_rate(&cfg.table, u, cfg.params.context_switch) * residency;
            let (has_delay, delay_add) = if state == JobState::Lingering {
                // Added foreground latency: one context switch per local
                // run burst; expected bursts in the window = u·W / R(u).
                let run_mean = cfg.table.interpolate(u).run_mean;
                if run_mean > 0.0 {
                    (
                        true,
                        cfg.params.context_switch.as_secs_f64()
                            * (u * WINDOW.as_secs_f64() / run_mean),
                    )
                } else {
                    (false, 0.0)
                }
            } else {
                (false, 0.0)
            };
            let gain = WINDOW.mul_f64(rate);
            let rem = remaining[ji as usize];
            if rate > 0.0 && rem <= gain {
                // Completes within this window.
                let frac = rem.as_secs_f64() / gain.as_secs_f64();
                out.push(ProgressIntent {
                    ni: ni as u32,
                    ji,
                    state,
                    kind: ProgressKind::Complete,
                    gain,
                    frac,
                    delay_add,
                    has_delay,
                });
            } else {
                out.push(ProgressIntent {
                    ni: ni as u32,
                    ji,
                    state,
                    kind: ProgressKind::Advance,
                    gain,
                    frac: 0.0,
                    delay_add,
                    has_delay,
                });
            }
        }
    }
}

/// One shard's slice of the stealing-mode phase 5 classify: record every
/// free node in the slice that may acquire work this window (idle, or
/// any free node when the policy places on semi-available nodes), with
/// the window-start pop advisory. The free index already excludes
/// crashed nodes.
fn classify_steals_shard(
    word_base: usize,
    free_words: &[u64],
    idle_words: &[u64],
    policy: Policy,
    st: &StealState,
    out: &mut Vec<StealIntent>,
) {
    let on_non_idle = policy.places_on_non_idle();
    for (k, &w0) in free_words.iter().enumerate() {
        let idle_word = idle_words[word_base + k];
        let mut word = w0;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let idle = idle_word & (1u64 << bit) != 0;
            if !idle && !on_non_idle {
                continue;
            }
            let ni = (word_base + k) * 64 + bit;
            out.push(StealIntent { ni: ni as u32, pop: st.len(ni) > 0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger::JobFamily;
    use linger_sim_core::SimDuration;

    fn small_cfg(policy: Policy) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper(
            policy,
            JobFamily::uniform(8, SimDuration::from_secs(120), 8 * 1024),
        );
        cfg.nodes = 8;
        cfg.trace.duration = SimDuration::from_secs(2 * 3600);
        cfg.seed = 11;
        cfg
    }

    #[test]
    fn family_completes_under_each_policy() {
        for policy in Policy::ALL {
            let mut sim = ClusterSim::new(small_cfg(policy));
            assert!(sim.run(), "{policy} did not finish");
            assert_eq!(sim.completed(), 8);
            for j in sim.jobs() {
                assert_eq!(j.state, JobState::Done);
                assert_eq!(j.remaining, SimDuration::ZERO);
                assert!(j.completion_time().unwrap() >= SimDuration::from_secs(120));
            }
        }
    }

    #[test]
    fn cpu_conservation() {
        // Foreign CPU delivered equals the family's total demand.
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerLonger));
        sim.run();
        let expect = 8.0 * 120.0;
        let got = sim.foreign_cpu_delivered().as_secs_f64();
        assert!((got - expect).abs() < 1e-6, "delivered {got} vs {expect}");
    }

    #[test]
    fn linger_forever_never_migrates() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerForever));
        sim.run();
        for j in sim.jobs() {
            assert_eq!(j.migrations, 0, "LF must never migrate");
            assert_eq!(j.breakdown.migrating, SimDuration::ZERO);
        }
    }

    #[test]
    fn immediate_eviction_never_lingers() {
        let mut sim = ClusterSim::new(small_cfg(Policy::ImmediateEviction));
        sim.run();
        for j in sim.jobs() {
            assert_eq!(j.breakdown.lingering, SimDuration::ZERO);
            assert_eq!(j.breakdown.paused, SimDuration::ZERO);
        }
    }

    #[test]
    fn pause_and_migrate_pauses() {
        let mut sim = ClusterSim::new(small_cfg(Policy::PauseAndMigrate));
        sim.run();
        let paused: f64 = sim.jobs().iter().map(|j| j.breakdown.paused.as_secs_f64()).sum();
        let lingered: f64 =
            sim.jobs().iter().map(|j| j.breakdown.lingering.as_secs_f64()).sum();
        assert_eq!(lingered, 0.0, "PM never lingers");
        // With several 2-minute jobs on user workstations, at least one
        // pause episode is overwhelmingly likely.
        assert!(paused > 0.0, "PM should pause at least once");
    }

    #[test]
    fn lingering_policies_linger() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerForever));
        sim.run();
        let lingered: f64 =
            sim.jobs().iter().map(|j| j.breakdown.lingering.as_secs_f64()).sum();
        assert!(lingered > 0.0, "LF on user workstations must linger");
    }

    #[test]
    fn state_breakdown_accounts_for_completion_time() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerLonger));
        sim.run();
        for j in sim.jobs() {
            let total = j.breakdown.total().as_secs_f64();
            let completion = j.completion_time().unwrap().as_secs_f64();
            // Window-granular accounting: within one window per state
            // transition of the exact value.
            assert!(
                (total - completion).abs() <= 8.0,
                "breakdown {total} vs completion {completion}"
            );
        }
    }

    #[test]
    fn throughput_mode_holds_job_count() {
        let mut cfg = small_cfg(Policy::LingerLonger).with_throughput_mode();
        cfg.mode = RunMode::Throughput { horizon: SimTime::from_secs(900) };
        let mut sim = ClusterSim::new(cfg);
        sim.run();
        // Live jobs (not Done) should still number 8.
        let live = sim.jobs().iter().filter(|j| j.state != JobState::Done).count();
        assert_eq!(live, 8);
        assert!(sim.foreign_cpu_delivered() > SimDuration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = ClusterSim::new(small_cfg(Policy::LingerLonger));
            sim.run();
            sim.jobs()
                .iter()
                .map(|j| j.completed_at.unwrap().as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Full observable outcome of a run, for sharding equivalence checks.
    type Outcome = (Vec<(u64, u64, u32)>, u64, u64, u64, FaultStats);

    fn run_outcome(mut sim: ClusterSim) -> Outcome {
        sim.run();
        let jobs: Vec<(u64, u64, u32)> = sim
            .jobs()
            .iter()
            .map(|j| {
                (
                    j.completed_at.map_or(0, |t| t.as_nanos()),
                    j.breakdown.total().as_nanos(),
                    j.migrations,
                )
            })
            .collect();
        (
            jobs,
            sim.foreign_cpu_delivered().as_nanos(),
            sim.local_busy_secs.to_bits(),
            sim.local_delay_secs.to_bits(),
            sim.fault_stats(),
        )
    }

    /// `set_default_jobs` is process-global; the tests that flip it hold
    /// this lock so they cannot observe each other's worker budget.
    static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `f` under a worker budget of `width`, then restore the default.
    fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        linger_sim_core::set_default_jobs(width);
        let out = f();
        linger_sim_core::set_default_jobs(0);
        out
    }

    /// A sim of `cfg` split into exactly `shards` shards.
    fn sharded(cfg: ClusterConfig, shards: usize) -> ClusterSim {
        assert_eq!(ShardPlan::new(cfg.nodes, shards).shard_count(), shards, "shard axis collapsed");
        ClusterSim::new(cfg).with_shards(shards)
    }

    #[test]
    fn shard_count_never_changes_results() {
        // 2,048 nodes (32 bitset words): every shard count below exists.
        let cfg = |policy| ClusterConfig { nodes: 2048, ..small_cfg(policy) };
        for policy in Policy::ALL {
            let baseline = run_outcome(sharded(cfg(policy), 1));
            for shards in [2, 3, 7, 16] {
                let got = run_outcome(sharded(cfg(policy), shards));
                assert_eq!(baseline, got, "{policy} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn threaded_shards_never_change_results() {
        let cfg = || ClusterConfig { nodes: 256, ..small_cfg(Policy::LingerLonger) };
        let baseline = at_width(1, || run_outcome(sharded(cfg(), 1)));
        assert_eq!(baseline, at_width(4, || run_outcome(sharded(cfg(), 4))));
    }

    #[test]
    fn node_indices_track_hosted_state() {
        // The incremental free/busy indices must equal the naive hosted
        // scan after every window, for every policy.
        for policy in Policy::ALL {
            let mut sim = ClusterSim::new(small_cfg(policy));
            for _ in 0..300 {
                sim.step();
                let free_scan: Vec<usize> = (0..sim.nodes.len())
                    .filter(|&ni| sim.nodes.hosted(ni).is_none())
                    .collect();
                let busy_scan: Vec<usize> = (0..sim.nodes.len())
                    .filter(|&ni| sim.nodes.hosted(ni).is_some())
                    .collect();
                assert_eq!(sim.free.iter().collect::<Vec<_>>(), free_scan, "{policy}");
                assert_eq!(sim.busy.iter().collect::<Vec<_>>(), busy_scan, "{policy}");
                let free_idle_scan: Vec<usize> = (0..sim.nodes.len())
                    .filter(|&ni| sim.nodes.hosted(ni).is_none() && sim.idle_at(ni))
                    .collect();
                assert_eq!(
                    sim.free_idle.iter().collect::<Vec<_>>(),
                    free_idle_scan,
                    "{policy}"
                );
            }
        }
    }

    #[test]
    fn crashes_evict_jobs_and_nodes_recover() {
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.faults = crate::faults::FaultConfig {
            crash_rate_per_hour: 30.0,
            mean_reboot_secs: 60.0,
            migration_failure_prob: 0.0,
        };
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run(), "family must still complete under crashes");
        assert_eq!(sim.completed(), 8);
        let fs = sim.fault_stats();
        assert!(fs.crashes > 0, "30 crashes/node-hour must fire");
        // Reboots are ~1 min; by completion most nodes should be back.
        for j in sim.jobs() {
            assert_eq!(j.state, JobState::Done);
            assert_eq!(j.remaining, SimDuration::ZERO);
        }
    }

    #[test]
    fn node_indices_respect_crashed_nodes() {
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.faults = crate::faults::FaultConfig {
            crash_rate_per_hour: 40.0,
            mean_reboot_secs: 120.0,
            migration_failure_prob: 0.2,
        };
        let mut sim = ClusterSim::new(cfg);
        let mut saw_crashed = false;
        for _ in 0..900 {
            sim.step();
            for ni in 0..sim.nodes.len() {
                if sim.crashed.contains(ni) {
                    saw_crashed = true;
                    assert!(!sim.free.contains(ni), "crashed node in free");
                    assert!(!sim.busy.contains(ni), "crashed node in busy");
                    assert!(!sim.free_idle.contains(ni), "crashed node in free_idle");
                    assert!(sim.nodes.hosted(ni).is_none(), "crashed node hosts a job");
                } else {
                    assert_eq!(sim.free.contains(ni), sim.nodes.hosted(ni).is_none());
                    assert_eq!(sim.busy.contains(ni), sim.nodes.hosted(ni).is_some());
                }
            }
        }
        assert!(saw_crashed, "the fault schedule must down at least one node");
    }

    #[test]
    fn migration_failures_retry_and_jobs_still_finish() {
        // Heavier than `small_cfg` so IE performs plenty of transfers.
        let mut cfg = ClusterConfig::paper(
            Policy::ImmediateEviction,
            JobFamily::uniform(16, SimDuration::from_secs(600), 8 * 1024),
        );
        cfg.nodes = 8;
        cfg.trace.duration = SimDuration::from_secs(6 * 3600);
        cfg.seed = 11;
        cfg.faults = crate::faults::FaultConfig {
            crash_rate_per_hour: 0.0,
            mean_reboot_secs: 120.0,
            migration_failure_prob: 0.5,
        };
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run(), "family must complete despite transfer failures");
        assert_eq!(sim.completed(), 16);
        let fs = sim.fault_stats();
        assert_eq!(fs.crashes, 0);
        assert!(fs.migration_failures > 0, "p=0.5 must lose some transfers");
        assert!(
            fs.migration_retries > 0 || fs.migrations_abandoned > 0,
            "failed transfers must retry or abandon"
        );
    }

    #[test]
    fn fault_runs_are_deterministic_given_seed() {
        let run = || {
            let mut cfg = small_cfg(Policy::LingerLonger);
            cfg.faults = crate::faults::FaultConfig {
                crash_rate_per_hour: 20.0,
                mean_reboot_secs: 90.0,
                migration_failure_prob: 0.3,
            };
            let mut sim = ClusterSim::new(cfg);
            sim.run();
            let fs = sim.fault_stats();
            let times: Vec<u64> = sim
                .jobs()
                .iter()
                .filter_map(|j| j.completed_at.map(|t| t.as_nanos()))
                .collect();
            (fs, times)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disabled_fault_params_do_not_perturb_runs() {
        // With crash rate and failure probability at zero, the *other*
        // fault knobs must not leak into the simulation at all.
        let run = |reboot: f64| {
            let mut cfg = small_cfg(Policy::LingerLonger);
            cfg.faults.mean_reboot_secs = reboot;
            let mut sim = ClusterSim::new(cfg);
            sim.run();
            sim.jobs()
                .iter()
                .map(|j| j.completed_at.unwrap().as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(120.0), run(999_999.0));
    }

    #[test]
    fn foreground_delay_is_small() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerForever));
        sim.run();
        let d = sim.foreground_delay_ratio();
        assert!(d < 0.02, "foreground delay {d} too large");
    }

    /// An 8-node open-arrivals config. `load` is the offered utilization
    /// (arrival rate × mean demand ÷ capacity); above 1.0 oversubscribes.
    fn open_cfg(admission: AdmissionPolicy, load: f64, cap: usize, horizon_secs: u64) -> ClusterConfig {
        use crate::config::ServiceConfig;
        use linger_workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};
        let mut cfg = ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty());
        cfg.nodes = 8;
        cfg.trace.duration = SimDuration::from_secs(2 * 3600);
        cfg.seed = 11;
        // 8 nodes × 3600 s/h ÷ 120 s/job = 240 jobs/hour at load 1.0.
        cfg.service = ServiceConfig {
            arrivals: ArrivalConfig {
                process: ArrivalProcess::Poisson { rate_per_hour: load * 240.0 },
                mean_cpu_secs: 120.0,
                mem_kb: 8 * 1024,
                size_dist: SizeDistribution::Exponential,
            },
            admission,
            queue_capacity: cap,
            deadline_secs: 120.0,
        };
        cfg.mode = RunMode::Open { horizon: SimTime::from_secs(horizon_secs) };
        cfg
    }

    #[test]
    fn open_mode_serves_under_light_load() {
        let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Shed, 0.3, 64, 3600));
        assert!(sim.run());
        let s = sim.service_stats();
        assert!(s.generated > 0, "poisson at 72/hour must generate arrivals");
        assert_eq!(s.shed, 0, "an undersubscribed bounded queue sheds nothing");
        assert_eq!(s.deadline_dropped, 0);
        assert!(s.accounting_holds());
        assert!(sim.completed() > 0, "light load must complete jobs");
        assert!(s.throughput.batches() > 0, "one-hour run forms throughput batches");
    }

    #[test]
    fn open_mode_shed_bounds_queue_and_counts_exactly() {
        let cap = 16;
        let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Shed, 4.0, cap, 3600));
        assert!(sim.run());
        let s = sim.service_stats().clone();
        assert!(s.shed > 0, "4× overload at capacity {cap} must shed");
        assert!(s.saturated_windows > 0);
        assert_eq!(s.generated, s.admitted + s.shed);
        assert_eq!(s.deficit, 0, "shed never defers");
        // The queue itself never exceeds the admission capacity by more
        // than the already-admitted work a window can bounce back
        // (evictions/crashes bypass admission by design).
        assert!(
            s.peak_queue_depth <= cap + sim.cfg.nodes,
            "peak depth {} above bound {}",
            s.peak_queue_depth,
            cap + sim.cfg.nodes
        );
        // Bounded queue + per-node hosting ⇒ bounded live rows: the
        // flat-memory witness under sustained 4× overload.
        assert!(
            s.peak_live_rows <= cap + 2 * sim.cfg.nodes,
            "live rows {} not flat",
            s.peak_live_rows
        );
        assert!(sim.completed() > 0);
    }

    #[test]
    fn open_mode_block_defers_without_loss() {
        let cap = 16;
        let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Block, 3.0, cap, 3600));
        assert!(sim.run());
        let s = sim.service_stats();
        assert!(s.deferred > 0, "3× overload must defer");
        assert_eq!(s.shed, 0, "backpressure never drops");
        assert_eq!(s.deadline_dropped, 0);
        assert!(s.deficit > 0, "sustained overload keeps a deficit");
        assert!(s.peak_deficit >= s.deficit);
        assert!(s.accounting_holds());
        assert!(s.peak_queue_depth <= cap + sim.cfg.nodes);
    }

    #[test]
    fn open_mode_deadline_drops_stale_jobs() {
        let mut cfg = open_cfg(AdmissionPolicy::Deadline, 4.0, 32, 3600);
        cfg.service.deadline_secs = 60.0;
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        let s = sim.service_stats();
        assert!(s.deadline_dropped > 0, "60 s deadline under 4× overload must drop");
        assert!(s.accounting_holds());
        // Dropped jobs are archived unserved: no completion stamp.
        let records = sim.jobs();
        let unserved = records
            .iter()
            .filter(|r| r.state == JobState::Done && r.completed_at.is_none())
            .count() as u64;
        assert_eq!(unserved, s.deadline_dropped);
        // Every record is archived or live exactly once.
        assert_eq!(records.len(), sim.jobs.total_jobs());
    }

    #[test]
    fn open_admission_baseline_grows_where_bounded_stays_flat() {
        // The motivating contrast: same 4× overload, open admission lets
        // the queue grow past any bound a shed queue respects.
        let open = {
            let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Open, 4.0, 16, 1800));
            sim.run();
            sim.service_stats().clone()
        };
        let shed = {
            let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Shed, 4.0, 16, 1800));
            sim.run();
            sim.service_stats().clone()
        };
        assert_eq!(open.shed, 0);
        assert!(
            open.peak_queue_depth > 4 * shed.peak_queue_depth,
            "unbounded {} vs bounded {}",
            open.peak_queue_depth,
            shed.peak_queue_depth
        );
    }

    /// [`open_cfg`] grown to 256 nodes (4 bitset words, so 4 shards
    /// exist) at the same per-node load and queue capacity, with faults.
    fn open_cfg_256(admission: AdmissionPolicy, load: f64) -> ClusterConfig {
        let mut cfg = open_cfg(admission, load * 32.0, 3 * 256, 1800);
        cfg.nodes = 256;
        cfg.faults.crash_rate_per_hour = 0.5;
        cfg.faults.migration_failure_prob = 0.2;
        cfg
    }

    #[test]
    fn open_mode_deterministic_across_shards() {
        for admission in AdmissionPolicy::ALL {
            let outcome = |shards| run_outcome(sharded(open_cfg_256(admission, 2.0), shards));
            assert_eq!(outcome(1), outcome(4), "{admission:?}: shards changed bytes");
        }
    }

    #[test]
    fn zero_rate_open_run_reproduces_family_outcome() {
        // A closed-equivalent schedule: the same family, no arrivals.
        // Open mode must reproduce the batch replay byte for byte (the
        // horizon only adds post-completion windows, which touch no job).
        let family = {
            let mut sim = ClusterSim::new(small_cfg(Policy::LingerLonger));
            sim.run();
            (sim.jobs(), sim.completed(), sim.foreign_cpu_delivered())
        };
        let open = {
            let mut cfg = small_cfg(Policy::LingerLonger);
            cfg.mode = RunMode::Open { horizon: SimTime::from_secs(3600) };
            let mut sim = ClusterSim::new(cfg);
            sim.run();
            (sim.jobs(), sim.completed(), sim.foreign_cpu_delivered())
        };
        assert_eq!(family.1, open.1, "same completions");
        assert_eq!(family.2, open.2, "same foreign CPU");
        assert_eq!(family.0, open.0, "identical job records");
    }

    #[test]
    fn service_stats_inert_in_closed_modes() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerLonger));
        sim.run();
        let s = sim.service_stats();
        assert_eq!(s.generated, 0);
        assert_eq!(s.admitted, 0);
        assert_eq!(s.throughput.batches(), 0);
        assert_eq!(s.peak_queue_depth, 0);
    }

    #[test]
    fn stealing_family_completes_and_counters_balance() {
        use crate::stealing::StealingConfig;
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.stealing = StealingConfig::randomized(3, 0.05);
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run(), "stealing family must finish");
        assert_eq!(sim.completed(), 8);
        let s = sim.steal_stats();
        assert_eq!(s.probes, s.hits + s.misses, "every probe hits or misses");
        assert!(
            s.local_pops + s.stolen_jobs >= 8,
            "every job reached a node through the deques: {s:?}"
        );
        assert_eq!(s.central_dispatches, 0, "stealing mode never uses the coordinator");
    }

    #[test]
    fn steal_half_moves_batches_and_still_completes() {
        use crate::stealing::StealingConfig;
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.stealing = StealingConfig::randomized(3, 0.05).with_steal_half();
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        assert_eq!(sim.completed(), 8);
        let s = sim.steal_stats();
        assert!(s.stolen_jobs >= s.hits, "a hit moves at least one job");
    }

    #[test]
    fn stealing_deterministic_across_shards_and_threads() {
        use crate::stealing::StealingConfig;
        let outcome = |shards: usize, width: usize| {
            let mut cfg = open_cfg_256(AdmissionPolicy::Shed, 2.0);
            cfg.stealing = StealingConfig::randomized(3, 0.5);
            at_width(width, || run_outcome(sharded(cfg, shards)))
        };
        let base = outcome(1, 1);
        assert_eq!(base, outcome(4, 1), "shards changed stealing bytes");
        assert_eq!(base, outcome(4, 4), "threads changed stealing bytes");
    }

    #[test]
    fn central_dispatch_serialization_is_opt_in_and_counts() {
        use crate::stealing::StealingConfig;
        // Default: the coordinator is free and the counter stays zero.
        let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Shed, 2.0, 24, 1800));
        sim.run();
        assert_eq!(sim.steal_stats().central_dispatches, 0);
        // Opt-in: every placement is charged and delayed.
        let mut cfg = open_cfg(AdmissionPolicy::Shed, 2.0, 24, 1800);
        cfg.stealing = StealingConfig {
            central_dispatch_rtt_secs: 4.0,
            ..StealingConfig::disabled()
        };
        let mut slow = ClusterSim::new(cfg);
        slow.run();
        let s = slow.steal_stats();
        assert!(s.central_dispatches > 0, "placements must be charged");
        assert_eq!(s.probes, 0, "central mode never probes");
        assert!(
            slow.completed() < sim.completed(),
            "a 4 s/dispatch coordinator must lose throughput: {} vs {}",
            slow.completed(),
            sim.completed()
        );
    }

    #[test]
    fn stealing_serves_open_arrivals_with_exact_accounting() {
        use crate::stealing::StealingConfig;
        let mut cfg = open_cfg(AdmissionPolicy::Deadline, 2.0, 24, 3600);
        cfg.service.deadline_secs = 120.0;
        cfg.stealing = StealingConfig::randomized(3, 0.1).with_steal_half();
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        let s = sim.service_stats();
        assert!(s.accounting_holds());
        assert!(sim.completed() > 0, "stealing must serve arrivals");
        assert!(s.deadline_dropped > 0, "2× overload against a 120 s deadline drops");
        let st = sim.steal_stats();
        assert_eq!(st.probes, st.hits + st.misses);
    }
}
