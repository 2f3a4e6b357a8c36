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
//!
//! ## One scheduler seam
//!
//! This module is the window loop: refresh, faults, arrivals, transfers,
//! policy decisions, progress, placement. It never asks which scheduler
//! runs. Where queued jobs wait and how they reach a free node — the
//! paper's central coordinator or decentralized work stealing — lives in
//! the private `dispatch` submodule, behind one `Dispatch` value built
//! from `cfg.stealing`. A window makes one placement call into it, and
//! destination queries answer there too.
//!
//! ## One job-source seam
//!
//! Nor does the loop ask which run mode it is in. Where jobs come from
//! and where finished ones go — the paper's fixed family, the same family
//! held as a constant population (throughput), or open arrivals through
//! admission control — lives in the private `source` submodule, behind
//! one `Source` value built from the config's run mode. The loop calls it
//! unconditionally: for the window's new jobs (phase 1b), at every
//! completion, for the window-end accounting, and for `run`'s
//! termination test. Only open arrivals keep service counters, so the
//! loss identity `generated == admitted + shed + deficit` lives in one
//! place, checked after every window in debug builds.

mod dispatch;
mod source;

use crate::config::ClusterConfig;
use crate::dest::Pool;
use crate::faults::{FaultEventKind, FaultModel, FaultStats};
use crate::service::ServiceStats;
use crate::state::{JobCold, JobRecord, JobSlabs, JobState, NodeId, NodeSlabs, NO_JOB, NO_NODE};
use crate::stealing::StealStats;
use dispatch::Dispatch;
use linger::cost::should_migrate;
use linger::Policy;
use linger_node::steal_rate_with;
use linger_sim_core::{
    default_shard_count, env_count, prefetch_read, NodeIndex, ShardPlan, SimDuration, SimTime,
};
use linger_telemetry::{DecisionAction, Event, EventKind, Recorder};
use linger_workload::{
    CoarseTrace, TwoPoolMemory, WindowCursor, WorkloadRealization, SAMPLE_PERIOD_SECS,
};
use source::Source;
use std::sync::Arc;

/// One simulation window (= the coarse-trace sampling period).
pub const WINDOW: SimDuration = SimDuration::from_secs(SAMPLE_PERIOD_SECS);

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
    /// A lingering or paused job's node turned idle again.
    Resume,
    /// Still lingering on a non-idle node under LL: run the migration
    /// test (destination choice needs the live candidate set, so it
    /// happens in the merge).
    LingerCheck,
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
    /// Foreground delay seconds to accumulate (zero unless lingering).
    delay_add: f64,
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

/// The cluster simulation.
pub struct ClusterSim {
    cfg: ClusterConfig,
    /// Per-node slabs (occupancy, the hosted jobs' memory pools).
    nodes: NodeSlabs,
    /// Per-job hot/cold slabs; materialized via [`Self::jobs`].
    jobs: JobSlabs,
    /// The job source: where jobs come from, and where finished ones go.
    source: Source,
    /// The scheduler: where queued jobs wait, and how they are placed.
    dispatch: Dispatch,
    window: usize,
    /// Total foreign CPU delivered (throughput numerator).
    foreign_cpu: SimDuration,
    /// Local busy seconds across all nodes (delay-ratio denominator).
    local_busy_secs: f64,
    /// Added foreground latency seconds (delay-ratio numerator).
    local_delay_secs: f64,
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
    /// Superset of the jobs currently in [`JobState::Migrating`] —
    /// appended to on every migration start, compacted each window — so
    /// transfer progress and arrivals never rescan the ever-growing job
    /// table (throughput mode appends a record per respawn).
    migrating: Vec<usize>,
    /// Per-window `(cpu, mem, idle)` rows: the realization's shared
    /// table or its streamed chunks, behind one cursor (both produce
    /// identical rows — `stream::tests` and the cluster streaming suite
    /// prove it bit-for-bit). Phase 0 loads the window; every later
    /// phase reads its rows in place ([`WindowCursor::current`]).
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
    /// Exact stealing / central-dispatch counters.
    steal_stats: StealStats,
}

impl ClusterSim {
    /// Build the simulation: synthesize the owner-workload realization
    /// for `(cfg.trace, cfg.seed, cfg.nodes)` and queue the whole family
    /// at its arrival times.
    ///
    /// Common random numbers make the realization independent of policy
    /// and cost parameters, so a sweep that builds several simulations
    /// over one key synthesizes once and calls [`Self::with_realization`]
    /// for each; results are identical either way.
    pub fn new(cfg: ClusterConfig) -> Self {
        let real = WorkloadRealization::synthesize(&cfg.trace, cfg.seed, cfg.nodes);
        Self::with_realization(cfg, &real)
    }

    /// Build the simulation over explicit per-node traces and start
    /// offsets — for measured trace data or hand-built test scenarios.
    /// The traces are transposed into a window table
    /// ([`WorkloadRealization::from_traces`]) and the simulation is built
    /// over it like any other realization.
    ///
    /// # Panics
    /// If the number of traces or offsets differs from `cfg.nodes`, the
    /// traces do not all share one period, or a sample's owner memory
    /// exceeds `u16::MAX` pages (262,143 KB): such traces have no
    /// window-major form.
    pub fn with_traces(
        cfg: ClusterConfig,
        traces: Vec<Arc<CoarseTrace>>,
        offsets: Vec<usize>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.nodes, "one trace per node");
        assert_eq!(offsets.len(), cfg.nodes, "one offset per node");
        let real = WorkloadRealization::from_traces(&traces, offsets)
            .expect("with_traces needs at least one trace, all of one period, memory ≤ 262,143 KB");
        Self::with_realization(cfg, &real)
    }

    /// Build the simulation over a workload realization (shared across a
    /// sweep or freshly synthesized) and queue the whole family at its arrival
    /// times — every constructor ends here. The realization's window
    /// table is shared by `Arc`, never copied per policy; this builds it
    /// (or grows it) first if it does not yet hold every window the
    /// run's hard horizon can reach. A streamed realization gets a fresh
    /// cursor.
    ///
    /// # Panics
    /// If the realization's node count differs from `cfg.nodes`.
    pub fn with_realization(cfg: ClusterConfig, real: &WorkloadRealization) -> Self {
        assert_eq!(real.nodes(), cfg.nodes, "realization must cover cfg.nodes");
        let jobs = JobSlabs::from_specs(cfg.family.jobs());
        let source = Source::new(&cfg, jobs.len());
        // Windows the run can reach before its hard horizon stops it.
        let max_windows = (source.horizon().as_nanos() / WINDOW.as_nanos()) as usize + 1;
        // Load window 0 now, so a streamed cursor's first fill is
        // construction time, not run time.
        let mut windows = real.cursor(max_windows);
        windows.rows(0);
        let n = cfg.nodes;
        // The fault schedule spans the run's hard horizon; events are a
        // pure function of (faults config, seed, node), so two runs of
        // the same config realize identical failures.
        let faults = FaultModel::new(cfg.faults, cfg.seed, n, max_windows);
        let shards = env_count("LINGER_SHARDS").unwrap_or_else(|| default_shard_count(n));
        let plan = ShardPlan::new(n, shards);
        let shard_count = plan.shard_count().max(1);
        let dispatch = Dispatch::new(&cfg, &jobs, shard_count);
        ClusterSim {
            cfg,
            nodes: NodeSlabs::new(n),
            jobs,
            source,
            dispatch,
            window: 0,
            foreign_cpu: SimDuration::ZERO,
            local_busy_secs: 0.0,
            local_delay_secs: 0.0,
            completed: 0,
            free: NodeIndex::full(n),
            busy: NodeIndex::new(n),
            free_idle: NodeIndex::new(n),
            migrating: Vec::new(),
            windows,
            plan,
            decide_bufs: vec![Vec::new(); shard_count],
            progress_bufs: vec![Vec::new(); shard_count],
            faults,
            crashed: NodeIndex::new(n),
            fault_cursor: 0,
            fault_stats: FaultStats::default(),
            telemetry: Recorder::disabled(),
            steal_stats: StealStats::default(),
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
        self.dispatch.set_shards(shard_count);
    }

    /// Builder-style [`Self::set_shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.set_shards(shards);
        self
    }

    /// Attach (or detach) an event recorder, replacing the disabled one
    /// a sim starts with. The journal is the caller's to read.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = recorder;
    }

    /// Builder-style [`Self::set_recorder`].
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// The attached recorder (disabled unless [`Self::set_recorder`]
    /// attached one).
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
        for ji in 0..self.jobs.len() {
            if self.jobs.state[ji] != JobState::Queued {
                continue;
            }
            let span = queued_span(&self.jobs, ji, self.window as u32);
            if span > SimDuration::ZERO {
                let id = self.jobs.id[ji].0;
                let at = records
                    .binary_search_by_key(&id, |r| r.spec.id.0)
                    .expect("every live slot has a record");
                records[at].breakdown.queued += span;
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
    /// unless jobs come from open arrivals).
    pub fn service_stats(&self) -> &ServiceStats {
        self.source.stats()
    }

    /// Stealing and central-dispatch counters (all zero under the
    /// default central queue with a free coordinator).
    pub fn steal_stats(&self) -> StealStats {
        self.steal_stats
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

    /// Resident bytes of the streamed window arena — chunk plus parked
    /// per-node stream states (0 unless streamed).
    pub fn stream_arena_bytes(&self) -> usize {
        self.windows.approx_bytes()
    }

    /// Owner CPU demand of node `ni` at the current window.
    #[inline]
    fn cpu_at(&self, ni: usize) -> f64 {
        self.windows.current().cpu[ni]
    }

    /// Recruitment idle flag of node `ni` at the current window.
    #[inline]
    fn idle_at(&self, ni: usize) -> bool {
        self.windows.current().idle[ni / 64] & (1u64 << (ni % 64)) != 0
    }

    /// Run to the configured termination condition. Returns `true` on
    /// normal completion, `false` if the family-mode safety horizon hit.
    pub fn run(&mut self) -> bool {
        loop {
            if let Some(done) = self.finished() {
                return done;
            }
            self.step();
        }
    }

    /// Advance one 2-second window.
    pub fn step(&mut self) {
        let t = self.now();
        let w = self.window;
        self.telemetry.record(|| {
            let queue_depth = self.dispatch.queued_len() as u32;
            self.event_at(t, EventKind::WindowStart { queue_depth })
        });
        // 0. Load the window's rows, which every later phase reads in
        //    place, and meet the owners' new memory demand on busy nodes.
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

        // 1b. New jobs from the source: open arrivals pass admission
        //     control (a closed source submits nothing here). Injection
        //     precedes migration arrivals and placement, so an arrival
        //     admitted this window is placeable this window — matching
        //     the closed family, whose time-zero jobs are placeable in
        //     window 0.
        self.inject_arrivals(t);

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
        for &u in self.windows.current().cpu {
            self.local_busy_secs += u * WINDOW.as_secs_f64();
        }
        self.classify_progress();
        self.apply_progress(t);

        // 5. Placement of queued jobs. Queue time is no longer accrued
        //    by a per-window queue walk: each job's accrual is an exact
        //    integer-nanosecond multiple of `WINDOW`, so it is applied
        //    in one multiply when the job leaves the queue (and patched
        //    for still-queued jobs in `jobs()`), replacing the historic
        //    phase 6 with identical bytes and zero per-window cost.
        self.place(t);

        // 6. The source's window-end accounting (open arrivals' service
        //    estimators and bounded-state witnesses).
        self.account_window();

        self.window += 1;
    }

    /// Phase 0: load window `w`'s rows and rebuild the `free ∧ idle`
    /// candidate set from its idle words.
    ///
    /// Only busy nodes hold memory state: each shard walks its slice of
    /// the busy index and hands every hosted job's pool the owner's new
    /// demand (reclaim or regrow). A free node's room is read from the
    /// row itself ([`room_kb`]), so free nodes cost nothing here.
    fn refresh_window(&mut self, w: usize) {
        // A streamed cursor builds (or reuses) the chunk covering `w`
        // here, recycling its arena in place.
        let rows = self.windows.rows(w);
        let plan = &self.plan;
        let busy_words = self.busy.words();
        plan.run(plan.split_mut(&mut self.nodes.memory), |si, mem| {
            let pages = &rows.mem_pages[plan.ranges()[si].clone()];
            refresh_shard(&busy_words[plan.word_range(si)], mem, pages);
        });
        // One O(n/64) pass replaces the historical per-node inserts; the
        // set content is identical (`free` already excludes crashed
        // nodes).
        self.free_idle.assign_and_words(rows.idle, &self.free);
        self.dispatch.new_window();
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
        let idle = self.windows.current().idle;
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
                idle,
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
                    DecideKind::Resume => {
                        // Episode over; back to plain running. (A
                        // lingering job has no pause deadline to clear.)
                        self.jobs.state[ji] = JobState::Running;
                        self.jobs.cold[ji].episode_start = None;
                        self.jobs.cold[ji].pause_deadline = None;
                        self.record_decision(ji, ni, t, DecisionAction::Resume, None);
                    }
                    DecideKind::LingerCheck => self.maybe_migrate_lingering(ji, ni, t),
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
        let cpu = self.windows.current().cpu;
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
                cpu,
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
                self.local_delay_secs += p.delay_add;
                match p.kind {
                    ProgressKind::Account => {
                        // Paused/migrating-in jobs make no progress;
                        // account time.
                        self.jobs.breakdown[ji].add(p.state, WINDOW);
                    }
                    ProgressKind::Advance => {
                        self.foreign_cpu += p.gain;
                        self.jobs.remaining[ji] = self.jobs.remaining[ji].saturating_sub(p.gain);
                        self.jobs.breakdown[ji].add(p.state, WINDOW);
                    }
                    ProgressKind::Complete => {
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
            self.event_at(
                t,
                EventKind::Decision {
                    action,
                    host_cpu: Some(self.cpu_at(node.0)),
                    dest_cpu: dest.map(|d| self.cpu_at(d.0)),
                    age_secs: None,
                    migration_secs: None,
                    dest: dest.map(|d| d.0 as u32),
                },
            )
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
    ///
    /// Without a central coordinator (stealing) no node knows the best
    /// destination: nodes acquire work themselves. The test then runs
    /// against an assumed-idle destination (`l = 0`); past the threshold
    /// the job returns to its home deque and waits to be popped or
    /// stolen, paying queue and steal latency where the central policy
    /// paid a directed move.
    fn maybe_migrate_lingering(&mut self, ji: usize, node: NodeId, t: SimTime) {
        let Some(start) = self.jobs.cold[ji].episode_start else { return };
        let mem_kb = self.jobs.mem_kb[ji];
        let dest = if self.dispatch.is_central() {
            let Some(dest) = self.best_destination(Pool::Idle, mem_kb, Some(node)) else {
                return; // nowhere better to go; keep lingering
            };
            Some(dest)
        } else {
            None
        };
        let h = self.cpu_at(node.0);
        let l = dest.map_or(0.0, |d| self.cpu_at(d.0));
        let t_migr = self.cfg.params.migration.cost(mem_kb);
        let age = t.saturating_since(start);
        if !should_migrate(age, h, l, t_migr) {
            return;
        }
        let Some(dest) = dest else {
            self.requeue_from(ji, node, t);
            return;
        };
        self.telemetry.record(|| {
            self.event_at(
                t,
                EventKind::Decision {
                    action: DecisionAction::Migrate,
                    host_cpu: Some(h),
                    dest_cpu: Some(l),
                    age_secs: Some(age.as_secs_f64()),
                    migration_secs: Some(t_migr.as_secs_f64()),
                    dest: Some(dest.0 as u32),
                },
            )
            .on_node(node.0 as u32)
            .for_job(self.jobs.id[ji].0)
        });
        self.migrate(ji, node, dest, t);
    }

    /// Evict: migrate to the best idle node if one exists, otherwise
    /// return to the queue (the migration cost is then paid when the job
    /// is re-placed). Stealing names no destination, so its evictions
    /// always return to the home deque.
    fn evict(&mut self, ji: usize, node: NodeId, t: SimTime) {
        match self.best_destination(Pool::Idle, self.jobs.mem_kb[ji], Some(node)) {
            Some(dest) => {
                self.record_decision(ji, node, t, DecisionAction::Evict, Some(dest));
                self.migrate(ji, node, dest, t);
            }
            None => self.requeue_from(ji, node, t),
        }
    }

    /// Take job `ji` off `node` and back to the waiting pool.
    fn requeue_from(&mut self, ji: usize, node: NodeId, t: SimTime) {
        self.record_decision(ji, node, t, DecisionAction::Requeue, None);
        self.release_node(node);
        self.requeue(ji, t);
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
        self.dispatch.enqueue(ji, self.jobs.id[ji]);
        self.telemetry
            .record(|| self.event_at(t, EventKind::QueueEnter).for_job(self.jobs.id[ji].0));
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
            self.event_at(t, EventKind::NodeCrash { evicted: hosted.map(|ji| self.jobs.id[ji].0) })
                .on_node(ni as u32)
        });
        if let Some(ji) = hosted {
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
    ///
    /// Stealing has no rescue dispatcher: a lost transfer (a failed
    /// steal delivery included) goes straight back to the job's home
    /// deque, before any attempt budget is charged.
    fn retry_migration(&mut self, ji: usize, t: SimTime) {
        if !self.dispatch.is_central() {
            self.requeue(ji, t);
            return;
        }
        let attempt = self.jobs.cold[ji].migration_attempts.max(1);
        let retry = self.cfg.params.retry;
        if attempt >= retry.max_attempts {
            self.fault_stats.migrations_abandoned += 1;
            self.telemetry.record(|| {
                self.event_at(t, EventKind::MigrationAbandon)
                    .for_job(self.jobs.id[ji].0)
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
        self.start_transfer(ji, dest, t + retry.retry_delay(attempt - 1), true, attempt + 1);
    }

    /// Begin a migration from `from` to the free `dest`.
    fn migrate(&mut self, ji: usize, from: NodeId, dest: NodeId, t: SimTime) {
        self.telemetry.record(|| {
            self.event_at(t, EventKind::MigrationStart { dest: dest.0 as u32, attempt: 1 })
                .on_node(from.0 as u32)
                .for_job(self.jobs.id[ji].0)
        });
        self.release_node(from);
        let cold = &mut self.jobs.cold[ji];
        cold.episode_start = None;
        cold.pause_deadline = None;
        cold.migrations += 1;
        self.start_transfer(ji, dest, t, true, 1);
    }

    /// Put job `ji` in flight toward `dest` and reserve the node, as
    /// transfer attempt `attempt`. With `image`, the job's memory image
    /// moves at migration cost starting at `start`; without one (a fresh
    /// job delayed in dispatch) it arrives at `start` itself, with no
    /// bits on the backbone. Either way the transfer is visible to the
    /// crash and migration-failure fault model until it lands.
    fn start_transfer(
        &mut self,
        ji: usize,
        dest: NodeId,
        start: SimTime,
        image: bool,
        attempt: u32,
    ) {
        let (until, bits) =
            if image { self.migration_terms(self.jobs.mem_kb[ji], start) } else { (start, None) };
        self.jobs.state[ji] = JobState::Migrating;
        self.jobs.node[ji] = dest.0 as u32;
        let cold = &mut self.jobs.cold[ji];
        cold.migration_until = Some(until);
        cold.migration_bits_left = bits;
        cold.migration_attempts = attempt;
        cold.transfer_seq += 1;
        self.migrating.push(ji);
        self.claim_node(dest, ji);
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
        self.attach(node.0, ji);
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

    /// Job finished: free the node, record, and hand the slot to the
    /// source (respawn, retire, or keep).
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
            self.event_at(
                at,
                EventKind::Complete {
                    queued_secs: b.queued.as_secs_f64(),
                    running_secs: b.running.as_secs_f64(),
                    lingering_secs: b.lingering.as_secs_f64(),
                    paused_secs: b.paused.as_secs_f64(),
                    migrating_secs: b.migrating.as_secs_f64(),
                    completion_secs,
                    migrations,
                },
            )
            .on_node(node.0 as u32)
            .for_job(self.jobs.id[ji].0)
        });
        self.on_completion(ji, at, completion_secs);
    }

    fn claim_node(&mut self, node: NodeId, ji: usize) {
        self.nodes.set_hosted(node.0, Some(ji));
        self.free.remove(node.0);
        self.free_idle.remove(node.0);
        self.busy.insert(node.0);
    }

    /// Attach job `ji`'s image to node `ni`'s memory pool, seeded from
    /// the owner's demand this window: a pool holds state only while its
    /// node hosts a job, and one holding no job is exactly its row
    /// (`a_fresh_pool_stands_in_for_a_detached_one` in the workload
    /// crate's memory tests).
    fn attach(&mut self, ni: usize, ji: usize) {
        let pages = u32::from(self.windows.current().mem_pages[ni]);
        let pool = &mut self.nodes.memory[ni];
        *pool = TwoPoolMemory::new(self.cfg.node_memory_kb, pages);
        pool.attach_foreign(self.jobs.mem_kb[ji]);
    }

    /// Room for a foreign job on free node `ni`, KB.
    fn room_at(&self, ni: usize) -> u32 {
        room_kb(self.cfg.node_memory_kb, self.windows.current().mem_pages[ni])
    }

    fn release_node(&mut self, node: NodeId) {
        self.nodes.set_hosted(node.0, None);
        self.join_free(node.0);
        self.busy.remove(node.0);
    }

    /// Node `ni` returns to the free pool mid-window (release or reboot):
    /// into `free`, into `free_idle` if its owner is idle, and into the
    /// scheduler's destination index.
    fn join_free(&mut self, ni: usize) {
        self.free.insert(ni);
        let pool = if self.idle_at(ni) {
            self.free_idle.insert(ni);
            Pool::Idle
        } else {
            Pool::NonIdle
        };
        self.dispatch.node_freed(pool, (self.cpu_at(ni), ni as u32));
    }

    /// Dispatch a queued job to `dest`, `extra` simulated seconds from
    /// now (steal round trips, coordinator backlog). With `extra` zero
    /// this is the historical placement path, byte for byte: jobs that
    /// have run elsewhere pay a migration; fresh jobs attach at once.
    /// A positive `extra` rides the migrating machinery even for fresh
    /// jobs — the transfer is in flight for that long, visible to the
    /// crash and migration-failure fault model.
    fn dispatch_queued(&mut self, ji: usize, dest: NodeId, t: SimTime, extra: SimDuration) {
        // Credit the span the job just spent on the queue: the exact set
        // of windows the historic phase-6 walk visited it in.
        let span = queued_span(&self.jobs, ji, self.window as u32);
        self.jobs.breakdown[ji].queued += span;
        self.telemetry.record(|| {
            self.event_at(
                t,
                EventKind::Decision {
                    action: DecisionAction::Place,
                    host_cpu: Some(self.cpu_at(dest.0)),
                    dest_cpu: None,
                    age_secs: None,
                    migration_secs: None,
                    dest: Some(dest.0 as u32),
                },
            )
            .for_job(self.jobs.id[ji].0)
        });
        if self.jobs.cold[ji].has_run {
            // Re-materializing an evicted job costs a migration (which
            // starts only once the dispatch delay has elapsed).
            self.jobs.cold[ji].migrations += 1;
            self.start_transfer(ji, dest, t + extra, true, 1);
            self.telemetry.record(|| {
                self.event_at(t, EventKind::MigrationStart { dest: dest.0 as u32, attempt: 1 })
                    .for_job(self.jobs.id[ji].0)
            });
        } else if extra > SimDuration::ZERO {
            // A fresh job delayed in flight: no image to move and no
            // migration counted, but it arrives only at `t + extra`.
            self.start_transfer(ji, dest, t + extra, false, 1);
        } else {
            self.claim_node(dest, ji);
            self.attach(dest.0, ji);
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
}

/// How long queued job `ji` has waited by window `w`: every window from
/// `max(entry, arrival)` up to (not including) `w`, in exact integer
/// nanoseconds. A job accrues from the first window whose start is at or
/// past its submission (the historic walk accrued under `t >= arrival`).
fn queued_span(jobs: &JobSlabs, ji: usize, w: u32) -> SimDuration {
    let arrival_window = jobs.arrival[ji].as_nanos().div_ceil(WINDOW.as_nanos()) as u32;
    let from = jobs.queued_from[ji].max(arrival_window);
    SimDuration::from_nanos(WINDOW.as_nanos() * w.saturating_sub(from) as u64)
}

/// Room for a foreign job, KB, on a node of `total_kb` that hosts none:
/// what its owner's `pages` of memory leave free. A free node's pool
/// holds nothing else, so this reads the row instead of a pool.
fn room_kb(total_kb: u32, pages: u16) -> u32 {
    TwoPoolMemory::new(total_kb, u32::from(pages)).free_kb()
}

/// One shard's slice of phase 0: every busy node's pool meets its
/// owner's new demand. `busy_words` is the shard's slice of the busy
/// bitset; `mem` and `pages` start at its first node (64-aligned). A node
/// reserved for an in-flight job carries a stale pool until the job
/// attaches and reseeds it; updating that pool is harmless.
fn refresh_shard(busy_words: &[u64], mem: &mut [TwoPoolMemory], pages: &[u16]) {
    for (k, &w0) in busy_words.iter().enumerate() {
        let mut word = w0;
        while word != 0 {
            let i = k * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            mem[i].set_local_pages(u32::from(pages[i]));
        }
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
    idle: &[u64],
    policy: Policy,
    t: SimTime,
    out: &mut Vec<DecideIntent>,
) {
    for (k, &w0) in busy_words.iter().enumerate() {
        let idle_word = idle[word_base + k];
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
                JobState::Lingering | JobState::Paused if idle => DecideKind::Resume,
                JobState::Lingering if policy == Policy::LingerLonger => DecideKind::LingerCheck,
                JobState::Paused if cold[ji as usize].pause_deadline.is_some_and(|d| t >= d) => {
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
    cpu: &[f64],
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
                });
                continue;
            }
            let u = cpu[ni];
            // Memory pressure: a partially-resident job pages and slows
            // proportionally.
            let residency = memory[ni].foreign_residency();
            // One interpolation serves both the rate and the delay.
            let burst = cfg.table.interpolate(u);
            let rate = steal_rate_with(&burst, u, cfg.params.context_switch) * residency;
            // Added foreground latency: one context switch per local run
            // burst; expected bursts in the window = u·W / R(u). Zero adds
            // leave the delay sum's bits unchanged.
            let run_mean = burst.run_mean;
            let delay_add = if state == JobState::Lingering && run_mean > 0.0 {
                cfg.params.context_switch.as_secs_f64() * (u * WINDOW.as_secs_f64() / run_mean)
            } else {
                0.0
            };
            let gain = WINDOW.mul_f64(rate);
            let rem = remaining[ji as usize];
            let (kind, frac) = if rate > 0.0 && rem <= gain {
                // Completes within this window.
                (ProgressKind::Complete, rem.as_secs_f64() / gain.as_secs_f64())
            } else {
                (ProgressKind::Advance, 0.0)
            };
            out.push(ProgressIntent { ni: ni as u32, ji, state, kind, gain, frac, delay_add });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionPolicy, RunMode};
    use linger::JobFamily;
    use linger_sim_core::SimDuration;

    pub(super) fn small_cfg(policy: Policy) -> ClusterConfig {
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
        let lingered: f64 = sim.jobs().iter().map(|j| j.breakdown.lingering.as_secs_f64()).sum();
        assert_eq!(lingered, 0.0, "PM never lingers");
        // With several 2-minute jobs on user workstations, at least one
        // pause episode is overwhelmingly likely.
        assert!(paused > 0.0, "PM should pause at least once");
    }

    #[test]
    fn lingering_policies_linger() {
        let mut sim = ClusterSim::new(small_cfg(Policy::LingerForever));
        sim.run();
        let lingered: f64 = sim.jobs().iter().map(|j| j.breakdown.lingering.as_secs_f64()).sum();
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

    pub(super) fn run_outcome(mut sim: ClusterSim) -> Outcome {
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
    pub(super) fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        linger_sim_core::set_default_jobs(width);
        let out = f();
        linger_sim_core::set_default_jobs(0);
        out
    }

    /// The owner workload `cfg` replays, for tests that build several
    /// sims over one `(trace, seed, nodes)` key.
    pub(super) fn realize(cfg: &ClusterConfig) -> WorkloadRealization {
        WorkloadRealization::synthesize(&cfg.trace, cfg.seed, cfg.nodes)
    }

    /// A sim of `cfg` over `real`, split into exactly `shards` shards.
    pub(super) fn sharded(
        cfg: ClusterConfig,
        real: &WorkloadRealization,
        shards: usize,
    ) -> ClusterSim {
        assert_eq!(ShardPlan::new(cfg.nodes, shards).shard_count(), shards, "shard axis collapsed");
        ClusterSim::with_realization(cfg, real).with_shards(shards)
    }

    #[test]
    fn shard_count_never_changes_results() {
        // 2,048 nodes (32 bitset words): every shard count below exists.
        let cfg = |policy| ClusterConfig { nodes: 2048, ..small_cfg(policy) };
        let real = realize(&cfg(Policy::LingerLonger));
        for policy in Policy::ALL {
            let baseline = run_outcome(sharded(cfg(policy), &real, 1));
            for shards in [2, 3, 7, 16] {
                let got = run_outcome(sharded(cfg(policy), &real, shards));
                assert_eq!(baseline, got, "{policy} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn threaded_shards_never_change_results() {
        let cfg = || ClusterConfig { nodes: 256, ..small_cfg(Policy::LingerLonger) };
        let real = realize(&cfg());
        let baseline = at_width(1, || run_outcome(sharded(cfg(), &real, 1)));
        assert_eq!(baseline, at_width(4, || run_outcome(sharded(cfg(), &real, 4))));
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
                assert_eq!(sim.free_idle.iter().collect::<Vec<_>>(), free_idle_scan, "{policy}");
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
    pub(super) fn open_cfg(
        admission: AdmissionPolicy,
        load: f64,
        cap: usize,
        horizon_secs: u64,
    ) -> ClusterConfig {
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
    pub(super) fn open_cfg_256(admission: AdmissionPolicy, load: f64) -> ClusterConfig {
        let mut cfg = open_cfg(admission, load * 32.0, 3 * 256, 1800);
        cfg.nodes = 256;
        cfg.faults.crash_rate_per_hour = 0.5;
        cfg.faults.migration_failure_prob = 0.2;
        cfg
    }

    #[test]
    fn open_mode_deterministic_across_shards() {
        let real = realize(&open_cfg_256(AdmissionPolicy::Open, 2.0));
        for admission in AdmissionPolicy::ALL {
            let outcome =
                |shards| run_outcome(sharded(open_cfg_256(admission, 2.0), &real, shards));
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
        // The turnover pins digest these stats' `Debug` text, so closed
        // runs must report exactly the fresh unbounded set.
        let inert = format!("{:?}", ServiceStats::new(usize::MAX, 0));
        let family = small_cfg(Policy::LingerLonger);
        let throughput = small_cfg(Policy::LingerLonger).with_throughput_mode();
        for cfg in [family, throughput] {
            let mode = cfg.mode;
            let mut sim = ClusterSim::new(cfg);
            sim.run();
            assert!(sim.completed() > 0, "{mode:?}");
            let s = sim.service_stats();
            assert_eq!(s.generated, 0);
            assert_eq!(s.admitted, 0);
            assert_eq!(s.throughput.batches(), 0);
            assert_eq!(s.peak_queue_depth, 0);
            assert_eq!(format!("{s:?}"), inert, "{mode:?}");
        }
    }
}
