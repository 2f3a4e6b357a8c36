//! Runtime state of jobs and nodes in the cluster simulation.
//!
//! Both populations are held as struct-of-arrays slabs ([`NodeSlabs`],
//! [`JobSlabs`]): the fields the window sweep reads for *every* busy
//! node — occupancy, lifecycle state, remaining demand — live in dense
//! parallel arrays keyed by index, while rarely-touched bookkeeping
//! (migration deadlines, completion stamps, fault counters) sits in a
//! separate cold slab. The hot sweep therefore streams a few contiguous
//! arrays instead of striding through ~100-byte records, which is what
//! keeps the per-node-window cost flat as clusters grow past the
//! last-level cache. [`JobRecord`] remains the materialized per-job view
//! handed to metrics and tests.

use linger::{JobId, JobSpec};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::TwoPoolMemory;
use serde::{Deserialize, Serialize};

/// Index of a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Where a job is in its lifecycle. Mirrors the Fig 8 state breakdown
/// ("queued, running, lingering (running on a non-idle node), paused,
/// migrating").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the central queue with no node.
    Queued,
    /// Executing on an idle (recruited) node.
    Running,
    /// Executing at starvation priority on a non-idle node.
    Lingering,
    /// Suspended in place (Pause-and-Migrate grace period).
    Paused,
    /// In transit between nodes (or re-materializing after eviction).
    Migrating,
    /// Finished.
    Done,
}

/// Cumulative time a job has spent in each state (the Fig 8 bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StateBreakdown {
    /// Time in the central queue.
    pub queued: SimDuration,
    /// Time running on idle nodes.
    pub running: SimDuration,
    /// Time lingering on non-idle nodes.
    pub lingering: SimDuration,
    /// Time suspended by Pause-and-Migrate.
    pub paused: SimDuration,
    /// Time in transit.
    pub migrating: SimDuration,
}

impl StateBreakdown {
    /// Record `dt` in the bucket for `state`.
    pub fn add(&mut self, state: JobState, dt: SimDuration) {
        match state {
            JobState::Queued => self.queued += dt,
            JobState::Running => self.running += dt,
            JobState::Lingering => self.lingering += dt,
            JobState::Paused => self.paused += dt,
            JobState::Migrating => self.migrating += dt,
            JobState::Done => {}
        }
    }

    /// Sum over all states.
    pub fn total(&self) -> SimDuration {
        self.queued + self.running + self.lingering + self.paused + self.migrating
    }

    /// Merge another breakdown (for averaging across jobs).
    pub fn merge(&mut self, other: &StateBreakdown) {
        self.queued += other.queued;
        self.running += other.running;
        self.lingering += other.lingering;
        self.paused += other.paused;
        self.migrating += other.migrating;
    }
}

/// A job being tracked by the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The static spec.
    pub spec: JobSpec,
    /// CPU time still owed.
    pub remaining: SimDuration,
    /// Current lifecycle state.
    pub state: JobState,
    /// Node currently hosting (or receiving) the job.
    pub node: Option<NodeId>,
    /// When the current non-idle episode began (while lingering/paused).
    pub episode_start: Option<SimTime>,
    /// Migration completes at this time (while migrating; with a shared
    /// network this covers only the fixed processing part).
    pub migration_until: Option<SimTime>,
    /// Bits still to transfer (shared-network mode only).
    pub migration_bits_left: Option<f64>,
    /// PM grace period expires at this time (while paused).
    pub pause_deadline: Option<SimTime>,
    /// First time the job started executing (for the Variation metric).
    pub first_start: Option<SimTime>,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Whether the job has ever run (re-placements pay migration cost).
    pub has_run: bool,
    /// Per-state time accounting.
    pub breakdown: StateBreakdown,
    /// Number of migrations (including evictions) the job suffered.
    pub migrations: u32,
    /// Transfer attempts made for the migration currently in flight
    /// (1 on the first attempt; reset when the job arrives or requeues).
    pub migration_attempts: u32,
    /// Lifetime count of transfer starts — the RNG key for in-transit
    /// failure draws, unique per attempt across the job's whole life.
    pub transfer_seq: u32,
    /// Times a node crash killed this job (hosted or inbound).
    pub crashes: u32,
}

impl JobRecord {
    /// A fresh record for `spec`, queued.
    pub fn new(spec: JobSpec) -> Self {
        JobRecord {
            spec,
            remaining: spec.cpu_demand,
            state: JobState::Queued,
            node: None,
            episode_start: None,
            migration_until: None,
            migration_bits_left: None,
            pause_deadline: None,
            first_start: None,
            completed_at: None,
            has_run: false,
            breakdown: StateBreakdown::default(),
            migrations: 0,
            migration_attempts: 0,
            transfer_seq: 0,
            crashes: 0,
        }
    }

    /// Completion time from submission (the Fig 7 "Avg. Job" metric
    /// includes "waiting time before initially being executed, paused
    /// time, and migration time").
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t.saturating_since(self.spec.arrival))
    }

    /// Execution time from first start to completion (the Fig 7
    /// "Variation" metric is its std-dev).
    pub fn execution_time(&self) -> Option<SimDuration> {
        match (self.first_start, self.completed_at) {
            (Some(s), Some(e)) => Some(e.saturating_since(s)),
            _ => None,
        }
    }
}

/// Sentinel for "no job" in the packed [`NodeSlabs::hosted`] /
/// [`JobSlabs`] node slabs.
pub const NO_JOB: u32 = u32::MAX;

/// Sentinel for "no node" in the packed [`JobSlabs`] node slab.
pub const NO_NODE: u32 = u32::MAX;

/// Per-node state as parallel slabs keyed by node id.
///
/// `hosted` (the occupancy array every placement and decision sweep
/// reads) and `memory` (refreshed from the window row each window) are
/// the only slabs: every other per-window node attribute — CPU demand,
/// recruitment idleness, owner memory — is read from the realization's
/// window rows, so no per-node trace is ever resident.
pub struct NodeSlabs {
    /// Job index hosted on (or reserved for) each node; [`NO_JOB`] when
    /// free.
    pub(crate) hosted: Vec<u32>,
    /// Two-pool memory state per node.
    pub(crate) memory: Vec<TwoPoolMemory>,
}

impl NodeSlabs {
    /// Assemble the slabs with every node free and its memory pool
    /// initialised from `initial_mem_kb`, the realization's window-0
    /// memory row (node `n`'s trace sample at its start offset).
    pub fn new(initial_mem_kb: &[u32], node_memory_kb: u32) -> Self {
        let memory = initial_mem_kb
            .iter()
            .map(|&kb| TwoPoolMemory::new(node_memory_kb, kb))
            .collect();
        let hosted = vec![NO_JOB; initial_mem_kb.len()];
        NodeSlabs { hosted, memory }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.hosted.len()
    }

    /// True for an empty cluster.
    pub fn is_empty(&self) -> bool {
        self.hosted.is_empty()
    }

    /// The job hosted on (or reserved for) node `ni`, if any.
    #[inline]
    pub fn hosted(&self, ni: usize) -> Option<usize> {
        let ji = self.hosted[ni];
        (ji != NO_JOB).then_some(ji as usize)
    }

    /// Point node `ni` at job `ji` (or clear with `None`).
    #[inline]
    pub(crate) fn set_hosted(&mut self, ni: usize, ji: Option<usize>) {
        self.hosted[ni] = ji.map_or(NO_JOB, |j| j as u32);
    }

    /// The memory pool of node `ni`.
    pub fn memory(&self, ni: usize) -> &TwoPoolMemory {
        &self.memory[ni]
    }
}

/// Cold per-job bookkeeping: fields touched on state transitions (a few
/// per job per run), not by the per-window sweeps.
#[derive(Debug, Clone)]
pub struct JobCold {
    /// Total CPU demand from the spec.
    pub cpu_demand: SimDuration,
    /// When the current non-idle episode began (while lingering/paused).
    pub episode_start: Option<SimTime>,
    /// Migration completes at this time (while migrating; with a shared
    /// network this covers only the fixed processing part).
    pub migration_until: Option<SimTime>,
    /// Bits still to transfer (shared-network mode only).
    pub migration_bits_left: Option<f64>,
    /// PM grace period expires at this time (while paused).
    pub pause_deadline: Option<SimTime>,
    /// First time the job started executing (for the Variation metric).
    pub first_start: Option<SimTime>,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Whether the job has ever run (re-placements pay migration cost).
    pub has_run: bool,
    /// Number of migrations (including evictions) the job suffered.
    pub migrations: u32,
    /// Transfer attempts made for the migration currently in flight
    /// (1 on the first attempt; reset when the job arrives or requeues).
    pub migration_attempts: u32,
    /// Lifetime count of transfer starts — the RNG key for in-transit
    /// failure draws, unique per attempt across the job's whole life.
    pub transfer_seq: u32,
    /// Times a node crash killed this job (hosted or inbound).
    pub crashes: u32,
}

impl JobCold {
    /// The cold record of a freshly queued job owing `cpu_demand`.
    fn fresh(cpu_demand: SimDuration) -> Self {
        JobCold {
            cpu_demand,
            episode_start: None,
            migration_until: None,
            migration_bits_left: None,
            pause_deadline: None,
            first_start: None,
            completed_at: None,
            has_run: false,
            migrations: 0,
            migration_attempts: 0,
            transfer_seq: 0,
            crashes: 0,
        }
    }
}


/// Per-job state as parallel slabs keyed by job index.
///
/// The hot slabs are exactly what the window sweeps consult: lifecycle
/// `state` and `remaining` for progress, `node` for occupancy checks,
/// `mem_kb`/`arrival`/`id` for placement and telemetry, the per-window
/// `breakdown` accounting, and the `queued_from` entry window that
/// queue-time accrual flushes at dequeue. Everything else lives in the
/// [`JobCold`] slab.
///
/// ## Slot recycling
///
/// Slab *indices* are transient handles, not identities: a finished
/// job's full record is moved to the `archived` store
/// ([`JobSlabs::retire`]) and its slot parked on a free list, which the
/// next [`JobSlabs::push`] reuses. Throughput mode retires every
/// completed job before respawning its successor, so the live lanes
/// stay `O(active jobs)` no matter how many jobs flow through the
/// system — at a million nodes, ~2M rows (~420 MB) flat instead of
/// ~13M (~2.7 GB) growing with the horizon.
/// [`JobId`]s are minted by the simulator's own counter in submission
/// order; only the slot a job occupies is reused, and
/// [`JobSlabs::all_records`] reconstructs the full population in id
/// order, so recycling is invisible in every output but the
/// `peak_live_rows` witness (a former layout that never reused a slot
/// reproduced everything else the digests in `tests/fault_paths.rs`
/// pin).
pub struct JobSlabs {
    /// Lifecycle state.
    pub(crate) state: Vec<JobState>,
    /// Hosting (or receiving) node id; [`NO_NODE`] when off-node.
    pub(crate) node: Vec<u32>,
    /// CPU time still owed.
    pub(crate) remaining: Vec<SimDuration>,
    /// Working-set size from the spec, KB.
    pub(crate) mem_kb: Vec<u32>,
    /// Submission time from the spec.
    pub(crate) arrival: Vec<SimTime>,
    /// Job id from the spec.
    pub(crate) id: Vec<JobId>,
    /// Per-state time accounting (hot: one bucket add per busy node and
    /// per queued job, every window).
    pub(crate) breakdown: Vec<StateBreakdown>,
    /// Window index at which each job last entered the central queue (0
    /// for the initial population). Queue time is accrued in one exact
    /// multiply at dequeue instead of one add per queued job per window.
    /// Lives here — set by the same push/recycle transaction as every
    /// other lane — so no call site can grow the slabs without it.
    pub(crate) queued_from: Vec<u32>,
    /// Everything the sweeps do not read.
    pub(crate) cold: Vec<JobCold>,
    /// Finished records moved out of the slabs at retirement, in
    /// retirement order (cold: written once per completion, read only
    /// when materializing the population).
    archived: Vec<JobRecord>,
    /// Retired slot indices awaiting reuse.
    free: Vec<u32>,
}

impl JobSlabs {
    /// Slabs seeded with one queued record per spec.
    pub fn from_specs(specs: &[JobSpec]) -> Self {
        let mut slabs = JobSlabs {
            state: Vec::with_capacity(specs.len()),
            node: Vec::with_capacity(specs.len()),
            remaining: Vec::with_capacity(specs.len()),
            mem_kb: Vec::with_capacity(specs.len()),
            arrival: Vec::with_capacity(specs.len()),
            id: Vec::with_capacity(specs.len()),
            breakdown: Vec::with_capacity(specs.len()),
            queued_from: Vec::with_capacity(specs.len()),
            cold: Vec::with_capacity(specs.len()),
            archived: Vec::new(),
            free: Vec::new(),
        };
        for spec in specs {
            slabs.push(*spec, 0);
        }
        slabs
    }

    /// Add a fresh queued job for `spec`, entering the queue at window
    /// `queued_from`; returns its slot index. Reuses a retired slot when
    /// one is free, otherwise appends. Every lane — including
    /// `queued_from` — is initialized by this one transaction, so the
    /// slabs can never skew.
    pub fn push(&mut self, spec: JobSpec, queued_from: u32) -> usize {
        if let Some(slot) = self.free.pop() {
            let ji = slot as usize;
            debug_assert_eq!(self.state[ji], JobState::Done, "free slot must be retired");
            self.state[ji] = JobState::Queued;
            self.node[ji] = NO_NODE;
            self.remaining[ji] = spec.cpu_demand;
            self.mem_kb[ji] = spec.mem_kb;
            self.arrival[ji] = spec.arrival;
            self.id[ji] = spec.id;
            self.breakdown[ji] = StateBreakdown::default();
            self.queued_from[ji] = queued_from;
            self.cold[ji] = JobCold::fresh(spec.cpu_demand);
            return ji;
        }
        self.state.push(JobState::Queued);
        self.node.push(NO_NODE);
        self.remaining.push(spec.cpu_demand);
        self.mem_kb.push(spec.mem_kb);
        self.arrival.push(spec.arrival);
        self.id.push(spec.id);
        self.breakdown.push(StateBreakdown::default());
        self.queued_from.push(queued_from);
        self.cold.push(JobCold::fresh(spec.cpu_demand));
        self.state.len() - 1
    }

    /// Move the finished job in slot `ji` to the cold archive and park
    /// the slot on the free list for the next [`Self::push`]. The
    /// materialized record is final — the job must be `Done` and off
    /// every node/queue/worklist before retirement.
    pub fn retire(&mut self, ji: usize) {
        debug_assert_eq!(self.state[ji], JobState::Done, "only Done jobs retire");
        debug_assert_eq!(self.node[ji], NO_NODE, "retired job still on a node");
        self.archived.push(self.record(ji));
        self.free.push(ji as u32);
    }

    /// Retire the finished job in slot `ji` and push its replacement in
    /// one transaction — throughput-mode respawn. The replacement lands
    /// in the slot just vacated.
    pub fn respawn(&mut self, ji: usize, spec: JobSpec, queued_from: u32) -> usize {
        self.retire(ji);
        self.push(spec, queued_from)
    }

    /// Number of live slab rows (active jobs plus retired-but-unreused
    /// slots) — the hot-lane footprint the window sweeps stride over.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no job has been submitted.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty() && self.archived.is_empty()
    }

    /// Jobs ever tracked: live slab rows plus archived records. Slots
    /// parked on the free list hold stale copies of archived records,
    /// so they are excluded.
    pub fn total_jobs(&self) -> usize {
        self.state.len() - self.free.len() + self.archived.len()
    }

    /// Number of records moved to the cold archive.
    pub fn archived_len(&self) -> usize {
        self.archived.len()
    }

    /// The archived (finished) records, in retirement order.
    pub fn archived(&self) -> &[JobRecord] {
        &self.archived
    }

    /// Resident cost of one live job row across every per-slot lane
    /// (hot lanes plus the cold slab) — the unit the admission queue's
    /// `LINGER_QUEUE_BUDGET` byte budget divides by.
    pub fn job_row_bytes() -> usize {
        use std::mem::size_of;
        size_of::<JobState>()
            + size_of::<u32>()
            + size_of::<SimDuration>()
            + size_of::<u32>()
            + size_of::<SimTime>()
            + size_of::<JobId>()
            + size_of::<StateBreakdown>()
            + size_of::<u32>()
            + size_of::<JobCold>()
    }

    /// Resident bytes of the live job lanes — every per-slot vector the
    /// window sweeps can touch (hot lanes plus the cold slab), excluding
    /// the archive. This is the footprint slot recycling pins at
    /// `O(active jobs)`.
    pub fn live_lane_bytes(&self) -> usize {
        self.state.len() * Self::job_row_bytes()
    }

    /// Reconstruct the static spec of job `ji`.
    #[inline]
    pub fn spec(&self, ji: usize) -> JobSpec {
        JobSpec {
            id: self.id[ji],
            cpu_demand: self.cold[ji].cpu_demand,
            mem_kb: self.mem_kb[ji],
            arrival: self.arrival[ji],
        }
    }

    /// The node hosting (or receiving) job `ji`, if any.
    #[inline]
    pub fn node(&self, ji: usize) -> Option<NodeId> {
        let ni = self.node[ji];
        (ni != NO_NODE).then_some(NodeId(ni as usize))
    }

    /// Materialize the full record of job `ji`.
    pub fn record(&self, ji: usize) -> JobRecord {
        let cold = &self.cold[ji];
        JobRecord {
            spec: self.spec(ji),
            remaining: self.remaining[ji],
            state: self.state[ji],
            node: self.node(ji),
            episode_start: cold.episode_start,
            migration_until: cold.migration_until,
            migration_bits_left: cold.migration_bits_left,
            pause_deadline: cold.pause_deadline,
            first_start: cold.first_start,
            completed_at: cold.completed_at,
            has_run: cold.has_run,
            breakdown: self.breakdown[ji],
            migrations: cold.migrations,
            migration_attempts: cold.migration_attempts,
            transfer_seq: cold.transfer_seq,
            crashes: cold.crashes,
        }
    }

    /// Materialize the full job population — archived records plus
    /// every live slot — in ascending id order (ids are minted in
    /// submission order and unique, so the order is total). Slots parked
    /// on the free list hold stale copies of archived records and are
    /// skipped, so each job appears exactly once.
    pub fn all_records(&self) -> Vec<JobRecord> {
        let mut parked = vec![false; self.len()];
        for &slot in &self.free {
            parked[slot as usize] = true;
        }
        let mut records = Vec::with_capacity(self.total_jobs());
        records.extend(self.archived.iter().cloned());
        records.extend((0..self.len()).filter(|&ji| !parked[ji]).map(|ji| self.record(ji)));
        records.sort_unstable_by_key(|r| r.spec.id.0);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger::JobId;

    fn spec() -> JobSpec {
        JobSpec {
            id: JobId(0),
            cpu_demand: SimDuration::from_secs(600),
            mem_kb: 8192,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = StateBreakdown::default();
        b.add(JobState::Queued, SimDuration::from_secs(10));
        b.add(JobState::Running, SimDuration::from_secs(20));
        b.add(JobState::Lingering, SimDuration::from_secs(5));
        b.add(JobState::Done, SimDuration::from_secs(99)); // ignored
        assert_eq!(b.total(), SimDuration::from_secs(35));
        let mut c = StateBreakdown::default();
        c.add(JobState::Migrating, SimDuration::from_secs(1));
        b.merge(&c);
        assert_eq!(b.total(), SimDuration::from_secs(36));
    }

    #[test]
    fn record_times() {
        let mut r = JobRecord::new(spec());
        assert_eq!(r.completion_time(), None);
        assert_eq!(r.execution_time(), None);
        r.first_start = Some(SimTime::from_secs(100));
        r.completed_at = Some(SimTime::from_secs(700));
        assert_eq!(r.completion_time(), Some(SimDuration::from_secs(700)));
        assert_eq!(r.execution_time(), Some(SimDuration::from_secs(600)));
    }

    #[test]
    fn fresh_record_owes_full_demand() {
        let r = JobRecord::new(spec());
        assert_eq!(r.remaining, SimDuration::from_secs(600));
        assert_eq!(r.state, JobState::Queued);
        assert!(!r.has_run);
    }

    #[test]
    fn slabs_materialize_the_record_a_fresh_job_would_have() {
        let slabs = JobSlabs::from_specs(&[spec()]);
        assert_eq!(slabs.len(), 1);
        let got = slabs.record(0);
        let fresh = JobRecord::new(spec());
        assert_eq!(got.spec, fresh.spec);
        assert_eq!(got.remaining, fresh.remaining);
        assert_eq!(got.state, fresh.state);
        assert_eq!(got.node, None);
        assert_eq!(got.breakdown, fresh.breakdown);
        assert!(!got.has_run);
    }

    fn spec_with_id(id: u32) -> JobSpec {
        JobSpec { id: JobId(id), ..spec() }
    }

    #[test]
    fn retire_archives_the_final_record_and_recycles_the_slot() {
        let mut slabs = JobSlabs::from_specs(&[spec_with_id(0), spec_with_id(1)]);
        // Finish job 0 with some accumulated state, then retire it.
        slabs.state[0] = JobState::Done;
        slabs.node[0] = NO_NODE;
        slabs.remaining[0] = SimDuration::ZERO;
        slabs.breakdown[0].add(JobState::Running, SimDuration::from_secs(600));
        slabs.cold[0].completed_at = Some(SimTime::from_secs(600));
        slabs.cold[0].has_run = true;
        let final_record = slabs.record(0);
        let ji = slabs.respawn(0, spec_with_id(2), 7);
        assert_eq!(ji, 0, "respawn must reuse the vacated slot");
        assert_eq!(slabs.len(), 2, "live rows stay at the active-job count");
        assert_eq!(slabs.total_jobs(), 3);
        assert_eq!(slabs.archived_len(), 1);
        // The archive holds the finished job verbatim...
        let archived = &slabs.archived()[0];
        assert_eq!(archived.spec, final_record.spec);
        assert_eq!(archived.state, JobState::Done);
        assert_eq!(archived.completed_at, final_record.completed_at);
        assert_eq!(archived.breakdown, final_record.breakdown);
        // ...and the slot is a fresh queued job under the new id.
        let reborn = slabs.record(0);
        assert_eq!(reborn.spec.id, JobId(2));
        assert_eq!(reborn.state, JobState::Queued);
        assert_eq!(reborn.remaining, spec().cpu_demand);
        assert!(!reborn.has_run);
        assert_eq!(slabs.queued_from[0], 7);
    }

    #[test]
    fn all_records_skips_slots_parked_without_a_respawn() {
        // Open mode retires a finished job without respawning into its
        // slot: the parked row is a stale copy of the archived record.
        let mut slabs = JobSlabs::from_specs(&[spec_with_id(0), spec_with_id(1)]);
        slabs.state[1] = JobState::Done;
        slabs.node[1] = NO_NODE;
        slabs.retire(1);
        assert_eq!(slabs.total_jobs(), 2);
        let ids: Vec<u32> = slabs.all_records().iter().map(|r| r.spec.id.0).collect();
        assert_eq!(ids, vec![0, 1], "each job exactly once");
        // Reusing the parked slot brings its row back into the walk.
        let ji = slabs.push(spec_with_id(2), 0);
        assert_eq!(ji, 1, "push reuses the parked slot");
        let ids: Vec<u32> = slabs.all_records().iter().map(|r| r.spec.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn all_records_reconstructs_the_population_in_id_order() {
        let mut slabs = JobSlabs::from_specs(&[spec_with_id(0), spec_with_id(1)]);
        // Retire id 1 first, then id 0 — archive order is retirement
        // order (1, 0), live slots hold ids 3 (slot 1) and 2 (slot 0).
        slabs.state[1] = JobState::Done;
        slabs.node[1] = NO_NODE;
        slabs.respawn(1, spec_with_id(2), 0);
        // Slot 1 was freed and immediately reused, so id 2 landed there;
        // now retire id 0 and respawn id 3 into slot 0.
        assert_eq!(slabs.record(1).spec.id, JobId(2));
        slabs.state[0] = JobState::Done;
        slabs.node[0] = NO_NODE;
        slabs.respawn(0, spec_with_id(3), 0);
        assert_eq!(slabs.record(0).spec.id, JobId(3));
        let ids: Vec<u32> = slabs.all_records().iter().map(|r| r.spec.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let states: Vec<JobState> = slabs.all_records().iter().map(|r| r.state).collect();
        assert_eq!(
            states,
            vec![JobState::Done, JobState::Done, JobState::Queued, JobState::Queued]
        );
    }
}
