//! The job-source seam: where jobs come from, and where finished ones go.
//!
//! [`Source`] owns the one thing the three run modes do differently —
//! the job stream. The window loop in the parent module calls four hooks
//! defined here, as it calls the scheduler's in `dispatch`: the window's
//! new jobs ([`ClusterSim::inject_arrivals`]), every completion
//! ([`ClusterSim::on_completion`]), the window-end accounting
//! ([`ClusterSim::account_window`]) and the termination test
//! ([`ClusterSim::finished`]). It never branches on the run mode itself.
//!
//! * **Family** — the paper's fixed job family (Fig 7's columns), all
//!   queued at construction. Completions leave; the run ends once every
//!   job is done, or unfinished at the `max_time` safety horizon.
//! * **Throughput** — the family held as a constant population (Fig 7's
//!   Throughput column): each completion retires its record and respawns
//!   a job of the same demand in the freed slot. The run ends at its
//!   horizon.
//! * **Open** — open arrivals ([`ArrivalGenerator`]) through admission
//!   control, before placement in every window; completions feed the
//!   latency estimator and retire. Only this source keeps
//!   [`ServiceStats`]; debug builds check its loss identity
//!   `generated == admitted + shed + deficit` at every window end.

use super::{queued_span, ClusterSim};
use crate::config::{AdmissionPolicy, ClusterConfig, RunMode, ServiceConfig};
use crate::service::{effective_queue_capacity, ServiceStats, DEFAULT_QUEUE_BUDGET_BYTES};
use crate::state::{JobState, NO_NODE};
use linger::{JobId, JobSpec};
use linger_sim_core::SimTime;
use linger_telemetry::{Event, EventKind};
use linger_workload::ArrivalGenerator;
use std::sync::OnceLock;

/// The job source, built once from `cfg.mode`.
pub(super) enum Source {
    /// A fixed family, run until every job is done or `max_time`.
    Family { max_time: SimTime },
    /// A constant population; `next_id` names the next respawn.
    Throughput { horizon: SimTime, next_id: u32 },
    /// Open arrivals through admission control.
    Open(Box<Open>),
}

/// Open arrivals: the generator, the admission rule and the service
/// counters it keeps.
pub(super) struct Open {
    horizon: SimTime,
    /// Id of the next admitted arrival (the family's ids come first).
    next_id: u32,
    generator: ArrivalGenerator,
    cfg: ServiceConfig,
    stats: ServiceStats,
    /// Completion count at the previous window end (per-window
    /// throughput deltas for the batch-means estimator).
    last_completed: usize,
    /// Scratch for the jobs one deadline pass drops from the queue.
    expired: Vec<u32>,
}

impl Source {
    /// The source `cfg` asks for, after a family of `family_len` jobs
    /// (ids `0..family_len`) is queued.
    pub(super) fn new(cfg: &ClusterConfig, family_len: usize) -> Self {
        let next_id = family_len as u32;
        let horizon = match cfg.mode {
            RunMode::Family => return Source::Family { max_time: cfg.max_time },
            RunMode::Throughput { horizon } => return Source::Throughput { horizon, next_id },
            RunMode::Open { horizon } => horizon,
        };
        // The admission queue is bounded only when a bounded policy asks
        // for it: the configured entry count clamped by the byte budget.
        let cap = match cfg.service.admission {
            AdmissionPolicy::Open => usize::MAX,
            _ => effective_queue_capacity(cfg.service.queue_capacity, DEFAULT_QUEUE_BUDGET_BYTES),
        };
        Source::Open(Box::new(Open {
            horizon,
            next_id,
            generator: ArrivalGenerator::new(&cfg.service.arrivals, cfg.seed),
            cfg: cfg.service,
            stats: ServiceStats::new(cap, DEFAULT_QUEUE_BUDGET_BYTES),
            last_completed: 0,
            expired: Vec::new(),
        }))
    }

    /// The run's hard horizon: no window starts at or after it.
    pub(super) fn horizon(&self) -> SimTime {
        match self {
            Source::Family { max_time } => *max_time,
            Source::Throughput { horizon, .. } => *horizon,
            Source::Open(o) => o.horizon,
        }
    }

    /// Service counters and steady-state estimators: the open source's,
    /// or one inert set shared by the closed sources.
    pub(super) fn stats(&self) -> &ServiceStats {
        static CLOSED: OnceLock<ServiceStats> = OnceLock::new();
        match self {
            Source::Open(o) => &o.stats,
            _ => CLOSED.get_or_init(|| ServiceStats::new(usize::MAX, 0)),
        }
    }
}

impl ClusterSim {
    /// The run's verdict at the current window start, once it is over:
    /// `true` on normal completion, `false` when a family reached its
    /// safety horizon unfinished. `None` while the run goes on.
    pub(super) fn finished(&self) -> Option<bool> {
        match &self.source {
            Source::Family { .. } if self.completed == self.jobs.total_jobs() => Some(true),
            Source::Family { max_time } => (self.now() >= *max_time).then_some(false),
            source => (self.now() >= source.horizon()).then_some(true),
        }
    }

    /// Phase 1b: draw this window's open arrivals and run them through
    /// admission control (a closed source submits nothing). All counters
    /// are exact.
    pub(super) fn inject_arrivals(&mut self, t: SimTime) {
        let Source::Open(o) = &mut self.source else { return };
        let (jobs, dispatch, w) = (&mut self.jobs, &mut self.dispatch, self.window as u32);
        let (s, telemetry) = (&mut o.stats, &self.telemetry);
        let event = |kind| Event::new(w, t.as_nanos(), kind);
        let offered = o.generator.begin_window();

        // Deadline policy: renege over-age jobs from the queue head
        // before admitting, so freshly freed capacity is usable at once.
        // They are dropped unserved: each retires like a completion
        // (archived record, recycled slot) but is not counted completed
        // and carries no `completed_at`.
        if o.cfg.admission == AdmissionPolicy::Deadline {
            let deadline_secs = o.cfg.deadline_secs;
            dispatch.take_expired(
                |ji| queued_span(jobs, ji as usize, w).as_secs_f64() > deadline_secs,
                &mut o.expired,
            );
            for ji in o.expired.drain(..).map(|ji| ji as usize) {
                let waited = queued_span(jobs, ji, w);
                jobs.breakdown[ji].queued += waited;
                jobs.state[ji] = JobState::Done;
                jobs.node[ji] = NO_NODE;
                s.deadline_dropped += 1;
                let (job, waited_secs) = (jobs.id[ji].0, waited.as_secs_f64());
                telemetry.record(|| event(EventKind::DeadlineDrop { waited_secs }).for_job(job));
                jobs.retire(ji);
            }
        }

        s.generated += offered as u64;
        let space = s.queue_capacity.saturating_sub(dispatch.queued_len());
        let (admitted, refused) = match o.cfg.admission {
            AdmissionPolicy::Open => (offered, false),
            AdmissionPolicy::Shed | AdmissionPolicy::Deadline => {
                let take = (offered as usize).min(space) as u32;
                let dropped = offered - take;
                if dropped > 0 {
                    s.shed += dropped as u64;
                    telemetry.record(|| event(EventKind::AdmissionShed { count: dropped }));
                }
                (take, dropped > 0)
            }
            AdmissionPolicy::Block => {
                // Backpressure: the blocked source re-offers its deficit
                // (FIFO upstream) before this window's new arrivals;
                // whatever still does not fit stays upstream as O(1)
                // counter state — nothing is lost, nothing unbounded.
                // Deficit jobs draw their demands from the window that
                // admits them, so draining needs this window's stream
                // (present whenever the window's rate was positive).
                let mut drain = 0;
                if o.generator.has_window_stream() {
                    drain = s.deficit.min(space as u64) as u32;
                    s.deficit -= drain as u64;
                }
                let take = (offered as usize).min(space - drain as usize) as u32;
                let deferred = offered - take;
                if deferred > 0 || s.deficit > 0 {
                    s.deferred += deferred as u64;
                    s.deficit += deferred as u64;
                    s.peak_deficit = s.peak_deficit.max(s.deficit);
                    let deficit = s.deficit;
                    telemetry
                        .record(|| event(EventKind::AdmissionDefer { count: deferred, deficit }));
                }
                (drain + take, deferred > 0)
            }
        };
        // Each admitted arrival draws its demand, takes the next job id,
        // pushes a live slab row (reusing a retired slot when one is
        // free) and is enqueued. It arrives at the window start, so it
        // is placeable this very window and its lazy queue-time span
        // starts exactly here.
        for _ in 0..admitted {
            let (cpu_demand, mem_kb) = o.generator.draw_demand();
            let spec = JobSpec { id: JobId(o.next_id), cpu_demand, mem_kb, arrival: t };
            o.next_id += 1;
            dispatch.enqueue(jobs.push(spec, w), spec.id);
        }
        s.admitted += admitted as u64;
        if refused {
            s.saturated_windows += 1;
        }
        if offered > 0 || admitted > 0 {
            let depth = dispatch.queued_len() as u32;
            telemetry.record(|| event(EventKind::ArrivalBurst { offered, admitted, depth }));
        }
    }

    /// Job slot `ji` finished at `at`, `completion_secs` after it was
    /// submitted, and has left its node. A throughput source respawns a
    /// job of the same demand in the slot; an open source records the
    /// latency and retires the row, so live state tracks the active
    /// population, not the total flow; a family job stays in place.
    pub(super) fn on_completion(&mut self, ji: usize, at: SimTime, completion_secs: f64) {
        let jobs = &mut self.jobs;
        match &mut self.source {
            Source::Family { .. } => {}
            Source::Throughput { next_id, .. } => {
                // Hold the number of jobs in the system constant. The id
                // comes from the source's counter, so recycling the slot
                // changes only the slab index, never the identity.
                let (cpu_demand, mem_kb) = (jobs.cold[ji].cpu_demand, jobs.mem_kb[ji]);
                let spec = JobSpec { id: JobId(*next_id), arrival: at, cpu_demand, mem_kb };
                *next_id += 1;
                self.dispatch
                    .enqueue(jobs.respawn(ji, spec, self.window as u32), spec.id);
            }
            Source::Open(o) => {
                o.stats.latency.add(completion_secs);
                jobs.retire(ji);
            }
        }
    }

    /// Phase 6: window-end service accounting (open arrivals only).
    /// Per-window completion deltas feed the throughput batch means;
    /// the queue-depth and live-row peaks are the bounded-state
    /// witnesses the scorecard checks.
    pub(super) fn account_window(&mut self) {
        let Source::Open(o) = &mut self.source else { return };
        let s = &mut o.stats;
        s.throughput.add((self.completed - o.last_completed) as f64);
        o.last_completed = self.completed;
        s.peak_queue_depth = s.peak_queue_depth.max(self.dispatch.queued_len());
        s.peak_live_rows = s.peak_live_rows.max(self.jobs.len());
        assert!(s.accounting_holds(), "loss identity broken: {s:?}");
    }
}
