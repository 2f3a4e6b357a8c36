//! The typed event vocabulary shared by every simulator.
//!
//! Events carry *simulated* time only — never wall-clock — so two runs
//! of the same configuration journal byte-identical streams regardless
//! of machine, `--jobs`, or scheduling. Every variant is a plain named
//! struct or unit (the vendored `serde_derive` subset), which keeps the
//! JSON-lines encoding stable and diffable.

use serde::{Deserialize, Serialize};

/// What a policy decided to do with a job at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionAction {
    /// Keep stealing cycles on a now-busy node.
    Linger,
    /// Leave the node (migrate if a destination exists, else requeue).
    Evict,
    /// Suspend in place, waiting for the owner to go idle again.
    Pause,
    /// Return to the central queue with no destination.
    Requeue,
    /// Start a migration chosen by the Linger-Longer cost test.
    Migrate,
    /// Place a queued job on a node.
    Place,
    /// A lingering/paused job's node went idle: back to plain running.
    Resume,
    /// A rigid parallel job stalled at a barrier (member node busy).
    Stall,
}

impl DecisionAction {
    /// Stable label used by counters and exporters.
    pub fn name(self) -> &'static str {
        match self {
            DecisionAction::Linger => "linger",
            DecisionAction::Evict => "evict",
            DecisionAction::Pause => "pause",
            DecisionAction::Requeue => "requeue",
            DecisionAction::Migrate => "migrate",
            DecisionAction::Place => "place",
            DecisionAction::Resume => "resume",
            DecisionAction::Stall => "stall",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A simulation window opened.
    WindowStart {
        /// Jobs waiting in the central queue at the boundary.
        queue_depth: u32,
    },
    /// A policy decision, with the cost-model inputs that drove it.
    ///
    /// `host_cpu`/`dest_cpu` are the window utilizations the decision
    /// read; `age_secs` is the linger-episode age and `migration_secs`
    /// the modelled transfer cost — both only present for the
    /// Linger-Longer migration test.
    Decision {
        /// What the policy decided.
        action: DecisionAction,
        /// Utilization of the node hosting the job.
        host_cpu: Option<f64>,
        /// Utilization of the chosen destination.
        dest_cpu: Option<f64>,
        /// Linger-episode age when the decision fired.
        age_secs: Option<f64>,
        /// Modelled migration cost for this job.
        migration_secs: Option<f64>,
        /// Destination node, for placements and migrations.
        dest: Option<u32>,
    },
    /// A migration transfer began toward `dest` (attempt 1 = first try).
    MigrationStart {
        /// Reserved destination node.
        dest: u32,
        /// Attempt number under the retry budget.
        attempt: u32,
    },
    /// The in-flight image materialized on its destination.
    MigrationArrive {
        /// Destination node.
        dest: u32,
    },
    /// The image was lost in transit (injected fault).
    MigrationFail {
        /// Destination whose transfer failed.
        dest: u32,
    },
    /// A failed transfer retries toward a fresh destination.
    MigrationRetry {
        /// New destination node.
        dest: u32,
        /// Attempt number under the retry budget.
        attempt: u32,
    },
    /// The retry budget ran out; the job fell back to the queue.
    MigrationAbandon,
    /// A node crashed, evicting `evicted` if it hosted a job.
    NodeCrash {
        /// Job lost with the node, if it hosted one.
        evicted: Option<u32>,
    },
    /// A crashed node rejoined the free pool.
    NodeReboot,
    /// A job (re)entered the central queue.
    QueueEnter,
    /// A job finished, with its per-state time breakdown in seconds.
    Complete {
        /// Time spent waiting in the central queue.
        queued_secs: f64,
        /// Time running on an idle node.
        running_secs: f64,
        /// Time stealing cycles on a busy node.
        lingering_secs: f64,
        /// Time suspended in place.
        paused_secs: f64,
        /// Time in transit between nodes.
        migrating_secs: f64,
        /// Submission-to-completion time.
        completion_secs: f64,
        /// Migrations the job performed.
        migrations: u32,
    },
    /// Summary of one single-node impact study run (`node::single`).
    NodeStudy {
        /// Configured local (foreground) utilization.
        utilization: f64,
        /// Local-job delay ratio measured.
        ldr: f64,
        /// Fine-grain cycle-stealing ratio measured.
        fcsr: f64,
        /// Foreground preemptions of the foreign job.
        preemptions: u64,
    },
    /// Open-arrivals window summary: the offered/admitted split and the
    /// queue depth after admission. Emitted only on windows with offered
    /// arrivals (or a draining backpressure deficit).
    ArrivalBurst {
        /// Arrivals the process offered this window.
        offered: u32,
        /// Arrivals admitted into the queue (includes drained deficit).
        admitted: u32,
        /// Queue depth after admission.
        depth: u32,
    },
    /// Shed-on-full admission dropped arrivals at a full queue.
    AdmissionShed {
        /// Arrivals dropped this window.
        count: u32,
    },
    /// Backpressure admission deferred arrivals (blocked source).
    AdmissionDefer {
        /// Arrivals newly deferred this window.
        count: u32,
        /// Total arrivals still waiting upstream after this window.
        deficit: u64,
    },
    /// A queued job exceeded its deadline and was dropped unserved.
    DeadlineDrop {
        /// Time the job had waited in the queue, seconds.
        waited_secs: f64,
    },
    /// A work-stealing thief probed a victim's deque (`node` = thief).
    StealAttempt {
        /// Node whose deque was probed.
        victim: u32,
        /// Probe number within the thief's per-window retry budget.
        attempt: u32,
        /// Jobs queued on the victim when the probe landed.
        victim_depth: u32,
    },
    /// A probe found work: jobs moved from the victim to the thief.
    StealHit {
        /// Node the work was stolen from.
        victim: u32,
        /// Probe number that succeeded.
        attempt: u32,
        /// Jobs taken (1, or half the victim's deque when configured).
        batch: u32,
        /// Request/response round-trips charged before the first stolen
        /// job could start (attempt × configured RTT).
        delay_secs: f64,
    },
    /// A probe found nothing stealable (empty deque, crashed victim, or
    /// a front job that does not fit the thief's memory).
    StealMiss {
        /// Node whose deque was probed.
        victim: u32,
        /// Probe number that failed.
        attempt: u32,
    },
    /// A thief exhausted its probe budget without finding work.
    StealAbandon {
        /// Probes spent before giving up.
        attempts: u32,
    },
}

impl EventKind {
    /// Stable label used by counters and exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::WindowStart { .. } => "window_start",
            EventKind::Decision { .. } => "decision",
            EventKind::MigrationStart { .. } => "migration_start",
            EventKind::MigrationArrive { .. } => "migration_arrive",
            EventKind::MigrationFail { .. } => "migration_fail",
            EventKind::MigrationRetry { .. } => "migration_retry",
            EventKind::MigrationAbandon => "migration_abandon",
            EventKind::NodeCrash { .. } => "node_crash",
            EventKind::NodeReboot => "node_reboot",
            EventKind::QueueEnter => "queue_enter",
            EventKind::Complete { .. } => "complete",
            EventKind::NodeStudy { .. } => "node_study",
            EventKind::ArrivalBurst { .. } => "arrival_burst",
            EventKind::AdmissionShed { .. } => "admission_shed",
            EventKind::AdmissionDefer { .. } => "admission_defer",
            EventKind::DeadlineDrop { .. } => "deadline_drop",
            EventKind::StealAttempt { .. } => "steal_attempt",
            EventKind::StealHit { .. } => "steal_hit",
            EventKind::StealMiss { .. } => "steal_miss",
            EventKind::StealAbandon { .. } => "steal_abandon",
        }
    }

    /// The decision action, when this is a `Decision` event.
    pub fn action(&self) -> Option<DecisionAction> {
        match self {
            EventKind::Decision { action, .. } => Some(*action),
            _ => None,
        }
    }
}

/// One entry in a simulator's event journal.
///
/// `seq` is the journal-assigned absolute index (monotone from 0), kept
/// even when the ring buffer drops old entries, so two journals can be
/// diffed down to "first divergence at event #N" after wraparound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Journal-assigned absolute index (monotone from 0).
    pub seq: u64,
    /// Simulation window index at emission.
    pub window: u32,
    /// Simulated time in nanoseconds (never wall-clock).
    pub sim_nanos: u64,
    /// Node the event concerns, if any.
    pub node: Option<u32>,
    /// Job the event concerns, if any.
    pub job: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Build an event; `seq` is assigned by the journal on push.
    pub fn new(window: u32, sim_nanos: u64, kind: EventKind) -> Event {
        Event { seq: 0, window, sim_nanos, node: None, job: None, kind }
    }

    /// Attach the node this event concerns.
    pub fn on_node(mut self, node: u32) -> Event {
        self.node = Some(node);
        self
    }

    /// Attach the job this event concerns.
    pub fn for_job(mut self, job: u32) -> Event {
        self.job = Some(job);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::ACTION_SLOTS;

    #[test]
    fn events_round_trip_through_json() {
        let evs = vec![
            Event::new(0, 0, EventKind::WindowStart { queue_depth: 3 }),
            Event::new(
                1,
                2_000_000_000,
                EventKind::Decision {
                    action: DecisionAction::Migrate,
                    host_cpu: Some(0.75),
                    dest_cpu: Some(0.0),
                    age_secs: Some(6.0),
                    migration_secs: Some(1.85),
                    dest: Some(4),
                },
            )
            .on_node(2)
            .for_job(7),
            Event::new(2, 4_000_000_000, EventKind::MigrationAbandon).for_job(7),
            Event::new(3, 4_000_000_000, EventKind::NodeCrash { evicted: None }).on_node(1),
        ];
        for ev in evs {
            let line = serde_json::to_string(&ev).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(ev, back);
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let all = [
            DecisionAction::Linger,
            DecisionAction::Evict,
            DecisionAction::Pause,
            DecisionAction::Requeue,
            DecisionAction::Migrate,
            DecisionAction::Place,
            DecisionAction::Resume,
            DecisionAction::Stall,
        ];
        assert_eq!(all.len(), ACTION_SLOTS);
        let mut names: Vec<&str> = all.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
