//! Cluster experiment configuration.

use crate::faults::FaultConfig;
use crate::network::NetworkModel;
use crate::stealing::StealingConfig;
use linger::{JobFamily, Policy, PolicyParams};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::{ArrivalConfig, BurstParamTable, CoarseTraceConfig, TOTAL_MEMORY_KB};
use serde::{Deserialize, Serialize};

/// What the simulation run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Submit the family at time zero and run until every job completes
    /// (the Fig 7 Avg-Job / Variation / Family-Time columns).
    Family,
    /// Hold the number of jobs in the system constant for a fixed horizon
    /// (the Fig 7 Throughput column: "we hold the number of jobs in the
    /// system … constant for a simulated one-hour execution").
    Throughput {
        /// The fixed horizon (paper: one hour).
        horizon: SimTime,
    },
    /// Open-arrivals serving mode: jobs arrive from the configured
    /// [`ServiceConfig`] process window by window, admission control
    /// bounds the queue, and the run ends at the horizon regardless of
    /// in-flight work (steady-state metrics come from batch means).
    Open {
        /// The serving horizon (sweeps use multi-day horizons).
        horizon: SimTime,
    },
}

/// What admission control does when arrivals meet a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit everything; the queue is unbounded. The measurement
    /// baseline that shows *why* the bounded policies exist — under
    /// sustained overload its queue grows without limit.
    Open,
    /// Shed on full: arrivals beyond the queue capacity are dropped on
    /// the floor and counted. Loss system semantics (M/·/c/K).
    Shed,
    /// Backpressure: arrivals beyond capacity are deferred upstream (a
    /// blocked-source deficit, O(1) state) and re-offered before new
    /// arrivals in later windows. Nothing is lost; the source waits.
    Block,
    /// Shed on full *and* drop queued jobs whose waiting time exceeds
    /// the configured deadline — the staleness-bounding variant.
    Deadline,
}

impl AdmissionPolicy {
    /// Stable label used by sweep tables and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Open => "open",
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Block => "block",
            AdmissionPolicy::Deadline => "deadline",
        }
    }

    /// Every policy, in declaration order.
    pub const ALL: [AdmissionPolicy; 4] = [
        AdmissionPolicy::Open,
        AdmissionPolicy::Shed,
        AdmissionPolicy::Block,
        AdmissionPolicy::Deadline,
    ];
}

/// Open-arrivals service configuration: the arrival process plus the
/// overload-control contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Arrival process and per-job demand model.
    pub arrivals: ArrivalConfig,
    /// What to do when arrivals meet a full queue.
    pub admission: AdmissionPolicy,
    /// Admission-queue capacity, entries. The effective capacity is the
    /// minimum of this and the 64 MiB admission-queue byte budget
    /// ([`crate::DEFAULT_QUEUE_BUDGET_BYTES`]) divided by the per-job row
    /// cost. Ignored by [`AdmissionPolicy::Open`].
    pub queue_capacity: usize,
    /// Queueing deadline, seconds ([`AdmissionPolicy::Deadline`] only):
    /// a job still queued after this long is dropped unserved.
    pub deadline_secs: f64,
}

impl ServiceConfig {
    /// The inert default carried by closed-mode configs: zero-rate
    /// arrivals, open admission. Serves nothing and changes nothing.
    pub fn disabled() -> Self {
        ServiceConfig {
            arrivals: ArrivalConfig::disabled(),
            admission: AdmissionPolicy::Open,
            queue_capacity: usize::MAX,
            // Finite sentinel: the vendored serde_json writes non-finite
            // floats as `null`, which would not round-trip.
            deadline_secs: f64::MAX,
        }
    }
}

/// Full configuration of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of workstations (paper: 64).
    pub nodes: usize,
    /// Scheduling policy and its parameters.
    pub params: PolicyParams,
    /// The foreign jobs to run.
    pub family: JobFamily,
    /// Where jobs come from: the fixed family, the family held as a
    /// constant-load population (throughput), or open arrivals.
    pub mode: RunMode,
    /// Coarse-trace synthesis configuration (one trace per node, replayed
    /// from a random offset).
    pub trace: CoarseTraceConfig,
    /// Fine-grain burst parameter table.
    pub table: BurstParamTable,
    /// Physical memory per node, KB.
    pub node_memory_kb: u32,
    /// Shared migration network. `None` charges each migration the fixed
    /// per-flow cost from [`linger::MigrationCostModel`]; `Some` makes
    /// concurrent migrations contend for the backbone.
    pub network: Option<NetworkModel>,
    /// Fault injection (node crashes and migration failures). The
    /// default is fully disabled, which leaves every run bit-identical
    /// to a fault-free simulation.
    pub faults: FaultConfig,
    /// Open-arrivals service configuration. Inert (zero-rate, open
    /// admission) unless `mode` is [`RunMode::Open`].
    pub service: ServiceConfig,
    /// Decentralized work-stealing scheduler. Disabled (the default)
    /// keeps the central queue and byte-identical historical behavior.
    pub stealing: StealingConfig,
    /// Master seed.
    pub seed: u64,
    /// Safety horizon for family mode (a run that exceeds it aborts).
    pub max_time: SimTime,
}

impl ClusterConfig {
    /// The paper's Sec 4.2 setup for the given policy and job family:
    /// 64 nodes, paper-calibrated workload models and migration costs.
    pub fn paper(policy: Policy, family: JobFamily) -> Self {
        ClusterConfig {
            nodes: 64,
            params: PolicyParams::paper(policy),
            family,
            mode: RunMode::Family,
            trace: CoarseTraceConfig {
                duration: SimDuration::from_secs(4 * 3600),
                ..Default::default()
            },
            table: BurstParamTable::paper_calibrated(),
            node_memory_kb: TOTAL_MEMORY_KB,
            network: None,
            faults: FaultConfig::disabled(),
            service: ServiceConfig::disabled(),
            stealing: StealingConfig::disabled(),
            seed: 0,
            max_time: SimTime::from_secs(24 * 3600),
        }
    }

    /// Switch to constant-load throughput mode with the paper's one-hour
    /// horizon.
    pub fn with_throughput_mode(mut self) -> Self {
        self.mode = RunMode::Throughput { horizon: SimTime::from_secs(3600) };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = ClusterConfig::paper(Policy::LingerLonger, JobFamily::workload_1());
        assert_eq!(c.nodes, 64);
        assert_eq!(c.family.len(), 128);
        assert_eq!(c.mode, RunMode::Family);
        assert_eq!(c.node_memory_kb, 64 * 1024);
    }

    #[test]
    fn throughput_mode_sets_one_hour() {
        let c = ClusterConfig::paper(Policy::LingerLonger, JobFamily::workload_2())
            .with_throughput_mode();
        assert_eq!(c.mode, RunMode::Throughput { horizon: SimTime::from_secs(3600) });
    }

    #[test]
    fn admission_policy_names_are_distinct() {
        let mut names: Vec<&str> = AdmissionPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AdmissionPolicy::ALL.len());
    }

    #[test]
    fn stealing_defaults_off() {
        let c = ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty());
        assert!(!c.stealing.enabled, "paper config must keep the central queue");
    }

    #[test]
    fn disabled_service_config_round_trips_through_json() {
        // The digest serializes every config; the sentinel values must
        // survive a JSON round trip (no non-finite floats).
        let s = ServiceConfig::disabled();
        let line = serde_json::to_string(&s).unwrap();
        let back: ServiceConfig = serde_json::from_str(&line).unwrap();
        assert_eq!(s, back);
    }
}
