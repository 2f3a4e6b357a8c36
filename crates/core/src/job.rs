//! Foreign (guest) jobs and job families.
//!
//! The paper's primary beneficiaries are "large compute-bound sequential
//! jobs … submitted as a unit" — parameter sweeps whose results are only
//! useful once the whole *family* completes, which is why Fig 7 reports
//! family completion time alongside per-job metrics.

use linger_sim_core::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a foreign job within an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A compute-bound sequential foreign job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Identifier, unique within the family.
    pub id: JobId,
    /// Total CPU time the job needs.
    pub cpu_demand: SimDuration,
    /// Resident-set size of the process image (drives migration cost and
    /// the memory admission check).
    pub mem_kb: u32,
    /// Submission time.
    pub arrival: SimTime,
}

/// A family of jobs submitted as a unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobFamily {
    jobs: Vec<JobSpec>,
}

impl JobFamily {
    /// An empty family: no closed-batch jobs. The starting population
    /// for pure open-arrivals (serving-mode) runs.
    pub fn empty() -> Self {
        JobFamily { jobs: Vec::new() }
    }

    /// A family of `count` identical jobs of `cpu_demand` each, `mem_kb`
    /// resident, all arriving at time zero.
    pub fn uniform(count: u32, cpu_demand: SimDuration, mem_kb: u32) -> Self {
        JobFamily {
            jobs: (0..count)
                .map(|i| JobSpec {
                    id: JobId(i),
                    cpu_demand,
                    mem_kb,
                    arrival: SimTime::ZERO,
                })
                .collect(),
        }
    }

    /// Paper workload-1: "128 foreign jobs each requiring 600 processor
    /// seconds … on average each node had two foreign jobs to execute"
    /// (64-node cluster). All jobs are 8 MB.
    pub fn workload_1() -> Self {
        Self::uniform(128, SimDuration::from_secs(600), 8 * 1024)
    }

    /// Paper workload-2: "16 jobs each requiring 1,800 CPU seconds each
    /// … only ¼ of the nodes are required" (lightly loaded cluster).
    pub fn workload_2() -> Self {
        Self::uniform(16, SimDuration::from_secs(1800), 8 * 1024)
    }

    /// The jobs in submission order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the family is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_1_matches_paper() {
        let w = JobFamily::workload_1();
        assert_eq!(w.len(), 128);
        assert!(w.jobs().iter().all(|j| j.cpu_demand == SimDuration::from_secs(600)));
        assert!(w.jobs().iter().all(|j| j.mem_kb == 8192));
    }

    #[test]
    fn workload_2_matches_paper() {
        let w = JobFamily::workload_2();
        assert_eq!(w.len(), 16);
        assert!(w.jobs().iter().all(|j| j.cpu_demand == SimDuration::from_secs(1800)));
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let w = JobFamily::workload_1();
        for (i, j) in w.jobs().iter().enumerate() {
            assert_eq!(j.id, JobId(i as u32));
        }
    }

    #[test]
    fn uniform_empty_family() {
        let w = JobFamily::uniform(0, SimDuration::from_secs(1), 1024);
        assert!(w.is_empty());
    }
}
