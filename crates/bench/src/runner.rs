//! Wall-clock ledger behind `BENCH_runall.json`.
//!
//! Sweeps fan their cells out through
//! [`linger_sim_core::par_map_indexed`], whose index-derived seeds and
//! index-ordered slots keep every result byte-identical at any worker
//! count. This module times what `run_all` runs: one [`SectionTiming`]
//! per section, a caught panic per [`FailedSection`], the scaling
//! sweep's per-cell costs against a recorded [`ScalingBaseline`], the
//! telemetry A/B ([`TelemetryOverhead`]), peak RSS and CPU seconds.

use linger_sim_core::write_atomic;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Peak resident set size of this process in KiB, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs or
/// when the field is missing — callers treat that as "unknown", never as
/// zero. The high-water mark is process-wide and monotonic, so it bounds
/// every phase that ran before the call.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(user, system)` CPU seconds this process has used so far, read from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s ticks); `None`
/// without procfs, like [`peak_rss_kb`].
pub fn cpu_secs() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(14 - 3);
    let mut secs = || Some(fields.next()?.parse::<u64>().ok()? as f64 / 100.0);
    Some((secs()?, secs()?))
}

/// Wall-clock timing of one named section (one figure in `run_all`).
#[derive(Debug, Clone, Serialize)]
pub struct SectionTiming {
    /// Section name (e.g. `"fig05"`).
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub secs: f64,
}

/// Per-figure wall-clock ledger behind `BENCH_runall.json`.
#[derive(Debug, Clone, Serialize, Default)]
pub struct RunTimings {
    /// Worker threads in use (0 = auto-detected).
    pub jobs: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Whether the run used `--fast` scaling.
    pub fast: bool,
    /// Per-section wall-clock, in execution order.
    pub sections: Vec<SectionTiming>,
    /// Per-cell wall-clock of the scaling sweep (`ext_scaling`),
    /// including nanoseconds per node-window; empty when the sweep did
    /// not run.
    pub scaling: Vec<crate::experiments::ScalingTiming>,
    /// A/B micro-measurement of the telemetry disabled-vs-journaling
    /// window-loop cost (machine-dependent; informational).
    pub telemetry_overhead: Option<TelemetryOverhead>,
    /// Recorded before→after window-loop costs (ns per node-window) for
    /// the scaling sweep's cells, per policy and node count
    /// (machine-dependent; informational).
    pub scaling_baselines: Vec<ScalingBaseline>,
    /// Sections that panicked under [`RunTimings::time_caught`]; the run
    /// continued past them.
    pub failed_sections: Vec<FailedSection>,
    /// Peak resident set size of the whole run, KiB ([`peak_rss_kb`];
    /// `None` where procfs is unavailable).
    pub peak_rss_kb: Option<u64>,
    /// User CPU seconds of the whole run ([`cpu_secs`]).
    pub user_secs: Option<f64>,
    /// System CPU seconds of the whole run ([`cpu_secs`]).
    pub sys_secs: Option<f64>,
    /// Total wall-clock seconds.
    pub total_secs: f64,
}

/// A section that panicked instead of completing.
#[derive(Debug, Clone, Serialize)]
pub struct FailedSection {
    /// Section name (matches [`SectionTiming::name`]).
    pub name: String,
    /// Stringified panic payload.
    pub error: String,
}

/// `run()` wall-clock of the same cluster cell with telemetry disabled
/// versus journaling into a ring — the number behind the
/// "compile-time-cheap when disabled" contract. Each side sums `runs`
/// runs, timed in alternating pairs; every sim is built over one shared
/// realization before any clock starts, so trace synthesis and
/// construction stay out of both sides (machine-dependent).
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverhead {
    /// Runs timed per side: whole batches, until the disabled side has
    /// run for at least 0.1 s.
    pub runs: usize,
    /// Seconds over `runs` runs with a disabled recorder
    /// (`Recorder::disabled()`).
    pub disabled_secs: f64,
    /// Seconds over `runs` runs, each journaling into its own
    /// default-capacity ring.
    pub journaling_secs: f64,
    /// `journaling_secs / disabled_secs` (1.0 = free).
    pub ratio: f64,
}

/// One scaling-sweep cell's window-loop cost against a pre-change
/// measurement on the reference machine, keyed by (nodes, policy)
/// (machine-dependent; the full-mode scorecard guard reads it).
#[derive(Debug, Clone, Serialize)]
pub struct ScalingBaseline {
    /// Cluster size of the cell.
    pub nodes: usize,
    /// Policy abbreviation (LL / LF / IE / PM).
    pub policy: String,
    /// Pre-change window-loop nanoseconds per node-window.
    pub before_ns: f64,
    /// This run's window-loop nanoseconds per node-window.
    pub after_ns: f64,
    /// `before_ns / after_ns` (> 1 is an improvement).
    pub speedup: f64,
}

impl ScalingBaseline {
    /// Match each recorded `(nodes, policy, before_ns)` triple against
    /// the sweep's measured timings; triples whose cell did not run are
    /// skipped.
    pub fn compare(
        timings: &[crate::experiments::ScalingTiming],
        before: &[(usize, &str, f64)],
    ) -> Vec<Self> {
        before
            .iter()
            .filter_map(|&(nodes, policy, before_ns)| {
                let t = timings.iter().find(|t| t.nodes == nodes && t.policy == policy)?;
                let after_ns = t.ns_per_node_window;
                Some(ScalingBaseline {
                    nodes,
                    policy: policy.to_string(),
                    before_ns,
                    after_ns,
                    speedup: if after_ns > 0.0 { before_ns / after_ns } else { 0.0 },
                })
            })
            .collect()
    }
}

impl RunTimings {
    /// An empty ledger annotated with the run's configuration.
    pub fn new(jobs: usize, seed: u64, fast: bool) -> Self {
        RunTimings { jobs, seed, fast, ..Default::default() }
    }

    /// Run `f` and record its wall-clock under `name`. A panic inside
    /// `f` is caught and recorded under [`RunTimings::failed_sections`]
    /// instead of tearing down the whole run; the section's wall-clock
    /// (up to the panic) is still logged, and `None` is returned so the
    /// caller can skip the section's checks and move on.
    pub fn time_caught<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Option<T> {
        let t0 = std::time::Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let secs = t0.elapsed().as_secs_f64();
        self.sections.push(SectionTiming { name: name.to_string(), secs });
        self.total_secs += secs;
        match out {
            Ok(v) => Some(v),
            Err(payload) => {
                let error = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                eprintln!("[warn: section {name} panicked: {error}]");
                self.failed_sections
                    .push(FailedSection { name: name.to_string(), error });
                None
            }
        }
    }

    /// Write the ledger as pretty JSON to `path`, atomically: the bytes
    /// land in a same-directory temp file that is renamed over `path`,
    /// so a crash mid-write never leaves a truncated ledger behind.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        write_atomic(path, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ScalingTiming;

    #[test]
    fn time_caught_records_failures_and_continues() {
        let mut t = RunTimings::new(1, 7, true);
        let ok = t.time_caught("good", || 1);
        let bad: Option<i32> = t.time_caught("bad", || panic!("kaboom"));
        assert_eq!(ok, Some(1));
        assert_eq!(bad, None);
        assert_eq!(t.sections.len(), 2, "both sections timed");
        assert_eq!(t.failed_sections.len(), 1);
        assert_eq!(t.failed_sections[0].name, "bad");
        assert!(t.failed_sections[0].error.contains("kaboom"));
    }

    fn timing(nodes: usize, policy: &str, ns_per_node_window: f64) -> ScalingTiming {
        ScalingTiming {
            nodes,
            policy: policy.to_string(),
            setup_secs: 0.0,
            run_secs: 0.0,
            stream_build_secs: 0.0,
            timing_reps: 3,
            node_windows: 0.0,
            ns_per_node_window,
            realization_bytes: 0,
            bytes_per_node_window: 0.0,
            live_job_rows: 0,
            archived_jobs: 0,
        }
    }

    #[test]
    fn scaling_baseline_skips_cells_that_did_not_run() {
        let timings = [timing(1024, "LL", 80.0)];
        let out = ScalingBaseline::compare(&timings, &[(1024, "LL", 88.0), (65_536, "LL", 97.5)]);
        assert_eq!(out.len(), 1, "the 65,536-node cell never ran");
        assert_eq!((out[0].nodes, out[0].policy.as_str()), (1024, "LL"));
    }

    #[test]
    fn scaling_baseline_speedup_is_before_over_after() {
        let out = ScalingBaseline::compare(&[timing(4096, "IE", 40.0)], &[(4096, "IE", 30.0)]);
        assert_eq!((out[0].before_ns, out[0].after_ns), (30.0, 40.0));
        assert_eq!(out[0].speedup, 30.0 / 40.0);
    }

    #[test]
    fn scaling_baseline_matches_by_nodes_and_policy_not_position() {
        // Timings in sweep order, recordings in another order, with a
        // same-size cell of another policy and a same-policy cell of
        // another size on either side of each match.
        let timings = [
            timing(1024, "LL", 10.0),
            timing(1024, "IE", 20.0),
            timing(4096, "LL", 40.0),
            timing(4096, "IE", 80.0),
        ];
        let before = [(4096, "IE", 160.0), (1024, "IE", 60.0), (4096, "LL", 40.0)];
        let out = ScalingBaseline::compare(&timings, &before);
        let got: Vec<(usize, &str, f64, f64)> = out
            .iter()
            .map(|b| (b.nodes, b.policy.as_str(), b.after_ns, b.speedup))
            .collect();
        assert_eq!(
            got,
            [(4096, "IE", 80.0, 2.0), (1024, "IE", 20.0, 3.0), (4096, "LL", 40.0, 1.0)],
            "one row per recording, in recording order, each against its own cell"
        );
    }

    #[test]
    fn write_is_atomic_and_valid_json() {
        let dir = std::env::temp_dir().join("linger-bench-runner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timings.json");
        let mut t = RunTimings::new(2, 9, true);
        t.time_caught("a", || ());
        t.write(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"seed\": 9"), "ledger JSON: {text}");
        // No temp droppings next to the ledger.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != "timings.json")
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timings_accumulate() {
        let mut t = RunTimings::new(1, 7, true);
        let v = t.time_caught("a", || 42);
        assert_eq!(v, Some(42));
        t.time_caught("b", || ());
        assert_eq!(t.sections.len(), 2);
        assert_eq!(t.sections[0].name, "a");
        assert!((t.total_secs - t.sections.iter().map(|s| s.secs).sum::<f64>()).abs() < 1e-12);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_secs_reads_procfs_and_grows() {
        let (user0, sys0) = cpu_secs().expect("procfs on linux");
        // Spin until at least one clock tick is charged (bounded, so a
        // broken reader fails instead of hanging).
        let t0 = std::time::Instant::now();
        let (mut user1, mut sys1) = (user0, sys0);
        let mut x = 1u64;
        while user1 + sys1 <= user0 + sys0 && t0.elapsed().as_secs() < 10 {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            (user1, sys1) = cpu_secs().expect("procfs on linux");
        }
        assert!(user1 + sys1 > user0 + sys0, "{user0}+{sys0} -> {user1}+{sys1}");
        assert!(user1 >= user0 && sys1 >= sys0);
    }
}
