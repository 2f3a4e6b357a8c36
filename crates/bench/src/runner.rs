//! Deterministic parallel experiment runner.
//!
//! Experiments in this workspace decompose into *units* — replications,
//! policy variants, sweep points — that share no state and draw all their
//! randomness from seeds derived at construction time. The runner fans
//! those units across scoped worker threads while guaranteeing that the
//! output is **byte-identical to a serial run at any thread count**:
//!
//! * seeds are a pure function of the unit's logical index (never of the
//!   thread that happens to execute it);
//! * results land in index-ordered slots, so downstream aggregation and
//!   JSON emission see them in the same order a `for` loop would produce.
//!
//! The heavy lifting lives in [`linger_sim_core::par_map_indexed`]; this
//! module adds the harness-level vocabulary (replication seeding, timed
//! sections for `BENCH_runall.json`).

use linger_sim_core::{
    par_map_indexed, replication_seed, try_par_map_indexed, write_atomic, CellPanic,
};
use linger_workload::TraceCacheStats;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic fan-out executor for independent experiment units.
///
/// `Runner::default()` inherits the process-wide job count (set by
/// `--jobs` via [`linger_sim_core::set_default_jobs`]); [`Runner::with_jobs`]
/// pins an explicit worker count for this runner only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runner {
    jobs: Option<usize>,
}

impl Runner {
    /// A runner using the process-wide default job count.
    pub fn new() -> Self {
        Runner::default()
    }

    /// A runner pinned to exactly `jobs` worker threads (1 = serial).
    pub fn with_jobs(jobs: usize) -> Self {
        Runner { jobs: Some(jobs.max(1)) }
    }

    /// Run `n` independent units, returning results in index order.
    ///
    /// `f` must derive everything (seeds included) from its index
    /// argument; the runner makes no other determinism guarantee.
    pub fn run<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        par_map_indexed(n, self.jobs, f)
    }

    /// Run `reps` replications whose seeds follow
    /// [`replication_seed`]`(base_seed, index)` — the exact sequence a
    /// serial `for r in 0..reps` loop would use (wrapping at `u64::MAX`;
    /// see the seed-space contract in `sim-core::rng`), so
    /// common-random-number pairing across policies survives fan-out.
    pub fn replicate<U, F>(&self, base_seed: u64, reps: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(u64) -> U + Sync,
    {
        self.run(reps, |r| f(replication_seed(base_seed, r as u64)))
    }

    /// Like [`Runner::run`], but a unit that panics yields a structured
    /// [`CellError`] in its slot instead of tearing down the sweep; the
    /// remaining units complete normally. `base_seed` annotates each
    /// error with the seed the failing unit would have derived via
    /// [`replication_seed`], so the cell can be re-run in isolation.
    pub fn try_run<U, F>(&self, n: usize, base_seed: u64, f: F) -> Vec<Result<U, CellError>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        try_par_map_indexed(n, self.jobs, f)
            .into_iter()
            .map(|r| r.map_err(|p| CellError::from_panic(p, base_seed)))
            .collect()
    }

    /// Panic-isolating [`Runner::replicate`]: failed replications come
    /// back as [`CellError`]s (carrying their replication seed), the
    /// rest complete.
    pub fn try_replicate<U, F>(
        &self,
        base_seed: u64,
        reps: usize,
        f: F,
    ) -> Vec<Result<U, CellError>>
    where
        U: Send,
        F: Fn(u64) -> U + Sync,
    {
        self.try_run(reps, base_seed, |r| f(replication_seed(base_seed, r as u64)))
    }
}

/// One failed unit of a fan-out: which cell, the seed it ran under, and
/// the panic payload — enough to re-run the cell in isolation while the
/// rest of the sweep's results stand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CellError {
    /// Index of the failed unit within its sweep.
    pub index: usize,
    /// Seed the unit derived (via [`replication_seed`] from the sweep's
    /// base seed).
    pub seed: u64,
    /// Stringified panic payload.
    pub payload: String,
}

impl CellError {
    fn from_panic(p: CellPanic, base_seed: u64) -> Self {
        CellError {
            index: p.index,
            seed: replication_seed(base_seed, p.index as u64),
            payload: p.payload,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} (seed {}) panicked: {}", self.index, self.seed, self.payload)
    }
}

impl std::error::Error for CellError {}

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
    /// End-of-run snapshot of the shared workload-realization cache
    /// (hits, misses, bytes resident); `None` until recorded.
    pub trace_cache: Option<TraceCacheStats>,
    /// End-of-run snapshot of the process-wide telemetry registry
    /// (events, drops, per-policy decision counts); `None` when
    /// telemetry was disabled for the run.
    pub telemetry: Option<linger_telemetry::TelemetrySummary>,
    /// A/B micro-measurement of the telemetry disabled-vs-journaling
    /// window-loop cost (machine-dependent; informational).
    pub telemetry_overhead: Option<TelemetryOverhead>,
    /// Recorded before→after wall-clock comparisons for sections whose
    /// speedup a PR claims (machine-dependent; informational).
    pub baselines: Vec<SectionBaseline>,
    /// Recorded before→after window-loop costs (ns per node-window) for
    /// the scaling sweep's cells, per policy and node count
    /// (machine-dependent; informational).
    pub scaling_baselines: Vec<ScalingBaseline>,
    /// In-run steal-path cost probes: the `benches/stealing.rs`
    /// central-vs-stealing comparison, re-measured alongside the other
    /// sections (machine-dependent; informational); empty when the
    /// stealing sweep did not run.
    pub steal_path: Vec<crate::experiments::StealPathTiming>,
    /// Sections that panicked under [`RunTimings::time_caught`]; the run
    /// continued past them.
    pub failed_sections: Vec<FailedSection>,
    /// Individual sweep cells that panicked (recorded via
    /// [`RunTimings::record_cell_errors`]) while their sweep completed.
    pub failed_cells: Vec<FailedCell>,
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

/// A [`CellError`] annotated with the section whose sweep it belongs to.
#[derive(Debug, Clone, Serialize)]
pub struct FailedCell {
    /// Section name.
    pub section: String,
    /// Index of the failed unit within the sweep.
    pub index: usize,
    /// Seed the unit ran under.
    pub seed: u64,
    /// Stringified panic payload.
    pub payload: String,
}

/// Wall-clock of the same cluster cell with telemetry disabled versus
/// journaling into a ring — the number behind the "compile-time-cheap
/// when disabled" contract (machine-dependent; informational).
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverhead {
    /// Seconds with a disabled recorder (`Recorder::disabled()`).
    pub disabled_secs: f64,
    /// Seconds journaling into a default-capacity ring.
    pub journaling_secs: f64,
    /// `journaling_secs / disabled_secs` (1.0 = free).
    pub ratio: f64,
}

/// A section's wall-clock against a recorded pre-change baseline.
#[derive(Debug, Clone, Serialize)]
pub struct SectionBaseline {
    /// Section name (matches [`SectionTiming::name`]).
    pub name: String,
    /// Pre-change wall-clock seconds (recorded on the reference machine).
    pub before_secs: f64,
    /// This run's wall-clock seconds.
    pub after_secs: f64,
    /// `before_secs / after_secs` (> 1 is an improvement).
    pub speedup: f64,
}

impl SectionBaseline {
    /// Compare section `name`'s measured time in `sections` against a
    /// recorded baseline. Returns `None` when the section did not run.
    pub fn compare(name: &str, sections: &[SectionTiming], before_secs: f64) -> Option<Self> {
        let after_secs = sections.iter().find(|s| s.name == name)?.secs;
        Some(SectionBaseline {
            name: name.to_string(),
            before_secs,
            after_secs,
            speedup: if after_secs > 0.0 { before_secs / after_secs } else { 0.0 },
        })
    }
}

/// One scaling-sweep cell's window-loop cost against a pre-change
/// measurement on the reference machine — the [`SectionBaseline`] idea
/// at (nodes, policy) granularity (machine-dependent; informational).
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

    /// Run `f`, record its wall-clock under `name`, and return its value.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.sections.push(SectionTiming { name: name.to_string(), secs });
        self.total_secs += secs;
        out
    }

    /// Like [`RunTimings::time`], but a panic inside `f` is caught and
    /// recorded under [`RunTimings::failed_sections`] instead of tearing
    /// down the whole run; the section's wall-clock (up to the panic) is
    /// still logged, and `None` is returned so the caller can skip the
    /// section's checks and move on.
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

    /// Record the failed cells of a sweep under `section`.
    pub fn record_cell_errors<'a>(
        &mut self,
        section: &str,
        errors: impl IntoIterator<Item = &'a CellError>,
    ) {
        for e in errors {
            self.failed_cells.push(FailedCell {
                section: section.to_string(),
                index: e.index,
                seed: e.seed,
                payload: e.payload.clone(),
            });
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

    #[test]
    fn run_preserves_index_order_at_any_width() {
        let serial: Vec<usize> = Runner::with_jobs(1).run(100, |i| i * i);
        for jobs in [2, 4, 7] {
            assert_eq!(Runner::with_jobs(jobs).run(100, |i| i * i), serial);
        }
    }

    #[test]
    fn replicate_seeds_follow_the_serial_sequence() {
        let seeds = Runner::with_jobs(4).replicate(1998, 8, |s| s);
        assert_eq!(seeds, (1998..2006).collect::<Vec<u64>>());
    }

    #[test]
    fn try_run_isolates_panics_and_annotates_seeds() {
        for jobs in [1, 4] {
            let out = Runner::with_jobs(jobs).try_run(8, 1998, |i| {
                assert!(i != 3, "cell 3 exploded");
                i * 10
            });
            assert_eq!(out.len(), 8);
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 3);
                    assert_eq!(e.seed, 2001, "seed = replication_seed(1998, 3)");
                    assert!(e.payload.contains("cell 3 exploded"), "payload: {}", e.payload);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    fn try_replicate_reports_failing_seed() {
        let out = Runner::with_jobs(2).try_replicate(100, 4, |seed| {
            assert!(seed != 102, "bad seed");
            seed
        });
        assert!(out[0].is_ok() && out[1].is_ok() && out[3].is_ok());
        assert_eq!(out[2].as_ref().unwrap_err().seed, 102);
    }

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

    #[test]
    fn cell_errors_land_in_the_ledger() {
        let mut t = RunTimings::new(1, 7, false);
        let out = Runner::with_jobs(1).try_run(3, 50, |i| {
            assert!(i != 1, "boom");
            i
        });
        let errs: Vec<&CellError> = out.iter().filter_map(|r| r.as_ref().err()).collect();
        t.record_cell_errors("sweep", errs);
        assert_eq!(t.failed_cells.len(), 1);
        assert_eq!(t.failed_cells[0].section, "sweep");
        assert_eq!(t.failed_cells[0].index, 1);
        assert_eq!(t.failed_cells[0].seed, 51);
    }

    #[test]
    fn write_is_atomic_and_valid_json() {
        let dir = std::env::temp_dir().join("linger-bench-runner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timings.json");
        let mut t = RunTimings::new(2, 9, true);
        t.time("a", || ());
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
        let v = t.time("a", || 42);
        assert_eq!(v, 42);
        t.time("b", || ());
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
