//! The telemetry no-interference contract, enforced end to end: a run
//! with a journal attached has the outcome of the same run without one,
//! at any worker count; journals stay within their ring cap at figure
//! scale; a sim journals only through the recorder its caller attaches,
//! and the caller can spill that journal as JSON lines; and the
//! decision-level diff pinpoints where two runs part ways.

use linger::{JobFamily, Policy};
use linger_cluster::{paper_realization, ClusterConfig, ClusterSim};
use linger_sim_core::{set_default_jobs, SimDuration};
use linger_telemetry::{diff, read_events_jsonl, EventKind, Recorder};
use linger_workload::WorkloadRealization;

const SEED: u64 = 1998;

/// Fig 7's `--fast` cluster cells, built as `evaluate_policy` builds
/// them: both workloads × four policies, each a family run and a
/// throughput run, all replaying one 16-node realization.
fn fig07_cells() -> Vec<ClusterConfig> {
    let workloads = [
        JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024),
        JobFamily::uniform(4, SimDuration::from_secs(900), 8 * 1024),
    ];
    let mut cells = Vec::new();
    for family in workloads {
        for policy in Policy::ALL {
            let mut cfg = ClusterConfig::paper(policy, family.clone());
            cfg.nodes = 16;
            cfg.seed = SEED;
            cells.push(cfg.clone());
            cells.push(cfg.with_throughput_mode());
        }
    }
    cells
}

/// Run `cfg` over `real` with `recorder` attached; returns the run's
/// whole observable outcome as text.
fn outcome(cfg: &ClusterConfig, real: &WorkloadRealization, recorder: Recorder) -> String {
    let mut sim = ClusterSim::with_realization(cfg.clone(), real).with_recorder(recorder);
    let finished = sim.run();
    format!(
        "{finished}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:#x}",
        sim.jobs(),
        sim.fault_stats(),
        sim.service_stats(),
        sim.steal_stats(),
        sim.completed(),
        sim.foreign_cpu_delivered().as_nanos(),
        sim.foreground_delay_ratio().to_bits(),
    )
}

/// Each fig07 cell journaled: its outcome and its resident events.
fn journaled_fig07() -> Vec<(String, String)> {
    let real = paper_realization(16, SEED);
    fig07_cells()
        .iter()
        .map(|cfg| {
            let recorder = Recorder::with_capacity(1 << 16);
            let got = outcome(cfg, &real, recorder.clone());
            let journal = recorder.journal().unwrap();
            assert!(journal.counts().events > 0, "{}: nothing journaled", cfg.params.policy);
            (got, serde_json::to_string(&journal.snapshot()).unwrap())
        })
        .collect()
}

#[test]
fn fig07_json_is_byte_identical_with_telemetry_on() {
    let real = paper_realization(16, SEED);
    let journaled = journaled_fig07();
    for (cfg, (on, _)) in fig07_cells().iter().zip(&journaled) {
        let off = outcome(cfg, &real, Recorder::disabled());
        assert_eq!(&off, on, "{} {:?}: journaling moved the outcome", cfg.params.policy, cfg.mode);
    }
}

#[test]
fn fig07_json_is_byte_identical_across_worker_counts_with_telemetry_on() {
    set_default_jobs(1);
    let serial = journaled_fig07();
    set_default_jobs(4);
    let parallel = journaled_fig07();
    set_default_jobs(0);
    assert_eq!(serial, parallel, "journaled runs must not depend on --jobs");
}

fn cell(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        Policy::LingerLonger,
        JobFamily::uniform(128, SimDuration::from_secs(300), 8 * 1024),
    );
    cfg.nodes = 64;
    cfg.seed = seed;
    cfg
}

#[test]
fn journal_stays_within_its_ring_cap_at_figure_scale() {
    let recorder = Recorder::with_capacity(256);
    let mut sim = ClusterSim::new(cell(SEED)).with_recorder(recorder.clone());
    sim.run();
    let journal = recorder.journal().expect("enabled");
    let counts = journal.counts();
    assert!(journal.len() <= 256, "ring holds {} > cap 256", journal.len());
    assert!(counts.events > 256, "the run should overflow a 256-event ring");
    assert_eq!(counts.dropped, counts.events - journal.len() as u64);
    // Exact counters survive the wraparound: every window recorded one
    // WindowStart even though most were dropped from the ring.
    let windows = counts.by_kind
        [linger_telemetry::journal::kind_slot(&EventKind::WindowStart { queue_depth: 0 })];
    assert!(windows > 256, "window counter lost to ring wraparound: {windows}");
}

#[test]
fn identical_seeds_produce_identical_journals() {
    let (a, b) = (Recorder::with_capacity(1 << 16), Recorder::with_capacity(1 << 16));
    ClusterSim::new(cell(SEED)).with_recorder(a.clone()).run();
    ClusterSim::new(cell(SEED)).with_recorder(b.clone()).run();
    let report = diff(&a.journal().unwrap().snapshot(), &b.journal().unwrap().snapshot());
    assert!(report.identical(), "same seed diverged: {:?}", report.first_divergence);
}

#[test]
fn different_seeds_diverge_at_a_specific_decision() {
    let (a, b) = (Recorder::with_capacity(1 << 16), Recorder::with_capacity(1 << 16));
    ClusterSim::new(cell(SEED)).with_recorder(a.clone()).run();
    ClusterSim::new(cell(SEED + 1)).with_recorder(b.clone()).run();
    let report = diff(&a.journal().unwrap().snapshot(), &b.journal().unwrap().snapshot());
    assert!(!report.identical(), "different seeds cannot journal identically");
    let dec = report
        .first_decision_divergence
        .as_ref()
        .expect("seed change must surface in a decision, not only in counts");
    assert!(
        dec.a.is_some() || dec.b.is_some(),
        "divergence must carry at least one side's event"
    );
}

/// A sim journals only through the recorder its caller attaches: a new
/// sim's recorder is disabled, and an attached one is shared with the
/// caller, who reads the run from it.
#[test]
fn attached_recorders_stay_out_of_the_global_registry() {
    let sim = ClusterSim::new(cell(SEED));
    assert!(!sim.recorder().enabled(), "a sim journals nothing until a recorder is attached");
    let recorder = Recorder::with_capacity(1 << 10);
    let mut sim = sim.with_recorder(recorder.clone());
    sim.run();
    let counts = recorder.journal().unwrap().counts();
    assert!(counts.events > 0, "the attached journal records");
    assert_eq!(sim.recorder().journal().unwrap().counts(), counts, "one shared journal");
    sim.set_recorder(Recorder::disabled());
    assert!(!sim.recorder().enabled(), "set_recorder detaches too");
}

/// The caller spills an attached journal (as `linger-inspect record`
/// does): the file reads back as the journal, and an identical run
/// writes identical bytes.
#[test]
fn telemetry_dir_receives_each_runs_journal() {
    let mut cfg = cell(SEED + 7);
    cfg.nodes = 16;
    let dir = std::env::temp_dir().join(format!("linger-telemetry-dir-{}", std::process::id()));
    let path = dir.join("journal.jsonl");
    let run = || {
        let recorder = Recorder::with_capacity(1 << 16);
        ClusterSim::new(cfg.clone()).with_recorder(recorder.clone()).run();
        let journal = recorder.journal().unwrap();
        journal.write_jsonl(&path).expect("spill the journal");
        (journal.snapshot(), std::fs::read(&path).unwrap())
    };
    let (events, first) = run();
    let (_, second) = run();
    assert!(!events.is_empty());
    assert_eq!(read_events_jsonl(&path).unwrap(), events, "the spill is the journal");
    assert_eq!(first, second, "an identical run must rewrite identical bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
