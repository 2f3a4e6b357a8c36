//! The telemetry no-interference contract, enforced end to end: figure
//! results are byte-identical with telemetry off or on, at any worker
//! count; journals stay within their ring cap at figure scale; a run
//! spills its journal where `LINGER_TELEMETRY_DIR` points; only the
//! recorder built from the environment feeds the process-wide registry;
//! and the decision-level diff pinpoints where two runs part ways.

use linger::{JobFamily, Policy};
use linger_bench as bench;
use linger_cluster::{ClusterConfig, ClusterSim};
use linger_sim_core::{set_default_jobs, SimDuration};
use linger_telemetry::{diff, read_events_jsonl, EventKind, Recorder};
use std::sync::Mutex;

const SEED: u64 = 1998;

/// Serializes the tests that touch process-wide state (`LINGER_TELEMETRY`,
/// `LINGER_TELEMETRY_DIR` and the default job count).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn fig07_json(fast: bool) -> String {
    serde_json::to_string(&bench::fig07(SEED, fast)).expect("serialize fig07")
}

#[test]
fn fig07_json_is_byte_identical_with_telemetry_on() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("LINGER_TELEMETRY");
    let off = fig07_json(true);
    std::env::set_var("LINGER_TELEMETRY", "1");
    let on = fig07_json(true);
    std::env::remove_var("LINGER_TELEMETRY");
    assert_eq!(off, on, "telemetry must not perturb figure results");
}

#[test]
fn fig07_json_is_byte_identical_across_worker_counts_with_telemetry_on() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("LINGER_TELEMETRY", "1");
    set_default_jobs(1);
    let serial = fig07_json(true);
    set_default_jobs(4);
    let parallel = fig07_json(true);
    set_default_jobs(0);
    std::env::remove_var("LINGER_TELEMETRY");
    assert_eq!(serial, parallel, "telemetry must not break --jobs determinism");
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

/// The process-wide registry as comparable text.
fn registry_json() -> String {
    serde_json::to_string(&linger_telemetry::metrics::global().summary()).unwrap()
}

#[test]
fn attached_recorders_stay_out_of_the_global_registry() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("LINGER_TELEMETRY", "1");
    let before = registry_json();
    // A harness's own journaling run, even with telemetry on: its
    // journal fills, the registry does not move.
    let recorder = Recorder::with_capacity(1 << 10);
    ClusterSim::new(cell(SEED)).with_recorder(recorder.clone()).run();
    assert!(recorder.journal().unwrap().counts().events > 0, "the attached journal records");
    let after_attached = registry_json();
    // The recorder a sim builds from the environment is still absorbed.
    let journals = linger_telemetry::metrics::global().summary().journals;
    ClusterSim::new(cell(SEED)).run();
    let absorbed = linger_telemetry::metrics::global().summary().journals;
    std::env::remove_var("LINGER_TELEMETRY");
    assert_eq!(after_attached, before, "an attached recorder must not feed the registry");
    assert_eq!(absorbed, journals + 1, "the environment's recorder feeds the registry");
}

/// The spill file name `ClusterSim` derives from a config: the policy
/// abbreviation and a 64-bit FNV-1a of the config's JSON.
fn spill_name(cfg: &ClusterConfig) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in serde_json::to_string(cfg).unwrap().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("journal-{}-{h:016x}.jsonl", cfg.params.policy.abbrev())
}

#[test]
fn telemetry_dir_receives_each_runs_journal() {
    // A config no other test runs, so a concurrent run spilling into the
    // same directory cannot write this file.
    let mut cfg = cell(SEED + 7);
    cfg.nodes = 16;
    let dir = std::env::temp_dir().join(format!("linger-telemetry-dir-{}", std::process::id()));
    let path = dir.join(spill_name(&cfg));
    let run = || {
        let recorder = Recorder::with_capacity(1 << 16);
        ClusterSim::new(cfg.clone()).with_recorder(recorder.clone()).run();
        let bytes = std::fs::read(&path).expect("journal spilled under its config name");
        (recorder.journal().unwrap().snapshot(), bytes)
    };
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("LINGER_TELEMETRY_DIR", &dir);
    let (events, first) = run();
    std::fs::remove_file(&path).unwrap();
    let (_, second) = run();
    std::env::remove_var("LINGER_TELEMETRY_DIR");
    assert!(!events.is_empty());
    assert_eq!(read_events_jsonl(&path).unwrap(), events, "the spill is the journal");
    assert_eq!(first, second, "an identical run must rewrite identical bytes");
    // Best effort: a concurrent test may still be spilling here.
    let _ = std::fs::remove_dir_all(&dir);
}
