//! Small-size checks of the benchmark itself: every workload path at 64
//! nodes, the outcome digest, the invariant and property checks, and
//! that the metric catalogue matches `BENCHMARK.json` and
//! `workloads.json`.

use linger_perfbench::*;
use serde::Value;
use std::process::Command;

const SMALL: Scale = Scale {
    nodes: 64,
    horizon_secs: 600,
};
const SEED: u64 = 7;

fn outcome(w: Workload, traced: bool) -> Outcome {
    Outcome::of(&run_cell(w, SMALL, SEED, traced).sim)
}

fn names(doc: &Value, key: &str) -> Vec<(String, Option<String>)> {
    let Some(Value::Seq(items)) = doc.get(key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|item| {
            let text = |k: &str| match item.get(k) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            (text("name").expect("every entry has a name"), text("unit"))
        })
        .collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

fn benchmark_json() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

#[test]
fn every_workload_runs_and_keeps_its_invariants() {
    for w in Workload::ALL {
        let o = outcome(w, false);
        check_invariants(&o).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(o.windows, SMALL.windows());
        assert_eq!(
            o.stream_chunks > 0,
            w == Workload::ThroughputStreamed,
            "{}",
            w.name()
        );
        assert_eq!(o.generated > 0, w.is_open(), "{}", w.name());
    }
}

#[test]
fn schedulers_touch_only_their_own_counters() {
    let central = outcome(Workload::OpenCentral, false);
    assert!(central.steal.central_dispatches > 0);
    assert_eq!(central.steal.probes, 0);
    let steal = outcome(Workload::OpenSteal, false);
    assert_eq!(steal.steal.central_dispatches, 0);
    assert!(steal.steal.probes > 0);
    assert_eq!(steal.shed, 0);
    check_property(Workload::OpenSteal, &steal).expect("open_steal property holds at 64 nodes");
    check_property(
        Workload::ThroughputStreamed,
        &outcome(Workload::ThroughputStreamed, false),
    )
    .expect("the streamed cell builds chunks at 64 nodes");
}

#[test]
fn digest_repeats_and_table_equals_streamed() {
    let table = outcome(Workload::ThroughputTable, false);
    assert_eq!(
        table.digest,
        outcome(Workload::ThroughputTable, false).digest
    );
    assert_eq!(
        table.digest,
        outcome(Workload::ThroughputStreamed, false).digest
    );
    let central = outcome(Workload::OpenCentral, false);
    let steal = outcome(Workload::OpenSteal, false);
    assert_ne!(central.digest, steal.digest);
    assert_ne!(central.digest, table.digest);
}

#[test]
fn tracing_and_journaling_leave_the_outcome_alone() {
    for w in Workload::ALL {
        let plain = outcome(w, false);
        let cell = run_cell(w, SMALL, SEED, true);
        assert_eq!(cell.steps.len() as u64, SMALL.windows(), "{}", w.name());
        assert_eq!(Outcome::of(&cell.sim), plain, "{}", w.name());
        let (secs, journaled) = run_journaled(w, SMALL, SEED, &cell.real);
        assert!(secs > 0.0);
        assert_eq!(Outcome::of(&journaled), plain, "{}", w.name());
        assert!(journaled.recorder().enabled());
    }
}

#[test]
fn checks_reject_broken_outcomes() {
    let good = outcome(Workload::OpenSteal, false);
    check_invariants(&good).expect("a real run is consistent");

    let mut bad = good.clone();
    bad.generated += 1;
    assert!(check_invariants(&bad)
        .unwrap_err()
        .contains("loss accounting"));
    let mut bad = good.clone();
    bad.steal.probes += 1;
    assert!(check_invariants(&bad)
        .unwrap_err()
        .contains("probe accounting"));
    let mut bad = good.clone();
    bad.completed = 0;
    assert!(check_invariants(&bad).is_err());

    let mut bad = good.clone();
    bad.shed = 1;
    assert!(check_property(Workload::OpenSteal, &bad).is_err());
    let central = outcome(Workload::OpenCentral, false);
    assert!(
        check_property(Workload::OpenCentral, &central).is_err(),
        "64 nodes never saturate the dispatcher"
    );
    let mut saturated = central.clone();
    saturated.saturated_windows = saturated.windows;
    saturated.shed = 1;
    check_property(Workload::OpenCentral, &saturated).expect("saturated and shedding");
    let mut bad = outcome(Workload::ThroughputStreamed, false);
    bad.stream_chunks = 0;
    assert!(check_property(Workload::ThroughputStreamed, &bad).is_err());
}

#[test]
fn check_run_pins_the_first_digest() {
    let o = outcome(Workload::ThroughputTable, false);
    let mut expected = None;
    check_run(Workload::ThroughputTable, &o, &mut expected).expect("first run sets it");
    assert_eq!(expected, Some(o.digest));
    check_run(Workload::ThroughputTable, &o, &mut expected).expect("same digest");
    let mut other = o.clone();
    other.digest ^= 1;
    assert!(check_run(Workload::ThroughputTable, &other, &mut expected).is_err());
    let mut broken = o.clone();
    broken.completed = 0;
    assert!(check_run(Workload::ThroughputTable, &broken, &mut None).is_err());
}

#[test]
fn reference_digests_cover_the_default_seed() {
    for w in Workload::ALL {
        assert!(reference_digest(w, DEFAULT_SEED).is_some(), "{}", w.name());
        assert_eq!(reference_digest(w, DEFAULT_SEED + 1), None);
    }
    assert_eq!(
        reference_digest(Workload::ThroughputTable, DEFAULT_SEED),
        reference_digest(Workload::ThroughputStreamed, DEFAULT_SEED)
    );
}

#[test]
fn fnv_separates_inputs() {
    let hash = |words: &[u64]| {
        let mut h = Fnv::default();
        words.iter().for_each(|&v| h.u64(v));
        h.finish()
    };
    assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
    assert_ne!(hash(&[0]), hash(&[]));
    let mut none = Fnv::default();
    none.opt(None);
    let mut zero = Fnv::default();
    zero.opt(Some(0));
    assert_ne!(none.finish(), zero.finish());
}

#[test]
fn quantiles_interpolate() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0]), 2.5);
    assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(names(&bench, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names(&bench, "per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = names(&bench, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    // What the report functions emit, from a real traced run.
    let cell = run_cell(Workload::OpenSteal, SMALL, SEED, true);
    let o = Outcome::of(&cell.sim);
    let traced = [TracedRep {
        times: cell.times,
        steps: cell.steps,
        journal_run_s: 0.1,
    }];
    let env = HostEnv {
        nproc: 2,
        threads: 2,
        shards: SMALL.shards(),
    };
    let emitted = |ms: Vec<Metric>| -> Vec<(String, Option<String>)> {
        ms.iter()
            .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
            .collect()
    };
    assert_eq!(
        emitted(end_to_end_metrics(&[cell.times], 1.0)),
        catalogue(&END_TO_END)
    );
    let layers = per_layer_metrics(&[cell.times], &traced, &o, SMALL, env);
    assert!(
        layers.iter().all(|m| m.value.is_finite() && m.value >= 0.0),
        "{layers:?}"
    );
    assert_eq!(emitted(layers), catalogue(&PER_LAYER));
}

#[test]
fn workloads_json_documents_every_name() {
    let doc: Value =
        serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json parses");
    let layer_names: Vec<String> = names(&doc, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(layer_names, ours);
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}

#[test]
fn binary_refuses_linger_knobs_and_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_linger-perfbench");
    let out = Command::new(exe)
        .args(["--workload", "open_steal", "--seconds", "1"])
        .env("LINGER_SHARDS", "4")
        .output()
        .expect("binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("LINGER_SHARDS"));

    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--x"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
