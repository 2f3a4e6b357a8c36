//! The parallel fan-out's headline guarantee: experiment output is
//! **byte-identical** at any worker count, and across repeated runs.
//!
//! Each check serializes the result with the exact JSON emitter the
//! harness uses, then compares strings — not floats with a tolerance —
//! because the contract is bytes, not approximation.

use linger::{JobFamily, Policy};
use linger_bench::{ext_service, fig03, fig05, fig10};
use linger_cluster::{evaluate_policy, evaluate_policy_replicated, paper_realization};
use linger_sim_core::{replication_seed, set_default_jobs, SimDuration};
use linger_stats::Online;
use std::sync::{Mutex, MutexGuard};

/// `set_default_jobs` is process-global; serialize the tests that flip it
/// so they can't observe each other's setting.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render `make()`'s output under `jobs` workers.
fn json_at<T: serde::Serialize>(jobs: usize, make: impl Fn() -> T) -> String {
    set_default_jobs(jobs);
    let out = serde_json::to_string_pretty(&make()).expect("serialize");
    set_default_jobs(0);
    out
}

#[test]
fn replicated_policy_eval_is_identical_serial_and_parallel() {
    let _g = lock();
    let family = JobFamily::uniform(8, SimDuration::from_secs(120), 4 * 1024);
    let make = || evaluate_policy_replicated(Policy::LingerLonger, family.clone(), 4, 1998, 4);
    let serial = json_at(1, make);
    let parallel = json_at(4, make);
    assert_eq!(serial, parallel, "jobs=1 vs jobs=4 diverged");
    // And stable across repeated runs at the same width.
    assert_eq!(parallel, json_at(4, make), "repeated jobs=4 runs diverged");
}

#[test]
fn figure_sweeps_are_identical_serial_and_parallel() {
    let _g = lock();
    const SEED: u64 = 1998;
    // Fig 5 (27-point single-node grid) and Fig 10 (28-point BSP grid)
    // exercise both flattened-sweep shapes the runner parallelizes.
    let f5_serial = json_at(1, || fig05(SEED, true));
    assert_eq!(f5_serial, json_at(4, || fig05(SEED, true)), "fig05 diverged");
    let f10_serial = json_at(1, || fig10(SEED, true));
    assert_eq!(f10_serial, json_at(4, || fig10(SEED, true)), "fig10 diverged");
}

#[test]
fn fanned_out_synthesis_feeding_serial_ingest_is_identical() {
    let _g = lock();
    // Fig 3 fans out trace synthesis but aggregates serially; the rows
    // must not depend on which worker synthesized which trace.
    let serial = json_at(1, || fig03(1998, true));
    assert_eq!(serial, json_at(3, || fig03(1998, true)), "fig03 diverged");
}

#[test]
fn service_sweep_is_identical_serial_and_parallel() {
    let _g = lock();
    // The open-arrivals sweep draws its arrivals from per-window keyed
    // streams; the cells (4 loads x 4 admission policies) must not
    // depend on which worker ran which cell.
    let serial = json_at(1, || ext_service(1998, true, 0.95));
    assert_eq!(serial, json_at(4, || ext_service(1998, true, 0.95)), "ext_service diverged");
}

/// `fig07 --reps` goes through `evaluate_policy_replicated`; its
/// fan-out must be invisible: the same JSON at any width, and a mean
/// bit-equal to a serial loop over the same replication seeds.
#[test]
fn replicated_evaluation_matches_a_hand_rolled_serial_loop() {
    let _g = lock();
    let family = JobFamily::uniform(6, SimDuration::from_secs(90), 4 * 1024);
    let make = || evaluate_policy_replicated(Policy::ImmediateEviction, family.clone(), 4, 7, 5);
    let serial_json = json_at(1, make);
    assert_eq!(serial_json, json_at(4, make), "jobs=1 vs jobs=4 diverged");
    let mut serial = Online::new();
    for r in 0..5u64 {
        let seed = replication_seed(7, r);
        let real = paper_realization(4, seed);
        let m = evaluate_policy(Policy::ImmediateEviction, family.clone(), &real, seed);
        serial.add(m.avg_completion_secs);
    }
    let replicated = make().avg_completion_secs.mean;
    assert_eq!(
        replicated.to_bits(),
        serial.mean().to_bits(),
        "{replicated} vs {}",
        serial.mean()
    );
}
