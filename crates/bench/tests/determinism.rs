//! The parallel runner's headline guarantee: experiment output is
//! **byte-identical** at any worker count, and across repeated runs.
//!
//! Each check serializes the result with the exact JSON emitter the
//! harness uses, then compares strings — not floats with a tolerance —
//! because the contract is bytes, not approximation.

use linger::{JobFamily, Policy};
use linger_bench::{ext_service, fig03, fig05, fig10, Runner};
use linger_cluster::evaluate_policy_replicated;
use linger_sim_core::{set_default_jobs, SimDuration};
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

#[test]
fn runner_replication_matches_a_hand_rolled_serial_loop() {
    let _g = lock();
    let family = JobFamily::uniform(6, SimDuration::from_secs(90), 4 * 1024);
    let par: Vec<f64> = Runner::with_jobs(4).replicate(7, 5, |seed| {
        linger_cluster::evaluate_policy(Policy::ImmediateEviction, family.clone(), 4, seed)
            .avg_completion_secs
    });
    let serial: Vec<f64> = (0..5u64)
        .map(|r| {
            linger_cluster::evaluate_policy(Policy::ImmediateEviction, family.clone(), 4, 7 + r)
                .avg_completion_secs
        })
        .collect();
    assert_eq!(par, serial);
}
