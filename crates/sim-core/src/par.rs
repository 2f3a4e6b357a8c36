//! Deterministic fan-out of independent simulation units.
//!
//! Replications, policy variants, and sweep points are embarrassingly
//! parallel: each unit derives its random streams from its *logical
//! index* (never from a thread id), so what runs where — and on how
//! many threads — cannot influence any result. [`par_map_indexed`]
//! executes `f(0..n)` on a scoped worker pool and returns results in
//! index order; output is byte-identical at any thread count,
//! including 1.
//!
//! The worker count comes from an explicit argument or the process-wide
//! default ([`set_default_jobs`]), which the experiment binaries wire
//! to `--jobs N`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide default worker count; 0 means "auto" (one per core).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// A panic caught at the boundary of one fan-out unit.
///
/// [`try_par_map_indexed`] turns a panicking unit into one of these
/// instead of poisoning the whole fan-out: the harness can record the
/// failed cell and keep every other cell's result. The payload is the
/// panic message when it was a string (the overwhelmingly common case —
/// `panic!`, `assert!`, `unwrap`), or a placeholder otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// Logical index of the unit that panicked.
    pub index: usize,
    /// The panic message, best effort.
    pub payload: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unit {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for CellPanic {}

/// Render a `catch_unwind` payload as a message, best effort.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Set the process-wide default worker count used when
/// [`par_map_indexed`] is called with `jobs = None`. `0` restores
/// auto-detection (one worker per available core).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count a `jobs = None` fan-out resolves to right now.
pub fn default_jobs() -> usize {
    resolve_jobs(None)
}

fn resolve_jobs(jobs: Option<usize>) -> usize {
    let n = jobs.unwrap_or_else(|| DEFAULT_JOBS.load(Ordering::Relaxed));
    if n == 0 {
        available_cores()
    } else {
        n
    }
}

/// The OS's core count, asked once per process: the query reads
/// affinity and cgroup files, and auto mode resolves the worker count
/// several times per simulated window.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Run `f(i)` for every `i in 0..n` on `jobs` scoped worker threads
/// (`None` → the process default) and return the results in index
/// order.
///
/// Work distribution is dynamic (an atomic ticket counter), so uneven
/// unit costs balance across workers, but assignment never leaks into
/// results: `f` receives only the index, and each result lands in the
/// slot of the index that produced it. `f` must derive any randomness
/// from that index (e.g. `seed + i as u64`) for cross-thread-count
/// determinism to hold.
pub fn par_map_indexed<U, F>(n: usize, jobs: Option<usize>, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    try_par_map_indexed(n, jobs, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("simulation {p}"),
        })
        .collect()
}

/// Panic-isolating variant of [`par_map_indexed`]: run `f(i)` for every
/// `i in 0..n`, catching a panicking unit at its cell boundary and
/// returning `Err(`[`CellPanic`]`)` in that unit's slot while every
/// other unit's result is kept.
///
/// The same determinism contract applies — each slot's value (including
/// whether it panicked) is a pure function of its index, so the result
/// vector is identical at any thread count. `f` runs under
/// [`std::panic::catch_unwind`]; units are independent by contract, so a
/// panicking unit cannot leave state behind that other units observe
/// (state shared between units is read-only, or, like a workload
/// realization's window table, stored only once fully built).
pub fn try_par_map_indexed<U, F>(n: usize, jobs: Option<usize>, f: F) -> Vec<Result<U, CellPanic>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let run_unit = |i: usize| -> Result<U, CellPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i)))
            .map_err(|p| CellPanic { index: i, payload: payload_string(p.as_ref()) })
    };

    let workers = resolve_jobs(jobs).clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(run_unit).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<U, CellPanic>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let run_unit = &run_unit;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, Result<U, CellPanic>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, run_unit(i)));
                }
                local
            }));
        }
        for handle in handles {
            // Workers only carry caught results; a join error would mean
            // a panic escaped `catch_unwind` (abort-on-panic payloads),
            // which has nothing to recover from.
            for (i, value) in handle.join().expect("worker died outside a unit") {
                slots[i] = Some(value);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_indexed(100, Some(4), |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        // Simulate index-seeded work with uneven cost.
        let unit = |i: usize| {
            let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1);
            for _ in 0..(i % 7) * 1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let serial = par_map_indexed(64, Some(1), unit);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(par_map_indexed(64, Some(jobs), unit), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(0, Some(4), |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, Some(4), |i| i + 10), vec![10]);
    }

    #[test]
    fn auto_mode_is_the_os_count_and_an_explicit_count_wins() {
        let os = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_jobs(Some(0)), os);
        assert_eq!(resolve_jobs(Some(0)), os, "the cached count is stable");
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(os + 5)), os + 5);
    }

    #[test]
    fn default_jobs_knob_round_trips() {
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert_eq!(default_jobs(), resolve_jobs(Some(0)));
    }

    #[test]
    fn panicking_unit_is_isolated_to_its_slot() {
        for jobs in [1usize, 4] {
            let out = try_par_map_indexed(16, Some(jobs), |i| {
                assert!(i != 5, "unit 5 exploded");
                i * 10
            });
            assert_eq!(out.len(), 16, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 5);
                    assert!(p.payload.contains("unit 5 exploded"), "{}", p.payload);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn caught_panics_are_identical_across_thread_counts() {
        let unit = |i: usize| {
            if i.is_multiple_of(3) {
                panic!("cell {i} down");
            }
            i
        };
        let serial = try_par_map_indexed(12, Some(1), unit);
        for jobs in [2, 4] {
            assert_eq!(try_par_map_indexed(12, Some(jobs), unit), serial, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn plain_map_still_propagates_panics() {
        let _ = par_map_indexed(4, Some(2), |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
