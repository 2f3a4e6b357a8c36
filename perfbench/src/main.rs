//! `linger-perfbench`: host-time benchmark of the linger cluster simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload <name>|all] [--seed <n>] [--seconds <n>] [--trace 0|1]
//! ```
//!
//! One process measures one workload; `--workload all` (the default)
//! runs one child process per workload, so every peak RSS belongs to a
//! process that ran only that workload. Cells run one after another
//! (a closed loop), each cold: synthesis, construction and the window
//! loop are all inside the cell. Rounds repeat until the next one would
//! end after `--seconds`, with a minimum number of rounds.
//!
//! `--trace 0` measures untraced cells and reports the end-to-end
//! metrics. `--trace 1` alternates an untraced cell with a traced one
//! (every `step()` timed, then the window loop re-run over the same
//! realization with a journaling recorder) and reports the per-layer
//! metrics; the spans are written next to the executable at the end.
//!
//! Every run is checked: invariants, the workload's defining property,
//! and the outcome digest against `workloads.json` (seed 1998) or, for
//! other seeds, against the process's first run. The human-readable
//! report goes to stdout; its last line is the JSON result.

use linger_perfbench::{
    check_run, end_to_end_metrics, peak_rss_mib, per_layer_metrics, reference_digest, run_cell,
    run_journaled, CellTimes, HostEnv, Metric, Outcome, Scale, StepSample, TracedRep, Workload,
    DEFAULT_SEED,
};
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Untraced rounds every `--trace 0` process runs, however long they take.
const MIN_PLAIN_ROUNDS: usize = 2;

/// Traced rounds every `--trace 1` process runs.
const MIN_TRACED_ROUNDS: usize = 1;

/// Worker-pool size for synthesis and the sharded sweep. One thread: on
/// a two-vCPU KVM guest (Xeon, `nproc` = 2) the threaded 16,384-node
/// sweep ran 1.5-2.5x slower than the inline one and swung with the
/// host's load, so two threads measured the host more than the
/// simulator.
const THREADS: usize = 1;

/// Measuring time when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    /// `None` runs every workload, each in its own child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::from_name(name).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name:?} (expected all or one of {names:?})")
                    })?),
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds {v:?} (a whole number >= 1)"))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Refuse every `LINGER_*` knob (they switch code paths: slot reuse,
/// window chunking, shards, telemetry, budgets) and pin the worker pool
/// to [`THREADS`]. Returns `(nproc, threads)`.
fn pin_environment() -> Result<(usize, usize), String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LINGER_"))
        .collect();
    if !knobs.is_empty() {
        knobs.sort();
        return Err(format!(
            "refusing to run with {} set; unset them",
            knobs.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    linger_sim_core::set_default_jobs(threads);
    Ok((nproc, threads))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let (nproc, threads) = pin_environment()?;
        match args.workload {
            None => run_all(&args),
            Some(w) => run_one(w, &args, nproc, threads),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// Every workload, one child process each, one after another.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs and failures of one process, with the digest every run must
/// reproduce.
struct Ledger {
    workload: Workload,
    attempted: u64,
    failed: u64,
    expected: Option<u64>,
    reference: Option<u64>,
}

impl Ledger {
    /// Count one run (`None`: it panicked); true only if it finished
    /// and passed every check.
    fn check(&mut self, run: Option<&Outcome>) -> bool {
        self.attempted += 1;
        let verdict = match run {
            Some(o) => check_run(self.workload, o, &mut self.expected),
            None => Err("run panicked".to_string()),
        };
        if let Err(e) = &verdict {
            self.failed += 1;
            eprintln!("perfbench: FAILED run {}: {e}", self.attempted);
        }
        verdict.is_ok()
    }
}

/// Spans of the traced runs, kept in memory until the end.
#[derive(Default)]
struct Spans {
    rows: Vec<Value>,
}

impl Spans {
    /// The spans of one traced cell that started `start_s` after the
    /// process clock origin.
    fn cell(&mut self, round: usize, start_s: f64, t: &CellTimes, steps: &[StepSample]) {
        let span = |name: &str, parent: &str, at: f64, dur: f64| {
            vec![
                ("round".to_string(), Value::UInt(round as u64)),
                ("name".to_string(), Value::Str(name.into())),
                ("parent".to_string(), Value::Str(parent.into())),
                ("start_us".to_string(), Value::Float(at * 1e6)),
                ("dur_us".to_string(), Value::Float(dur * 1e6)),
            ]
        };
        let construct_at = start_s + t.synthesize_s;
        let run_at = construct_at + t.construct_s;
        for row in [
            span("cell", "", start_s, t.cell_s()),
            span("workload.synthesize", "cell", start_s, t.synthesize_s),
            span("cluster.construct", "cell", construct_at, t.construct_s),
            span("cluster.run", "cell", run_at, t.run_s),
        ] {
            self.rows.push(Value::Map(row));
        }
        for s in steps {
            let at = start_s + s.start_ns as f64 / 1e9;
            let mut row = span("cluster.step", "cluster.run", at, s.dur_ns as f64 / 1e9);
            row.push(("saturated".to_string(), Value::Bool(s.saturated)));
            row.push((
                "stream_build_us".to_string(),
                Value::Float(s.build_ns as f64 / 1e3),
            ));
            self.rows.push(Value::Map(row));
        }
    }

    fn write(&self, w: Workload, seed: u64) -> Result<std::path::PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let path = dir.join(format!("perfbench-spans-{}-seed{seed}.jsonl", w.name()));
        let mut text = String::new();
        for row in &self.rows {
            text.push_str(&serde_json::to_string(row).map_err(|e| e.to_string())?);
            text.push('\n');
        }
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

fn run_one(w: Workload, args: &Args, nproc: usize, threads: usize) -> Result<ExitCode, String> {
    let scale = Scale::full(w);
    let env = HostEnv {
        nproc,
        threads,
        shards: scale.shards(),
    };
    let reference = reference_digest(w, args.seed);
    let mut ledger = Ledger {
        workload: w,
        attempted: 0,
        failed: 0,
        expected: reference,
        reference,
    };
    let mut plain: Vec<CellTimes> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut outcome: Option<Outcome> = None;
    let mut spans = Spans::default();
    let origin = Instant::now();
    let min_rounds = if args.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_PLAIN_ROUNDS
    };
    let mut last_round_s = 0.0;
    let mut round = 0;
    // Peak RSS of the process after its first cell: later cells re-use a
    // heap the first one fragmented, so their high-water mark would
    // depend on how many cells fit into the measuring time.
    let mut rss_mib = None;
    while round < min_rounds || origin.elapsed().as_secs_f64() + last_round_s <= args.seconds as f64
    {
        let round_start = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let cell = run_cell(w, scale, args.seed, false);
            (cell.times, Outcome::of(&cell.sim))
        }));
        if ledger.check(run.as_ref().ok().map(|(_, o)| o)) {
            let (times, o) = run.expect("checked run finished");
            eprintln!(
                "round {round}: untraced cell {:.3} s (setup {:.3} s), process peak RSS {:.1} MiB",
                times.cell_s(),
                times.setup_s(),
                peak_rss_mib().unwrap_or(f64::NAN)
            );
            plain.push(times);
            outcome = Some(o);
        }
        if rss_mib.is_none() {
            rss_mib = Some(peak_rss_mib()?);
        }
        if args.trace {
            let cell_start_s = origin.elapsed().as_secs_f64();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let cell = run_cell(w, scale, args.seed, true);
                let o = Outcome::of(&cell.sim);
                drop(cell.sim);
                (cell.times, cell.steps, o, cell.real)
            }));
            if ledger.check(run.as_ref().ok().map(|(_, _, o, _)| o)) {
                let (times, steps, o, real) = run.expect("checked run finished");
                let journal = catch_unwind(AssertUnwindSafe(|| {
                    let (secs, sim) = run_journaled(w, scale, args.seed, &real);
                    (secs, Outcome::of(&sim))
                }));
                if ledger.check(journal.as_ref().ok().map(|(_, o)| o)) {
                    let (journal_run_s, _) = journal.expect("checked run finished");
                    eprintln!(
                        "round {round}: traced cell {:.3} s, journaled loop {journal_run_s:.3} s",
                        times.cell_s()
                    );
                    spans.cell(round, cell_start_s, &times, &steps);
                    traced.push(TracedRep {
                        times,
                        steps,
                        journal_run_s,
                    });
                    outcome = Some(o);
                }
            }
        }
        round += 1;
        last_round_s = round_start.elapsed().as_secs_f64();
    }

    let e2e = end_to_end_metrics(&plain, rss_mib.unwrap_or_default());
    let layers = outcome
        .as_ref()
        .map(|o| per_layer_metrics(&plain, &traced, o, scale, env));
    let correct = ledger.failed == 0 && ledger.attempted > 0;

    println!(
        "perfbench {}  seed={}  seconds={}  trace={}  nodes={}  windows={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        scale.nodes,
        scale.windows()
    );
    println!(
        "host: nproc={} threads={} shards={}",
        env.nproc, env.threads, env.shards
    );
    let digest = outcome
        .as_ref()
        .map_or("none".to_string(), |o| format!("{:#018x}", o.digest));
    let against = match ledger.reference {
        Some(r) => format!("reference {r:#018x} (seed {})", args.seed),
        None => "first run of this process (no reference for this seed)".to_string(),
    };
    println!("outcome digest {digest}, checked against {against}");
    let fail_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!(
        "{:<32} {:>14} {:<6} over {} runs ({} failed)",
        "fail_ratio", fail_ratio, "ratio", ledger.attempted, ledger.failed
    );
    let print = |m: &Metric, note: &str| {
        println!("{:<32} {:>14.6} {:<6} {note}", m.name, m.value, m.unit);
    };
    for m in &e2e {
        let note = if m.name == "peak_rss_mib" {
            "this process, after its first cell".to_string()
        } else {
            format!("median of {} untraced runs", plain.len())
        };
        print(m, &note);
    }
    if args.trace {
        let steps: usize = traced.iter().map(|r| r.steps.len()).sum();
        println!(
            "per-layer: {} traced runs, step percentiles pooled over {steps} steps",
            traced.len()
        );
        for m in layers.iter().flatten() {
            print(m, "");
        }
        let path = spans.write(w, args.seed)?;
        println!("spans: {}", path.display());
    }

    let reported: Vec<Metric> = if args.trace {
        layers.unwrap_or_default()
    } else {
        e2e
    };
    let metrics = reported
        .iter()
        .map(|m| {
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(ledger.attempted)),
        ("failed".into(), Value::UInt(ledger.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    // A printed result carries its own verdict in `correct`.
    Ok(ExitCode::SUCCESS)
}
