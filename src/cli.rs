//! The `lingersim` command-line tool: quick access to the simulators
//! without writing Rust.
//!
//! ```console
//! $ lingersim linger-time --busy 0.5 --dest 0.0 --size-kb 8192
//! $ lingersim node --util 0.3 --cs-us 100 --secs 300
//! $ lingersim cluster --nodes 64 --jobs 128 --job-secs 600 --policy LL
//! $ lingersim parallel --procs 8 --grain-ms 100 --busy 2 --util 0.2
//! $ lingersim traces --machines 4 --hours 2 --out traces.json
//! ```
//!
//! Argument handling is hand-rolled (`--key value` pairs after a
//! subcommand) so the workspace stays within its dependency budget.

use linger::cost::linger_duration;
use linger::{JobFamily, MigrationCostModel, Policy};
use linger_node::{simulate_single_node, SingleNodeConfig};
use linger_parallel::{run_bsp, BspConfig};
use linger_sim_core::{RngFactory, SimDuration};
use linger_workload::{analysis::CoarseAggregates, CoarseTraceConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// The subcommand name.
    pub command: String,
    /// The options, keyed without the `--` prefix.
    pub options: BTreeMap<String, String>,
}

/// Errors from parsing or running a CLI invocation.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognized.
    UnknownCommand(String),
    /// An option was malformed or missing its value.
    BadOption(String),
    /// An option value failed to parse.
    BadValue(String, String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no subcommand given\n\n{USAGE}"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'\n\n{USAGE}"),
            CliError::BadOption(o) => write!(f, "malformed option '{o}' (expected --key value)"),
            CliError::BadValue(k, v) => write!(f, "could not parse --{k} value '{v}'"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "usage: lingersim <command> [--key value]...

commands:
  linger-time  --busy <util> [--dest <util>] [--size-kb <kb>]
               how long should a foreign job linger before migrating?
  node         [--util <u>] [--cs-us <us>] [--secs <s>] [--seed <n>]
               single-workstation LDR / FCSR study
  cluster      [--nodes <n>] [--jobs <n>] [--job-secs <s>] [--seed <n>]
               [--policy <LL|LF|IE|PM|all>]
               sequential jobs on a shared cluster
  parallel     [--procs <n>] [--grain-ms <ms>] [--busy <count>]
               [--util <u>] [--phases <n>] [--seed <n>]
               BSP job slowdown with some hosts busy
  traces       [--machines <n>] [--hours <h>] [--seed <n>] [--out <file>]
               synthesize and characterize coarse traces

every command also accepts --threads <n>: worker threads for sweeps
that fan out internally (0 = one per core; results are identical either
way) — named --threads, not --jobs, because cluster's --jobs already
counts batch jobs";

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or(CliError::MissingCommand)?.clone();
    let mut options = BTreeMap::new();
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| CliError::BadOption(k.clone()))?;
        let v = it.next().ok_or_else(|| CliError::BadOption(k.clone()))?;
        options.insert(key.to_string(), v.clone());
    }
    Ok(Cli { command, options })
}

fn opt<T: std::str::FromStr>(cli: &Cli, key: &str, default: T) -> Result<T, CliError> {
    match cli.options.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::BadValue(key.to_string(), v.clone())),
    }
}

fn req<T: std::str::FromStr>(cli: &Cli, key: &str) -> Result<T, CliError> {
    let v = cli
        .options
        .get(key)
        .ok_or_else(|| CliError::BadOption(format!("--{key} (required)")))?;
    v.parse().map_err(|_| CliError::BadValue(key.to_string(), v.clone()))
}

/// Execute a parsed invocation, returning the report text.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    if let Some(v) = cli.options.get("threads") {
        let threads: usize = v
            .parse()
            .map_err(|_| CliError::BadValue("threads".into(), v.clone()))?;
        linger_sim_core::set_default_jobs(threads);
    }
    match cli.command.as_str() {
        "linger-time" => cmd_linger_time(cli),
        "node" => cmd_node(cli),
        "cluster" => cmd_cluster(cli),
        "parallel" => cmd_parallel(cli),
        "traces" => cmd_traces(cli),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn cmd_linger_time(cli: &Cli) -> Result<String, CliError> {
    let h: f64 = req(cli, "busy")?;
    let l: f64 = opt(cli, "dest", 0.0)?;
    let size_kb: u32 = opt(cli, "size-kb", 8 * 1024)?;
    let t_migr = MigrationCostModel::paper_default().cost(size_kb);
    let mut out = String::new();
    let _ = writeln!(out, "migration of a {size_kb} KB process: {:.1} s", t_migr.as_secs_f64());
    match linger_duration(h, l, t_migr) {
        Some(t) => {
            let _ = writeln!(
                out,
                "linger duration at h={h:.2}, l={l:.2}: {:.1} s \
                 (migrate once the busy episode outlives it)",
                t.as_secs_f64()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "no beneficial migration exists (destination at {l:.2} is not \
                 better than staying at {h:.2}): linger forever"
            );
        }
    }
    Ok(out)
}

fn cmd_node(cli: &Cli) -> Result<String, CliError> {
    let util: f64 = opt(cli, "util", 0.3)?;
    let cs_us: u64 = opt(cli, "cs-us", 100)?;
    let secs: u64 = opt(cli, "secs", 300)?;
    let seed: u64 = opt(cli, "seed", 0)?;
    let r = simulate_single_node(&SingleNodeConfig {
        utilization: util,
        context_switch: SimDuration::from_micros(cs_us),
        duration: SimDuration::from_secs(secs),
        seed,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workstation at {:.0}% local load, {cs_us} µs switches, {secs} s:",
        util * 100.0
    );
    let _ = writeln!(
        out,
        "  foreign job harvested {:.1} cpu-s ({:.1}% of idle cycles)",
        r.foreign_cpu.as_secs_f64(),
        r.fcsr * 100.0
    );
    let _ = writeln!(
        out,
        "  owner delay ratio {:.3}% over {} preemptions",
        r.ldr * 100.0,
        r.preemptions
    );
    Ok(out)
}

fn cmd_cluster(cli: &Cli) -> Result<String, CliError> {
    let nodes: usize = opt(cli, "nodes", 16)?;
    let jobs: u32 = opt(cli, "jobs", 32)?;
    let job_secs: u64 = opt(cli, "job-secs", 300)?;
    let seed: u64 = opt(cli, "seed", 0)?;
    let policy_s: String = opt(cli, "policy", "all".to_string())?;
    let family = JobFamily::uniform(jobs, SimDuration::from_secs(job_secs), 8 * 1024);
    let policies: Vec<Policy> = if policy_s.eq_ignore_ascii_case("all") {
        Policy::ALL.to_vec()
    } else {
        vec![policy_s
            .parse()
            .map_err(|_| CliError::BadValue("policy".into(), policy_s.clone()))?]
    };
    let mut out = String::new();
    let _ = writeln!(out, "{nodes}-node cluster, {jobs} jobs x {job_secs} cpu-s (seed {seed}):");
    let real = linger_cluster::paper_realization(nodes, seed);
    for p in policies {
        let m = linger_cluster::evaluate_policy(p, family.clone(), &real, seed);
        let _ = writeln!(
            out,
            "  {:<4} avg {:>6.0} s | family {:>6.0} s | tput {:>5.1} cpu-s/s | delay {:.2}%",
            m.policy.abbrev(),
            m.avg_completion_secs,
            m.family_time_secs,
            m.throughput,
            m.foreground_delay * 100.0
        );
    }
    Ok(out)
}

fn cmd_parallel(cli: &Cli) -> Result<String, CliError> {
    let procs: usize = opt(cli, "procs", 8)?;
    let grain_ms: u64 = opt(cli, "grain-ms", 100)?;
    let busy: usize = opt(cli, "busy", 1)?;
    let util: f64 = opt(cli, "util", 0.2)?;
    let phases: usize = opt(cli, "phases", 200)?;
    let seed: u64 = opt(cli, "seed", 0)?;
    let cfg = BspConfig {
        processes: procs,
        compute_per_phase: SimDuration::from_millis(grain_ms),
        phases,
        ..BspConfig::fig9()
    };
    let mut utils = vec![0.0; procs];
    for u in utils.iter_mut().take(busy.min(procs)) {
        *u = util;
    }
    let loaded = run_bsp(&cfg, &utils, seed, 1);
    let ideal = run_bsp(&cfg, &vec![0.0; procs], seed, 2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{procs}-process BSP job, {grain_ms} ms phases x {phases}, {busy} host(s) at {:.0}%:",
        util * 100.0
    );
    let _ = writeln!(
        out,
        "  completion {:.2} s vs {:.2} s dedicated -> slowdown {:.2}x \
         (barrier wait {:.0}% of phase time)",
        loaded.completion.as_secs_f64(),
        ideal.completion.as_secs_f64(),
        loaded.completion.as_secs_f64() / ideal.completion.as_secs_f64(),
        loaded.barrier_wait_fraction * 100.0
    );
    Ok(out)
}

fn cmd_traces(cli: &Cli) -> Result<String, CliError> {
    let machines: usize = opt(cli, "machines", 4)?;
    let hours: u64 = opt(cli, "hours", 2)?;
    let seed: u64 = opt(cli, "seed", 0)?;
    let cfg = CoarseTraceConfig {
        duration: SimDuration::from_secs(hours * 3600),
        ..Default::default()
    };
    let traces = cfg.synthesize_library(&RngFactory::new(seed), machines);
    let agg = CoarseAggregates::analyze(&traces);
    let mut out = String::new();
    let _ = writeln!(out, "{machines} machines x {hours} h (seed {seed}):");
    let _ = writeln!(out, "  non-idle fraction: {:.1}%", agg.non_idle_fraction * 100.0);
    let _ = writeln!(
        out,
        "  non-idle time below 10% cpu: {:.1}%",
        agg.non_idle_low_cpu_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  free memory: >= {:.1} MB at P90, >= {:.1} MB at P95",
        agg.mem_available_at_least(0.90) / 1024.0,
        agg.mem_available_at_least(0.95) / 1024.0
    );
    if let Some(path) = cli.options.get("out") {
        linger_workload::io::save_traces(path, &traces)
            .map_err(|e| CliError::BadValue("out".into(), format!("{path}: {e}")))?;
        let _ = writeln!(out, "  wrote {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_subcommand_and_options() {
        let cli = parse(&args("cluster --nodes 8 --policy LL")).unwrap();
        assert_eq!(cli.command, "cluster");
        assert_eq!(cli.options["nodes"], "8");
        assert_eq!(cli.options["policy"], "LL");
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse(&[]).unwrap_err(), CliError::MissingCommand);
        assert!(matches!(parse(&args("node util 0.3")).unwrap_err(), CliError::BadOption(_)));
        assert!(matches!(parse(&args("node --util")).unwrap_err(), CliError::BadOption(_)));
    }

    #[test]
    fn unknown_command_is_reported() {
        let cli = parse(&args("frobnicate")).unwrap();
        assert!(matches!(run(&cli).unwrap_err(), CliError::UnknownCommand(_)));
    }

    #[test]
    fn linger_time_command() {
        let cli = parse(&args("linger-time --busy 0.5")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("linger duration"), "{out}");
        // Destination worse than source → linger forever.
        let cli = parse(&args("linger-time --busy 0.2 --dest 0.6")).unwrap();
        assert!(run(&cli).unwrap().contains("linger forever"));
    }

    #[test]
    fn node_command_runs() {
        let cli = parse(&args("node --util 0.4 --secs 30")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("owner delay ratio"), "{out}");
    }

    #[test]
    fn parallel_command_runs() {
        let cli = parse(&args("parallel --procs 4 --phases 20 --busy 1")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("slowdown"), "{out}");
    }

    #[test]
    fn cluster_command_single_policy() {
        let cli = parse(&args("cluster --nodes 6 --jobs 6 --job-secs 60 --policy IE")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("IE"), "{out}");
        assert!(!out.contains("LL "), "{out}");
    }

    #[test]
    fn traces_command_runs() {
        let cli = parse(&args("traces --machines 2 --hours 1")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("non-idle fraction"), "{out}");
    }

    #[test]
    fn threads_option_is_accepted_and_validated() {
        let cli = parse(&args("node --util 0.4 --secs 30 --threads 2")).unwrap();
        assert!(run(&cli).unwrap().contains("owner delay ratio"));
        let cli = parse(&args("node --threads nope")).unwrap();
        assert!(matches!(run(&cli).unwrap_err(), CliError::BadValue(k, _) if k == "threads"));
        // `cluster --jobs <n>` keeps its original meaning (batch-job
        // count) and must not be read as a worker-thread setting.
        let cli = parse(&args("cluster --nodes 4 --jobs 4 --job-secs 60 --policy IE")).unwrap();
        assert!(run(&cli).unwrap().contains("4 jobs"));
    }

    #[test]
    fn bad_values_are_reported_with_key() {
        let cli = parse(&args("node --util abc")).unwrap();
        match run(&cli).unwrap_err() {
            CliError::BadValue(k, v) => {
                assert_eq!(k, "util");
                assert_eq!(v, "abc");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
