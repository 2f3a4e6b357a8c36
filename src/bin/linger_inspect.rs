//! `linger-inspect`: record, summarize, diff, and export telemetry
//! journals from the cluster simulator.
//!
//! Subcommands:
//!
//! * `record --out FILE [--seed N] [--nodes N] [--policy LL|LF|IE|PM]
//!   [--jobs N] [--crash-rate X] [--mig-prob X] [--horizon SECS]` —
//!   run one small cluster cell with journaling on and spill the
//!   journal as JSON lines. The journal depends only on the flags (no
//!   wall clock, no machine state), so two runs with the same flags
//!   produce byte-identical files.
//! * `summary FILE` — decision distributions, per-kind event counts,
//!   queue-depth gauge, and the mean per-job completion breakdown.
//! * `diff A B` — compare two journals event by event and report the
//!   first diverging decision (and the first diverging event of any
//!   kind), or confirm the journals are identical.
//! * `chrome FILE --out FILE` — export a Chrome trace-event file
//!   (open in Perfetto or `chrome://tracing` for a per-node timeline).

use linger::{JobFamily, Policy};
use linger_cluster::{ClusterConfig, ClusterSim, FaultConfig};
use linger_sim_core::{SimDuration, SimTime};
use linger_telemetry::{
    chrome_trace, diff, read_events_jsonl, render_diff, render_summary, summarize, Recorder,
};

fn usage() -> ! {
    eprintln!(
        "usage: linger-inspect <record|summary|diff|chrome> …\n\
         \n\
         linger-inspect record --out FILE [--seed N] [--nodes N]\n\
         \x20                  [--policy LL|LF|IE|PM] [--jobs N]\n\
         \x20                  [--crash-rate X] [--mig-prob X] [--horizon SECS]\n\
         linger-inspect summary FILE\n\
         linger-inspect diff A B\n\
         linger-inspect chrome FILE --out FILE"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("linger-inspect: {msg}");
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| fail(&format!("{name} needs a value")))
            .clone()
    })
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| fail(&format!("bad {what}: {s:?}")))
}

fn load(path: &str) -> Vec<linger_telemetry::Event> {
    read_events_jsonl(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn record(args: &[String]) {
    let out = flag_value(args, "--out").unwrap_or_else(|| fail("record needs --out FILE"));
    let seed: u64 = flag_value(args, "--seed").map_or(1998, |s| parse(&s, "--seed"));
    let nodes: usize = flag_value(args, "--nodes").map_or(12, |s| parse(&s, "--nodes"));
    let jobs: u32 = flag_value(args, "--jobs").map_or(24, |s| parse(&s, "--jobs"));
    let policy: Policy =
        flag_value(args, "--policy").map_or(Policy::LingerLonger, |s| parse(&s, "--policy"));
    let crash_rate: f64 =
        flag_value(args, "--crash-rate").map_or(0.0, |s| parse(&s, "--crash-rate"));
    let mig_prob: f64 = flag_value(args, "--mig-prob").map_or(0.0, |s| parse(&s, "--mig-prob"));
    let horizon: u64 = flag_value(args, "--horizon").map_or(4 * 3600, |s| parse(&s, "--horizon"));

    let family = JobFamily::uniform(jobs, SimDuration::from_secs(300), 8 * 1024);
    let mut cfg = ClusterConfig::paper(policy, family);
    cfg.nodes = nodes;
    cfg.seed = seed;
    cfg.max_time = SimTime::from_secs(horizon);
    if crash_rate > 0.0 || mig_prob > 0.0 {
        cfg.faults = FaultConfig {
            crash_rate_per_hour: crash_rate,
            mean_reboot_secs: 300.0,
            migration_failure_prob: mig_prob,
        };
    }

    let recorder = Recorder::with_capacity(linger_telemetry::DEFAULT_CAPACITY);
    let mut sim = ClusterSim::new(cfg).with_recorder(recorder.clone());
    let finished = sim.run();
    let journal = recorder.journal().expect("recorder is enabled");
    journal
        .write_jsonl(&out)
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!(
        "recorded {} events ({} dropped) to {out}; family finished: {finished}",
        journal.counts().events,
        journal.counts().dropped
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "record" => record(rest),
        "summary" => {
            let path = rest.first().unwrap_or_else(|| fail("summary needs a journal FILE"));
            let events = load(path);
            print!("{}", render_summary(&summarize(&events)));
        }
        "diff" => {
            let (Some(a), Some(b)) = (rest.first(), rest.get(1)) else {
                fail("diff needs two journal files");
            };
            let report = diff(&load(a), &load(b));
            let identical = report.identical();
            print!("{}", render_diff(&report, a, b));
            std::process::exit(if identical { 0 } else { 1 });
        }
        "chrome" => {
            let path = rest.first().unwrap_or_else(|| fail("chrome needs a journal FILE"));
            let out = flag_value(rest, "--out").unwrap_or_else(|| fail("chrome needs --out FILE"));
            let events = load(path);
            let json = serde_json::to_string_pretty(&chrome_trace(&events))
                .unwrap_or_else(|e| fail(&format!("cannot serialize trace: {e}")));
            linger_sim_core::write_atomic(&out, json.as_bytes())
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            println!("wrote {} trace events to {out}", events.len());
        }
        _ => usage(),
    }
}
