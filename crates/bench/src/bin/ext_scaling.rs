//! Extension: simulator scaling sweep — all four policies at 64 to
//! 1,048,576 nodes in constant-load throughput mode, with wall-clock per
//! node-window. The paper's evaluation stops at 64 workstations; this
//! sweep shows the struct-of-arrays window loop holds its
//! per-node-window cost out to a million machines, switching to the
//! memory-bounded streamed window pipeline once a monolithic table would
//! blow the 4 GiB byte budget (`LINGER_WINDOW_CHUNK` forces chunked
//! streaming at any size).
//!
//! Beyond the shared harness flags, `--max-nodes <n>` truncates the
//! sweep (e.g. `--max-nodes 16384` for a CI smoke run that skips the
//! larger cells).

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{
    ext_scaling_at, peak_rss_kb, scaling_ns_per_node_window, write_json, Table, SCALING_NODE_COUNTS,
};

fn main() {
    let args = HarnessArgs::parse();
    let max_nodes = args.max_nodes.unwrap_or(usize::MAX);
    let counts: Vec<usize> = SCALING_NODE_COUNTS
        .iter()
        .copied()
        .filter(|&n| n <= max_nodes)
        .collect();
    banner(
        "Extension: scaling sweep",
        "four policies, 64-1,048,576 nodes, cost per node-window",
    );
    let (points, timings) = ext_scaling_at(args.seed, &counts, args.fast);
    let mut t = Table::new(vec![
        "nodes",
        "policy",
        "windows",
        "completed",
        "foreign cpu (s)",
        "setup (s)",
        "chunk build (s)",
        "window loop (s)",
        "ns/node-window",
        "B/node-window",
        "live rows",
    ]);
    for (p, tm) in points.iter().zip(&timings) {
        t.row(vec![
            format!("{}", p.nodes),
            p.policy.clone(),
            format!("{}", p.windows),
            format!("{}", p.completed),
            format!("{:.0}", p.foreign_cpu_secs),
            format!("{:.3}", tm.setup_secs),
            format!("{:.3}", tm.stream_build_secs),
            format!("{:.3}", tm.run_secs),
            format!("{:.1}", tm.ns_per_node_window),
            format!("{:.3}", tm.bytes_per_node_window),
            format!("{}", tm.live_job_rows),
        ]);
    }
    t.print();
    // One grep-able line per node count for the CI live-lane assertion:
    // with slot recycling the live rows equal the initial job count
    // (2 jobs per node) regardless of turnover.
    for tm in timings.iter().filter(|tm| tm.policy == "LL") {
        println!(
            "live-lanes: nodes={} live_rows={} archived={}",
            tm.nodes, tm.live_job_rows, tm.archived_jobs
        );
    }
    let lo = counts[0];
    let hi = *counts.last().unwrap();
    let base = scaling_ns_per_node_window(&timings, lo);
    let top = scaling_ns_per_node_window(&timings, hi);
    println!(
        "\nper-node-window cost: {base:.0} ns at {lo} nodes vs {top:.0} ns at {hi} nodes \
         ({:.2}x; flat means the window loop scales linearly in cluster size)",
        top / base.max(1e-12)
    );
    if let Some(kb) = peak_rss_kb() {
        println!("peak RSS: {} MiB", kb / 1024);
    }
    note_artifact("ext_scaling", write_json("ext_scaling", &points));
}
