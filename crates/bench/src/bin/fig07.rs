//! Fig 7 (table): cluster performance of LL / LF / IE / PM on the two
//! sequential-job workloads — Avg Job, Variation, Family Time,
//! Throughput — with the paper's values for comparison.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig07, fig07_paper_reference, write_json, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 7", "Cluster Performance (sequential jobs, 4 policies x 2 workloads)");
    if args.reps >= 2 {
        replicated(&args);
        return;
    }
    let r = fig07(args.seed, args.fast);
    let refs = fig07_paper_reference();
    println!("cluster: {} nodes{}", r.nodes, if args.fast { " (fast mode)" } else { "" });
    for (wi, (name, metrics)) in
        [("Workload-1 (many jobs)", &r.workload1), ("Workload-2 (few jobs)", &r.workload2)]
            .into_iter()
            .enumerate()
    {
        println!("\n== {name} ==");
        let mut t = Table::new(vec!["metric", "LL", "LF", "IE", "PM", "paper (LL/LF/IE/PM)"]);
        let row_ref = |i: usize| {
            let rr = refs[wi * 4 + i];
            format!("{:.0}/{:.0}/{:.0}/{:.0}", rr[0], rr[1], rr[2], rr[3])
        };
        t.row(vec![
            "Avg. Job (s)".to_string(),
            format!("{:.0}", metrics[0].avg_completion_secs),
            format!("{:.0}", metrics[1].avg_completion_secs),
            format!("{:.0}", metrics[2].avg_completion_secs),
            format!("{:.0}", metrics[3].avg_completion_secs),
            row_ref(0),
        ]);
        t.row(vec![
            "Variation (%)".to_string(),
            format!("{:.1}", metrics[0].variation * 100.0),
            format!("{:.1}", metrics[1].variation * 100.0),
            format!("{:.1}", metrics[2].variation * 100.0),
            format!("{:.1}", metrics[3].variation * 100.0),
            row_ref(1),
        ]);
        t.row(vec![
            "Family Time (s)".to_string(),
            format!("{:.0}", metrics[0].family_time_secs),
            format!("{:.0}", metrics[1].family_time_secs),
            format!("{:.0}", metrics[2].family_time_secs),
            format!("{:.0}", metrics[3].family_time_secs),
            row_ref(2),
        ]);
        t.row(vec![
            "Throughput (cpu-s/s)".to_string(),
            format!("{:.1}", metrics[0].throughput),
            format!("{:.1}", metrics[1].throughput),
            format!("{:.1}", metrics[2].throughput),
            format!("{:.1}", metrics[3].throughput),
            row_ref(3),
        ]);
        t.print();
    }
    let (ll, pm) = (&r.workload1[0], &r.workload1[3]);
    println!(
        "\nheadlines: LL throughput/PM = {:.2}x (paper ~1.5-1.6x); \
         foreground delay under LL = {:.3}% (paper < 0.5%)",
        ll.throughput / pm.throughput,
        ll.foreground_delay * 100.0
    );
    note_artifact("fig07", write_json("fig07", &r));
}

/// `--reps N`: rerun over N master seeds and print means ± 95% CIs — the
/// error bars the paper's table lacks.
fn replicated(args: &HarnessArgs) {
    use linger::{JobFamily, Policy};
    use linger_cluster::evaluate_policy_replicated;
    let nodes = if args.fast { 16 } else { 64 };
    for (name, family) in [
        ("Workload-1 (many jobs)", JobFamily::workload_1()),
        ("Workload-2 (few jobs)", JobFamily::workload_2()),
    ] {
        println!("\n== {name}, {} replications, {nodes} nodes ==", args.reps);
        let mut t =
            Table::new(vec!["policy", "avg job (s)", "throughput", "family (s)", "delay %"]);
        let mut rows = Vec::new();
        for policy in Policy::ALL {
            let r = evaluate_policy_replicated(policy, family.clone(), nodes, args.seed, args.reps);
            t.row(vec![
                policy.abbrev().to_string(),
                format!("{:.0} ± {:.0}", r.avg_completion_secs.mean, r.avg_completion_secs.ci95),
                format!("{:.1} ± {:.1}", r.throughput.mean, r.throughput.ci95),
                format!("{:.0} ± {:.0}", r.family_time_secs.mean, r.family_time_secs.ci95),
                format!(
                    "{:.2} ± {:.2}",
                    r.foreground_delay.mean * 100.0,
                    r.foreground_delay.ci95 * 100.0
                ),
            ]);
            rows.push(r);
        }
        t.print();
        note_artifact("fig07_replicated", write_json("fig07_replicated", &rows));
    }
}
