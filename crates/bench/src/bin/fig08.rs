//! Fig 8: average per-job time breakdown (queued / running / lingering /
//! paused / migrating) for each policy on both workloads.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig07, write_json, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 8", "Average Completion Time breakdown by state");
    let r = fig07(args.seed, args.fast);
    for (name, metrics) in
        [("Workload-1 (many jobs)", &r.workload1), ("Workload-2 (few jobs)", &r.workload2)]
    {
        println!("\n== {name} ==");
        let mut t = Table::new(vec![
            "policy",
            "in-queue",
            "run",
            "linger",
            "paused",
            "migrating",
            "total (s)",
        ]);
        for m in metrics.iter() {
            let b = m.avg_breakdown;
            t.row(vec![
                m.policy.abbrev().to_string(),
                format!("{:.0}", b.queued),
                format!("{:.0}", b.running),
                format!("{:.0}", b.lingering),
                format!("{:.0}", b.paused),
                format!("{:.0}", b.migrating),
                format!("{:.0}", b.total()),
            ]);
        }
        t.print();
    }
    // ASCII rendition of the paper's stacked bars.
    println!("\nstacked bars (each char ~ 2% of the tallest total):");
    let max_total = r
        .workload1
        .iter()
        .chain(r.workload2.iter())
        .map(|m| m.avg_breakdown.total())
        .fold(0.0f64, f64::max);
    for (name, metrics) in [("workload-1", &r.workload1), ("workload-2", &r.workload2)] {
        println!("  {name}:");
        for m in metrics.iter() {
            let b = m.avg_breakdown;
            let seg = |v: f64, ch: char| {
                let n = (v / max_total * 50.0).round() as usize;
                ch.to_string().repeat(n)
            };
            println!(
                "    {:<3} |{}{}{}{}{}| {:.0}s",
                m.policy.abbrev(),
                seg(b.queued, 'Q'),
                seg(b.running, 'R'),
                seg(b.lingering, 'L'),
                seg(b.paused, 'P'),
                seg(b.migrating, 'M'),
                b.total()
            );
        }
    }
    println!("  legend: Q queued, R running, L lingering, P paused, M migrating");
    println!(
        "\n(paper: \"The major difference between the linger and non-linger \
         policies is due to the reduced queue time.\")"
    );
    note_artifact("fig08", write_json("fig08", &r));
}
