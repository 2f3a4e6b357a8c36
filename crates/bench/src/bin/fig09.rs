//! Fig 9: slowdown of an 8-process bulk-synchronous job (100 ms phases,
//! NEWS exchange) versus the local utilization of one non-idle node.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig09, write_json, AsciiChart, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 9", "Parallel Job slowdown vs local CPU utilization (1 non-idle node)");
    let pts = fig09(args.seed, args.fast);
    let mut t = Table::new(vec!["local cpu %", "slowdown"]);
    for p in &pts {
        t.row(vec![format!("{}", p.utilization_pct), format!("{:.2}", p.slowdown)]);
    }
    t.print();
    let chart = AsciiChart::new(50, 12)
        .labels("local CPU utilization (%)", "slowdown")
        .series('o', pts.iter().map(|p| (p.utilization_pct as f64, p.slowdown)).collect());
    println!("\n{}", chart.render());
    println!("(paper: slowdown 1.1-1.5 below 40% load; \"so large\" above 50%; ~9 at 90%)");
    note_artifact("fig09", write_json("fig09", &pts));
}
