//! Fig 13: lingering (16 or 8 processes) versus power-of-two
//! reconfiguration for sor / water / fft on a 16-node cluster (non-idle
//! nodes at 20%).

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig13, write_json, AsciiChart, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Fig 13",
        "Linger-Longer vs Reconfiguration for the applications (16-node cluster)",
    );
    let pts = fig13(args.seed);
    for app in ["sor", "water", "fft"] {
        println!("\n-- {app} --");
        let mut t =
            Table::new(vec!["idle nodes", "reconfiguration", "16 node linger", "8 node linger"]);
        for idle in (0..=16usize).rev() {
            let get = |s: &str| {
                pts.iter()
                    .find(|p| p.app == app && p.idle == idle && p.strategy == s)
                    .map(|p| format!("{:.2}", p.slowdown))
                    .unwrap_or_default()
            };
            t.row(vec![
                format!("{idle}"),
                get("reconfiguration"),
                get("16 node linger"),
                get("8 node linger"),
            ]);
        }
        t.print();
    }
    let mut chart = AsciiChart::new(50, 10).labels("idle nodes (sor)", "slowdown");
    for (strategy, marker) in
        [("reconfiguration", 'r'), ("16 node linger", '1'), ("8 node linger", '8')]
    {
        chart = chart.series(
            marker,
            pts.iter()
                .filter(|p| p.app == "sor" && p.strategy == strategy)
                .map(|p| (p.idle as f64, p.slowdown))
                .collect(),
        );
    }
    println!("\n{}", chart.render());
    println!(
        "(paper: LL-16 beats reconfiguration when idle >= 12; see EXPERIMENTS.md for the\n\
         noted divergence on the LL-8 vs LL-16 ordering at low idle counts)"
    );
    note_artifact("fig13", write_json("fig13", &pts));
}
