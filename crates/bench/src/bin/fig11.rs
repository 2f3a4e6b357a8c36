//! Fig 11: Linger-Longer (8/16/32 processes) versus power-of-two
//! reconfiguration on a 32-node cluster — completion time versus the
//! number of idle nodes (non-idle nodes at 20% local utilization).

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig11, write_json, AsciiChart, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 11", "Linger Longer vs Reconfiguration (synthetic BSP, 32-node cluster)");
    let pts = fig11(args.seed);
    let strategies = ["32 nodes", "16 nodes", "8 nodes", "reconfig"];
    let mut t = Table::new(vec!["idle nodes", "32 nodes", "16 nodes", "8 nodes", "reconfig"]);
    for idle in (0..=32usize).rev().step_by(2) {
        let mut cells = vec![format!("{idle}")];
        for s in strategies {
            let v = pts
                .iter()
                .find(|p| p.idle == idle && p.strategy == s)
                .map(|p| format!("{:.2}", p.completion_secs))
                .unwrap_or_default();
            cells.push(v);
        }
        t.row(cells);
    }
    t.print();
    let mut chart = AsciiChart::new(56, 12).labels("idle nodes", "completion (s)");
    for (strategy, marker) in
        [("32 nodes", '3'), ("16 nodes", '1'), ("8 nodes", '8'), ("reconfig", 'r')]
    {
        chart = chart.series(
            marker,
            pts.iter()
                .filter(|p| p.strategy == strategy)
                .map(|p| (p.idle as f64, p.completion_secs))
                .collect(),
        );
    }
    println!("\n{}", chart.render());
    // Crossover: first idle count (descending) where reconfiguration
    // beats LL-32.
    let cross = (0..=32usize).rev().find(|&i| {
        let ll = pts.iter().find(|p| p.idle == i && p.strategy == "32 nodes").unwrap();
        let rc = pts.iter().find(|p| p.idle == i && p.strategy == "reconfig").unwrap();
        rc.completion_secs < ll.completion_secs
    });
    match cross {
        Some(i) => println!(
            "\nreconfiguration first beats LL-32 at {} idle nodes ({} non-idle; paper: 6+ non-idle)",
            i,
            32 - i
        ),
        None => println!("\nLL-32 never loses to reconfiguration in this run (paper: crossover at ~6 non-idle)"),
    }
    note_artifact("fig11", write_json("fig11", &pts));
}
