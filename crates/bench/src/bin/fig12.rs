//! Fig 12: slowdown of sor / water / fft under lingering as the number
//! of non-idle nodes (0–8) and their local utilization (10–40%) vary.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig12, write_json, AsciiChart, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 12", "Slowdown by Non-idle nodes and their Local CPU Usage (apps)");
    let pts = fig12(args.seed);
    for app in ["sor", "water", "fft"] {
        println!("\n-- {app} --");
        let mut t = Table::new(vec!["non-idle", "lusg 10%", "lusg 20%", "lusg 30%", "lusg 40%"]);
        for k in 0..=8usize {
            let get = |u: f64| {
                pts.iter()
                    .find(|p| p.app == app && p.non_idle == k && (p.local_util - u).abs() < 1e-9)
                    .map(|p| format!("{:.2}", p.slowdown))
                    .unwrap_or_default()
            };
            t.row(vec![format!("{k}"), get(0.1), get(0.2), get(0.3), get(0.4)]);
        }
        t.print();
    }
    let mut chart = AsciiChart::new(50, 10).labels("non-idle nodes (lusg 40%)", "slowdown");
    for (app, marker) in [("sor", 's'), ("water", 'w'), ("fft", 'f')] {
        chart = chart.series(
            marker,
            pts.iter()
                .filter(|p| p.app == app && (p.local_util - 0.4).abs() < 1e-9)
                .map(|p| (p.non_idle as f64, p.slowdown))
                .collect(),
        );
    }
    println!("\n{}", chart.render());
    println!(
        "(paper: sor most sensitive, fft least; 1 non-idle @40% ~1.7; all 8 @20% just above 2)"
    );
    note_artifact("fig12", write_json("fig12", &pts));
}
