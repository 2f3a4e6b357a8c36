//! Extension: the hybrid linger/reconfigure strategy the paper proposes
//! as future work (Sec 5.2) — model-predicted width vs. a simulation
//! oracle, against both pure strategies.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{ext_hybrid, write_json, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Extension: hybrid strategy",
        "predicted width vs oracle (32-node BSP, 20% load)",
    );
    let pts = ext_hybrid(args.seed);
    let mut t = Table::new(vec![
        "idle",
        "reconfig (s)",
        "linger-32 (s)",
        "hybrid k",
        "hybrid (s)",
        "oracle k",
        "oracle (s)",
    ]);
    for p in pts.iter().filter(|p| p.idle % 2 == 0) {
        t.row(vec![
            format!("{}", p.idle),
            format!("{:.2}", p.reconfig_secs),
            format!("{:.2}", p.linger_full_secs),
            format!("{}", p.hybrid_k),
            format!("{:.2}", p.hybrid_secs),
            format!("{}", p.oracle_k),
            format!("{:.2}", p.oracle_secs),
        ]);
    }
    t.print();
    let regret: f64 = pts
        .iter()
        .map(|p| p.hybrid_secs / p.oracle_secs)
        .fold(0.0f64, f64::max);
    println!("\nworst predictor regret vs oracle: {:.1}%", (regret - 1.0) * 100.0);
    note_artifact("ext_hybrid", write_json("ext_hybrid", &pts));
}
