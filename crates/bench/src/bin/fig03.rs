//! Fig 3: burst parameter table (mean/variance of run and idle bursts
//! per utilization bucket), re-derived from synthetic dispatch traces.

use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{fig03, write_json, Table};

fn main() {
    let args = HarnessArgs::parse();
    banner("Fig 3", "Workload Parameters (burst moments vs utilization)");
    let rows = fig03(args.seed, args.fast);
    let mut t = Table::new(vec![
        "cpu %",
        "run mean",
        "run var",
        "idle mean",
        "idle var",
        "model run",
        "model idle",
        "windows",
    ]);
    for r in &rows {
        t.row(vec![
            format!("{}", r.level_pct),
            format!("{:.4}", r.run_mean),
            format!("{:.2e}", r.run_var),
            format!("{:.4}", r.idle_mean),
            format!("{:.2e}", r.idle_var),
            format!("{:.4}", r.model_run_mean),
            format!("{:.4}", r.model_idle_mean),
            format!("{}", r.windows),
        ]);
    }
    t.print();
    note_artifact("fig03", write_json("fig03", &rows));
}
