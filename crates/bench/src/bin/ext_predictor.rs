//! Extension: quality of the median-remaining-life predictor behind the
//! linger-duration cost model, versus alternative rules, across episode
//! populations (Pareto α=1, exponential, deterministic).

use linger::predictor::predictor_study;
use linger_bench::output::{banner, note_artifact, HarnessArgs};
use linger_bench::{write_json, Table};

fn main() {
    let args = HarnessArgs::parse();
    let n = if args.fast { 2_000 } else { 50_000 };
    banner(
        "Extension: episode predictor study",
        "mean regret vs a clairvoyant oracle (h=40%, l=2%, 8 MB job)",
    );
    let rows = predictor_study(args.seed, n);
    let mut t =
        Table::new(vec!["episodes", "rule", "mean completion (s)", "regret vs oracle", "migrated"]);
    for r in &rows {
        t.row(vec![
            r.episodes.clone(),
            r.rule.clone(),
            format!("{:.0}", r.mean_completion_secs),
            format!("{:.1}%", r.mean_regret * 100.0),
            format!("{:.0}%", r.migration_fraction * 100.0),
        ]);
    }
    t.print();
    println!(
        "\n(the paper's heuristic is near-optimal exactly on the Pareto lifetimes\n\
         Harchol-Balter & Downey measured; on memoryless episodes no age-based rule\n\
         can beat the best constant policy)"
    );
    note_artifact("ext_predictor", write_json("ext_predictor", &rows));
}
