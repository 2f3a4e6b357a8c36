//! Adaptive strategies: the cost model's foundations and the hybrid
//! scheduler built on them.
//!
//! 1. How good is the median-remaining-life prediction the linger
//!    duration rests on? (It is exactly right for the heavy-tailed
//!    episode lengths real workstations exhibit.)
//! 2. The hybrid width selector the paper proposes as future work:
//!    predict the best power-of-two process count from the model, and
//!    compare with a simulation oracle.
//!
//! Run with: `cargo run --release --example adaptive_strategies`

use linger::predictor::{evaluate, EpisodeModel, LingerRule, Scenario};
use linger::MigrationCostModel;
use linger_parallel::hybrid::{oracle_best_k, predict_best_k};
use linger_parallel::MalleableJob;

fn main() {
    // -- 1. Predictor quality --------------------------------------------
    let t_migr = MigrationCostModel::paper_default().cost(8 * 1024);
    println!("episode predictor study (40%-busy host, idle destination):");
    let rules = [LingerRule::MedianRemainingLife, LingerRule::Immediate, LingerRule::Never];
    for model in
        [EpisodeModel::Pareto { xm: 15.0, alpha: 1.0 }, EpisodeModel::Exponential { mean: 120.0 }]
    {
        println!("  episodes ~ {}:", model.label());
        let scenario = Scenario { h: 0.4, l: 0.02, t_migr, work: 600.0 };
        for row in evaluate(model, &rules, scenario, 20_000, 11) {
            println!(
                "    {:<22} regret {:>4.1}%  (migrated {:>3.0}% of the time)",
                row.rule,
                row.mean_regret * 100.0,
                row.migration_fraction * 100.0
            );
        }
    }
    println!(
        "  -> the 2T heuristic is the best rule exactly on Pareto lifetimes,\n\
         the distribution Harchol-Balter & Downey measured.\n"
    );

    // -- 2. Hybrid width selection ---------------------------------------
    println!("hybrid width selection on a 32-node cluster (20% busy hosts):");
    let job = MalleableJob::fig11();
    println!("  idle | predicted k | oracle k");
    for idle in [32usize, 24, 16, 8, 2] {
        let k_pred = predict_best_k(&job, idle);
        let k_oracle = oracle_best_k(&job, idle, 21);
        println!("  {idle:>4} | {k_pred:>11} | {k_oracle:>8}");
    }
    let busy_job = MalleableJob { local_util: 0.7, ..job };
    println!("  with 70%-busy hosts instead:");
    for idle in [16usize, 8] {
        let k_pred = predict_best_k(&busy_job, idle);
        println!("  {idle:>4} | {k_pred:>11} | (narrows away from lingering)");
    }
}
