//! Run the whole evaluation suite (Figs 2–13), write every result into
//! `results/`, and print a paper-versus-measured scorecard.
//!
//! `--fast` scales every experiment down for a quick smoke run;
//! `--seed <n>` selects the master seed (default 1998); `--jobs <n>`
//! sets the parallel runner's worker count (0 = one per core; results
//! are byte-identical at any value). Per-figure wall-clock lands in
//! `BENCH_runall.json` next to the working directory.
//!
//! Every section runs under [`RunTimings::time_caught`]: a section that
//! panics is recorded (name + payload) in the ledger's
//! `failed_sections`, its scorecard checks turn into failures, and the
//! remaining sections still run and write their results.

use linger_bench::output::{note_artifact, HarnessArgs};
use linger_bench::*;
use linger_workload::TraceLibrary;

struct Check {
    name: &'static str,
    paper: String,
    measured: String,
    ok: bool,
}

/// The scorecard entry a panicked section leaves behind.
fn section_panicked(name: &'static str) -> Check {
    Check {
        name,
        paper: "section completes".into(),
        measured: "PANICKED — see failed_sections in BENCH_runall.json".into(),
        ok: false,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let t0 = std::time::Instant::now();
    let mut checks: Vec<Check> = Vec::new();
    let mut timings = RunTimings::new(args.jobs, args.seed, args.fast);

    println!("running Fig 2 …");
    match timings.time_caught("fig02", || fig02(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig02")),
        Some(f2) => {
            note_artifact("fig02", write_json("fig02", &f2));
            let ks_worst =
                f2.iter().map(|b| b.ks_run.max(b.ks_idle)).fold(0.0f64, f64::max);
            checks.push(Check {
                name: "Fig 2: fitted vs empirical burst CDFs",
                paper: "curves almost exactly match".into(),
                measured: format!("worst KS distance {ks_worst:.3}"),
                ok: ks_worst < 0.1,
            });
        }
    }

    println!("running Fig 3 …");
    match timings.time_caught("fig03", || fig03(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig03")),
        Some(f3) => {
            note_artifact("fig03", write_json("fig03", &f3));
            let mid_err = f3
                .iter()
                .filter(|r| {
                    (20..=80).contains(&r.level_pct) && r.model_run_mean > 0.0 && r.windows > 50
                })
                .map(|r| (r.run_mean - r.model_run_mean).abs() / r.model_run_mean)
                .fold(0.0f64, f64::max);
            checks.push(Check {
                name: "Fig 3: burst moments re-derived per bucket",
                paper: "monotone run-burst growth to ~0.28 s".into(),
                measured: format!("worst mid-bucket run-mean error {:.0}%", mid_err * 100.0),
                ok: mid_err < 0.5,
            });
        }
    }

    println!("running Fig 4 …");
    match timings.time_caught("fig04", || fig04(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig04")),
        Some(f4) => {
            note_artifact("fig04", write_json("fig04", &f4));
            checks.push(Check {
                name: "Fig 4 / Sec 3.2: idleness + memory anchors",
                paper: "46% non-idle; 76% low-cpu; >=14MB @P90".into(),
                measured: format!(
                    "{:.0}% non-idle; {:.0}% low-cpu; {:.1}MB @P90",
                    f4.non_idle_fraction * 100.0,
                    f4.non_idle_low_cpu_fraction * 100.0,
                    f4.p90_free_kb / 1024.0
                ),
                ok: (f4.non_idle_fraction - 0.46).abs() < 0.10
                    && (f4.non_idle_low_cpu_fraction - 0.76).abs() < 0.10
                    && f4.p90_free_kb >= 12_000.0,
            });
        }
    }

    println!("running Fig 5 …");
    match timings.time_caught("fig05", || fig05(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig05")),
        Some(f5) => {
            note_artifact("fig05", write_json("fig05", &f5));
            let peak_100 = f5[..9].iter().map(|r| r.ldr).fold(0.0f64, f64::max);
            let peak_500 = f5[18..].iter().map(|r| r.ldr).fold(0.0f64, f64::max);
            let min_fcsr = f5.iter().map(|r| r.fcsr).fold(1.0f64, f64::min);
            checks.push(Check {
                name: "Fig 5: LDR ~1% @100us, ~8% @500us; FCSR >90%",
                paper: "1% / 8% / >90%".into(),
                measured: format!(
                    "{:.1}% / {:.1}% / {:.0}%",
                    peak_100 * 100.0,
                    peak_500 * 100.0,
                    min_fcsr * 100.0
                ),
                ok: peak_100 < 0.02 && (0.03..0.10).contains(&peak_500) && min_fcsr > 0.90,
            });
        }
    }

    println!("running Fig 6 …");
    match timings.time_caught("fig06", || fig06(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig06")),
        Some(f6) => {
            note_artifact("fig06", write_json("fig06", &f6));
            checks.push(Check {
                name: "Fig 6: two-level pipeline coherence",
                paper: "fine-grain stream realizes coarse trace".into(),
                measured: format!("corr {:.2}, MAE {:.3}", f6.correlation, f6.mean_abs_error),
                ok: f6.correlation > 0.8 && f6.mean_abs_error < 0.08,
            });
        }
    }

    println!("running Figs 7+8 (cluster; this is the long one) …");
    let cache_before_f7 = TraceLibrary::global().stats();
    match timings.time_caught("fig07", || fig07(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig07")),
        Some(f7) => {
            note_artifact("fig07", write_json("fig07", &f7));
            let (ll, lf, ie, pm) =
                (&f7.workload1[0], &f7.workload1[1], &f7.workload1[2], &f7.workload1[3]);
            checks.push(Check {
                name: "Fig 7 w1: LL/LF cut avg completion vs IE/PM",
                paper: "1044/1026 vs 1531/1531 s (-32%)".into(),
                measured: format!(
                    "{:.0}/{:.0} vs {:.0}/{:.0} s",
                    ll.avg_completion_secs,
                    lf.avg_completion_secs,
                    ie.avg_completion_secs,
                    pm.avg_completion_secs
                ),
                ok: ll.avg_completion_secs < 0.8 * ie.avg_completion_secs,
            });
            checks.push(Check {
                name: "Fig 7 w1: throughput gain (headline '60%')",
                paper: "LL 52.2 / LF 55.5 vs IE,PM 34.6 (+51-60%)".into(),
                measured: format!(
                    "LL {:.1} / LF {:.1} vs IE {:.1}, PM {:.1} (+{:.0}%)",
                    ll.throughput,
                    lf.throughput,
                    ie.throughput,
                    pm.throughput,
                    (lf.throughput / pm.throughput - 1.0) * 100.0
                ),
                ok: lf.throughput > 1.4 * pm.throughput,
            });
            checks.push(Check {
                name: "Fig 7: foreground slowdown (headline '0.5%')",
                paper: "<0.5%".into(),
                measured: format!("{:.2}%", ll.foreground_delay * 100.0),
                ok: ll.foreground_delay < 0.006,
            });
            let w2 = &f7.workload2;
            let spread = {
                let avgs: Vec<f64> = w2.iter().map(|m| m.avg_completion_secs).collect();
                let lo = avgs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = avgs.iter().cloned().fold(0.0f64, f64::max);
                (hi - lo) / lo
            };
            checks.push(Check {
                name: "Fig 7 w2: light load — policies nearly identical",
                paper: "1859-1862 s (all within 0.2%)".into(),
                measured: format!("spread {:.1}%", spread * 100.0),
                ok: spread < 0.10,
            });
            checks.push(Check {
                name: "Fig 8: queue time drives the w1 gap",
                paper: "linger policies cut queue time".into(),
                measured: format!(
                    "queued: LL {:.0}s vs IE {:.0}s",
                    ll.avg_breakdown.queued, ie.avg_breakdown.queued
                ),
                ok: ie.avg_breakdown.queued > 1.5 * ll.avg_breakdown.queued,
            });
        }
    }
    let cache_after_f7 = TraceLibrary::global().stats();

    println!("running Fig 9 …");
    match timings.time_caught("fig09", || fig09(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig09")),
        Some(f9) => {
            note_artifact("fig09", write_json("fig09", &f9));
            let low_ok = f9[1..=4].iter().all(|p| p.slowdown < 2.0);
            checks.push(Check {
                name: "Fig 9: BSP slowdown vs one node's load",
                paper: "1.1-1.5 below 40%; ~9 at 90%".into(),
                measured: format!(
                    "{:.2} at 20%, {:.2} at 40%, {:.1} at 90%",
                    f9[2].slowdown, f9[4].slowdown, f9[9].slowdown
                ),
                ok: low_ok && f9[9].slowdown > 4.0,
            });
        }
    }

    println!("running Fig 10 …");
    match timings.time_caught("fig10", || fig10(args.seed, args.fast)) {
        None => checks.push(section_panicked("fig10")),
        Some(f10) => {
            note_artifact("fig10", write_json("fig10", &f10));
            let fine = f10
                .iter()
                .find(|p| p.granularity_ms == 10 && p.non_idle == 4)
                .map(|p| p.slowdown);
            let coarse = f10
                .iter()
                .find(|p| p.granularity_ms == 10_000 && p.non_idle == 4)
                .map(|p| p.slowdown);
            match (fine, coarse) {
                (Some(fine), Some(coarse)) => checks.push(Check {
                    name: "Fig 10: coarser sync granularity -> less slowdown",
                    paper: "4 non-idle: ~2+ at 10ms falling under 1.5".into(),
                    measured: format!("{fine:.2} at 10ms vs {coarse:.2} at 10s"),
                    ok: fine > coarse && coarse < 1.8,
                }),
                _ => checks.push(Check {
                    name: "Fig 10: coarser sync granularity -> less slowdown",
                    paper: "4 non-idle: ~2+ at 10ms falling under 1.5".into(),
                    measured: "expected grid points missing".into(),
                    ok: false,
                }),
            }
        }
    }

    println!("running Fig 11 …");
    match timings.time_caught("fig11", || fig11(args.seed)) {
        None => checks.push(section_panicked("fig11")),
        Some(f11) => {
            note_artifact("fig11", write_json("fig11", &f11));
            let ll16_beats = [20usize, 14, 10].iter().all(|&i| {
                let ll = f11.iter().find(|p| p.idle == i && p.strategy == "16 nodes");
                let rc = f11.iter().find(|p| p.idle == i && p.strategy == "reconfig");
                match (ll, rc) {
                    (Some(ll), Some(rc)) => ll.completion_secs <= rc.completion_secs * 1.05,
                    _ => false,
                }
            });
            checks.push(Check {
                name: "Fig 11: LL-8/LL-16 beat reconfiguration",
                paper: "LL outperforms reconfig at 8 or 16 nodes".into(),
                measured: format!("LL-16 <= reconfig at 20/14/10 idle: {ll16_beats}"),
                ok: ll16_beats,
            });
        }
    }

    println!("running Fig 12 …");
    match timings.time_caught("fig12", || fig12(args.seed)) {
        None => checks.push(section_panicked("fig12")),
        Some(f12) => {
            note_artifact("fig12", write_json("fig12", &f12));
            let pick = |app: &str, k: usize, u: f64| {
                f12.iter()
                    .find(|p| p.app == app && p.non_idle == k && (p.local_util - u).abs() < 1e-9)
                    .map(|p| p.slowdown)
                    .unwrap_or(f64::NAN)
            };
            let ordered = pick("sor", 8, 0.4) > pick("water", 8, 0.4)
                && pick("water", 8, 0.4) > pick("fft", 8, 0.4);
            checks.push(Check {
                name: "Fig 12: app sensitivity ordering sor > water > fft",
                paper: "sor most sensitive; fft least".into(),
                measured: format!(
                    "@8x40%: sor {:.2}, water {:.2}, fft {:.2}",
                    pick("sor", 8, 0.4),
                    pick("water", 8, 0.4),
                    pick("fft", 8, 0.4)
                ),
                ok: ordered,
            });
            checks.push(Check {
                name: "Fig 12: all-8-non-idle @20% roughly doubles",
                paper: "just above a factor of 2".into(),
                measured: format!("sor {:.2}", pick("sor", 8, 0.2)),
                ok: (1.3..2.8).contains(&pick("sor", 8, 0.2)),
            });
        }
    }

    println!("running Fig 13 …");
    match timings.time_caught("fig13", || fig13(args.seed)) {
        None => checks.push(section_panicked("fig13")),
        Some(f13) => {
            note_artifact("fig13", write_json("fig13", &f13));
            let ll16_wins = ["sor", "water", "fft"].iter().all(|&app| {
                [15usize, 13, 12].iter().all(|&i| {
                    let ll = f13.iter().find(|p| {
                        p.app == app && p.idle == i && p.strategy == "16 node linger"
                    });
                    let rc = f13.iter().find(|p| {
                        p.app == app && p.idle == i && p.strategy == "reconfiguration"
                    });
                    match (ll, rc) {
                        (Some(ll), Some(rc)) => ll.slowdown < rc.slowdown,
                        _ => false,
                    }
                })
            });
            checks.push(Check {
                name: "Fig 13: LL-16 beats reconfiguration at >=12 idle",
                paper: "LL-16 wins when idle >= 12".into(),
                measured: format!("holds for all apps: {ll16_wins}"),
                ok: ll16_wins,
            });
        }
    }

    println!("running extensions (hybrid, throughput, predictor) …");
    match timings.time_caught("ext_hybrid", || ext_hybrid(args.seed)) {
        None => checks.push(section_panicked("ext_hybrid")),
        Some(eh) => {
            note_artifact("ext_hybrid", write_json("ext_hybrid", &eh));
            let worst_regret =
                eh.iter().map(|p| p.hybrid_secs / p.oracle_secs).fold(0.0f64, f64::max);
            checks.push(Check {
                name: "Ext: hybrid width predictor vs oracle",
                paper: "Sec 5.2: 'a hybrid strategy … may be the best approach'".into(),
                measured: format!("worst regret {:.1}%", (worst_regret - 1.0) * 100.0),
                ok: worst_regret < 1.25,
            });
        }
    }
    match timings.time_caught("ext_throughput", || ext_parallel_throughput(args.seed, args.fast))
    {
        None => checks.push(section_panicked("ext_throughput")),
        Some(et) => {
            note_artifact("ext_throughput", write_json("ext_throughput", &et));
            let heavy = &et[0];
            checks.push(Check {
                name: "Ext: parallel cluster throughput under saturation",
                paper: "conclusion: lingering should offset per-job slowdown".into(),
                measured: format!(
                    "linger {:.1} vs rigid {:.1} jobs/h at heaviest load",
                    heavy.linger.jobs_per_hour, heavy.rigid.jobs_per_hour
                ),
                ok: heavy.linger.jobs_per_hour > 1.2 * heavy.rigid.jobs_per_hour,
            });
        }
    }

    // Fast mode stops the sweep at 65,536; full mode runs the streamed
    // 262,144- and 1,048,576-node cells too.
    let scaling_counts: Vec<usize> = if args.fast {
        SCALING_NODE_COUNTS.iter().copied().filter(|&n| n <= 65_536).collect()
    } else {
        SCALING_NODE_COUNTS.to_vec()
    };
    let scaling_hi = *scaling_counts.last().unwrap();
    println!("running extension scaling sweep (64-{scaling_hi} nodes) …");
    match timings
        .time_caught("ext_scaling", || ext_scaling_at(args.seed, &scaling_counts, args.fast))
    {
        None => checks.push(section_panicked("ext_scaling")),
        Some((es, es_t)) => {
            note_artifact("ext_scaling", write_json("ext_scaling", &es));
            let lo_nodes = scaling_counts[0];
            let hi_nodes = scaling_hi;
            // Per-policy flatness at the largest count. The bound is an
            // absolute ceiling (same reference-machine convention as
            // `scaling_baselines`) rather than a ratio to the 64-node
            // cell: a 64-node replicate runs ~10 ms and its cost swings
            // tens of percent run-to-run, which makes any ratio against
            // it flaky, while a reintroduced per-window O(nodes) or
            // O(jobs) scan lands microseconds over the cap either way.
            // Slot recycling pins the hot job lanes at O(active jobs)
            // (2·nodes rows — ~2M at the top count, not the ~13M an
            // append-only slab reaches after respawns), and the re-
            // measured post-recycling band tightens the full ceiling
            // 400 → 320: worst policy at 1,048,576 nodes is LL at
            // 247.5 ns/node-window (seed 1998, reference machine)
            // + ~30% margin. The remaining gap over the 64-node cells
            // is the *active* set: 2M live jobs dwarf L2, so busy-node
            // visits miss where the 64-node denominator runs from L1.
            let flat_cap_ns = if args.fast { 250.0 } else { 320.0 };
            let per_policy: Vec<(String, f64, f64)> = ["LL", "LF", "IE", "PM"]
                .iter()
                .filter_map(|&p| {
                    let at = |n: usize| {
                        es_t.iter()
                            .find(|t| t.nodes == n && t.policy == p)
                            .map(|t| t.ns_per_node_window)
                    };
                    Some((p.to_string(), at(lo_nodes)?, at(hi_nodes)?))
                })
                .collect();
            let worst_ns =
                per_policy.iter().map(|&(_, _, hi)| hi).fold(0.0f64, f64::max);
            checks.push(Check {
                name: "Ext: per-policy window-loop cost flat at scale",
                paper: format!(
                    "SoA + sharded sweep + streamed windows: <= {flat_cap_ns:.0} \
                     ns/node-window at {hi_nodes} nodes"
                ),
                measured: per_policy
                    .iter()
                    .map(|(p, lo, hi)| format!("{p} {lo:.0}->{hi:.0}ns ({:.2}x)", hi / lo.max(1e-12)))
                    .collect::<Vec<_>>()
                    .join(", "),
                ok: !per_policy.is_empty() && worst_ns <= flat_cap_ns,
            });
            // Setup (trace synthesis + construction) must stay near
            // linear in cluster size. In full mode the step crosses the
            // streaming threshold (65,536 -> 1,048,576), where setup is
            // stream construction instead of a monolithic table, so the
            // bound tightens to the acceptance exponent 1.15.
            let mean_setup = |n: usize| {
                let cells: Vec<f64> =
                    es_t.iter().filter(|t| t.nodes == n).map(|t| t.setup_secs).collect();
                cells.iter().sum::<f64>() / cells.len().max(1) as f64
            };
            let mean_run = |n: usize| {
                let cells: Vec<f64> =
                    es_t.iter().filter(|t| t.nodes == n).map(|t| t.run_secs).collect();
                cells.iter().sum::<f64>() / cells.len().max(1) as f64
            };
            let (mid_nodes, exp_limit) = if hi_nodes > 65_536 {
                (65_536, 1.15)
            } else {
                (scaling_counts[scaling_counts.len() - 2], 2.0)
            };
            let (setup_mid, setup_hi) = (mean_setup(mid_nodes), mean_setup(hi_nodes));
            let exponent = (setup_hi / setup_mid.max(1e-12)).ln()
                / (hi_nodes as f64 / mid_nodes as f64).ln();
            checks.push(Check {
                name: "Ext: setup vs run split; setup scales near-linearly",
                paper: format!(
                    "setup growth exponent <= {exp_limit} over {mid_nodes}->{hi_nodes}"
                ),
                measured: format!(
                    "at {hi_nodes}: setup {setup_hi:.2}s / run {:.2}s; \
                     setup exponent {exponent:.2} over {mid_nodes}->{hi_nodes}",
                    mean_run(hi_nodes)
                ),
                ok: setup_hi > 0.0 && exponent <= exp_limit,
            });
            if hi_nodes >= 1_048_576 {
                // The million-node row must actually finish for all four
                // policies within a bounded footprint — the point of the
                // chunked window pipeline (a monolithic table alone
                // would need ~21 GiB).
                let million: Vec<_> = es.iter().filter(|p| p.nodes == 1_048_576).collect();
                let all_ran =
                    million.len() == 4 && million.iter().all(|p| p.completed > 0);
                let rss_gib = peak_rss_kb().map(|kb| kb as f64 / (1024.0 * 1024.0));
                let rss_ok = rss_gib.is_none_or(|g| g <= 12.0);
                checks.push(Check {
                    name: "Ext: million-node row completes within memory budget",
                    paper: "streamed windows: 1,048,576 nodes in <= 12 GiB peak RSS"
                        .into(),
                    measured: format!(
                        "{} policies completed; peak RSS {}",
                        million.len(),
                        rss_gib
                            .map(|g| format!("{g:.1} GiB"))
                            .unwrap_or_else(|| "unavailable".into())
                    ),
                    ok: all_ran && rss_ok,
                });
            }
            timings.scaling = es_t;
        }
    }

    println!("running extension fault-injection sweep …");
    match timings.time_caught("ext_faults", || ext_faults(args.seed, args.fast)) {
        None => checks.push(section_panicked("ext_faults")),
        Some(ef) => {
            note_artifact("ext_faults", write_json("ext_faults", &ef));
            let quiet_ok = ef
                .iter()
                .filter(|p| p.crash_rate_per_hour == 0.0 && p.migration_failure_prob == 0.0)
                .all(|p| {
                    p.crashes == 0 && p.migration_failures == 0 && p.migrations_abandoned == 0
                });
            let (heaviest, _) = FAULT_RATES[FAULT_RATES.len() - 1];
            let heavy: Vec<_> =
                ef.iter().filter(|p| p.crash_rate_per_hour == heaviest).collect();
            let heavy_fires =
                !heavy.is_empty() && heavy.iter().all(|p| p.crashes > 0 && p.completed > 0);
            let ll0 = ef
                .iter()
                .find(|p| p.policy == "LL" && p.crash_rate_per_hour == 0.0)
                .map(|p| p.foreign_cpu_secs)
                .unwrap_or(0.0);
            let ll_heavy = ef
                .iter()
                .find(|p| p.policy == "LL" && p.crash_rate_per_hour == heaviest)
                .map(|p| p.foreign_cpu_secs)
                .unwrap_or(f64::INFINITY);
            checks.push(Check {
                name: "Ext: fault injection — crashes fire, jobs still flow",
                paper: "extension: graceful degradation under crash/reboot".into(),
                measured: format!(
                    "quiet grid clean: {quiet_ok}; LL foreign CPU {ll0:.0}s fault-free \
                     vs {ll_heavy:.0}s at {heaviest} crashes/node-hour",
                ),
                ok: quiet_ok && heavy_fires && ll_heavy <= ll0,
            });
        }
    }

    println!("running extension open-arrivals service sweep …");
    match timings.time_caught("ext_service", || ext_service(args.seed, args.fast, args.ci_level))
    {
        None => checks.push(section_panicked("ext_service")),
        Some(es) => {
            note_artifact("ext_service", write_json("ext_service", &es));
            let svc_nodes = if args.fast { 16 } else { 64 };
            let horizon_windows = if args.fast { 3600 } else { 86_400 };
            let bounded = |p: &ServicePoint| p.admission != "open";
            // Undersaturated bounded cells must serve everything.
            let light_ok = es
                .iter()
                .filter(|p| p.offered_load < 1.0 && bounded(p))
                .all(|p| p.shed == 0 && p.deadline_dropped == 0 && p.deficit == 0);
            // Every oversaturated cell must finish the full horizon, and
            // the bounded ones must pin the queue at its capacity with
            // loss accounting exact to the last job and the hot job
            // lanes held at O(capacity + cluster), not O(arrivals).
            let heaviest = SERVICE_LOADS[SERVICE_LOADS.len() - 1];
            let heavy: Vec<_> = es.iter().filter(|p| p.offered_load == heaviest).collect();
            let heavy_runs = heavy.len() == 4
                && heavy.iter().all(|p| p.windows == horizon_windows && p.completed > 0);
            let heavy_bounded_ok = heavy.iter().filter(|p| bounded(p)).all(|p| {
                p.saturated_windows > 0
                    && p.peak_queue_depth <= p.queue_capacity
                    && p.peak_live_rows <= p.queue_capacity + 2 * svc_nodes
                    && p.generated == p.admitted + p.shed + p.deficit
            });
            let heavy_shed = heavy
                .iter()
                .find(|p| p.admission == "shed")
                .is_some_and(|p| p.shed > 0 && p.generated == p.admitted + p.shed);
            checks.push(Check {
                name: "Ext: open service — admission control degrades gracefully",
                paper: "saturated cells finish with bounded queue + exact loss counts"
                    .into(),
                measured: format!(
                    "light cells clean: {light_ok}; load {heaviest} cells full-horizon: \
                     {heavy_runs}; bounded depth/rows/accounting: {heavy_bounded_ok}; \
                     shed fires: {heavy_shed}",
                ),
                ok: light_ok && heavy_runs && heavy_bounded_ok && heavy_shed,
            });
        }
    }

    println!("running extension work-stealing sweep …");
    match timings.time_caught("ext_stealing", || ext_stealing(args.seed, args.fast, args.ci_level))
    {
        None => checks.push(section_panicked("ext_stealing")),
        Some(es) => {
            note_artifact("ext_stealing", write_json("ext_stealing", &es));
            let lo_nodes = es.iter().map(|p| p.nodes).min().unwrap_or(0);
            let hi_nodes = es.iter().map(|p| p.nodes).max().unwrap_or(0);
            let cell = |sched: &str, nodes: usize, dist: &str| {
                es.iter().find(|p| {
                    p.scheduler == sched
                        && p.nodes == nodes
                        && p.size_dist == dist
                        && p.crash_rate_per_hour == 0.0
                })
            };
            // Crossover cell 1: past the coordinator's saturation point
            // (arrival rate > WINDOW / central rtt), randomized stealing
            // must beat central dispatch on mean response under
            // heavy-tailed sizes.
            match (cell("steal_low", hi_nodes, "pareto"), cell("central", hi_nodes, "pareto")) {
                (Some(sl), Some(c)) => checks.push(Check {
                    name: "Ext: stealing beats the saturated coordinator (Pareto, at scale)",
                    paper: "deques dodge the serialized-dispatcher bottleneck".into(),
                    measured: format!(
                        "{hi_nodes} nodes: steal_low {:.0}s vs central {:.0}s mean latency \
                         (central shed {})",
                        sl.mean_latency_secs, c.mean_latency_secs, c.shed
                    ),
                    ok: sl.mean_latency_secs < c.mean_latency_secs && c.shed > 0,
                }),
                _ => checks.push(Check {
                    name: "Ext: stealing beats the saturated coordinator (Pareto, at scale)",
                    paper: "deques dodge the serialized-dispatcher bottleneck".into(),
                    measured: "expected grid cells missing".into(),
                    ok: false,
                }),
            }
            // Crossover cell 2: on a small cluster the coordinator is
            // nowhere near saturation and a punitive steal round trip is
            // pure overhead — central dispatch must win.
            match (cell("central", lo_nodes, "exp"), cell("steal_high", lo_nodes, "exp")) {
                (Some(c), Some(sh)) => checks.push(Check {
                    name: "Ext: central wins when steal latency is punitive (small cluster)",
                    paper: "steal round trips are a first-class cost".into(),
                    measured: format!(
                        "{lo_nodes} nodes: central {:.0}s vs steal_high {:.0}s mean latency",
                        c.mean_latency_secs, sh.mean_latency_secs
                    ),
                    ok: c.mean_latency_secs < sh.mean_latency_secs,
                }),
                _ => checks.push(Check {
                    name: "Ext: central wins when steal latency is punitive (small cluster)",
                    paper: "steal round trips are a first-class cost".into(),
                    measured: "expected grid cells missing".into(),
                    ok: false,
                }),
            }
            // Every cell's ledgers must balance exactly, quiet cells must
            // stay fault-free, and the deques must actually move work.
            let ledger_ok = es.iter().all(|p| {
                p.probes == p.hits + p.misses
                    && (p.crash_rate_per_hour > 0.0 || p.crashes == 0)
                    && p.completed > 0
            });
            let hits: u64 = es.iter().map(|p| p.hits).sum();
            let pops: u64 = es.iter().map(|p| p.local_pops).sum();
            checks.push(Check {
                name: "Ext: steal ledger exact; deques move work",
                paper: "probes == hits + misses; pops and steals both fire".into(),
                measured: format!(
                    "ledgers balance: {ledger_ok}; {hits} hits, {pops} owner pops"
                ),
                ok: ledger_ok && hits > 0 && pops > 0,
            });
            // Note the benches/stealing.rs comparison in the wall-clock
            // ledger: steal-path cost vs central dispatch, per machine.
            timings.steal_path = steal_path_timings(args.seed, &[1024, 16_384]);
            for p in &timings.steal_path {
                println!(
                    "  steal path {}n {}: {:.0} ns/node-window",
                    p.nodes, p.scheduler, p.ns_per_node_window
                );
            }
        }
    }

    // Workload-realization cache: the fig07 policy sweeps must reuse one
    // synthesis across their 4 policies × 2 workloads (the tentpole claim
    // of the realization cache — 1 miss + 7 hits when warm from scratch).
    let f7_hits = cache_after_f7.hits - cache_before_f7.hits;
    let f7_misses = cache_after_f7.misses - cache_before_f7.misses;
    let f7_lookups = (f7_hits + f7_misses).max(1);
    let f7_hit_rate = f7_hits as f64 / f7_lookups as f64;
    checks.push(Check {
        name: "Perf: realization cache hit rate on the fig07 policy sweeps",
        paper: ">=75% hits (CRN: policies share one realization)".into(),
        measured: format!(
            "{f7_hits} hits / {f7_misses} misses ({:.0}%)",
            f7_hit_rate * 100.0
        ),
        ok: f7_hit_rate >= 0.75 || cache_after_f7.bypasses > cache_before_f7.bypasses,
    });

    println!("running telemetry overhead A/B …");
    match timings.time_caught("telemetry_ab", || {
        use linger::{JobFamily, Policy};
        use linger_cluster::{ClusterConfig, ClusterSim};
        use linger_sim_core::SimDuration;
        use linger_telemetry::Recorder;
        let mk = || {
            let mut cfg = ClusterConfig::paper(
                Policy::LingerLonger,
                JobFamily::uniform(32, SimDuration::from_secs(300), 8 * 1024),
            );
            cfg.nodes = 16;
            cfg.seed = args.seed;
            cfg
        };
        let run = |recorder: Recorder| {
            let t = std::time::Instant::now();
            let mut sim = ClusterSim::new(mk()).with_recorder(recorder);
            sim.run();
            t.elapsed().as_secs_f64()
        };
        let disabled_secs = run(Recorder::disabled());
        let journaling_secs = run(Recorder::with_capacity(linger_telemetry::DEFAULT_CAPACITY));
        TelemetryOverhead {
            disabled_secs,
            journaling_secs,
            ratio: if disabled_secs > 0.0 { journaling_secs / disabled_secs } else { 0.0 },
        }
    }) {
        None => checks.push(section_panicked("telemetry_ab")),
        Some(ab) => {
            // Machine-dependent; the CI gate is the byte-identical figure
            // diff, this check just surfaces gross regressions.
            checks.push(Check {
                name: "Perf: telemetry journaling cost on a fig07-scale cell",
                paper: "journaling within 2x of the disabled path".into(),
                measured: format!(
                    "disabled {:.4}s vs journaling {:.4}s ({:.2}x)",
                    ab.disabled_secs, ab.journaling_secs, ab.ratio
                ),
                ok: ab.journaling_secs <= 2.0 * ab.disabled_secs + 0.01,
            });
            timings.telemetry_overhead = Some(ab);
        }
    }
    // fig07 wall-clock against the pre-telemetry reference measurement
    // (seed 1998, --jobs default, telemetry disabled): the disabled path
    // must stay within 3% plus a small absolute noise guard. Machine-
    // dependent — informational, like the baselines above.
    let fig07_pre_telemetry = if args.fast { 0.0199 } else { 0.0902 };
    if let Some(f7_secs) = timings.sections.iter().find(|s| s.name == "fig07").map(|s| s.secs) {
        checks.push(Check {
            name: "Perf: telemetry disabled-path fig07 wall-clock",
            paper: "<= pre-telemetry baseline x 1.03 (+50ms noise guard)".into(),
            measured: format!("{f7_secs:.4}s vs {fig07_pre_telemetry:.4}s reference"),
            ok: f7_secs <= fig07_pre_telemetry * 1.03 + 0.05,
        });
    }

    match timings.time_caught("ext_predictor", || {
        linger::predictor::predictor_study(args.seed, if args.fast { 2_000 } else { 30_000 })
    }) {
        None => checks.push(section_panicked("ext_predictor")),
        Some(ep) => {
            note_artifact("ext_predictor", write_json("ext_predictor", &ep));
            let pareto_best = ep
                .iter()
                .filter(|r| r.episodes.starts_with("pareto"))
                .min_by(|a, b| a.mean_regret.partial_cmp(&b.mean_regret).unwrap());
            checks.push(Check {
                name: "Ext: median-remaining-life optimal on Pareto episodes",
                paper: "heuristic after Harchol-Balter & Downey".into(),
                measured: format!(
                    "best Pareto rule: {}",
                    pareto_best.map(|r| r.rule.as_str()).unwrap_or("<none>")
                ),
                ok: pareto_best.is_some_and(|r| r.rule == "median-remaining-life"),
            });
        }
    }

    // Pre-cache wall-clock of fig07, the section the realization cache
    // targets, recorded on the reference machine immediately before the
    // change (seed 1998, --jobs default). Machine-dependent —
    // informational. `ext_scaling` has no row: its sweep has grown since
    // any section-level recording, so `scaling_baselines` compares it
    // cell by cell instead.
    let fig07_before = if args.fast { 0.1304 } else { 0.5604 };
    // `ext_stealing` fast-mode wall-clock before the per-window
    // destination index, timed back to back with the after-run on the
    // same 2-core machine over the same 36 cells (seed 1998, --jobs
    // default). No full-mode recording exists, so full mode has no row.
    let stealing_before = args.fast.then_some(295.54);
    timings.baselines = [
        SectionBaseline::compare("fig07", &timings.sections, fig07_before),
        stealing_before
            .and_then(|b| SectionBaseline::compare("ext_stealing", &timings.sections, b)),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Per-cell window-loop costs (ns per node-window) measured on the
    // reference machine immediately after the job-slot-recycling change
    // (seed 1998, --jobs default, timing_reps as recorded: 1 at
    // >=262,144, >=3 elsewhere). Machine-dependent — informational,
    // except that the scorecard guard below requires every cell to be
    // no slower than this recording. Re-record whenever a PR moves the
    // window loop: the guard compares against the *current* lever, not
    // a historical one.
    let scaling_before_ns: &[(usize, &str, f64)] = if args.fast {
        &[
            (64, "LL", 57.7), (64, "LF", 53.7), (64, "IE", 29.2), (64, "PM", 30.9),
            (1024, "LL", 81.1), (1024, "LF", 81.2), (1024, "IE", 44.2), (1024, "PM", 46.3),
            (4096, "LL", 73.5), (4096, "LF", 69.4), (4096, "IE", 34.6), (4096, "PM", 35.2),
            (16_384, "LL", 93.5), (16_384, "LF", 77.6), (16_384, "IE", 43.5),
            (16_384, "PM", 48.5),
            (65_536, "LL", 97.5), (65_536, "LF", 85.3), (65_536, "IE", 60.3),
            (65_536, "PM", 58.2),
        ]
    } else {
        &[
            (64, "LL", 132.1), (64, "LF", 71.8), (64, "IE", 32.2), (64, "PM", 35.6),
            (1024, "LL", 70.8), (1024, "LF", 70.6), (1024, "IE", 30.2), (1024, "PM", 30.6),
            (4096, "LL", 88.0), (4096, "LF", 67.8), (4096, "IE", 37.6), (4096, "PM", 30.4),
            (16_384, "LL", 123.6), (16_384, "LF", 110.5), (16_384, "IE", 52.6),
            (16_384, "PM", 53.0),
            (65_536, "LL", 96.6), (65_536, "LF", 89.1), (65_536, "IE", 50.8),
            (65_536, "PM", 60.6),
            (262_144, "LL", 160.6), (262_144, "LF", 108.7), (262_144, "IE", 62.4),
            (262_144, "PM", 67.6),
            (1_048_576, "LL", 247.5), (1_048_576, "LF", 153.0), (1_048_576, "IE", 125.7),
            (1_048_576, "PM", 131.3),
        ]
    };
    timings.scaling_baselines = ScalingBaseline::compare(&timings.scaling, scaling_before_ns);
    // Regression guard: no scaling cell may run slower than its recorded
    // baseline (PR 6 shipped a 0.83x LF/4096 regression that only the
    // ledger noticed — this check makes the scorecard notice). 64-node
    // cells run in about a millisecond and their per-run cost is timer
    // and cache noise, so the guard covers the cells big enough to time
    // reliably; the small cells stay in the ledger informationally.
    // The guard only runs in full mode: full-mode cells run for seconds
    // and average over host jitter, so 0.9 still trips on real
    // regressions like PR 6's 0.83x. Fast-mode mid-size cells finish in
    // 10-50 ms and this shared host swings them up to ~1.8x between
    // back-to-back idle runs (0.55x observed against a minutes-old
    // recording) — no floor separates noise from regression at that
    // variance, so fast mode keeps the per-cell ledger informational
    // and relies on the absolute flat-ceiling check above for gross
    // regressions.
    let floor = 0.9;
    let guarded: Vec<&ScalingBaseline> =
        timings.scaling_baselines.iter().filter(|b| b.nodes >= 1024).collect();
    if !args.fast && !guarded.is_empty() {
        let worst = guarded
            .iter()
            .min_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("finite speedups"))
            .expect("non-empty");
        checks.push(Check {
            name: "Ext: no per-cell scaling regression vs recorded baseline",
            paper: format!(
                "every >=1024-node cell's speedup vs post-recycling recording >= {floor}"
            ),
            measured: format!(
                "worst cell {}/{}: {:.2}x ({:.1} -> {:.1} ns/node-window)",
                worst.nodes, worst.policy, worst.speedup, worst.before_ns, worst.after_ns
            ),
            ok: guarded.iter().all(|b| b.speedup >= floor),
        });
    }

    println!("\n================= paper-vs-measured scorecard =================");
    let mut pass = 0;
    for c in &checks {
        println!(
            "[{}] {}\n      paper:    {}\n      measured: {}",
            if c.ok { "PASS" } else { "WARN" },
            c.name,
            c.paper,
            c.measured
        );
        if c.ok {
            pass += 1;
        }
    }
    println!(
        "\n{pass}/{} checks within band; total time {:?}; seed {}{}",
        checks.len(),
        t0.elapsed(),
        args.seed,
        if args.fast { " (fast mode)" } else { "" }
    );
    if !timings.failed_sections.is_empty() {
        let names: Vec<&str> =
            timings.failed_sections.iter().map(|f| f.name.as_str()).collect();
        eprintln!("[warn: {} section(s) panicked: {}]", names.len(), names.join(", "));
    }
    timings.trace_cache = Some(TraceLibrary::global().stats());
    if linger_telemetry::Recorder::from_env().enabled() {
        timings.telemetry = Some(linger_telemetry::metrics::global().summary());
    }
    timings.peak_rss_kb = peak_rss_kb();
    if let Some((user, sys)) = cpu_secs() {
        (timings.user_secs, timings.sys_secs) = (Some(user), Some(sys));
        println!("[cpu time: user {user:.2} s, sys {sys:.2} s]");
    }
    match timings.write("BENCH_runall.json") {
        Ok(()) => println!("[wrote BENCH_runall.json]"),
        Err(e) => eprintln!("[warn: could not write BENCH_runall.json: {e}]"),
    }
    if !timings.failed_sections.is_empty() {
        std::process::exit(1);
    }
}
