//! Regenerates Fig. 10: on-chip local-memory usage under the three
//! reuse policies (naive / ADD-reuse / AG-reuse) and the HT-mode
//! global-memory access reduction, per network and mode.
//!
//! The HT evaluation follows the paper's protocol: results transfer to
//! global memory after each AG performs 2 MVM operations (batch = 2).

use pimcomp_arch::PipelineMode;
use pimcomp_bench::{hardware_for, load_network_or_exit, run_or_exit, HarnessOptions};
use pimcomp_core::{CompileOptions, CompileSession, ReusePolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Fig10Row {
    network: String,
    mode: String,
    policy: String,
    avg_local_kb: f64,
    peak_local_kb: f64,
    global_traffic_kb: f64,
    global_accesses: usize,
}

fn main() {
    let opts = HarnessOptions::from_args();
    let ga = opts.ga();
    let mut results: Vec<Fig10Row> = Vec::new();

    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        println!("FIG 10 — Local memory usage, {mode} mode (64 kB budget)");
        println!(
            "{:<14} {:<10} {:>12} {:>12} {:>16}",
            "network", "policy", "avg local", "peak local", "global accesses"
        );
        for net in opts.networks() {
            let graph = load_network_or_exit(net);
            let hw = run_or_exit(hardware_for(&graph, 20), net);
            // Compile once; replan memory per policy (the schedule is
            // policy-independent).
            let compiled =
                CompileSession::new(hw, &graph, CompileOptions::new(mode).with_ga(ga.clone()))
                    .and_then(CompileSession::run)
                    .expect("benchmark compiles");
            let mut base_accesses = 0usize;
            for policy in ReusePolicy::ALL {
                let plan = compiled.replan_memory(policy);
                let row = Fig10Row {
                    network: net.to_string(),
                    mode: mode.to_string(),
                    policy: policy.label().to_string(),
                    avg_local_kb: plan.avg_bytes / 1024.0,
                    peak_local_kb: plan.peak_bytes as f64 / 1024.0,
                    global_traffic_kb: plan.global_traffic as f64 / 1024.0,
                    global_accesses: plan.global_accesses,
                };
                if policy == ReusePolicy::Naive {
                    base_accesses = row.global_accesses;
                }
                let access_note = if base_accesses > 0 {
                    format!(
                        "{:>9} ({:.2}x)",
                        row.global_accesses,
                        row.global_accesses as f64 / base_accesses as f64
                    )
                } else {
                    format!("{:>9}", row.global_accesses)
                };
                println!(
                    "{:<14} {:<10} {:>10.1}kB {:>10.1}kB {:>16}",
                    row.network, row.policy, row.avg_local_kb, row.peak_local_kb, access_note
                );
                results.push(row);
            }
        }
        println!();
    }

    // Headline claims.
    let ht_reduction: Vec<f64> = results
        .chunks(3)
        .filter(|c| c.len() == 3 && c[0].mode == "HT" && c[0].global_accesses > 0)
        .map(|c| 1.0 - c[2].global_accesses as f64 / c[0].global_accesses as f64)
        .collect();
    if !ht_reduction.is_empty() {
        let mean = ht_reduction.iter().sum::<f64>() / ht_reduction.len() as f64;
        println!(
            "mean HT global-access reduction with AG-reuse: {:.1}% (paper: 47.8%)",
            mean * 100.0
        );
    }
    let ll_within: usize = results
        .iter()
        .filter(|r| r.mode == "LL" && r.policy == "AG-reuse" && r.avg_local_kb <= 64.0)
        .count();
    let ll_total: usize = results
        .iter()
        .filter(|r| r.mode == "LL" && r.policy == "AG-reuse")
        .count();
    println!("LL networks with AG-reuse average within 64 kB: {ll_within}/{ll_total}");

    opts.write_json(&results);
}
