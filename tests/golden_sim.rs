//! Golden simulation fixtures: the serialized [`SimReport`] of
//! zoo-scale high-throughput compilations, committed under
//! `tests/golden/`.
//!
//! The other golden suites simulate tiny models, where the HT event
//! queue never holds more than a handful of entries. These points are
//! the size the `sim_warm` benchmark runs (HT, batch 2, PUMA sized by
//! the sweep's automatic hardware heuristic, parallelism 20), so any
//! change to the event engine that alters a single cycle, byte or
//! picojoule fails here with a line diff.
//!
//! To bless an intentional change to the simulated machine:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_sim -- --include-ignored
//! ```

use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, CompileSession, CompiledModel, ReusePolicy};
use pimcomp_ir::Graph;
use pimcomp_sim::{SimReport, Simulator};
use std::path::PathBuf;

/// The sweep's automatic sizing headroom (`AutoHardware::DEFAULT_HEADROOM`).
const HEADROOM: f64 = 2.0;

/// PUMA sized for `graph` exactly as a sweep's `{"auto": true, "base":
/// "puma", "parallelism": [20]}` hardware block sizes it.
fn auto_puma(graph: &Graph) -> HardwareConfig {
    let mut hw = HardwareConfig::puma();
    hw.chips = pimcomp_core::sized_chips(graph, &hw, HEADROOM).unwrap();
    hw.parallelism = 20;
    hw
}

fn compile(graph: &Graph, hw: HardwareConfig, opts: CompileOptions) -> CompiledModel {
    CompileSession::new(hw, graph, opts).unwrap().run().unwrap()
}

fn simulate(compiled: &CompiledModel) -> SimReport {
    Simulator::new(compiled.hw.clone()).run(compiled).unwrap()
}

fn ht_options(seed: u64) -> CompileOptions {
    CompileOptions::new(PipelineMode::HighThroughput)
        .with_batch(2)
        .with_fast_ga(seed)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"))
}

fn check(name: &str, report: &SimReport) {
    let actual = serde_json::to_string_pretty(report).expect("report serializes") + "\n";
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden_sim -- --include-ignored`",
            path.display()
        )
    });
    if expected != actual {
        let drift: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(20)
            .map(|(i, (e, a))| format!("  line {:>4}: fixture `{e}` vs actual `{a}`", i + 1))
            .collect();
        panic!(
            "simulation drifted from golden fixture {} ({} vs {} lines):\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            drift.join("\n")
        );
    }
}

fn check_auto_ht(model: &str, graph: &Graph, seed: u64) {
    let compiled = compile(graph, auto_puma(graph), ht_options(seed));
    check(&format!("sim_{model}_ht_seed{seed}"), &simulate(&compiled));
}

#[test]
fn googlenet_ht_simulation_matches_golden() {
    check_auto_ht("googlenet", &pimcomp_ir::models::googlenet(), 7);
}

#[test]
fn squeezenet_ht_simulation_matches_golden() {
    check_auto_ht("squeezenet", &pimcomp_ir::models::squeezenet(), 7);
}

#[test]
#[ignore = "inception_v3 at zoo scale; run with --include-ignored"]
fn inception_v3_ht_simulation_matches_golden() {
    check_auto_ht("inception_v3", &pimcomp_ir::models::inception_v3(), 7);
}

#[test]
fn two_chip_naive_spill_simulation_matches_golden() {
    // Two chips give two global-memory ports; the naive policy on an
    // eighth of the local memory forces spill traffic through them.
    let graph = pimcomp_ir::models::squeezenet();
    let mut hw = auto_puma(&graph);
    hw.chips = 2;
    hw.local_memory_bytes /= 8;
    let compiled = compile(&graph, hw, ht_options(7).with_policy(ReusePolicy::Naive));
    assert!(
        compiled.memory.spill_bytes_per_round.iter().any(|&b| b > 0),
        "the shrunk local memory must force spill traffic"
    );
    check("sim_squeezenet_ht_2chip_naive_seed7", &simulate(&compiled));
}

#[test]
fn googlenet_ll_simulation_matches_golden() {
    let graph = pimcomp_ir::models::googlenet();
    let opts = CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(7);
    let compiled = compile(&graph, auto_puma(&graph), opts);
    check("sim_googlenet_ll_seed7", &simulate(&compiled));
}

#[test]
fn resnet18_multi_epoch_reload_simulation_matches_golden() {
    // One chip cannot hold resnet18, so the reload plan has several
    // epochs and the report comes from the analytic path.
    let graph = pimcomp_ir::models::resnet18();
    let mut hw = auto_puma(&graph);
    hw.chips = 1;
    let compiled = compile(&graph, hw, ht_options(7).with_weight_reload(None));
    let report = simulate(&compiled);
    assert!(report.reload_epochs > 1, "{} epochs", report.reload_epochs);
    assert!(report.reload_stall_cycles > 0);
    check("sim_resnet18_ht_reload_chip1_seed7", &report);
}

#[test]
fn resident_reload_simulation_matches_golden() {
    // The auto-sized target holds squeezenet, so the reload plan has
    // one epoch and the HT event engine runs it.
    let graph = pimcomp_ir::models::squeezenet();
    let compiled = compile(
        &graph,
        auto_puma(&graph),
        ht_options(7).with_weight_reload(None),
    );
    let report = simulate(&compiled);
    assert_eq!(report.reload_epochs, 1);
    check("sim_squeezenet_ht_reload_resident_seed7", &report);
}
