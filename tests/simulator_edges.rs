//! Simulator edge cases: interconnect variants, extreme configurations
//! and energy-model corners that the main-line tests do not reach.

use pimcomp::prelude::*;
use pimcomp_arch::{CoreConnection, PipelineMode};
use pimcomp_core::CompileOptions;
use pimcomp_ir::models;

fn compile_and_run(hw: HardwareConfig, mode: PipelineMode) -> SimReport {
    let graph = models::tiny_cnn();
    let compiled = CompileSession::new(
        hw.clone(),
        &graph,
        CompileOptions::new(mode).with_fast_ga(5),
    )
    .and_then(CompileSession::run)
    .expect("compiles");
    Simulator::new(hw).run(&compiled).expect("simulates")
}

#[test]
fn every_interconnect_variant_simulates() {
    for conn in [
        CoreConnection::Mesh,
        CoreConnection::Bus,
        CoreConnection::GlobalMemoryOnly,
    ] {
        for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
            let mut hw = HardwareConfig::small_test();
            hw.connection = conn;
            let r = compile_and_run(hw, mode);
            assert!(r.total_cycles > 0, "{conn:?} {mode}");
        }
    }
}

#[test]
fn multi_chip_targets_simulate_with_cross_chip_traffic() {
    let mut hw = HardwareConfig::small_test();
    hw.chips = 2;
    hw.cores_per_chip = 8;
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let r = compile_and_run(hw.clone(), mode);
        assert!(r.total_cycles > 0, "{mode}");
    }
}

#[test]
fn batch_choice_preserves_total_work() {
    let graph = models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let mut mvm_ops = Vec::new();
    for batch in [1usize, 2, 4] {
        let opts = CompileOptions::new(PipelineMode::HighThroughput)
            .with_fast_ga(9)
            .with_batch(batch);
        let compiled = CompileSession::new(hw.clone(), &graph, opts)
            .and_then(CompileSession::run)
            .unwrap();
        let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
        mvm_ops.push(r.mvm_ops);
    }
    // Bigger batches may round the last partial batch up, never down.
    assert!(mvm_ops[1] >= mvm_ops[0]);
    assert!(mvm_ops[2] >= mvm_ops[0]);
    // Within one ceil-batch of slack.
    assert!(mvm_ops[2] - mvm_ops[0] <= mvm_ops[0] / 2);
}

#[test]
fn zero_leakage_fraction_zeroes_static_energy() {
    let mut hw = HardwareConfig::small_test();
    hw.leakage_fraction = 0.0;
    let r = compile_and_run(hw, PipelineMode::HighThroughput);
    assert_eq!(r.energy.leakage_pj, 0.0);
    assert!(r.energy.dynamic_pj() > 0.0);
}

#[test]
fn all_leakage_fraction_zeroes_dynamic_mvm_energy() {
    let mut hw = HardwareConfig::small_test();
    hw.leakage_fraction = 1.0;
    let r = compile_and_run(hw, PipelineMode::HighThroughput);
    assert_eq!(r.energy.mvm_pj, 0.0);
    assert!(r.energy.leakage_pj > 0.0);
}

#[test]
fn single_node_model_on_single_core_island() {
    // The smallest possible pipeline: one FC node; plenty of cores idle.
    let graph = models::tiny_mlp();
    let hw = HardwareConfig::small_test();
    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let compiled = CompileSession::new(
            hw.clone(),
            &graph,
            CompileOptions::new(mode).with_fast_ga(1),
        )
        .and_then(CompileSession::run)
        .unwrap();
        let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
        assert!(r.active_cores >= 1);
        assert!(r.active_cores <= hw.total_cores());
    }
}

#[test]
fn deep_chain_streams_in_ll_mode() {
    // A 12-deep equal-work conv chain: LL streaming should finish far
    // sooner than running the layers back to back.
    let graph = models::linear_chain(12);
    let hw = HardwareConfig::small_test();
    let compiled = CompileSession::new(
        hw.clone(),
        &graph,
        CompileOptions::new(PipelineMode::LowLatency).with_fast_ga(3),
    )
    .and_then(CompileSession::run)
    .unwrap();
    let r = Simulator::new(hw.clone()).run(&compiled).unwrap();
    // Upper bound: fully serial layer-by-layer execution at one window
    // per T_MVM per layer.
    let serial_bound: u64 = 12 * 256 * hw.mvm_latency;
    assert!(
        r.total_cycles < serial_bound,
        "streaming {} should beat serial bound {serial_bound}",
        r.total_cycles
    );
}

#[test]
fn throughput_and_latency_are_consistent() {
    let r = compile_and_run(HardwareConfig::small_test(), PipelineMode::HighThroughput);
    let expect = 1e9 / r.total_cycles as f64; // 1 GHz clock
    assert!((r.throughput_inf_per_s - expect).abs() < 1.0);
}

#[test]
fn sim_report_serializes() {
    let r = compile_and_run(HardwareConfig::small_test(), PipelineMode::LowLatency);
    let json = serde_json::to_string(&r).unwrap();
    assert!(json.contains("\"total_cycles\""));
}
