//! Microbenchmark: the whole pipeline (compile + simulate) for both
//! compilers, the headline comparison of Fig. 8 in micro form.

use criterion::{criterion_group, criterion_main, Criterion};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, CompileSession, PumaCompiler};
use pimcomp_sim::Simulator;

fn bench_end2end(c: &mut Criterion) {
    let graph = pimcomp_ir::models::tiny_cnn();
    let hw = HardwareConfig::small_test();
    let mut group = c.benchmark_group("end2end");
    group.sample_size(10);

    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let opts = CompileOptions::new(mode).with_fast_ga(1);
        group.bench_function(format!("tiny_cnn/{mode}/pimcomp"), |b| {
            b.iter(|| {
                let compiled =
                    CompileSession::new(hw.clone(), std::hint::black_box(&graph), opts.clone())
                        .and_then(CompileSession::run)
                        .unwrap();
                Simulator::new(hw.clone()).run(&compiled).unwrap()
            });
        });
        group.bench_function(format!("tiny_cnn/{mode}/puma-like"), |b| {
            b.iter(|| {
                let compiled = PumaCompiler::new(hw.clone())
                    .compile(std::hint::black_box(&graph), &opts)
                    .unwrap();
                Simulator::new(hw.clone()).run(&compiled).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end2end);
criterion_main!(benches);
