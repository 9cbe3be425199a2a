//! Microbenchmark: the cycle-accurate simulator in both modes, with a
//! parallelism-degree sensitivity sweep (the Fig. 8 x-axis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, CompileSession};
use pimcomp_sim::Simulator;

fn bench_sim(c: &mut Criterion) {
    let graph = pimcomp_ir::models::tiny_cnn();
    let mut group = c.benchmark_group("sim");

    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        for par in [1usize, 8, 64] {
            let hw = HardwareConfig::small_test().with_parallelism(par);
            let compiled = CompileSession::new(
                hw.clone(),
                &graph,
                CompileOptions::new(mode).with_fast_ga(1),
            )
            .and_then(CompileSession::run)
            .unwrap();
            let sim = Simulator::new(hw);
            group.bench_with_input(
                BenchmarkId::new(format!("tiny_cnn/{mode}"), par),
                &compiled,
                |b, compiled| {
                    b.iter(|| sim.run(std::hint::black_box(compiled)).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
