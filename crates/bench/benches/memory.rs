//! Microbenchmark: the memory planner under all three reuse policies
//! (the Fig. 10 ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{CompileOptions, CompileSession, ReusePolicy};
use pimcomp_ir::transform::normalize;

fn bench_memory(c: &mut Criterion) {
    let graph = normalize(&pimcomp_ir::models::resnet18()).unwrap();
    let hw = HardwareConfig::puma_with_chips(5);
    let mut group = c.benchmark_group("memory");
    group.sample_size(20);

    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let compiled = CompileSession::new(
            hw.clone(),
            &graph,
            CompileOptions::new(mode).with_ga(pimcomp_core::GaParams {
                population: 8,
                iterations: 4,
                ..pimcomp_core::GaParams::fast(1)
            }),
        )
        .and_then(CompileSession::run)
        .unwrap();
        for policy in ReusePolicy::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("resnet18/{mode}"), policy.label()),
                &compiled,
                |b, compiled| {
                    b.iter(|| compiled.replan_memory(std::hint::black_box(policy)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_memory);
criterion_main!(benches);
