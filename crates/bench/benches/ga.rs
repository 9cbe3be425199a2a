//! Microbenchmark: the joint weight-replicating/core-mapping GA (Table
//! II row 2), plus ablations against the PUMA balanced heuristic and a
//! mutation-free random-initialization-only search.

use criterion::{criterion_group, criterion_main, Criterion};
use pimcomp_arch::{HardwareConfig, PipelineMode};
use pimcomp_core::{
    optimize, puma_chromosome, CoreMapping, DepInfo, GaContext, GaParams, Partitioning,
};
use pimcomp_ir::transform::normalize;

fn bench_ga(c: &mut Criterion) {
    let graph = normalize(&pimcomp_ir::models::resnet18()).unwrap();
    let hw = HardwareConfig::puma_with_chips(5);
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);

    let mut group = c.benchmark_group("ga");
    group.sample_size(10);

    for mode in [PipelineMode::HighThroughput, PipelineMode::LowLatency] {
        let ctx = GaContext {
            hw: &hw,
            graph: &graph,
            partitioning: &partitioning,
            dep: &dep,
            mode,
            core_limit: None,
        };
        group.bench_function(format!("resnet18/{mode}/20x30"), |b| {
            b.iter(|| {
                optimize(
                    &ctx,
                    &GaParams {
                        population: 20,
                        iterations: 30,
                        ..GaParams::fast(1)
                    },
                )
                .unwrap()
            });
        });
        // The same search through the parallel evaluation engine
        // (bit-identical result; only wall-clock may differ).
        for threads in [2usize, 4] {
            group.bench_function(format!("resnet18/{mode}/20x30/{threads}-threads"), |b| {
                b.iter(|| {
                    optimize(
                        &ctx,
                        &GaParams {
                            population: 20,
                            iterations: 30,
                            parallelism: std::num::NonZeroUsize::new(threads),
                            ..GaParams::fast(1)
                        },
                    )
                    .unwrap()
                });
            });
        }
        // Ablation: no mutations — random initialization only.
        group.bench_function(format!("resnet18/{mode}/random-init-only"), |b| {
            b.iter(|| {
                optimize(
                    &ctx,
                    &GaParams {
                        population: 20,
                        iterations: 0,
                        ..GaParams::fast(1)
                    },
                )
                .unwrap()
            });
        });
    }
    // Ablation: the PUMA balanced heuristic (no search at all).
    group.bench_function("resnet18/puma-heuristic", |b| {
        b.iter(|| {
            let chromosome = puma_chromosome(&partitioning, &hw, hw.total_cores()).unwrap();
            CoreMapping::from_chromosome(&chromosome, &partitioning).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ga);
criterion_main!(benches);
