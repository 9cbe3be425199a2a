//! Microbenchmark: the dataflow-scheduling stage (Table II row 3) in
//! both pipeline modes, plus the dependency analysis it rests on.

use criterion::{criterion_group, criterion_main, Criterion};
use pimcomp_arch::HardwareConfig;
use pimcomp_core::{puma_chromosome, CoreMapping, DepInfo, HtSchedule, LlSchedule, Partitioning};
use pimcomp_ir::transform::normalize;

fn bench_schedule(c: &mut Criterion) {
    let graph = normalize(&pimcomp_ir::models::resnet18()).unwrap();
    let hw = HardwareConfig::puma_with_chips(5);
    let partitioning = Partitioning::new(&graph, &hw).unwrap();
    let dep = DepInfo::analyze(&graph);
    let chromosome = puma_chromosome(&partitioning, &hw, hw.total_cores()).unwrap();
    let mapping = CoreMapping::from_chromosome(&chromosome, &partitioning).unwrap();

    let mut group = c.benchmark_group("schedule");
    group.bench_function("resnet18/ht", |b| {
        b.iter(|| HtSchedule::build(&graph, &partitioning, &mapping, &dep, &hw, 2));
    });
    group.bench_function("resnet18/ll", |b| {
        b.iter(|| LlSchedule::build(&graph, &partitioning, &mapping, &dep, &hw));
    });
    group.bench_function("resnet18/dep-analysis", |b| {
        b.iter(|| DepInfo::analyze(std::hint::black_box(&graph)));
    });
    group.finish();
}

criterion_group!(benches, bench_schedule);
criterion_main!(benches);
