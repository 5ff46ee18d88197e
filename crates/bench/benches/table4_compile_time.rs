//! Criterion bench for Table IV's compile-time column: single-iteration
//! baseline build vs. the three-iteration EILID pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eilid::{EilidConfig, InstrumentedBuild, Runtime};
use eilid_casu::MemoryLayout;
use eilid_workloads::WorkloadId;

fn bench_compile(c: &mut Criterion) {
    let runtime = Runtime::build(&EilidConfig::default(), &MemoryLayout::default()).unwrap();
    let pipeline = InstrumentedBuild::new(EilidConfig::default());

    let mut group = c.benchmark_group("table4_compile_time");
    group.sample_size(20);
    for id in WorkloadId::ALL {
        let source = id.workload().source;
        group.bench_with_input(
            BenchmarkId::new("original", id.name()),
            &source,
            |b, src| b.iter(|| eilid_asm::assemble(src).unwrap().code_size()),
        );
        group.bench_with_input(BenchmarkId::new("eilid", id.name()), &source, |b, src| {
            b.iter(|| {
                pipeline
                    .run(src, &runtime)
                    .unwrap()
                    .metrics
                    .instrumented_binary_bytes
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
