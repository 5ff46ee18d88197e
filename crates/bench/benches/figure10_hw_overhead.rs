//! Criterion bench for Figure 10: evaluating the hardware-cost model and the
//! per-step cost of the hardware monitor itself (the component whose FPGA
//! cost Figure 10 reports).

use criterion::{criterion_group, criterion_main, Criterion};
use eilid::DeviceBuilder;
use eilid_hwcost::{eilid_monitor_cost, figure10};
use eilid_workloads::WorkloadId;

fn bench_hw(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure10_hw_overhead");
    group.sample_size(20);
    group.bench_function("cost_model", |b| {
        b.iter(|| {
            let cost = eilid_monitor_cost();
            (cost.luts, cost.registers, figure10().len())
        })
    });
    // Per-step monitor cost: simulate the same workload with and without the
    // monitor attached (monitored vs. baseline device on identical code).
    let source = WorkloadId::LightSensor.workload().source;
    group.bench_function("simulation_without_monitor", |b| {
        b.iter(|| {
            let mut device = DeviceBuilder::new().build_baseline(&source).unwrap();
            device.run_for(20_000_000).cycles()
        })
    });
    group.bench_function("simulation_with_monitor", |b| {
        b.iter(|| {
            let mut device = DeviceBuilder::new().build_monitored_raw(&source).unwrap();
            device.run_for(20_000_000).cycles()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hw);
criterion_main!(benches);
