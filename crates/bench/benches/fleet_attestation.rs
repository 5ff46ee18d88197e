//! Criterion bench for fleet-scale batched attestation: one full sweep
//! over fleets of increasing size, single- and multi-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eilid_casu::DeviceKey;
use eilid_fleet::{FleetBuilder, HealthClass};

fn bench_fleet_attestation(c: &mut Criterion) {
    let root = DeviceKey::new(b"bench-fleet-root-key-0123456789").unwrap();

    let mut group = c.benchmark_group("fleet_attestation");
    group.sample_size(10);
    for &devices in &[64usize, 256] {
        for &threads in &[1usize, 4] {
            let (mut fleet, mut verifier) = FleetBuilder::new(root.clone())
                .devices(devices)
                .threads(threads)
                .build()
                .unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("sweep/{threads}t"), devices),
                &devices,
                |b, &n| {
                    b.iter(|| {
                        let summary = verifier.sweep(&mut fleet);
                        assert_eq!(summary.count(HealthClass::Attested), n);
                        summary
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_attestation);
criterion_main!(benches);
