//! Collective-attestation smoke: aggregated sweeps over real loopback
//! TCP, all-clean and ~1%-tampered — what `make agg-smoke` runs.
//!
//! Covers the adversarial floor for the aggregation layer end to end:
//! a tampered device must surface in the suspect list (it can never
//! hide inside a clean aggregate), an all-clean fleet must verify on
//! aggregate roots alone (every verdict short-circuited, at most
//! `SHARD_COUNT` aggregate MACs at the operator), and the gateway's
//! telemetry counters must agree with the operator-side accounting.

use std::sync::Arc;

use eilid_casu::DeviceKey;
use eilid_fleet::{Fleet, FleetBuilder, FleetOps, HealthClass, OpsError, Verifier, SHARD_COUNT};
use eilid_net::{
    with_attached_fleet, AttestationService, Gateway, GatewayConfig, GatewayHandle, RemoteOps,
};

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn build(devices: usize, threads: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(threads)
        .build()
        .unwrap()
}

fn spawn_gateway(verifier: &mut Verifier) -> (GatewayHandle, Arc<AttestationService>) {
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 32)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap();
    (gateway.spawn(), service)
}

fn tamper(fleet: &mut Fleet, ids: &[u64]) {
    for &id in ids {
        let device = &mut fleet.devices_mut()[id as usize];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }
}

/// All-clean aggregated sweep over loopback TCP: every verdict comes
/// from a shard aggregate root, no suspect descent at all.
#[test]
fn all_clean_aggregated_sweep_over_tcp() {
    const DEVICES: usize = 48;
    let (mut fleet, mut verifier) = build(DEVICES, 2);
    let (handle, _service) = spawn_gateway(&mut verifier);
    let addr = handle.addr();

    let (agg, metrics) = with_attached_fleet(&mut fleet, 3, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(ROOT);
        let agg = ops.sweep_aggregated()?;
        let metrics = ops.metrics()?;
        Ok::<_, OpsError>((agg, metrics))
    })
    .expect("device agents served cleanly")
    .expect("aggregated sweep succeeds");
    handle.shutdown().unwrap();

    assert_eq!(agg.summary.devices, DEVICES);
    assert_eq!(agg.summary.count(HealthClass::Attested), DEVICES);
    assert!(agg.summary.flagged.is_empty(), "clean fleet, no suspects");
    assert!(agg.roots_verified <= SHARD_COUNT);
    assert_eq!(agg.roots_verified, agg.shards);
    assert_eq!(
        agg.short_circuited, DEVICES,
        "every all-clean verdict must come from an aggregate root"
    );
    assert_ne!(agg.fleet_root, [0u8; 32]);

    // The gateway's counters agree with the operator-side accounting.
    assert_eq!(metrics.counters["eilid_ops_agg_sweeps_total"], 1);
    assert_eq!(
        metrics.counters["eilid_ops_agg_roots_published_total"],
        agg.shards as u64
    );
    assert_eq!(metrics.counters["eilid_ops_agg_suspects_total"], 0);
    assert_eq!(
        metrics.counters["eilid_ops_agg_short_circuited_total"],
        DEVICES as u64
    );
    // The engine timed the sweep and its verify tail.
    for name in ["eilid_ops_sweep_us", "eilid_ops_sweep_verify_tail_us"] {
        assert_eq!(metrics.histograms[name].count, 1, "{name}");
    }
}

/// ~1%-tampered aggregated sweep: every tampered device surfaces in
/// the suspect list — the aggregate cannot hide it — while untouched
/// shards still short-circuit.
#[test]
fn one_percent_tampered_aggregated_sweep_over_tcp() {
    const DEVICES: usize = 96;
    let tampered: Vec<u64> = vec![17];
    let (mut fleet, mut verifier) = build(DEVICES, 2);
    tamper(&mut fleet, &tampered);
    let (handle, _service) = spawn_gateway(&mut verifier);
    let addr = handle.addr();

    let agg = with_attached_fleet(&mut fleet, 3, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(ROOT);
        ops.sweep_aggregated()
    })
    .expect("device agents served cleanly")
    .expect("aggregated sweep succeeds");
    handle.shutdown().unwrap();

    assert_eq!(agg.summary.devices, DEVICES);
    assert_eq!(
        agg.summary.count(HealthClass::Tampered),
        tampered.len(),
        "every tampered device must be classified tampered"
    );
    assert_eq!(
        agg.summary.count(HealthClass::Attested),
        DEVICES - tampered.len()
    );
    let flagged: Vec<u64> = agg.summary.flagged.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        flagged, tampered,
        "suspect list is exactly the tampered set"
    );
    assert!(agg.roots_verified <= SHARD_COUNT);

    // Only the tampered device's shard loses its short-circuit; every
    // other shard's devices still verify on the aggregate alone.
    let dirty_shard = (tampered[0] % SHARD_COUNT as u64) as u16;
    let dirty_members = (0..DEVICES as u64)
        .filter(|id| (id % SHARD_COUNT as u64) as u16 == dirty_shard)
        .count();
    assert_eq!(agg.short_circuited, DEVICES - dirty_members);
}

/// The acceptance-scale run: a 1 000-device all-clean aggregated sweep
/// over loopback TCP verifies at most `SHARD_COUNT` aggregate roots at
/// the operator — counter-asserted on both sides of the wire.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode scale test; run with `cargo test --release -p eilid_net --test agg_smoke`"
)]
fn thousand_device_aggregated_sweep_verifies_shard_count_roots() {
    const DEVICES: usize = 1_000;
    let (mut fleet, mut verifier) = build(DEVICES, 8);
    let (handle, _service) = spawn_gateway(&mut verifier);
    let addr = handle.addr();

    let (agg, metrics) = with_attached_fleet(&mut fleet, 8, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.set_agg_root_key(ROOT);
        let agg = ops.sweep_aggregated()?;
        let metrics = ops.metrics()?;
        Ok::<_, OpsError>((agg, metrics))
    })
    .expect("device agents served cleanly")
    .expect("aggregated sweep succeeds");
    handle.shutdown().unwrap();

    assert_eq!(agg.summary.devices, DEVICES);
    assert_eq!(agg.summary.count(HealthClass::Attested), DEVICES);
    assert!(
        agg.roots_verified <= SHARD_COUNT,
        "operator verified {} aggregate roots for {} devices (cap {})",
        agg.roots_verified,
        DEVICES,
        SHARD_COUNT
    );
    assert_eq!(agg.short_circuited, DEVICES);
    assert_eq!(
        metrics.counters["eilid_ops_agg_roots_published_total"], agg.roots_verified as u64,
        "gateway published exactly the roots the operator verified"
    );
}
