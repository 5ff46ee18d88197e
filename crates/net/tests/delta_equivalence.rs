//! Delta-vs-full campaign equivalence: shipping a wave as sparse
//! granule segments against the cohort golden must be *observably
//! identical* to shipping the full image — bit-for-bit equal
//! `CampaignReport`s, byte-equal final device memories, equal engine
//! state — on both operator-plane backends. The wire is allowed to
//! carry fewer bytes; it is not allowed to mean anything different.

use std::sync::Arc;
use std::time::Duration;

use eilid_casu::DeviceKey;
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignReport, Fleet, FleetBuilder, FleetOps, LocalOps,
    OpsError, Verifier,
};
use eilid_net::{with_attached_fleet, AttestationService, Gateway, GatewayConfig, RemoteOps};
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const COHORT: WorkloadId = WorkloadId::LightSensor;
/// PMEM span the sparse fixture patches: the whole image up to the
/// trampoline region.
const PATCH_TARGET: u16 = 0xE000;
const PATCH_END: u16 = 0xF700;
/// Offset of the unused PMEM gap (0xF600) inside the patch payload —
/// dirt lands here so the running application is never altered.
const GAP_OFFSET: usize = 0xF600 - PATCH_TARGET as usize;

fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[COHORT])
        .build()
        .unwrap()
}

/// A "1%-dirty" full-image payload: the device's current (golden)
/// bytes over `[PATCH_TARGET, PATCH_END)` with `dirt` written into the
/// unused gap — most granules byte-equal the cohort golden, so a delta
/// encoding ships a tiny fraction of the image.
fn sparse_payload(fleet: &Fleet, dirt: &[(usize, u8)]) -> Vec<u8> {
    let mut payload: Vec<u8> = fleet.devices()[0]
        .device()
        .cpu()
        .memory
        .slice(usize::from(PATCH_TARGET)..usize::from(PATCH_END))
        .to_vec();
    for &(offset, value) in dirt {
        payload[GAP_OFFSET + (offset % 0x100)] = value;
    }
    payload
}

fn config(payload: Vec<u8>, version: u64, delta: bool) -> CampaignConfig {
    let mut config = CampaignConfig::new(COHORT, PATCH_TARGET, payload);
    config.smoke_cycles = 200_000;
    config.version = version;
    config.delta = delta;
    config
}

/// One device's full PMEM image plus its update-engine counters
/// (last nonce, last version, updates applied) — the state two
/// equivalent campaigns must agree on byte-for-byte.
type DeviceState = (Vec<u8>, u64, u64, u64);

fn fleet_state(fleet: &Fleet) -> Vec<DeviceState> {
    fleet
        .devices()
        .iter()
        .map(|device| {
            (
                device.device().cpu().memory.slice(0xE000..0xF800).to_vec(),
                device.engine().last_nonce(),
                device.engine().last_version(),
                device.engine().updates_applied(),
            )
        })
        .collect()
}

fn run_local(config: &CampaignConfig) -> (CampaignReport, Vec<DeviceState>) {
    let (mut fleet, mut verifier) = build(8);
    let report = LocalOps::new(&mut fleet, &mut verifier)
        .run_campaign(config)
        .unwrap();
    (report, fleet_state(&fleet))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // For arbitrary sparse dirt and versions, the delta and full-image
    // paths produce bit-for-bit equal reports and identical devices.
    #[test]
    fn delta_and_full_campaigns_are_equivalent(
        dirt in proptest::collection::vec((0usize..0x100, any::<u8>()), 1..12),
        version in 0u64..4,
    ) {
        let (fleet, _) = build(8);
        let payload = sparse_payload(&fleet, &dirt);
        drop(fleet);

        let (delta_report, delta_state) = run_local(&config(payload.clone(), version, true));
        let (full_report, full_state) = run_local(&config(payload, version, false));
        prop_assert_eq!(&delta_report, &full_report);
        prop_assert_eq!(delta_state, full_state);
        prop_assert_eq!(delta_report.outcome, CampaignOutcome::Completed { updated: 8 });
    }
}

/// The wire backend agrees with the in-process backend on the same
/// sparse campaign — and ships ≤ 10% of the full-image bytes while
/// memoizing every non-reference probe.
#[test]
fn remote_delta_campaign_matches_local_and_ships_sparse_bytes() {
    let dirt = [(0x00, 0xE1), (0x01, 0x1D), (0x40, 0x20), (0x41, 0x26)];
    let (fleet, _) = build(8);
    let payload = sparse_payload(&fleet, &dirt);
    drop(fleet);
    let config = config(payload, 1, true);

    let (local_report, local_state) = run_local(&config);
    assert_eq!(
        local_report.outcome,
        CampaignOutcome::Completed { updated: 8 }
    );

    let (mut fleet, mut verifier) = build(8);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        service,
        GatewayConfig {
            ops_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let (remote_report, metrics) = with_attached_fleet(&mut fleet, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&config)?;
        let metrics = ops.metrics()?;
        Ok::<_, OpsError>((report, metrics))
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(
        remote_report, local_report,
        "delta campaigns must report identically across backends"
    );
    assert_eq!(
        fleet_state(&fleet),
        local_state,
        "delta campaigns must leave identical devices across backends"
    );

    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let full = counter("eilid_ops_update_bytes_full_total");
    let wire = counter("eilid_ops_update_bytes_wire_total");
    assert!(full > 0);
    assert!(
        (wire as f64) <= 0.10 * full as f64,
        "a ~1%-dirty delta campaign must ship ≤ 10% of the image: {wire} of {full} bytes"
    );
    // One reference probe per wave (canary + full); everyone else
    // inherits the memoized verdict.
    assert_eq!(counter("eilid_ops_probes_executed_total"), 2);
    assert_eq!(counter("eilid_ops_probes_memoized_total"), 6);
}

/// A device whose delta base was tampered with cannot apply the delta
/// (the assembled image fails its MAC); the engine falls back to the
/// full image under the same nonce, which *repairs* the device — and
/// both backends report the recovery identically.
#[test]
fn tampered_base_falls_back_to_full_image_identically_on_both_backends() {
    let dirt = [(0x10, 0xAB)];
    let (fleet, _) = build(8);
    let payload = sparse_payload(&fleet, &dirt);
    drop(fleet);
    let config = config(payload, 1, true);
    let tamper = |fleet: &mut Fleet| {
        // Flip a byte the delta does not re-ship (application region,
        // granule far from the dirt) on one non-canary device.
        let device = &mut fleet.devices_mut()[5];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let value = memory.read_byte(0xE200);
        memory.write_byte(0xE200, value ^ 0xFF);
    };

    let (mut fleet_a, mut verifier_a) = build(8);
    tamper(&mut fleet_a);
    let local_report = LocalOps::new(&mut fleet_a, &mut verifier_a)
        .run_campaign(&config)
        .unwrap();
    assert_eq!(
        local_report.outcome,
        CampaignOutcome::Completed { updated: 8 },
        "the full-image fallback must repair the tampered base"
    );

    let (mut fleet_b, mut verifier_b) = build(8);
    tamper(&mut fleet_b);
    let service = Arc::new(AttestationService::new(
        verifier_b.service_snapshot(1 << 20),
    ));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        service,
        GatewayConfig {
            ops_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let remote_report = with_attached_fleet(&mut fleet_b, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        ops.run_campaign(&config)
    })
    .unwrap()
    .unwrap();
    handle.shutdown().unwrap();

    assert_eq!(
        remote_report, local_report,
        "the delta→full fallback must be invisible in the report"
    );
    assert_eq!(
        fleet_state(&fleet_b),
        fleet_state(&fleet_a),
        "both backends must leave the repaired fleet byte-identical"
    );
}
