//! Operator-plane equivalence: the same `FleetOps` scenario driven
//! through the in-process `LocalOps` backend and through `RemoteOps` →
//! gateway → device agents over real loopback TCP must produce the
//! same results — most importantly, a wire-driven campaign's
//! `CampaignReport` equal wave-for-wave to the in-process one, on good
//! campaigns, halted-and-rolled-back campaigns, and arbitrary
//! proptest-generated staging parameters and tamper patterns — plus one
//! campaign lifecycle, pause and resume included, on all three backends.

use std::sync::Arc;

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{
    benign_patch, bricking_patch, BENIGN_PATCH_TARGET, BRICKING_PATCH_TARGET,
};
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignPhase, CampaignReport, CampaignStatus, Fleet,
    FleetBuilder, FleetOps, HealthClass, LocalOps, OpsError, SweepSummary, Verifier, SHARD_COUNT,
};
use eilid_net::cluster::{with_placed_fleet, ClusterOps};
use eilid_net::{
    with_attached_fleet, AttestationService, Gateway, GatewayConfig, GatewayHandle, RemoteOps,
};
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn build(devices: usize) -> (Fleet, Verifier) {
    FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(devices)
        .threads(2)
        .workloads(&[WorkloadId::LightSensor])
        .build()
        .unwrap()
}

fn spawn_gateway(verifier: &mut Verifier) -> (GatewayHandle, Arc<AttestationService>) {
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let gateway = Gateway::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        GatewayConfig::default(),
    )
    .unwrap();
    (gateway.spawn(), service)
}

/// Flips one firmware byte on `victims` (identically on any fleet built
/// from the same seed), so post-update probes fail deterministically.
fn tamper(fleet: &mut Fleet, victims: &[usize]) {
    for &victim in victims {
        let device = &mut fleet.devices_mut()[victim];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let original = memory.read_byte(0xE010);
        memory.write_byte(0xE010, original ^ 0x01);
    }
}

/// Runs `config` through the wire backend: gateway + device agents over
/// loopback TCP, campaign driven by `RemoteOps`, returning the report
/// and the post-campaign gateway-driven sweep.
fn run_remote(
    fleet: &mut Fleet,
    verifier: &mut Verifier,
    config: &CampaignConfig,
    agents: usize,
) -> (CampaignReport, SweepSummary) {
    let (handle, _service) = spawn_gateway(verifier);
    let addr = handle.addr();
    let result = with_attached_fleet(fleet, agents, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(config)?;
        let sweep = ops.sweep()?;
        Ok::<_, OpsError>((report, sweep))
    })
    .expect("device agents served cleanly");
    handle.shutdown().unwrap();
    result.expect("remote campaign succeeds")
}

/// Runs `config` in-process on an identical fleet, returning the report
/// and the post-campaign sweep through the same trait surface.
fn run_local(
    fleet: &mut Fleet,
    verifier: &mut Verifier,
    config: &CampaignConfig,
) -> (CampaignReport, SweepSummary) {
    let mut ops = LocalOps::new(fleet, verifier);
    let report = ops.run_campaign(config).expect("local campaign succeeds");
    let sweep = ops.sweep().expect("local sweep succeeds");
    (report, sweep)
}

/// The acceptance scenario: a staged canary→full campaign completing
/// over loopback TCP via `RemoteOps`, report equal to the in-process
/// backend's on the same fixture fleet — and the post-campaign sweeps
/// (gateway-driven vs in-process) agree device for device.
#[test]
fn good_campaign_over_tcp_matches_in_process() {
    let config = CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());

    let (mut fleet_a, mut verifier_a) = build(12);
    let (report_a, sweep_a) = run_local(&mut fleet_a, &mut verifier_a, &config);
    assert_eq!(report_a.outcome, CampaignOutcome::Completed { updated: 12 });

    let (mut fleet_b, mut verifier_b) = build(12);
    let (report_b, sweep_b) = run_remote(&mut fleet_b, &mut verifier_b, &config, 3);

    assert_eq!(
        report_b, report_a,
        "wire-driven campaign must report wave-for-wave like the in-process one"
    );
    assert_eq!(sweep_b, sweep_a, "post-campaign sweeps must agree");
    assert_eq!(sweep_b.count(HealthClass::Attested), 12);
}

/// A finished campaign only keeps its report readable: the cohort's
/// next campaign replaces it. Two back-to-back campaigns (version 2,
/// then 3) both complete on one `LocalOps` and on one gateway, with
/// equal reports across the backends.
#[test]
fn back_to_back_campaigns_complete_on_both_backends() {
    let configs: Vec<CampaignConfig> = [2u64, 3]
        .into_iter()
        .map(|version| {
            let mut payload = benign_patch();
            payload[0] ^= version as u8;
            let mut config =
                CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, payload);
            config.version = version;
            config
        })
        .collect();

    let (mut fleet_a, mut verifier_a) = build(8);
    let mut local = LocalOps::new(&mut fleet_a, &mut verifier_a);
    let local_reports: Vec<CampaignReport> = configs
        .iter()
        .map(|config| local.run_campaign(config).expect("local campaign succeeds"))
        .collect();

    let (mut fleet_b, mut verifier_b) = build(8);
    let (handle, _service) = spawn_gateway(&mut verifier_b);
    let addr = handle.addr();
    let remote_reports = with_attached_fleet(&mut fleet_b, 2, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        configs
            .iter()
            .map(|config| ops.run_campaign(config))
            .collect::<Result<Vec<_>, OpsError>>()
    })
    .expect("device agents served cleanly")
    .expect("remote campaigns succeed");
    handle.shutdown().unwrap();

    for report in &local_reports {
        assert_eq!(report.outcome, CampaignOutcome::Completed { updated: 8 });
    }
    assert_eq!(remote_reports, local_reports);
}

/// The halt-and-rollback scenario: a bricking patch caught by the
/// canary wave, campaign halted, every updated device rolled back and
/// verified — equal across backends, and the fleet attests clean
/// against the *old* golden afterwards.
#[test]
fn bad_campaign_over_tcp_halts_and_rolls_back_like_in_process() {
    let config = CampaignConfig::new(
        WorkloadId::LightSensor,
        BRICKING_PATCH_TARGET,
        bricking_patch(),
    );

    let (mut fleet_a, mut verifier_a) = build(10);
    let (report_a, sweep_a) = run_local(&mut fleet_a, &mut verifier_a, &config);
    let CampaignOutcome::HaltedAndRolledBack {
        wave, rolled_back, ..
    } = report_a.outcome
    else {
        panic!("bricking campaign must halt, got {:?}", report_a.outcome);
    };
    assert_eq!(wave, 0, "the canary wave catches the bricking patch");
    assert_eq!(rolled_back, 1, "the single canary device rolls back");

    let (mut fleet_b, mut verifier_b) = build(10);
    let (report_b, sweep_b) = run_remote(&mut fleet_b, &mut verifier_b, &config, 2);

    assert_eq!(
        report_b, report_a,
        "halt-and-rollback must be wave-for-wave identical over the wire"
    );
    assert!(report_b.rollback_incomplete.is_empty());
    assert_eq!(sweep_b, sweep_a);
    assert_eq!(
        sweep_b.count(HealthClass::Attested),
        10,
        "rolled-back fleet attests clean against the retained golden"
    );
}

/// Pre-tampered devices make probes fail in arbitrary patterns; the
/// quarantine/halt decisions must stay identical across backends.
#[test]
fn tampered_cohort_campaign_over_tcp_matches_in_process() {
    // 2 tampered of 14 with threshold 0.25: the canary passes, the full
    // wave sees 2/12 failures (≤ 0.25) → completed with quarantine.
    let mut config =
        CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
    config.smoke_cycles = 200_000;
    let victims = [5usize, 9];

    let (mut fleet_a, mut verifier_a) = build(14);
    tamper(&mut fleet_a, &victims);
    let (report_a, sweep_a) = run_local(&mut fleet_a, &mut verifier_a, &config);
    assert_eq!(report_a.quarantined, vec![5, 9]);

    let (mut fleet_b, mut verifier_b) = build(14);
    tamper(&mut fleet_b, &victims);
    let (report_b, sweep_b) = run_remote(&mut fleet_b, &mut verifier_b, &config, 3);

    assert_eq!(report_b, report_a);
    assert_eq!(sweep_b, sweep_a);
    // The quarantined devices were rolled back to their (tampered)
    // pre-campaign state; after golden promotion they classify Tampered
    // on both backends.
    assert_eq!(sweep_b.count(HealthClass::Tampered), 2);
}

proptest! {
    // TCP + full campaign per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary fleet sizes, staging parameters and tamper
    /// patterns, the wire-driven campaign reports exactly like the
    /// in-process one — wave for wave, quarantine for quarantine.
    #[test]
    fn arbitrary_campaigns_are_backend_equivalent(
        devices in 4usize..10,
        canary in 1u32..=5,            // canary_fraction = canary / 10
        threshold in 0u32..=4,         // failure_threshold = threshold / 4
        tamper_mask in 0u8..=0b1111,   // up to 4 tampered low devices
    ) {
        let mut config = CampaignConfig::new(
            WorkloadId::LightSensor,
            BENIGN_PATCH_TARGET,
            benign_patch(),
        );
        config.canary_fraction = f64::from(canary) / 10.0;
        config.failure_threshold = f64::from(threshold) / 4.0;
        config.smoke_cycles = 100_000;
        let victims: Vec<usize> = (0..devices.min(4))
            .filter(|i| tamper_mask & (1 << i) != 0)
            .collect();

        let (mut fleet_a, mut verifier_a) = build(devices);
        tamper(&mut fleet_a, &victims);
        let (report_a, sweep_a) = run_local(&mut fleet_a, &mut verifier_a, &config);

        let (mut fleet_b, mut verifier_b) = build(devices);
        tamper(&mut fleet_b, &victims);
        let (report_b, sweep_b) = run_remote(&mut fleet_b, &mut verifier_b, &config, 2);

        prop_assert_eq!(report_b, report_a);
        prop_assert_eq!(sweep_b, sweep_a);
    }
}

/// One campaign lifecycle on any backend: begin, step `k` waves, pause,
/// check that the backend then reads `Idle` (the caller holds the
/// campaign), resume from the returned bytes on the same backend and
/// run to the finish. Failures come back as errors rather than panics,
/// so the device agents serving the backend still stop.
fn pause_and_resume(
    ops: &mut dyn FleetOps,
    config: &CampaignConfig,
    k: usize,
) -> Result<CampaignReport, OpsError> {
    ops.campaign_begin(config)?;
    for _ in 0..k {
        ops.campaign_step()?;
    }
    let paused = ops.campaign_pause()?;
    let phase = ops.campaign_status()?;
    if phase != CampaignPhase::Idle {
        return Err(OpsError::Backend(format!(
            "{phase:?} after a pause, expected Idle"
        )));
    }
    ops.campaign_resume(&paused)?;
    while ops.campaign_step()? != CampaignStatus::Finished {}
    ops.campaign_report()
}

proptest! {
    // Three backends over TCP per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The lifecycle pin: pausing after a seeded number of waves and
    /// resuming from the bytes on the same backend reports exactly like
    /// an uninterrupted in-process run, on `LocalOps`, on `RemoteOps`
    /// and on a 2-gateway `ClusterOps`. Four devices per shard make the
    /// canary cut exact on every placement partition, so the cluster's
    /// merged report equals the union run's.
    #[test]
    fn pause_and_resume_on_the_same_backend_matches_an_uninterrupted_run(
        k in 0usize..=1,              // waves stepped before the pause
        canary in 1u32..=3,           // canary_fraction = canary / 4
    ) {
        let devices = 4 * SHARD_COUNT;
        let mut config =
            CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch());
        config.canary_fraction = f64::from(canary) / 4.0;
        config.smoke_cycles = 100_000;

        let (mut fleet, mut verifier) = build(devices);
        let reference = LocalOps::new(&mut fleet, &mut verifier)
            .run_campaign(&config)
            .expect("uninterrupted local campaign");
        prop_assert_eq!(
            &reference.outcome,
            &CampaignOutcome::Completed { updated: devices }
        );

        let (mut fleet, mut verifier) = build(devices);
        let local = pause_and_resume(&mut LocalOps::new(&mut fleet, &mut verifier), &config, k);

        let (mut fleet, mut verifier) = build(devices);
        let (handle, _service) = spawn_gateway(&mut verifier);
        let addr = handle.addr();
        let remote = with_attached_fleet(&mut fleet, 2, addr, || {
            let mut ops =
                RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
            pause_and_resume(&mut ops, &config, k)
        })
        .expect("device agents served cleanly");
        handle.shutdown().unwrap();

        let (mut fleet, mut verifier) = build(devices);
        let gateways: Vec<GatewayHandle> =
            (0..2).map(|_| spawn_gateway(&mut verifier).0).collect();
        let addrs: Vec<_> = gateways.iter().map(GatewayHandle::addr).collect();
        let cluster = with_placed_fleet(&mut fleet, &addrs, 2, || {
            let mut ops =
                ClusterOps::connect(&addrs).map_err(|e| OpsError::Backend(e.to_string()))?;
            pause_and_resume(&mut ops, &config, k)
        })
        .expect("placed agents served cleanly");
        for handle in gateways {
            handle.shutdown().unwrap();
        }

        prop_assert_eq!(local.expect("LocalOps lifecycle"), reference.clone());
        prop_assert_eq!(remote.expect("RemoteOps lifecycle"), reference.clone());
        prop_assert_eq!(cluster.expect("ClusterOps lifecycle"), reference);
    }
}
